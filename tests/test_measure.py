"""Positive-operator measures: additivity, normalization, conditioning."""

from __future__ import annotations

import math

import numpy as np
import pytest

from helpers import projective_algebra, random_algebra, random_density
import traceprob.measure
from traceprob import (
    DensityMatrix,
    DimensionMismatchError,
    NonFiniteError,
    NotRealError,
    NotSubsetError,
    NumericalIntegrityError,
    PerceptionAlgebra,
    PovOperator,
    Projector,
    RealityMode,
    SpecParseError,
    UnknownLabelError,
    ValidationError,
    ZeroConditionMeasureError,
    ZeroTotalMeasureError,
    algebra_from_obj,
    algebra_to_obj,
    conditional_prob,
    max_abs,
    measure_of,
    normalized_prob,
    total_measure,
    trace,
    trace_prob,
    union_operator,
)

RHO_37 = DensityMatrix(np.diag([0.3, 0.7]))


def _two_atom_algebra(scale=1.0):
    return PerceptionAlgebra.from_matrices(
        [("a", scale * np.diag([1.0, 0.0])), ("b", scale * np.diag([0.0, 1.0]))]
    )


# --- construction ---


def test_pov_operator_not_required_idempotent():
    op = PovOperator(2.0 * np.eye(2))  # neither idempotent nor bounded by I
    assert op.dim == 2


def test_pov_operator_rejects_non_positive():
    with pytest.raises(ValidationError):
        PovOperator(np.diag([1.0, -0.5]))
    with pytest.raises(ValidationError):
        PovOperator(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_pov_operator_real_mode():
    PovOperator(np.eye(2), mode=RealityMode.REAL)
    with pytest.raises(NotRealError):
        PovOperator(np.array([[2.0, 1j], [-1j, 2.0]]), mode=RealityMode.REAL)


def test_algebra_validation():
    with pytest.raises(ValidationError):
        PerceptionAlgebra([])
    with pytest.raises(ValidationError):
        PerceptionAlgebra.from_matrices([("a", np.eye(2)), ("a", np.eye(2))])
    with pytest.raises(DimensionMismatchError):
        PerceptionAlgebra.from_matrices([("a", np.eye(2)), ("b", np.eye(3))])
    alg = _two_atom_algebra()
    assert alg.labels == ("a", "b")
    with pytest.raises(UnknownLabelError):
        alg.atom("c")


# --- union operator ---


def test_union_operator_empty_set_is_zero():
    alg = _two_atom_algebra()
    np.testing.assert_array_equal(union_operator(alg, set()).mat, np.zeros((2, 2), dtype=complex))


def test_union_operator_singleton():
    alg = _two_atom_algebra()
    np.testing.assert_array_equal(union_operator(alg, {"a"}).mat, np.diag([1.0, 0.0]).astype(complex))


def test_union_operator_disjoint_sum():
    rng = np.random.default_rng(61)
    for _ in range(10):
        alg = random_algebra(rng, 4, 4)
        lhs = union_operator(alg, {"a0", "a2"}).mat
        rhs = alg.atom("a0").mat + alg.atom("a2").mat
        np.testing.assert_array_equal(lhs, rhs)


def test_union_operator_unknown_label():
    with pytest.raises(UnknownLabelError):
        union_operator(_two_atom_algebra(), {"nope"})


# --- measures ---


def test_measure_of_projective_atom():
    assert abs(measure_of(_two_atom_algebra(), {"a"}, RHO_37) - 0.3) <= 1e-15


def test_measure_of_can_exceed_one():
    alg = PerceptionAlgebra.from_matrices([("big", 2.0 * np.eye(2))])
    rng = np.random.default_rng(62)
    assert abs(measure_of(alg, {"big"}, random_density(rng, 2)) - 2.0) <= 1e-12


def test_measure_additivity_random_sweep():
    rng = np.random.default_rng(63)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        alg = random_algebra(rng, n, m)
        rho = random_density(rng, n)
        assignment = rng.integers(0, 3, size=m)  # 0: left, 1: right, 2: unused
        left = {f"a{i}" for i in range(m) if assignment[i] == 0}
        right = {f"a{i}" for i in range(m) if assignment[i] == 1}
        union = measure_of(alg, left | right, rho)
        split = measure_of(alg, left, rho) + measure_of(alg, right, rho)
        assert abs(union - split) <= 1e-12


def test_measure_alternating_states_never_reads_a_stale_vector():
    rng = np.random.default_rng(68)
    alg = random_algebra(rng, 4, 5)
    rho_a, rho_b = random_density(rng, 4), random_density(rng, 4)
    s = {"a0", "a3"}

    def fresh():
        """A separate algebra with the same atoms, so its memo starts empty."""
        return PerceptionAlgebra([(label, alg.atom(label)) for label in alg.labels])

    want_a, want_b = measure_of(fresh(), s, rho_a), measure_of(fresh(), s, rho_b)
    assert want_a != want_b
    for rho, want in ((rho_a, want_a), (rho_b, want_b), (rho_a, want_a)):
        assert measure_of(alg, s, rho) == want
        assert abs(want - trace(union_operator(alg, s).mat @ rho.mat).real) <= 1e-12


def test_measure_of_disjoint_union_is_exact_sum_of_singletons():
    rng = np.random.default_rng(69)
    for _ in range(10):
        alg = random_algebra(rng, 6, 8)
        rho = random_density(rng, 6)
        order = rng.permutation(alg.labels)
        s, t = set(order[:3]), set(order[3:6])
        singletons = [measure_of(alg, {label}, rho) for label in s | t]
        assert measure_of(alg, s | t, rho) == math.fsum(singletons)


def test_expectations_match_literal_traces():
    rng = np.random.default_rng(72)
    alg = random_algebra(rng, 32, 256)
    rho = random_density(rng, 32)
    e, total = alg._expectations(rho)
    assert list(e) == list(alg.labels)
    for label in alg.labels:
        assert abs(e[label] - np.trace(alg.atom(label).mat @ rho.mat).real) <= 1e-12
    assert total == math.fsum(e.values())


def test_measure_queries_build_no_pov_operator(monkeypatch):
    rng = np.random.default_rng(70)
    alg = random_algebra(rng, 5, 6)
    rho = random_density(rng, 5)
    built = []
    original = traceprob.measure.PovOperator.__init__

    def counting_init(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(traceprob.measure.PovOperator, "__init__", counting_init)
    for _ in range(3):
        measure_of(alg, {"a0", "a2"}, rho)
        total_measure(alg, rho)
        normalized_prob(alg, {"a1"}, rho)
        conditional_prob(alg, {"a1"}, {"a1", "a4"}, rho)
    assert built == []


def test_measure_overflow_is_non_finite_error():
    # Each atom's expectation is finite; their sum is not.
    alg = PerceptionAlgebra.from_matrices([("x", 1e308 * np.eye(2)), ("y", 1e308 * np.eye(2))])
    rho = DensityMatrix(np.diag([0.5, 0.5]))
    assert measure_of(alg, {"x"}, rho) == 1e308
    with pytest.raises(NonFiniteError):
        total_measure(alg, rho)
    with pytest.raises(NonFiniteError):
        measure_of(alg, {"x", "y"}, rho)


def test_measure_of_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        measure_of(_two_atom_algebra(), {"a"}, DensityMatrix(np.diag([0.2, 0.3, 0.5])))


def test_total_measure_projective_resolution_is_one():
    rng = np.random.default_rng(64)
    alg = projective_algebra(rng, 5, 3)
    assert abs(total_measure(alg, random_density(rng, 5)) - 1.0) <= 1e-12


def test_total_measure_overcomplete_atoms():
    alg = PerceptionAlgebra.from_matrices([("x", np.eye(2)), ("y", np.eye(2))])
    rng = np.random.default_rng(65)
    assert abs(total_measure(alg, random_density(rng, 2)) - 2.0) <= 1e-12


def test_total_measure_is_sum_of_atoms():
    rng = np.random.default_rng(66)
    for _ in range(10):
        alg = random_algebra(rng, 5, 4)
        rho = random_density(rng, 5)
        atom_sum = sum(measure_of(alg, {label}, rho) for label in alg.labels)
        assert abs(total_measure(alg, rho) - atom_sum) <= 1e-12


def test_measure_monotonicity():
    rng = np.random.default_rng(67)
    for _ in range(15):
        alg = random_algebra(rng, 4, 5)
        rho = random_density(rng, 4)
        small = {"a0", "a2"}
        large = {"a0", "a1", "a2"}
        assert measure_of(alg, small, rho) <= measure_of(alg, large, rho) + 1e-10


# --- normalization ---


def test_normalized_prob_full_set_is_one():
    rng = np.random.default_rng(68)
    alg = random_algebra(rng, 4, 3)
    assert normalized_prob(alg, alg.labels, random_density(rng, 4)) == 1.0


def test_normalized_prob_scale_cancels():
    alg = _two_atom_algebra(scale=2.0)
    assert abs(normalized_prob(alg, {"a"}, RHO_37) - 0.3) <= 1e-12


def test_normalized_prob_matches_ratio():
    rng = np.random.default_rng(69)
    for _ in range(15):
        alg = random_algebra(rng, 5, 4)
        rho = random_density(rng, 5)
        ratio = measure_of(alg, {"a1"}, rho) / total_measure(alg, rho)
        assert abs(normalized_prob(alg, {"a1"}, rho) - ratio) <= 1e-12


def test_normalized_prob_zero_total_measure():
    alg = PerceptionAlgebra.from_matrices([("null", np.zeros((2, 2)))])
    with pytest.raises(ZeroTotalMeasureError):
        normalized_prob(alg, {"null"}, RHO_37)


def test_projective_reduction_matches_trace_prob():
    # When atoms resolve the identity projectively, normalized probabilities
    # are ordinary trace-rule probabilities.
    rng = np.random.default_rng(70)
    for _ in range(10):
        n = int(rng.integers(2, 9))
        k = int(rng.integers(1, n + 1))
        alg = projective_algebra(rng, n, k)
        rho = random_density(rng, n)
        subset = {f"a{i}" for i in range(k) if rng.random() < 0.5}
        p = Projector(union_operator(alg, subset).mat)
        assert abs(normalized_prob(alg, subset, rho) - trace_prob(p, rho)) <= 1e-12


# --- conditioning ---


def test_conditional_prob_self_is_one():
    rng = np.random.default_rng(71)
    alg = random_algebra(rng, 3, 3)
    rho = random_density(rng, 3)
    assert conditional_prob(alg, {"a0", "a1"}, {"a0", "a1"}, rho) == 1.0


def test_conditional_on_everything_is_normalized_prob():
    rng = np.random.default_rng(72)
    for _ in range(10):
        alg = random_algebra(rng, 4, 4)
        rho = random_density(rng, 4)
        lhs = conditional_prob(alg, {"a1", "a3"}, alg.labels, rho)
        rhs = normalized_prob(alg, {"a1", "a3"}, rho)
        assert abs(lhs - rhs) <= 1e-12


def test_conditional_chain_rule():
    rng = np.random.default_rng(73)
    for _ in range(20):
        n = int(rng.integers(2, 9))
        m = int(rng.integers(2, 7))
        alg = random_algebra(rng, n, m)
        rho = random_density(rng, n)
        m_sub = {f"a{i}" for i in range(m) if rng.random() < 0.7} or {"a0"}
        s_sub = {label for label in m_sub if rng.random() < 0.5}
        chained = conditional_prob(alg, s_sub, m_sub, rho) * normalized_prob(alg, m_sub, rho)
        assert abs(normalized_prob(alg, s_sub, rho) - chained) <= 1e-10


def test_conditional_prob_is_bounded():
    # Both atoms are PSD within tol, so the ratio of measures can leave [0, 1].
    rho = DensityMatrix(np.diag([1.0, 0.0]))
    alg = PerceptionAlgebra.from_matrices([("a", np.diag([1e-9, 0.0])), ("b", np.diag([-5e-11, 0.0]))])
    with pytest.raises(NumericalIntegrityError) as info:
        conditional_prob(alg, {"a"}, {"a", "b"}, rho)
    assert str(info.value).startswith("conditional probability 1.05")
    dust = PerceptionAlgebra.from_matrices([("a", np.diag([1.0, 0.0])), ("b", np.diag([-5e-11, 0.0]))])
    assert measure_of(dust, {"a"}, rho) / measure_of(dust, {"a", "b"}, rho) > 1.0
    assert conditional_prob(dust, {"a"}, {"a", "b"}, rho) == 1.0


def test_perception_algebra_is_sealed():
    alg = _two_atom_algebra()
    for name in ("_atoms", "_memo", "labels", "other"):
        with pytest.raises(AttributeError) as info:
            setattr(alg, name, None)
        assert str(info.value) == "PerceptionAlgebra is immutable"
        with pytest.raises(AttributeError) as info:
            delattr(alg, name)
        assert str(info.value) == "PerceptionAlgebra is immutable"


def test_conditional_prob_requires_subset():
    alg = _two_atom_algebra()
    with pytest.raises(NotSubsetError):
        conditional_prob(alg, {"a", "b"}, {"a"}, RHO_37)


def test_conditional_prob_zero_condition():
    alg = PerceptionAlgebra.from_matrices([("null", np.zeros((2, 2))), ("full", np.eye(2))])
    with pytest.raises(ZeroConditionMeasureError):
        conditional_prob(alg, {"null"}, {"null"}, RHO_37)


# --- serialization ---


def test_algebra_json_round_trip():
    rng = np.random.default_rng(74)
    alg = random_algebra(rng, 3, 4)
    rebuilt = algebra_from_obj(algebra_to_obj(alg))
    assert rebuilt.labels == alg.labels
    for label in alg.labels:
        assert max_abs(rebuilt.atom(label).mat - alg.atom(label).mat) == 0.0


def test_algebra_from_obj_rejects_malformed():
    with pytest.raises(SpecParseError):
        algebra_from_obj({"atoms": [{"label": "a"}]})
    with pytest.raises(SpecParseError):
        algebra_from_obj({})


def test_algebra_from_obj_keeps_the_operator_error_type():
    obj = {"atoms": [{"label": "a", "operator": [[[1.0, 1.0]]]}]}
    with pytest.raises(NotRealError, match=r"^algebra atom 0 \('a'\): imaginary part"):
        algebra_from_obj(obj, mode=RealityMode.REAL)
