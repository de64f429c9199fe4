"""Matrix arithmetic, class predicates, and the eigendecomposition contract."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from helpers import (
    matrix_to_rows,
    random_basis,
    random_cycle,
    random_density_matrix,
    random_hermitian,
    random_pov_matrix,
    random_projector,
    random_projector_matrix,
    random_subset,
)
import traceprob
from traceprob import (
    ClassicalCycle,
    DensityMatrix,
    FractionVector,
    DimensionMismatchError,
    Hamiltonian,
    NonFiniteError,
    NotHermitianError,
    PerceptionAlgebra,
    PerceptionSet,
    PovOperator,
    Projector,
    RealityMode,
    ValidationError,
    as_matrix,
    char_and,
    check_invariance,
    classical_density,
    classical_prob,
    commutes,
    conditional_prob,
    default_cluster_tol,
    dephase,
    deviation_check,
    diag_projector,
    dwell_fractions,
    energy_blocks,
    enforce_reality,
    evolve,
    hermitian_eig,
    is_density,
    is_hermitian,
    is_projector,
    is_superselection_compliant,
    matrix_from_rows,
    max_abs,
    measure_of,
    normalized_prob,
    projector_meet,
    sample_classical,
    sample_measurement,
    time_average_indicator,
    total_measure,
    trace,
    trace_prob,
    union_operator,
    unitary_conjugate,
)
from traceprob import matcore
from traceprob.classical import MAX_STEPS
from traceprob.matcore import hermiticity_defect, idempotency_defect, min_eigenvalue


def test_as_matrix_rejects_non_square():
    with pytest.raises(ValidationError):
        as_matrix([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
    with pytest.raises(ValidationError):
        as_matrix([1.0, 2.0])


def test_as_matrix_rejects_non_finite():
    with pytest.raises(ValidationError):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        as_matrix([[1.0, np.inf], [0.0, 1.0]])


def test_trace_identity():
    for n in (1, 3, 6):
        assert trace(np.eye(n)) == complex(n)


def test_trace_sums_diagonal():
    assert trace(np.diag([0.5, 0.3, 0.2])) == 1.0 + 0.0j
    # partial sums that overflow: math.fsum raises on both
    assert trace(np.diag([1e308, 1e308, -1e308])) == 1e308
    assert trace(np.diag([-1e308, -1e308])) == complex(-np.inf, 0.0)


def test_trace_cyclicity():
    rng = np.random.default_rng(14)
    for _ in range(20):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        b = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        assert abs(trace(a @ b) - trace(b @ a)) <= 1e-12


def test_hermitian_eig_diagonal_sorted():
    values, _ = hermitian_eig(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(values, [1.0, 2.0, 3.0], atol=1e-14)


def test_hermitian_eig_pauli_x():
    values, _ = hermitian_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(values, [-1.0, 1.0], atol=1e-14)


def test_hermitian_eig_reconstructs():
    rng = np.random.default_rng(15)
    a = random_hermitian(rng, 6)
    values, vectors = hermitian_eig(a)
    rebuilt = vectors @ np.diag(values) @ vectors.conj().T
    assert max_abs(rebuilt - a) <= 1e-9


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        hermitian_eig(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_hermitian_eig_refuses_an_eigenvalue_beyond_the_float_range():
    # Every entry is finite, but the eigenvalues are 0 and 2e308. Admitted as
    # [0, inf], they would join one energy sector, and dephasing diag(1, 0)
    # would leave it as it is rather than give I/2.
    huge = 1e308 * np.ones((2, 2))
    for build in (hermitian_eig, Hamiltonian):
        with pytest.raises(NonFiniteError, match=r"^eigenvalue inf is not finite$"):
            build(huge)


def test_hermitian_eig_phase_convention():
    # The first largest-magnitude component of each eigenvector is real >= 0.
    rng = np.random.default_rng(16)
    for n in range(2, 9):
        _, vectors = hermitian_eig(random_hermitian(rng, n))
        for k in range(n):
            v = vectors[:, k]
            pivot = v[np.argmax(np.abs(v))]
            assert abs(pivot.imag) <= 1e-12
            assert pivot.real >= -1e-12


def test_hermitian_eig_vectors_unitary_sweep():
    rng = np.random.default_rng(17)
    for n in range(2, 9):
        for _ in range(100):
            a = random_hermitian(rng, n)
            values, v = hermitian_eig(a)
            assert max_abs(v.conj().T @ v - np.eye(n)) <= 1e-9
            rebuilt = v @ np.diag(values) @ v.conj().T
            assert max_abs(rebuilt - a) <= 1e-9


def test_hermitian_eig_is_read_only():
    values, vectors = hermitian_eig(np.diag([1.0, 2.0]))
    with pytest.raises(ValueError):
        values[0] = 9.0
    with pytest.raises(ValueError):
        vectors[0, 0] = 9.0


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.eye(2), True),
        (np.array([[0.0, 1j], [1j, 0.0]]), False),
        (np.array([[1.0, 1.0 + 1j], [1.0 - 1j, 2.0]]), True),
    ],
)
def test_is_hermitian_examples(mat, expected):
    assert is_hermitian(mat) is expected


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.diag([1.0, 0.0, 1.0]), True),
        (np.full((2, 2), 0.5), True),
        (np.array([[0.5, 0.5], [0.0, 0.0]]), False),
    ],
)
def test_is_projector_examples(mat, expected):
    assert is_projector(mat) is expected


@pytest.mark.parametrize(
    "mat,expected",
    [
        (np.diag([0.5, 0.5]), True),
        (np.diag([1.5, -0.5]), False),
        (np.full((2, 2), 0.5), True),
    ],
)
def test_is_density_examples(mat, expected):
    assert is_density(mat) is expected


# Threshold table: each check just inside and just outside its bound, on a
# matrix with |a|_max >> 1 wherever the check allows one, so a relative bound
# tol * max(1, |a|_max) and an absolute bound tol give different verdicts.
# Hermiticity and idempotency are relative; the density trace check
# |tr - 1| <= tol and the eigenvalue check >= -tol are absolute. The large
# tolerances make room for |a|_max >> 1 on matrices that are still within
# reach of a unit-trace positive operator or of a Hermitian idempotent.
THRESHOLDS = [
    # Hermiticity, relative: bound 1e-10 * 100 = 1e-8; defect 5e-9 / 2e-8.
    ("herm-in", is_hermitian, [[100.0, 5e-9], [0.0, 1.0]], 1e-10, True),
    ("herm-out", is_hermitian, [[100.0, 2e-8], [0.0, 1.0]], 1e-10, False),
    # Idempotency, relative: diag(l, 0) has defect l^2 - l against 100 * l.
    ("idem-in", is_projector, np.diag([100.9, 0.0]), 100.0, True),
    ("idem-out", is_projector, np.diag([101.1, 0.0]), 100.0, False),
    ("idem-in-unit", is_projector, np.diag([1.0 + 5e-11, 0.0]), 1e-10, True),
    ("idem-out-unit", is_projector, np.diag([1.0 + 2e-10, 0.0]), 1e-10, False),
    # Hermiticity inside is_projector, at scale 1.
    ("proj-herm-in", is_projector, [[1.0, 5e-11], [0.0, 0.0]], 1e-10, True),
    ("proj-herm-out", is_projector, [[1.0, 2e-10], [0.0, 0.0]], 1e-10, False),
    # Trace, absolute: |tr - 1| = 9.5 / 10.5 against tol 10 (relative: 200).
    ("trace-in", is_density, np.diag([20.0, -9.5]), 10.0, True),
    ("trace-out", is_density, np.diag([20.0, -8.5]), 10.0, False),
    ("trace-in-unit", is_density, np.diag([0.5 + 5e-11, 0.5]), 1e-10, True),
    ("trace-out-unit", is_density, np.diag([0.5 + 2e-10, 0.5]), 1e-10, False),
    # Minimum eigenvalue, absolute: -9.5 / -10.5 against -10 (relative: -205).
    ("eig-in", is_density, np.diag([19.5, -9.5]), 10.0, True),
    ("eig-out", is_density, np.diag([20.5, -10.5]), 10.0, False),
    ("eig-in-unit", is_density, np.diag([1.0 + 5e-11, -5e-11]), 1e-10, True),
    ("eig-out-unit", is_density, np.diag([1.0 + 2e-10, -2e-10]), 1e-10, False),
    # Hermiticity inside is_density, relative: defect 12 <= 10 * 12.
    ("density-herm-in", is_density, [[5.5, 12.0], [0.0, 5.0]], 10.0, True),
]


@pytest.mark.parametrize(
    "predicate,mat,tol,expected", [row[1:] for row in THRESHOLDS], ids=[row[0] for row in THRESHOLDS]
)
def test_predicate_thresholds(predicate, mat, tol, expected):
    assert predicate(np.array(mat, dtype=complex), tol) is expected


TOL_GATES = {
    "is_hermitian": lambda tol: is_hermitian(np.eye(2), tol=tol),
    "is_projector": lambda tol: is_projector(np.eye(2), tol=tol),
    "is_density": lambda tol: is_density(np.eye(2) / 2, tol=tol),
    "hermitian_eig": lambda tol: hermitian_eig(np.eye(2), tol=tol),
    "Projector": lambda tol: Projector(np.eye(2), tol=tol),
    "DensityMatrix": lambda tol: DensityMatrix(np.eye(2) / 2, tol=tol),
    "PovOperator": lambda tol: PovOperator(np.eye(2), tol=tol),
    "Hamiltonian": lambda tol: Hamiltonian(np.eye(2), tol=tol),
}
BAD_TOLS = {
    "text": ("x", "tol must be a real number, got str"),
    "none": (None, "tol must be a real number, got NoneType"),
    "bool": (True, "tol must be a real number, got bool"),
    "negative": (-1.0, "tol must be finite and > 0, got -1.0"),
    "zero": (0.0, "tol must be finite and > 0, got 0.0"),
    "nan": (float("nan"), "tol must be finite and > 0, got nan"),
    "inf": (float("inf"), "tol must be finite and > 0, got inf"),
    "huge-int": (10**400, "tol 100000000000000000...0000000000000000000 is beyond the float range"),
}


@pytest.mark.parametrize("gate", TOL_GATES.values(), ids=TOL_GATES.keys())
@pytest.mark.parametrize("tol, message", BAD_TOLS.values(), ids=BAD_TOLS.keys())
def test_every_tolerance_is_a_finite_real_above_zero(gate, tol, message):
    with pytest.raises(ValidationError) as info:
        gate(tol)
    assert str(info.value) == message


@pytest.mark.parametrize("gate", TOL_GATES.values(), ids=TOL_GATES.keys())
def test_a_tolerance_may_be_any_positive_real_number(gate):
    gate(1)
    gate(Fraction(1, 10**10))
    gate(np.float32(1e-6))


def test_conjugation_preserves_projectors():
    rng = np.random.default_rng(18)
    for trial in range(100):
        n = int(rng.integers(2, 7))
        p = random_projector(rng, n)
        u = random_basis(rng, n)
        assert is_projector(u @ p.mat @ u.conj().T)


def test_matrix_rows_round_trip_exact():
    rng = np.random.default_rng(19)
    a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    np.testing.assert_array_equal(matrix_from_rows(matrix_to_rows(a)), a)


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [[1.0, 0.0]],
        [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0]]],
        [[[1.0, 0.0, 0.0]]],
        [[[True, False]]],
        [[["1", "0"]]],
        "nope",
        [[[10**400, 0]]],  # integer beyond the float range
        [[(1.0, 0.0)]],  # tuple entry
        [[[1.0, 0.0], [True, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],  # one bool among valid entries
    ],
)
def test_matrix_from_rows_rejects_malformed(rows):
    with pytest.raises(ValidationError):
        matrix_from_rows(rows)


def test_matrix_from_rows_accepts_numpy_floats_exactly():
    rows = [[[np.float64(0.1), np.float64(-0.0)], [2**53 + 1, 0]], [[0, 0], [1, -2.5]]]
    mat = matrix_from_rows(rows)
    np.testing.assert_array_equal(mat, [[0.1, 2.0**53], [0.0, 1.0 - 2.5j]])
    assert np.signbit(mat[0, 0].imag)


@pytest.mark.parametrize(
    "rows, message",
    [
        ([[[1, 0], [1, 0]], [[1, 0], [1, 0, 0]]], "matrix entry (1,1) must be"),
        ([[[1, 0], [1, 0]], [[1, 0], [False, 0]]], "matrix entry (1,1) must be"),
        ([[[1, 0], [1, 0]], [[1, 0], [1, 10**400]]], "matrix entry (1,1) is beyond the float range"),
        ([[[1, 0], [1, 0]], [[1, 0]]], "matrix row 1 must be an array of 2 entries"),
    ],
    ids=["three-numbers", "bool", "beyond-float", "short-row"],
)
def test_matrix_from_rows_names_first_bad_entry(rows, message):
    with pytest.raises(ValidationError) as exc:
        matrix_from_rows(rows)
    assert str(exc.value).startswith(message)


# --- the diagonal fast path ---

DIAGONALS = {
    "real": lambda rng, n: np.diag(rng.standard_normal(n)).astype(complex),
    "char-vector-projector": lambda rng, n: diag_projector(random_subset(rng, n)),
    "classical-density": lambda rng, n: classical_density(dwell_fractions(random_cycle(rng, n))),
}


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _dense_hermiticity_defect(m: np.ndarray) -> float:
    return max_abs(m - m.conj().T)


def _dense_idempotency_defect(m: np.ndarray) -> float:
    return max_abs(m @ m - m)


def _dense_min_eigenvalue(m: np.ndarray) -> float:
    return float(np.min(np.linalg.eigvalsh(m)))


@pytest.mark.parametrize("n", [1, 2, 64, 256, 1024])
@pytest.mark.parametrize("kind", DIAGONALS)
def test_fast_diagonal_path_equals_the_dense_path(kind, n):
    m = DIAGONALS[kind](np.random.default_rng([n, len(kind)]), n)
    diag = matcore._real_diagonal(m)
    assert diag is not None
    assert _bits(hermiticity_defect(m, diag)) == _bits(_dense_hermiticity_defect(m))
    assert _bits(idempotency_defect(m, diag)) == _bits(_dense_idempotency_defect(m))
    assert _bits(min_eigenvalue(m, diag)) == _bits(_dense_min_eigenvalue(m))


def _with_entry(m: np.ndarray, i: int, j: int, value: complex) -> np.ndarray:
    out = m.copy()
    out[i, j] = value
    return out


REAL_DIAGONAL = np.diag(np.random.default_rng(11).standard_normal(16)).astype(complex)
DENSE_PATH = {
    "complex-diagonal": np.diag(np.random.default_rng(12).standard_normal(16) * np.exp(0.3j)),
    "imag-diagonal": _with_entry(REAL_DIAGONAL, 5, 5, REAL_DIAGONAL[5, 5] + 5e-324j),
    "off-diagonal": _with_entry(REAL_DIAGONAL, 0, 15, 5e-324),
    "imag-off-diagonal": _with_entry(REAL_DIAGONAL, 3, 2, 5e-324j),
    "complex-1x1": np.array([[0.5 + 0.5j]]),
}


@pytest.mark.parametrize("m", DENSE_PATH.values(), ids=DENSE_PATH.keys())
def test_complex_or_off_diagonal_entries_take_the_dense_path(monkeypatch, m):
    assert matcore._real_diagonal(m) is None
    assert _bits(hermiticity_defect(m, None)) == _bits(_dense_hermiticity_defect(m))
    assert _bits(idempotency_defect(m, None)) == _bits(_dense_idempotency_defect(m))
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    assert _bits(min_eigenvalue(m, None)) == _bits(float(np.min(eigvalsh(m))))
    assert len(calls) == 1


def test_real_diagonals_skip_the_eigensolver(monkeypatch):
    monkeypatch.setattr(np.linalg, "eigvalsh", None)
    assert min_eigenvalue(REAL_DIAGONAL, matcore._real_diagonal(REAL_DIAGONAL)) == float(np.min(REAL_DIAGONAL.real))
    assert is_density(classical_density(dwell_fractions(random_cycle(np.random.default_rng(13), 32))))


@pytest.mark.parametrize(
    "m",
    [
        np.array([[1.5e154, 0.0], [0.0, 1.0]], dtype=complex),  # real diagonal: the square overflows
        np.array([[1.0, 1.5e154], [1.5e154, 1.0]], dtype=complex),  # dense: the product overflows
        np.array([[1.0, 1.7e308], [-1.7e308, 1.0]], dtype=complex),  # a - a^dagger overflows
    ],
    ids=["diagonal-square", "dense-product", "adjoint-difference"],
)
def test_overflowing_defects_refuse_without_a_warning(m):
    # The suite turns warnings into errors, so a RuntimeWarning would fail here.
    assert not is_projector(m)
    assert not is_density(m)


# Each operator's input, dense and as a real diagonal (the classical form).
OPERATOR_INPUTS = {
    Projector: (random_projector_matrix(np.random.default_rng(14), 8), np.diag([1.0, 0.0] * 4)),
    DensityMatrix: (random_density_matrix(np.random.default_rng(15), 8), np.diag([0.125] * 8)),
    PovOperator: (random_pov_matrix(np.random.default_rng(16), 8), np.diag([0.5, 0.0] * 4)),
    Hamiltonian: (random_hermitian(np.random.default_rng(17), 8), np.diag(np.arange(8.0))),
}


@pytest.mark.parametrize("form", [0, 1], ids=["dense", "real-diagonal"])
@pytest.mark.parametrize("cls", OPERATOR_INPUTS, ids=lambda cls: cls.__name__)
def test_each_operator_admits_its_input_once(monkeypatch, cls, form):
    # Every module's binding of the two passes is counted, wherever a constructor looks them up.
    calls = {"_admit": 0, "_real_diagonal": 0}
    for name in calls:
        original = getattr(matcore, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        for module in (matcore, traceprob.quantum, traceprob.measure, traceprob.superselect):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    mat = OPERATOR_INPUTS[cls][form]
    op = cls(mat)
    assert calls == {"_admit": 1, "_real_diagonal": 1}
    assert not np.shares_memory(op.mat, mat)
    assert op.mat.flags.f_contiguous if cls is DensityMatrix else op.mat.flags.c_contiguous


HALF_2 = DensityMatrix(np.eye(2) / 2)
ZERO_H_2 = Hamiltonian(np.zeros((2, 2)))
ZERO_H_3 = Hamiltonian(np.zeros((3, 3)))
ALGEBRA_2 = PerceptionAlgebra.from_matrices([("a", np.eye(2))])
CYCLE_2 = ClassicalCycle(2, [(1, 1.0), (2, 1.0)])


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: trace_prob(Projector(np.eye(3)), HALF_2), "projector dim 3 vs density dim 2"),
        (lambda: unitary_conjugate(np.eye(2), np.eye(3)), "unitary dim 2 vs operand dim 3"),
        (
            lambda: measure_of(PerceptionAlgebra.from_matrices([("a", np.eye(3))]), {"a"}, HALF_2),
            "algebra dim 3 vs density dim 2",
        ),
        (lambda: evolve(HALF_2, ZERO_H_3, 1.0), "density dim 2 vs hamiltonian dim 3"),
        (lambda: dephase(HALF_2, ZERO_H_3), "density dim 2 vs hamiltonian dim 3"),
    ],
    ids=["trace-prob", "unitary-conjugate", "expectations", "evolve", "dephase"],
)
def test_operands_of_different_dims_are_refused_naming_both(call, message):
    # is_superselection_compliant's wording is pinned in test_superselect.py.
    with pytest.raises(DimensionMismatchError) as info:
        call()
    assert str(info.value) == message


# An operand of another type, an array where an operator belongs included, is
# refused by the one operand gate, naming the operand by its role.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: trace_prob(np.eye(2), HALF_2), "projector must be a Projector, got ndarray"),
        (lambda: dephase(HALF_2, np.eye(2)), "hamiltonian must be a Hamiltonian, got ndarray"),
        (lambda: energy_blocks(np.eye(2)), "hamiltonian must be a Hamiltonian, got ndarray"),
        (lambda: classical_prob(PerceptionSet([1, 0]), [0.5, 0.5]), "fractions must be a FractionVector, got list"),
        (lambda: measure_of(None, ["a"], HALF_2), "algebra must be a PerceptionAlgebra, got NoneType"),
        (lambda: deviation_check(None), "report must be a SampleReport, got NoneType"),
        (lambda: sample_classical(None, 10, 0), "cycle must be a ClassicalCycle, got NoneType"),
        (lambda: char_and(PerceptionSet([1, 0]), [1, 0]), "set must be a PerceptionSet, got list"),
        (lambda: check_invariance(np.eye(2), HALF_2, np.eye(2)), "projector must be a Projector, got ndarray"),
        (lambda: classical_density([0.5, 0.5]), "fractions must be a FractionVector, got list"),
        (lambda: conditional_prob(None, ["a"], ["a"], HALF_2), "algebra must be a PerceptionAlgebra, got NoneType"),
        (lambda: default_cluster_tol(np.eye(2)), "hamiltonian must be a Hamiltonian, got ndarray"),
        (lambda: diag_projector([1, 0]), "set must be a PerceptionSet, got list"),
        (lambda: dwell_fractions(None), "cycle must be a ClassicalCycle, got NoneType"),
        (lambda: evolve(np.eye(2) / 2, ZERO_H_2, 1.0), "density must be a DensityMatrix, got ndarray"),
        (lambda: is_superselection_compliant(np.eye(2), ZERO_H_2), "projector must be a Projector, got ndarray"),
        (lambda: normalized_prob(None, ["a"], HALF_2), "algebra must be a PerceptionAlgebra, got NoneType"),
        (lambda: projector_meet(np.eye(2), Projector(np.eye(2))), "projector must be a Projector, got ndarray"),
        (
            lambda: sample_measurement([Projector(np.eye(2))], np.eye(2) / 2, 10, 0),
            "density must be a DensityMatrix, got ndarray",
        ),
        (lambda: time_average_indicator(None, 10), "cycle must be a ClassicalCycle, got NoneType"),
        (lambda: total_measure(ALGEBRA_2, np.eye(2) / 2), "density must be a DensityMatrix, got ndarray"),
        (lambda: union_operator(None, ["a"]), "algebra must be a PerceptionAlgebra, got NoneType"),
    ],
    ids=[
        "trace-prob",
        "dephase",
        "energy-blocks",
        "classical-prob",
        "measure-of",
        "deviation-check",
        "sample-classical",
        "char-and",
        "check-invariance",
        "diag-density",
        "conditional-prob",
        "cluster-tol",
        "diag-projector",
        "dwell-fractions",
        "evolve",
        "compliant",
        "normalized-prob",
        "projector-meet",
        "sample-partition",
        "time-average",
        "total-measure",
        "union-operator",
    ],
)
def test_operands_of_another_type_are_refused_naming_their_role(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


# A non-iterable where a collection belongs, a non-array given to max_abs,
# and a step count past the longest array numpy can size.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: ClassicalCycle(2, 5), "schedule must be an iterable, got int"),
        (lambda: FractionVector(0.5), "fractions must be an iterable, got float"),
        (lambda: PerceptionSet(None), "characteristic vector must be an iterable, got NoneType"),
        (lambda: max_abs(None), "max_abs needs a nonempty array of numbers, got NoneType"),
        (lambda: max_abs("x"), "max_abs needs a nonempty array of numbers, got str"),
        (lambda: max_abs([]), "max_abs needs a nonempty array of numbers, got list"),
        (lambda: max_abs(10**400), "max_abs needs a nonempty array of numbers, got int"),
        (lambda: time_average_indicator(CYCLE_2, 10**400), f"steps must be <= {MAX_STEPS}"),
        (lambda: time_average_indicator(CYCLE_2, 2**63), f"steps must be <= {MAX_STEPS}"),  # arange wraps it to []
        (lambda: time_average_indicator(CYCLE_2, MAX_STEPS + 1), f"steps must be <= {MAX_STEPS}"),
    ],
    ids=[
        "cycle-schedule",
        "fraction-vector",
        "perception-set",
        "max-abs-none",
        "max-abs-str",
        "max-abs-empty",
        "max-abs-overflow",
        "steps-400-digits",
        "steps-2**63",
        "steps-past-max",
    ],
)
def test_non_collections_and_non_arrays_are_refused(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert type(info.value) is ValidationError
    assert str(info.value) == message


# matcore._integer reads an integer, then holds it to the bounds it is given:
# (x, lo, hi, the int it returns or the refusal's message)
INTEGER_BOUNDS = {
    "open": (-(10**30), None, None, -(10**30)),
    "open-numpy": (np.int16(-7), None, None, -7),
    "lo-at": (0, 0, None, 0),
    "lo-below": (-1, 0, None, "k must be >= 0"),
    "lo-only-huge": (10**400, 1, None, 10**400),
    "hi-at": (7, None, 7, 7),
    "hi-above": (8, None, 7, "k must be <= 7"),
    "hi-only-negative": (-(10**400), None, 7, -(10**400)),
    "both-inside": (3, 1, 7, 3),
    "both-below": (0, 1, 7, "k must be >= 1"),
    "both-above": (2**63, 1, 2**63 - 1, "k must be <= 9223372036854775807"),
    "numpy-at-hi": (np.int64(2**63 - 1), 1, 2**63 - 1, 2**63 - 1),
    "numpy-above": (np.uint64(2**64 - 1), 0, 2**63 - 1, "k must be <= 9223372036854775807"),
    "numpy-below": (np.int8(-1), 0, None, "k must be >= 0"),
    "type-before-bounds": (2.0, 5, 1, "k must be an integer, got float"),
    "bool-before-bounds": (np.True_, 5, None, "k must be an integer, got bool"),
    "lo-before-hi": (0, 1, -1, "k must be >= 1"),
}


@pytest.mark.parametrize("x, lo, hi, want", INTEGER_BOUNDS.values(), ids=INTEGER_BOUNDS.keys())
def test_integer_reads_the_value_then_holds_it_to_its_bounds(x, lo, hi, want):
    if isinstance(want, str):
        with pytest.raises(ValidationError) as info:
            matcore._integer(x, "k", lo, hi)
        assert type(info.value) is ValidationError
        assert str(info.value) == want
    else:
        got = matcore._integer(x, "k", lo, hi)
        assert type(got) is int
        assert got == want


# --- the one gate for outside matrices ---

# Input that numpy cannot read as numbers, or would read from text: every
# function that admits a matrix refuses it with ValidationError, not a raw
# numpy error and not a parsed number.
MALFORMED = {
    "str": "abc",
    "text-entries": [["1", "0"], ["0", "0"]],
    "bytes-entries": [[b"1"]],
    "text-fraction": [[Fraction(1), "1"]],
    "dict": {"a": 1},
    "object-entry": [[object()]],
    "ragged": [[1], [2, 3]],
    "huge-int": [[10**400]],
    "dates": np.array([["2020-01-01"]], dtype="M8[D]"),
    "records": np.zeros((1, 1), dtype=[("a", float)]),
}

ONE = np.eye(1)
ADMITTERS = {
    "as_matrix": as_matrix,
    "enforce_reality": lambda m: enforce_reality(RealityMode.COMPLEX, m),
    "Projector": Projector,
    "DensityMatrix": DensityMatrix,
    "PovOperator": PovOperator,
    "Hamiltonian": Hamiltonian,
    "from_matrices": lambda m: PerceptionAlgebra.from_matrices([("a", m)]),
    "is_hermitian": is_hermitian,
    "is_projector": is_projector,
    "is_density": is_density,
    "trace": trace,
    "hermitian_eig": hermitian_eig,
    "commutes-a": lambda m: commutes(m, ONE),
    "commutes-b": lambda m: commutes(ONE, m),
    "conjugate-u": lambda m: unitary_conjugate(m, ONE),
    "conjugate-a": lambda m: unitary_conjugate(ONE, m),
}


@pytest.mark.parametrize("admit", ADMITTERS.values(), ids=ADMITTERS.keys())
@pytest.mark.parametrize("bad", MALFORMED.values(), ids=MALFORMED.keys())
def test_every_matrix_gate_refuses_malformed_input(admit, bad):
    with pytest.raises(ValidationError, match="^matrix (entries must be numbers$|is not an array of numbers: )"):
        admit(bad)


@pytest.mark.parametrize("admit", ADMITTERS.values(), ids=ADMITTERS.keys())
def test_a_none_entry_is_refused_as_not_finite(admit):
    with pytest.raises(ValidationError, match=r"^matrix entries must be finite \(no NaN/Inf\)$"):
        admit([[None]])


NUMERIC = {
    "ints": [[1, -2], [3, 4]],
    "floats": [[0.1, -0.0], [1e300, 5e-324]],
    "complex": [[1j, 2 + 0.5j], [-0.0j, 3]],
    "bools": [[True, False], [False, True]],
    "numpy-scalars": [[np.float32(0.1), np.int8(-3)], [np.complex64(1 + 2j), np.float16(0.5)]],
    "numpy-beside-python": [[np.float32(0.1), 0.1], [np.int64(2**60 + 1), 1j]],
    "fractions": [[Fraction(1, 3), 1], [Fraction(-2, 7), 0.5]],
    "ints-beyond-int64": [[10**20, 1], [2**64 - 1, -(2**70)]],
    "real-array": np.arange(4.0).reshape(2, 2),
    "complex-array": np.array([[1 + 1j, 0], [0, -0.0]]),
    "fortran-array": np.asfortranarray(np.arange(4.0).reshape(2, 2) * 1j),
    "tuple-of-arrays": (np.array([0.5, 1]), np.array([2, 3])),
}


@pytest.mark.parametrize("a", NUMERIC.values(), ids=NUMERIC.keys())
def test_numeric_input_is_admitted_bit_identically(a):
    got = as_matrix(a)
    want = np.array(a, dtype=complex)
    assert got.dtype == complex and got.shape == want.shape
    assert got.tobytes() == want.tobytes()  # the sign of zero included
    if isinstance(a, np.ndarray):
        assert not np.shares_memory(got, a)


def test_matrix_from_rows_admits_the_buffer_it_built_without_a_copy(monkeypatch):
    monkeypatch.setattr(matcore, "as_matrix", None)  # a call would fail
    built = matrix_from_rows(matrix_to_rows(np.diag([1.0, 2j])))
    assert not built.flags.owndata  # a view of the parsed numbers
    assert built.tobytes() == np.diag([1.0, 2j]).tobytes()
