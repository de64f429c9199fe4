"""Cycles, characteristic-vector algebra, and the classical probability rule."""

from __future__ import annotations

import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import random_cycle, random_subset
from traceprob import (
    ClassicalCycle,
    DimensionMismatchError,
    FractionVector,
    PerceptionSet,
    ValidationError,
    char_and,
    char_or,
    classical_density,
    classical_prob,
    diag_projector,
    dwell_fractions,
    indicator_matrix,
    time_average_indicator,
    trace,
)


# --- cycle construction and lookup ---


def test_cycle_requires_every_state():
    with pytest.raises(ValidationError):
        ClassicalCycle(3, ((1, 1.0), (2, 1.0)))


def test_cycle_refuses_more_states_than_entries_before_listing_them():
    # naming the missing states of n = 10**30 would not fit in memory
    with pytest.raises(ValidationError, match=r"number of schedule entries \(1\)"):
        ClassicalCycle(10**30, ((1, 1.0),))


def test_cycle_names_at_most_ten_missing_states():
    with pytest.raises(ValidationError) as exc:
        ClassicalCycle(500, [(1, 1.0)] * 500)
    message = str(exc.value)
    assert message.endswith("499 missing, first [2, 3, 4, 5, 6, 7, 8, 9, 10, 11]")
    assert len(message) < 120


def test_cycle_rejects_bad_durations():
    with pytest.raises(ValidationError):
        ClassicalCycle(1, ((1, 0.0),))
    with pytest.raises(ValidationError):
        ClassicalCycle(1, ((1, -2.0),))
    with pytest.raises(ValidationError):
        ClassicalCycle(1, ((1, math.inf),))


def test_cycle_rejects_overflowing_period():
    # Each duration is finite, but their sum is not.
    with pytest.raises(ValidationError, match="period"):
        ClassicalCycle(2, ((1, 1e308), (2, 1e308)))
    with pytest.raises(ValidationError, match="overflows"):
        ClassicalCycle(1, ((1, 10**400),))
    big = ClassicalCycle(2, ((1, 0.5e308), (2, 0.5e308)))
    assert dwell_fractions(big).f == (0.5, 0.5)


def test_running_sum_past_a_finite_period_is_harmless():
    # Each 0.6-ulp duration rounds the running sum up by a full ulp, so it
    # overflows while the correctly rounded period stays finite.
    top = np.finfo(float).max
    ulp = math.ulp(top)
    c = ClassicalCycle(2, [(1, top - 40 * ulp)] + [(2, 0.6 * ulp)] * 60)
    assert math.isfinite(c.period)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert c.state_at(1.0) == 1
        assert c.state_at(c.period - ulp) == 2


def test_cycle_rejects_empty_or_out_of_range():
    with pytest.raises(ValidationError):
        ClassicalCycle(2, ())
    with pytest.raises(ValidationError):
        ClassicalCycle(2, ((1, 1.0), (3, 1.0)))
    with pytest.raises(ValidationError):
        ClassicalCycle(0, ())


def test_cycle_allows_repeat_visits():
    c = ClassicalCycle(2, ((1, 2.0), (2, 1.0), (1, 1.0)))
    assert c.period == 4.0
    assert dwell_fractions(c).f == (0.75, 0.25)


def test_period_is_the_correctly_rounded_sum():
    c = ClassicalCycle(3, [(1, 0.1), (2, 0.2), (3, 0.3)])
    assert c.period == 0.6  # a running sum gives 0.6000000000000001
    assert c.state_at(0.6) == 1
    assert c.state_at(0.5999999999999999) == 3


def test_state_at_walks_schedule():
    c = ClassicalCycle(2, ((1, 1.0), (2, 1.0)))
    assert c.state_at(0.5) == 1
    assert c.state_at(1.5) == 2
    assert c.state_at(2.5) == 1  # periodic wrap
    # dwell intervals are half-open: a boundary time belongs to the next dwell
    assert c.state_at(1.0) == 2
    assert c.state_at(2.0) == 1


# --- characteristic-vector algebra ---


def test_char_and_examples():
    assert char_and(PerceptionSet((1, 1, 0)), PerceptionSet((1, 0, 0))).chi == (1, 0, 0)
    s = PerceptionSet((0, 1, 1))
    assert char_and(s, PerceptionSet((1, 1, 1))).chi == s.chi


def test_char_or_examples():
    assert char_or(PerceptionSet((1, 0, 0)), PerceptionSet((0, 1, 0))).chi == (1, 1, 0)
    s = PerceptionSet((0, 1, 1))
    assert char_or(s, PerceptionSet((0, 0, 0))).chi == s.chi


def test_char_ops_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        char_and(PerceptionSet((1, 0)), PerceptionSet((1, 0, 0)))
    with pytest.raises(DimensionMismatchError):
        char_or(PerceptionSet((1, 0)), PerceptionSet((1, 0, 0)))


def test_char_ops_match_set_algebra_exhaustively():
    # All 64 pairs of subsets of {1,2,3} against index-set intersection/union.
    vectors = list(itertools.product((0, 1), repeat=3))
    for chi1, chi2 in itertools.product(vectors, vectors):
        s1, s2 = PerceptionSet(chi1), PerceptionSet(chi2)
        m1, m2 = set(s1.members), set(s2.members)
        assert set(char_and(s1, s2).members) == (m1 & m2)
        assert set(char_or(s1, s2).members) == (m1 | m2)


def test_perception_set_validation():
    with pytest.raises(ValidationError):
        PerceptionSet((1, 2, 0))
    with pytest.raises(ValidationError):
        PerceptionSet(())
    assert PerceptionSet.from_members(4, (2, 4)).chi == (0, 1, 0, 1)
    with pytest.raises(ValidationError):
        PerceptionSet.from_members(3, (4,))


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: PerceptionSet([0.7, 1.2, True]), "exactly 0 or 1"),  # was (0, 1, 1)
        (lambda: PerceptionSet([None, 1]), "exactly 0 or 1"),
        (lambda: PerceptionSet(["1", 0]), "exactly 0 or 1"),
        (lambda: PerceptionSet.from_members(3, [1.9]), "member must be an integer"),  # was (1, 0, 0)
        (lambda: PerceptionSet.from_members(2.5, [1]), "set size n must be an integer"),
        (lambda: ClassicalCycle(2.9, [(1.5, 1.0), ("2", "3")]), "cycle n must be an integer"),  # was n=2
        (lambda: ClassicalCycle(2, [(1.5, 1.0), (2, 1.0)]), "state must be an integer, got float"),
        (lambda: ClassicalCycle(2, [(1, 1.0), (2, "3")]), "dwell duration must be a real number, got str"),
        (lambda: ClassicalCycle(2, [(1, None), (2, 1.0)]), "dwell duration must be a real number, got NoneType"),
        (lambda: ClassicalCycle(2, [(1,), (2, 1.0)]), r"entry 0 must be a \(state, duration\) pair"),
        (lambda: ClassicalCycle(2, [(1, 1.0), 2]), r"entry 1 must be a \(state, duration\) pair"),
        (lambda: FractionVector(["0.5", 0.5]), "fraction must be a real number"),
        (lambda: FractionVector.normalized([None, 1.0]), "weight must be a real number"),
    ],
    ids=[
        "chi-fraction", "chi-none", "chi-string", "member-fraction", "members-n-fraction", "cycle-n-fraction",
        "state-fraction", "duration-string", "duration-none", "entry-short", "entry-scalar", "fraction-string",
        "weight-none",
    ],
)
def test_constructors_refuse_non_numbers_with_a_typed_error(build, match):
    with pytest.raises(ValidationError, match=match):
        build()


def test_constructors_keep_integer_and_exact_bit_inputs():
    assert PerceptionSet(np.array([1.0, 0.0])).chi == (1, 0)
    assert PerceptionSet(np.array([True, False])).chi == (1, 0)
    assert PerceptionSet([np.int64(0), True, 1]).chi == (0, 1, 1)
    assert PerceptionSet.from_members(np.int64(3), [np.int32(2)]).chi == (0, 1, 0)
    c = ClassicalCycle(np.int64(2), [(np.int8(1), np.float32(0.5)), (2, 3)])
    assert c.schedule == ((1, 0.5), (2, 3.0))
    assert FractionVector(np.array([0.25, 0.75])).f == (0.25, 0.75)


# --- probabilities and matrices ---


def test_classical_prob_normalization():
    f = FractionVector((0.2, 0.5, 0.3))
    assert classical_prob(PerceptionSet((1, 1, 1)), f) == 1.0


def test_classical_prob_example():
    f = FractionVector((0.5, 0.3, 0.2))
    assert abs(classical_prob(PerceptionSet((1, 0, 1)), f) - 0.7) <= 1e-15


def test_classical_prob_matches_loop_oracle():
    rng = np.random.default_rng(21)
    for _ in range(50):
        s = random_subset(rng, 8)
        f = FractionVector.normalized(rng.uniform(0.01, 1.0, size=8))
        expected = 0.0
        for i in range(8):
            expected += s.chi[i] * f.f[i]
        assert abs(classical_prob(s, f) - expected) <= 1e-15


def test_diag_projector_examples():
    np.testing.assert_array_equal(diag_projector(PerceptionSet((1, 0))), np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_array_equal(diag_projector(PerceptionSet((0, 0, 0))), np.zeros((3, 3), dtype=complex))


def test_diag_projector_product_law_exhaustive():
    # The meet law holds exactly for diagonal lifts: P(S and S') = P(S) P(S').
    vectors = list(itertools.product((0, 1), repeat=3))
    for chi1, chi2 in itertools.product(vectors, vectors):
        s1, s2 = PerceptionSet(chi1), PerceptionSet(chi2)
        lhs = diag_projector(char_and(s1, s2))
        rhs = diag_projector(s1) @ diag_projector(s2)
        np.testing.assert_array_equal(lhs, rhs)


def test_classical_density_examples():
    np.testing.assert_array_equal(
        classical_density(FractionVector((1.0, 0.0, 0.0))), np.diag([1.0, 0.0, 0.0]).astype(complex)
    )
    np.testing.assert_array_equal(
        classical_density(FractionVector((0.5, 0.3, 0.2))), np.diag([0.5, 0.3, 0.2]).astype(complex)
    )


def test_classical_density_unit_trace_sweep():
    rng = np.random.default_rng(22)
    for _ in range(100):
        n = int(rng.integers(1, 9))
        f = FractionVector.normalized(rng.uniform(0.01, 1.0, size=n))
        assert abs(trace(classical_density(f)) - 1.0) <= 1e-12


def test_indicator_matrix_examples():
    c = ClassicalCycle(2, ((1, 1.0), (2, 1.0)))
    np.testing.assert_array_equal(indicator_matrix(c, 0.5), np.diag([1.0, 0.0]).astype(complex))
    np.testing.assert_array_equal(indicator_matrix(c, 1.5), np.diag([0.0, 1.0]).astype(complex))
    np.testing.assert_array_equal(indicator_matrix(c, 2.5), np.diag([1.0, 0.0]).astype(complex))


def test_time_average_one_sample_per_dwell():
    c = ClassicalCycle(2, ((1, 1.0), (2, 1.0)))
    np.testing.assert_array_equal(time_average_indicator(c, 2), np.diag([0.5, 0.5]).astype(complex))


def test_time_average_converges_to_fractions():
    c = ClassicalCycle(2, ((1, 3.0), (2, 1.0)))
    avg = time_average_indicator(c, 10**5)
    np.testing.assert_allclose(np.diagonal(avg).real, [0.75, 0.25], atol=1e-4)


def test_time_average_trace():
    # Each sampled indicator has unit trace; the average of the example cycles
    # keeps it exactly. For arbitrary cycles the per-state counts/steps entries
    # are individually rounded, so the correctly-rounded diagonal sum can sit a
    # few ulp away from 1 -- exact equality is not a representable guarantee.
    assert trace(time_average_indicator(ClassicalCycle(2, ((1, 1.0), (2, 1.0))), 7)) == 1.0
    assert trace(time_average_indicator(ClassicalCycle(2, ((1, 3.0), (2, 1.0))), 10**5)) == 1.0
    rng = np.random.default_rng(23)
    for _ in range(25):
        c = random_cycle(rng, int(rng.integers(1, 9)))
        assert abs(trace(time_average_indicator(c, int(rng.integers(1, 5000)))) - 1.0) <= 1e-15


def test_time_average_rejects_bad_steps():
    with pytest.raises(ValidationError):
        time_average_indicator(ClassicalCycle(1, ((1, 1.0),)), 0)


def test_dwell_fractions_examples():
    assert dwell_fractions(ClassicalCycle(2, ((1, 1.0), (2, 1.0)))).f == (0.5, 0.5)
    assert dwell_fractions(ClassicalCycle(2, ((1, 2.0), (2, 1.0), (1, 1.0)))).f == (0.75, 0.25)


def test_dwell_fractions_match_riemann_sum():
    rng = np.random.default_rng(24)
    for _ in range(10):
        c = random_cycle(rng, int(rng.integers(1, 7)))
        avg = np.diagonal(time_average_indicator(c, 10**6)).real
        np.testing.assert_allclose(avg, dwell_fractions(c).f, atol=1e-5)


def test_dwell_fractions_and_period_equal_a_loop_over_the_schedule():
    # Many repeat visits with durations over twelve decades, where the order
    # of a plain running sum would show in the last bits.
    rng = np.random.default_rng(41)
    for _ in range(40):
        n = int(rng.integers(1, 30))
        states = rng.permutation(np.concatenate([np.arange(1, n + 1), rng.integers(1, n + 1, 3 * n)])).tolist()
        entries = [(s, float(d)) for s, d in zip(states, 10.0 ** rng.uniform(-6, 6, len(states)))]
        c = ClassicalCycle(n, entries)
        per_state: list[list[float]] = [[] for _ in range(n)]
        for state, duration in entries:
            per_state[state - 1].append(duration)
        period = math.fsum(duration for _, duration in entries)
        assert c.schedule == tuple(entries)
        assert c.period == period
        assert dwell_fractions(c).f == tuple(math.fsum(durations) / period for durations in per_state)


# --- fraction vectors ---


def test_fraction_vector_rejects_unnormalized():
    with pytest.raises(ValidationError):
        FractionVector((0.5, 0.4))
    with pytest.raises(ValidationError):
        FractionVector((0.5, 0.5 + 1e-6))
    with pytest.raises(ValidationError):
        FractionVector((-0.1, 1.1))
    with pytest.raises(ValidationError):
        FractionVector(())


def test_fraction_vector_normalized():
    f = FractionVector.normalized((2.0, 1.0, 1.0))
    assert f.f == (0.5, 0.25, 0.25)
    with pytest.raises(ValidationError):
        FractionVector.normalized((0.0, 0.0))
    with pytest.raises(ValidationError):
        FractionVector.normalized((1.0, -1.0))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: FractionVector([10**400]), "fraction 100000000000000000...0000000000000000000 is beyond the float range"),
        (
            lambda: FractionVector.normalized([10**400, 1]),
            "weight 100000000000000000...0000000000000000000 is beyond the float range",
        ),
        (lambda: ClassicalCycle(2, [(1, 1.0), (2, 10**400)]), "schedule entry 1 overflows an int state or a float duration"),
    ],
    ids=["fraction", "weight", "cycle-duration"],
)
def test_ints_beyond_the_float_range_are_refused_with_a_typed_error(build, message):
    with pytest.raises(ValidationError) as info:
        build()
    assert str(info.value) == message


# --- inclusion-exclusion ---


def test_inclusion_exclusion_exhaustive_small_n():
    rng = np.random.default_rng(25)
    for n in range(1, 5):
        f = FractionVector.normalized(rng.uniform(0.01, 1.0, size=n))
        for chi1 in itertools.product((0, 1), repeat=n):
            for chi2 in itertools.product((0, 1), repeat=n):
                s1, s2 = PerceptionSet(chi1), PerceptionSet(chi2)
                lhs = classical_prob(char_or(s1, s2), f)
                rhs = (
                    classical_prob(s1, f)
                    + classical_prob(s2, f)
                    - classical_prob(char_and(s1, s2), f)
                )
                assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=16).flatmap(
        lambda n: st.tuples(
            st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
            st.lists(st.sampled_from((0, 1)), min_size=n, max_size=n),
            st.lists(st.floats(min_value=0.01, max_value=10.0), min_size=n, max_size=n),
        )
    )
)
def test_inclusion_exclusion_property(case):
    chi1, chi2, weights = case
    s1, s2 = PerceptionSet(chi1), PerceptionSet(chi2)
    f = FractionVector.normalized(weights)
    lhs = classical_prob(char_or(s1, s2), f)
    rhs = classical_prob(s1, f) + classical_prob(s2, f) - classical_prob(char_and(s1, s2), f)
    assert abs(lhs - rhs) <= 1e-12
