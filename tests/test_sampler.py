"""Monte Carlo sampling against trace-rule predictions."""

from __future__ import annotations

import json
import time

import numpy as np
import pytest

from helpers import (
    literal_classical_counts,
    literal_measurement_counts,
    random_cycle,
    random_density,
    random_partition,
)
from traceprob import (
    ClassicalCycle,
    DensityMatrix,
    NotAPartitionError,
    NumericalIntegrityError,
    Projector,
    SampleReport,
    ValidationError,
    deviation_check,
    sample_classical,
    sample_measurement,
    sampler,
    time_average_indicator,
)

PLUS_STATE = np.full((2, 2), 0.5)


# --- classical sampling ---


def test_sample_classical_single_state():
    report = sample_classical(ClassicalCycle(1, ((1, 2.0),)), 1000, seed=0)
    assert report.counts == (1000,)
    assert report.outcomes == ("state-1",)
    assert report.max_abs_deviation == 0.0


def test_sample_classical_binomial_bound():
    c = ClassicalCycle(2, ((1, 3.0), (2, 1.0)))
    report = sample_classical(c, 10**6, seed=42)
    assert report.expected_probs == (0.75, 0.25)
    bound = 5.0 * np.sqrt(0.75 * 0.25 / 10**6)
    assert abs(report.empirical_freqs[0] - 0.75) <= bound
    assert deviation_check(report)


def test_sample_classical_deterministic():
    c = ClassicalCycle(3, ((1, 1.0), (2, 0.5), (3, 2.0)))
    assert sample_classical(c, 5000, seed=9) == sample_classical(c, 5000, seed=9)
    assert sample_classical(c, 5000, seed=9) != sample_classical(c, 5000, seed=10)


def test_sample_classical_rejects_bad_n():
    with pytest.raises(ValidationError):
        sample_classical(ClassicalCycle(1, ((1, 1.0),)), 0, seed=1)


# --- measurement sampling ---


def test_sample_measurement_trivial_partition():
    rng = np.random.default_rng(81)
    report = sample_measurement([Projector(np.eye(3))], random_density(rng, 3), 500, seed=2)
    assert report.counts == (500,)
    assert report.expected_probs == (1.0,)


def test_sample_measurement_symmetric_state():
    partition = [Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))]
    report = sample_measurement(partition, DensityMatrix(PLUS_STATE), 10**6, seed=3)
    for freq in report.empirical_freqs:
        assert abs(freq - 0.5) <= 0.0025


def test_sample_measurement_random_partition_within_bounds():
    rng = np.random.default_rng(82)
    partition = random_partition(rng, 4, 4)
    rho = random_density(rng, 4)
    report = sample_measurement(partition, rho, 10**5, seed=4)
    assert deviation_check(report)
    assert report.outcomes == ("outcome-1", "outcome-2", "outcome-3", "outcome-4")


def test_sample_measurement_custom_labels():
    report = sample_measurement(
        [Projector(np.eye(2))], DensityMatrix(PLUS_STATE), 10, seed=5, labels=["all"]
    )
    assert report.outcomes == ("all",)
    with pytest.raises(ValidationError):
        sample_measurement(
            [Projector(np.eye(2))], DensityMatrix(PLUS_STATE), 10, seed=5, labels=["a", "b"]
        )


@pytest.mark.parametrize(
    "partition, labels, message",
    [
        ([np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], "xy", "labels must be a collection of labels, not a str"),
        ([np.eye(2)], "x", "labels must be a collection of labels, not a str"),
        ([np.diag([1.0, 0.0])], ["x", "y"], "labels must match the number of projectors"),  # not a partition either
        ([np.eye(2), np.eye(2)], ["x"], "labels must match the number of projectors"),  # nor this
    ],
    ids=["two-char-str", "one-char-str", "count-before-partition-test", "count-before-orthogonality"],
)
def test_sample_measurement_checks_its_labels_first(monkeypatch, partition, labels, message):
    monkeypatch.setattr(np.random, "default_rng", None)  # refused before any draw
    with pytest.raises(ValidationError) as info:
        sample_measurement([Projector(p) for p in partition], DensityMatrix(PLUS_STATE), 10, 0, labels=labels)
    assert str(info.value) == message


def test_sample_measurement_rejects_incomplete_partition():
    with pytest.raises(NotAPartitionError):
        sample_measurement([Projector(np.diag([1.0, 0.0]))], DensityMatrix(PLUS_STATE), 10, seed=6)
    with pytest.raises(NotAPartitionError):
        sample_measurement([], DensityMatrix(PLUS_STATE), 10, seed=6)


def test_sample_measurement_rejects_wrong_dims():
    rng = np.random.default_rng(83)
    with pytest.raises(NotAPartitionError):
        sample_measurement([Projector(np.eye(3))], random_density(rng, 2), 10, seed=7)


def test_sample_measurement_rejects_non_orthogonal_overlap():
    # Two loose projectors that sum exactly to I yet overlap on the second
    # axis: the pairwise-orthogonality check has to catch what the sum check
    # cannot.
    a = 1e-5
    p1 = Projector(np.diag([1.0, a]), tol=1e-4)
    p2 = Projector(np.diag([0.0, 1.0 - a]), tol=1e-4)
    with pytest.raises(NotAPartitionError):
        sample_measurement([p1, p2], DensityMatrix(np.diag([0.5, 0.5])), 10, seed=8)


def test_sample_measurement_refuses_weights_off_one_as_numerical_integrity():
    # rho's trace is 1 + 5e-7, admitted at tol 1e-6. The projectors are a
    # partition, so what is refused is the weights, not the partition.
    rho = DensityMatrix(np.diag([0.5, 0.5 + 5e-7]), tol=1e-6)
    partition = [Projector(np.diag([1.0, 0.0])), Projector(np.diag([0.0, 1.0]))]
    with pytest.raises(NumericalIntegrityError) as info:
        sample_measurement(partition, rho, 10, seed=0)
    assert str(info.value) == "outcome weights sum to 1.0000005, off 1 beyond 1e-9"
    assert not isinstance(info.value, NotAPartitionError)


def _disjoint_sets(n: int, k: int) -> list[Projector]:
    owner = np.arange(n) * k // n
    return [Projector(np.diag((owner == i).astype(float))) for i in range(k)]


def _two_rotated_blocks() -> list[Projector]:
    # Each 2x2 block of a 4x4 identity split into two rank-1 projectors: the
    # two of a block share rows and columns, while the two blocks share none.
    c, s = np.cos(0.3), np.sin(0.3)
    parts = []
    for offset in (0, 2):
        for v in ((c, s), (-s, c)):
            u = np.zeros(4)
            u[offset : offset + 2] = v
            parts.append(Projector(np.outer(u, u)))
    return parts


@pytest.mark.parametrize(
    "partition, products",
    [
        (_disjoint_sets(64, 8), 0),
        (_two_rotated_blocks(), 2),
        (random_partition(np.random.default_rng(86), 16, 8), 28),
    ],
    ids=["8-disjoint-sets-n64", "two-blocks-n4", "8-dense-n16"],
)
def test_the_partition_test_multiplies_only_meeting_supports(monkeypatch, partition, products):
    # max_abs reads the sum's defect once, then one product per pair whose
    # supports meet; a product of two that do not is exactly 0 and is not formed.
    calls = []

    def counted(a, max_abs=sampler.max_abs):
        calls.append(a.shape)
        return max_abs(a)

    monkeypatch.setattr(sampler, "max_abs", counted)
    n = partition[0].dim
    report = sample_measurement(partition, DensityMatrix(np.eye(n) / n), 1000, seed=0)
    assert len(calls) == 1 + products
    assert report.total == 1000


def test_sample_measurement_reads_a_generator_partition_and_labels_once():
    rng = np.random.default_rng(85)
    partition = random_partition(rng, 3, 3)
    rho = random_density(rng, 3)
    labels = ["x", "y", "z"]
    expected = sample_measurement(partition, rho, 2000, 12, labels=labels)
    got = sample_measurement((p for p in partition), rho, 2000, 12, labels=(x for x in labels))
    assert got == expected
    assert got.outcomes == ("x", "y", "z")
    unlabeled = sample_measurement(iter(partition), rho, 2000, 12)
    assert unlabeled.outcomes == ("outcome-1", "outcome-2", "outcome-3")
    assert unlabeled.counts == expected.counts


def test_sample_measurement_deterministic():
    rng = np.random.default_rng(84)
    partition = random_partition(rng, 3, 2)
    rho = random_density(rng, 3)
    r1 = sample_measurement(partition, rho, 2000, seed=11)
    r2 = sample_measurement(partition, rho, 2000, seed=11)
    assert r1 == r2
    assert json.dumps(r1.to_obj()) == json.dumps(r2.to_obj())


# --- deviation check ---


def test_deviation_check_exact_match():
    report = SampleReport(outcomes=("a", "b"), counts=(500, 500), expected_probs=(0.5, 0.5), seed=0)
    assert report.max_abs_deviation == 0.0
    assert deviation_check(report)


def test_deviation_check_rejects_gross_mismatch():
    report = SampleReport(outcomes=("a", "b"), counts=(900000, 100000), expected_probs=(0.5, 0.5), seed=0)
    assert report.empirical_freqs == (0.9, 0.1)
    assert report.max_abs_deviation == 0.4
    assert not deviation_check(report)


def test_deviation_check_seeded_sweep():
    rng = np.random.default_rng(85)
    passes = 0
    for seed in range(50):
        c = random_cycle(rng, int(rng.integers(1, 6)))
        if deviation_check(sample_classical(c, 20000, seed=seed)):
            passes += 1
    assert passes >= 49


# --- report plumbing ---


def test_report_round_trip():
    report = sample_classical(ClassicalCycle(2, ((1, 1.0), (2, 2.0))), 1234, seed=77)
    obj = json.loads(json.dumps(report.to_obj()))
    rebuilt = SampleReport(tuple(obj["outcomes"]), tuple(obj["counts"]), tuple(obj["expected_probs"]), obj["seed"])
    assert rebuilt == report
    assert list(obj) == ["outcomes", "counts", "total", "empirical_freqs", "expected_probs", "max_abs_deviation", "seed"]
    assert obj["total"] == rebuilt.total
    assert tuple(obj["empirical_freqs"]) == rebuilt.empirical_freqs
    assert obj["max_abs_deviation"] == rebuilt.max_abs_deviation


def test_report_derives_total_frequencies_and_deviation_from_its_counts():
    rng = np.random.default_rng(88)
    for _ in range(50):
        k = int(rng.integers(1, 6))
        counts = tuple(int(c) for c in rng.integers(0, 1000, size=k))
        counts = (counts[0] + 1, *counts[1:])
        expected = tuple(float(e) for e in rng.dirichlet(np.ones(k)))
        report = SampleReport(tuple(map(str, range(k))), counts, expected, 0)
        assert report.total == sum(counts)
        assert report.empirical_freqs == tuple(float(c) / sum(counts) for c in counts)
        assert report.max_abs_deviation == max(abs(f - e) for f, e in zip(report.empirical_freqs, expected))


def test_report_validates_counts():
    assert SampleReport(outcomes=("a",), counts=(3,), expected_probs=(1.0,), seed=0).total == 3
    with pytest.raises(ValidationError):
        SampleReport(outcomes=("a", "b"), counts=(4,), expected_probs=(1.0,), seed=0)


def test_report_refuses_an_empty_tally():
    # deviation_check divides by the total, so a report of no draws is refused when built
    with pytest.raises(ValidationError, match="^total must be >= 1$"):
        SampleReport(outcomes=("a",), counts=(0,), expected_probs=(1.0,), seed=0)


REPORT = {"outcomes": ("a", "b"), "counts": (3, 1), "expected_probs": (0.5, 0.5), "seed": 0}


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("outcomes", None, "outcomes must be a sequence, got NoneType"),
        ("outcomes", "ab", "outcomes must be a sequence, got str"),
        ("counts", 4, "counts must be a sequence, got int"),
        ("counts", np.array([3, 1]), "counts must be a sequence, got ndarray"),
        ("expected_probs", b"ab", "expected_probs must be a sequence, got bytes"),
        ("counts", (3.0, 1), "counts[0] must be an integer, got float"),
        ("counts", (5, -1), "counts[1] must be >= 0"),
        ("expected_probs", (2.0, 0.5), "expected_probs[0] must be a finite real in [0, 1], got 2.0"),
        ("expected_probs", (0.5, float("nan")), "expected_probs[1] must be a finite real in [0, 1], got nan"),
        ("expected_probs", (-0.5, 0.5), "expected_probs[0] must be a finite real in [0, 1], got -0.5"),
        ("expected_probs", ("x", 0.5), "expected_probs[0] must be a real number, got str"),
        ("expected_probs", (0.5, 10**400), "expected_probs[1] 100000000000000000...0000000000000000000 is beyond the float range"),
        ("seed", None, "seed must be an integer, got NoneType"),
        ("seed", "x", "seed must be an integer, got str"),
        ("seed", 0.0, "seed must be an integer, got float"),
        ("seed", -1, "seed must be >= 0"),
    ],
    ids=[
        "outcomes-none",
        "outcomes-str",
        "counts-int",
        "counts-array",
        "probs-bytes",
        "count-float",
        "count-negative",
        "prob-above-one",
        "prob-nan",
        "prob-negative",
        "prob-str",
        "prob-huge",
        "seed-none",
        "seed-str",
        "seed-float",
        "seed-negative",
    ],
)
def test_report_refuses_what_deviation_check_cannot_read(field, value, message):
    with pytest.raises(ValidationError) as info:
        SampleReport(**{**REPORT, field: value})
    assert str(info.value) == message


def test_sample_measurement_refuses_labels_that_are_no_collection():
    with pytest.raises(ValidationError) as info:
        sample_measurement([Projector(np.eye(2))], DensityMatrix(PLUS_STATE), 10, 0, labels=5)
    assert str(info.value) == "labels must be a collection of labels, got int"



@pytest.mark.parametrize(
    "partition, message",
    [
        (5, "partition must be an iterable of Projectors, got int"),
        (None, "partition must be an iterable of Projectors, got NoneType"),
        ([np.eye(2)], "partition entry 0 must be a Projector, got ndarray"),
        ([Projector(np.diag([1.0, 0.0])), np.diag([0.0, 1.0])], "partition entry 1 must be a Projector, got ndarray"),
        ("ab", "partition entry 0 must be a Projector, got str"),
    ],
    ids=["int", "none", "array", "array-second", "str"],
)
def test_sample_measurement_refuses_what_is_no_partition(partition, message):
    with pytest.raises(ValidationError) as info:
        sample_measurement(partition, DensityMatrix(PLUS_STATE), 10, 0)
    assert str(info.value) == message


# --- the multinomial draw against the literal O(N) samplers ---

LAW_SEEDS = 200
LAW_N = 20000


def _oracle_report(counts, expected) -> SampleReport:
    return SampleReport(
        outcomes=tuple(str(i) for i in range(len(counts))),
        counts=tuple(int(c) for c in counts),
        expected_probs=tuple(expected),
        seed=0,
    )


def _law_case(kind: str):
    """(library sampler, literal oracle counts) for one fixed system, both by seed."""
    if kind == "cycle":
        # states 1 and 3 are visited twice per period
        c = ClassicalCycle(4, ((1, 0.7), (3, 1.1), (2, 0.4), (1, 0.5), (4, 2.0), (3, 0.3)))
        return (
            lambda seed: sample_classical(c, LAW_N, seed),
            lambda seed: literal_classical_counts(c, LAW_N, seed),
        )
    rng = np.random.default_rng(86)
    partition = random_partition(rng, 6, 4)
    rho = random_density(rng, 6)
    return (
        lambda seed: sample_measurement(partition, rho, LAW_N, seed),
        lambda seed: literal_measurement_counts(partition, rho, LAW_N, seed),
    )


@pytest.mark.parametrize("kind", ["cycle", "partition"])
def test_multinomial_draw_has_the_literal_samplers_law(kind):
    library, oracle = _law_case(kind)
    reports = [library(seed) for seed in range(LAW_SEEDS)]
    probs = np.array(reports[0].expected_probs)
    oracle_counts = [oracle(seed) for seed in range(LAW_SEEDS)]
    library_passes = sum(deviation_check(r) for r in reports)
    oracle_passes = sum(deviation_check(_oracle_report(c, probs)) for c in oracle_counts)
    assert min(library_passes, oracle_passes) >= LAW_SEEDS - 2
    assert abs(library_passes - oracle_passes) <= 2
    # the mean of LAW_SEEDS independent counts has deviation sqrt(N p (1-p) / seeds)
    bound = 5.0 * np.sqrt(LAW_N * probs * (1.0 - probs) / LAW_SEEDS) + 1e-9
    for counts in (np.array([r.counts for r in reports]), np.array(oracle_counts)):
        assert np.all(np.abs(counts.mean(axis=0) - LAW_N * probs) <= bound)


def test_sample_cost_does_not_grow_with_n():
    c = ClassicalCycle(3, ((1, 1.0), (2, 0.5), (3, 2.5)))
    start = time.perf_counter()
    report = sample_classical(c, 10**15, seed=13)
    assert time.perf_counter() - start < 2.0
    assert report.total == 10**15
    assert sum(report.counts) == 10**15
    assert deviation_check(report)


def test_sample_classical_many_states():
    # 10**5 dwell fractions still pass numpy's check that the weights sum to 1
    rng = np.random.default_rng(87)
    n = 10**5
    order = rng.permutation(n) + 1
    c = ClassicalCycle(n, [(int(s), float(d)) for s, d in zip(order, rng.uniform(0.1, 3.0, n))])
    report = sample_classical(c, 10**6, seed=14)
    assert sum(report.counts) == 10**6
    assert len(report.counts) == n


@pytest.mark.parametrize(
    "n_samples, seed", [(2**63, 0), (10**30, 0), (10, -1)], ids=["n-past-int64", "n-huge", "seed-negative"]
)
def test_samplers_refuse_out_of_range_draw_args(n_samples, seed):
    with pytest.raises(ValidationError):
        sample_classical(ClassicalCycle(1, ((1, 1.0),)), n_samples, seed)
    with pytest.raises(ValidationError):
        sample_measurement([Projector(np.eye(2))], DensityMatrix(PLUS_STATE), n_samples, seed)



TWO_STATES = ClassicalCycle(2, ((1, 1.0), (2, 1.0)))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_classical(TWO_STATES, 2.9, 0), "n_samples must be an integer, got float"),
        (lambda: sample_classical(TWO_STATES, "12", 0), "n_samples must be an integer, got str"),
        (lambda: sample_classical(TWO_STATES, None, 0), "n_samples must be an integer, got NoneType"),
        (lambda: sample_classical(TWO_STATES, True, 0), "n_samples must be an integer, got bool"),
        (lambda: sample_classical(TWO_STATES, 10, 1.7), "seed must be an integer, got float"),
        (
            lambda: sample_measurement([Projector(np.eye(2))], DensityMatrix(PLUS_STATE), 2.9, 0),
            "n_samples must be an integer, got float",
        ),
        (lambda: time_average_indicator(TWO_STATES, steps=2.5), "steps must be an integer, got float"),
    ],
    ids=["n-float", "n-str", "n-none", "n-bool", "seed-float", "measurement-n-float", "steps-float"],
)
def test_counts_and_seeds_are_refused_rather_than_coerced(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sample_classical(TWO_STATES, 2**63, 0), "n_samples must be <= 9223372036854775807"),
        (
            lambda: sample_measurement([Projector(np.eye(2))], DensityMatrix(PLUS_STATE), 2**63, 0),
            "n_samples must be <= 9223372036854775807",
        ),
        (lambda: sample_classical(TWO_STATES, 0, "x"), "n_samples must be >= 1"),  # the count's range, then the seed
        (lambda: sample_classical(TWO_STATES, 1, -1), "seed must be >= 0"),
        (lambda: time_average_indicator(TWO_STATES, 0), "steps must be >= 1"),
    ],
    ids=["n-past-int64", "partition-n-past-int64", "n-zero-before-seed-type", "seed-negative", "steps-zero"],
)
def test_each_count_is_read_then_bounded_before_the_next(call, message):
    with pytest.raises(ValidationError) as info:
        call()
    assert str(info.value) == message


def test_numpy_integers_are_counts_and_seeds():
    assert sample_classical(TWO_STATES, np.int64(10), np.int32(3)) == sample_classical(TWO_STATES, 10, 3)
    np.testing.assert_array_equal(time_average_indicator(TWO_STATES, np.int64(4)), time_average_indicator(TWO_STATES, 4))
