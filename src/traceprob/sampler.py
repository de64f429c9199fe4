"""Seeded Monte Carlo realization of the random-sampling reading of the rule.

A report keeps only per-outcome counts, so each run draws its counts as one
multinomial: the same law as N uniform-in-time draws (classical cycles, with
dwell fractions as weights) or N inverse-CDF draws (projective measurements,
with trace-rule weights), at a cost independent of N. Reports are
deterministic for a fixed seed (PCG64).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .classical import ClassicalCycle, dwell_fractions
from .errors import NotAPartitionError, NumericalIntegrityError, ValidationError
from .matcore import _integer, _iterate, _labels, _operand, _real, max_abs
from .quantum import DensityMatrix, Projector, trace_prob

PARTITION_TOL = 1e-9
SIGMA_MULTIPLIER = 5.0
MAX_SAMPLES = 2**63 - 1  # numpy's multinomial counts are int64


@dataclass(frozen=True)
class SampleReport:
    """Tally of one sampling run against its trace-rule predictions.

    Refused unless it is what :func:`deviation_check` reads: sequences (not text)
    of one entry per outcome, counts integers >= 0 summing to at least 1,
    probabilities finite reals in [0, 1], and a seed an integer >= 0. The total,
    frequencies and largest deviation are derived from the counts.
    """

    outcomes: tuple[str, ...]
    counts: tuple[int, ...]
    expected_probs: tuple[float, ...]
    seed: int

    def __post_init__(self):
        for name in ("outcomes", "counts", "expected_probs"):
            if not isinstance(value := getattr(self, name), Sequence) or isinstance(value, (str, bytes)):
                raise ValidationError(f"{name} must be a sequence, got {type(value).__name__}")
        if not (len(self.counts) == len(self.expected_probs) == len(self.outcomes)):
            raise ValidationError("report fields must have one entry per outcome")
        for i, c in enumerate(self.counts):
            _integer(c, f"counts[{i}]", 0)
        if self.total < 1:
            raise ValidationError("total must be >= 1")
        for i, x in enumerate(self.expected_probs):
            if not 0.0 <= (v := _real(x, f"expected_probs[{i}]")) <= 1.0:
                raise ValidationError(f"expected_probs[{i}] must be a finite real in [0, 1], got {v!r}")
        _integer(self.seed, "seed", 0)

    @property
    def total(self) -> int:
        return sum(self.counts)

    @property
    def empirical_freqs(self) -> tuple[float, ...]:
        total = self.total
        return tuple(float(c) / total for c in self.counts)

    @property
    def max_abs_deviation(self) -> float:
        return max(abs(f - e) for f, e in zip(self.empirical_freqs, self.expected_probs))

    def to_obj(self) -> dict:
        """JSON-ready dict of the stored and the derived values (tuples serialize as arrays)."""
        keys = ("outcomes", "counts", "total", "empirical_freqs", "expected_probs", "max_abs_deviation", "seed")
        return {key: getattr(self, key) for key in keys}


def _build_report(outcomes: Sequence[str], counts: np.ndarray, expected: Sequence[float], seed: int) -> SampleReport:
    return SampleReport(tuple(outcomes), tuple(int(c) for c in counts), tuple(float(e) for e in expected), seed)


def sample_classical(c: ClassicalCycle, n_samples: int, seed: int) -> SampleReport:
    """Tally n_samples times uniform over [0, T) by the state they fall in.

    Drawn as one multinomial over the dwell fractions, which has the same law.
    Each fraction is a correctly rounded sum over a correctly rounded period,
    so together they sum to 1 within a few ulps, inside numpy's 1e-12 check
    on the weights.
    """
    _operand(c, ClassicalCycle, "cycle")
    n_samples, seed = _integer(n_samples, "n_samples", 1, MAX_SAMPLES), _integer(seed, "seed", 0)
    fractions = dwell_fractions(c).f
    counts = np.random.default_rng(seed).multinomial(n_samples, fractions)
    labels = [f"state-{i}" for i in range(1, c.n + 1)]
    return _build_report(labels, counts, fractions, seed)


def sample_measurement(
    partition: Iterable[Projector],
    rho: DensityMatrix,
    n_samples: int,
    seed: int,
    labels: Iterable[str] | None = None,
) -> SampleReport:
    """Draw outcomes of a projective partition with trace-rule weights.

    The projectors must be a partition of the identity of rho's dimension:
    summing to it and pairwise orthogonal, both to 1e-9 in max-norm, or
    ``NotAPartitionError``. Their trace probabilities, normalized, are then
    the multinomial weights of the counts; weights summing off 1 by more
    than 1e-9 are refused with ``NumericalIntegrityError``.
    """
    _operand(rho, DensityMatrix, "density")
    n_samples, seed = _integer(n_samples, "n_samples", 1, MAX_SAMPLES), _integer(seed, "seed", 0)
    partition = tuple(_iterate(partition, "partition", "an iterable of Projectors"))
    for i, p in enumerate(partition):
        _operand(p, Projector, f"partition entry {i}")
    if labels is None:
        labels = [f"outcome-{k}" for k in range(1, len(partition) + 1)]
    labels = tuple(_labels(labels, "labels"))
    if len(labels) != len(partition):
        raise ValidationError("labels must match the number of projectors")
    if not partition:
        raise NotAPartitionError("partition must contain at least one projector")
    if any(p.dim != rho.dim for p in partition):
        raise NotAPartitionError("all projectors must match the density matrix dimension")
    if max_abs(sum(p.mat for p in partition) - np.eye(rho.dim)) > PARTITION_TOL:
        raise NotAPartitionError("projectors do not sum to the identity within 1e-9")
    # P_i P_j is exactly 0, every term having a zero factor, unless a nonzero column of P_i meets a nonzero row of P_j.
    columns, rows = [p.mat.any(axis=0) for p in partition], [p.mat.any(axis=1) for p in partition]
    for i in range(len(partition)):
        for j in range(i + 1, len(partition)):
            if (columns[i] & rows[j]).any() and max_abs(partition[i].mat @ partition[j].mat) > PARTITION_TOL:
                raise NotAPartitionError(f"projectors {i} and {j} are not orthogonal within 1e-9")

    weights = np.array([trace_prob(p, rho) for p in partition])
    weight_sum = math.fsum(weights)
    if abs(weight_sum - 1.0) > PARTITION_TOL:
        raise NumericalIntegrityError(f"outcome weights sum to {weight_sum!r}, off 1 beyond 1e-9")
    weights = weights / weight_sum

    counts = np.random.default_rng(seed).multinomial(n_samples, weights)
    return _build_report(labels, counts, weights, seed)


def deviation_check(report: SampleReport) -> bool:
    """Whether every outcome sits within its binomial deviation bound.

    The bound per outcome is SIGMA_MULTIPLIER * sqrt(p(1-p)/N) + 1/N, the
    extra 1/N covering the granularity of empirical frequencies.
    """
    _operand(report, SampleReport, "report")
    n = report.total
    for freq, p in zip(report.empirical_freqs, report.expected_probs):
        bound = SIGMA_MULTIPLIER * math.sqrt(p * (1.0 - p) / n) + 1.0 / n
        if abs(freq - p) > bound:
            return False
    return True
