"""Seeded Monte Carlo realization of the random-sampling reading of the rule.

A report keeps only per-outcome counts, so each run draws its counts as one
multinomial: the same law as N uniform-in-time draws (classical cycles, with
dwell fractions as weights) or N inverse-CDF draws (projective measurements,
with trace-rule weights), at a cost independent of N. Reports are
deterministic for a fixed seed (PCG64).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Iterable, Sequence

import numpy as np

from .classical import ClassicalCycle, dwell_fractions
from .errors import NotAPartitionError, ValidationError
from .matcore import _integer, _iterate, _labels, _operand, max_abs
from .quantum import DensityMatrix, Projector, trace_prob

PARTITION_TOL = 1e-9
SIGMA_MULTIPLIER = 5.0
MAX_SAMPLES = 2**63 - 1  # numpy's multinomial counts are int64


@dataclass(frozen=True)
class SampleReport:
    """Tally of one sampling run against its trace-rule predictions."""

    outcomes: tuple[str, ...]
    counts: tuple[int, ...]
    total: int
    empirical_freqs: tuple[float, ...]
    expected_probs: tuple[float, ...]
    max_abs_deviation: float
    seed: int

    def __post_init__(self):
        if self.total < 1:
            raise ValidationError("total must be >= 1")
        k = len(self.outcomes)
        if not (len(self.counts) == len(self.empirical_freqs) == len(self.expected_probs) == k):
            raise ValidationError("report fields must have one entry per outcome")
        if sum(self.counts) != self.total:
            raise ValidationError("counts must sum to total")

    def to_obj(self) -> dict:
        """JSON-ready dict, keys in field order (tuples serialize as arrays)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


def _build_report(
    outcomes: Sequence[str], counts: np.ndarray, total: int, expected: Sequence[float], seed: int
) -> SampleReport:
    freqs = tuple(float(c) / total for c in counts)
    deviation = max(abs(f - e) for f, e in zip(freqs, expected))
    return SampleReport(
        outcomes=tuple(outcomes),
        counts=tuple(int(c) for c in counts),
        total=total,
        empirical_freqs=freqs,
        expected_probs=tuple(float(e) for e in expected),
        max_abs_deviation=float(deviation),
        seed=seed,
    )


def _check_draw_args(n_samples: int, seed: int) -> tuple[int, int]:
    n_samples, seed = _integer(n_samples, "n_samples"), _integer(seed, "seed")
    if n_samples < 1:
        raise ValidationError("n_samples must be >= 1")
    if n_samples > MAX_SAMPLES:
        raise ValidationError("n_samples must be <= 2**63 - 1")
    if seed < 0:
        raise ValidationError("seed must be >= 0")
    return n_samples, seed


def sample_classical(c: ClassicalCycle, n_samples: int, seed: int) -> SampleReport:
    """Tally n_samples times uniform over [0, T) by the state they fall in.

    Drawn as one multinomial over the dwell fractions, which has the same law.
    Each fraction is a correctly rounded sum over a correctly rounded period,
    so together they sum to 1 within a few ulps, inside numpy's 1e-12 check
    on the weights.
    """
    _operand(c, ClassicalCycle, "cycle")
    n_samples, seed = _check_draw_args(n_samples, seed)
    fractions = dwell_fractions(c).f
    counts = np.random.default_rng(seed).multinomial(n_samples, fractions)
    labels = [f"state-{i}" for i in range(1, c.n + 1)]
    return _build_report(labels, counts, n_samples, fractions, seed)


def partition_refusal(partition: Sequence[Projector], dim: int) -> NotAPartitionError | None:
    """Why ``partition`` is not a projective partition of the identity of
    dimension ``dim``, or None when it is: the projectors must sum to the
    identity and be pairwise orthogonal, both to 1e-9 in max-norm."""
    if not partition:
        return NotAPartitionError("partition must contain at least one projector")
    if any(p.dim != dim for p in partition):
        return NotAPartitionError("all projectors must match the density matrix dimension")
    if max_abs(sum(p.mat for p in partition) - np.eye(dim)) > PARTITION_TOL:
        return NotAPartitionError("projectors do not sum to the identity within 1e-9")
    for i in range(len(partition)):
        for j in range(i + 1, len(partition)):
            if max_abs(partition[i].mat @ partition[j].mat) > PARTITION_TOL:
                return NotAPartitionError(f"projectors {i} and {j} are not orthogonal within 1e-9")
    return None


def sample_measurement(
    partition: Iterable[Projector],
    rho: DensityMatrix,
    n_samples: int,
    seed: int,
    labels: Iterable[str] | None = None,
) -> SampleReport:
    """Draw outcomes of a projective partition with trace-rule weights.

    The projectors must pass :func:`partition_refusal`; their trace
    probabilities, normalized, are then the multinomial weights of the
    counts. Weight sums off 1 by more than 1e-9 are refused.
    """
    _operand(rho, DensityMatrix, "density")
    n_samples, seed = _check_draw_args(n_samples, seed)
    partition = tuple(_iterate(partition, "partition", "an iterable of Projectors"))
    for i, p in enumerate(partition):
        _operand(p, Projector, f"partition entry {i}")
    if labels is None:
        labels = [f"outcome-{k}" for k in range(1, len(partition) + 1)]
    labels = tuple(_labels(labels, "labels"))
    if len(labels) != len(partition):
        raise ValidationError("labels must match the number of projectors")
    refusal = partition_refusal(partition, rho.dim)
    if refusal is not None:
        raise refusal

    weights = np.array([trace_prob(p, rho) for p in partition])
    weight_sum = math.fsum(weights)
    if abs(weight_sum - 1.0) > PARTITION_TOL:
        raise NotAPartitionError(f"outcome weights sum to {weight_sum!r}, off 1 beyond 1e-9")
    weights = weights / weight_sum

    counts = np.random.default_rng(seed).multinomial(n_samples, weights)
    return _build_report(labels, counts, n_samples, weights, seed)


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
