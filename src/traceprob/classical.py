"""Deterministic cyclic systems and the classical probability rule.

A classical system here is a periodic schedule over n states. A perception
set is a subset of the n state labels held as a 0/1 characteristic vector;
its probability is the dot product with the dwell-fraction vector, which is
also the trace of the diagonal projector against the diagonal density matrix.
"""

from __future__ import annotations

import math
import numbers
import operator
import reprlib
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .errors import DimensionMismatchError, ValidationError

FRACTION_SUM_TOL = 1e-9
MISSING_SHOWN = 10  # missing states named in a refusal


def _integer(x, what: str) -> int:
    """``x`` as an int: Python and numpy integers only, so 1.9 is refused rather than truncated."""
    try:
        return operator.index(x)
    except TypeError:
        raise ValidationError(f"{what} must be an integer, got {type(x).__name__}") from None


class _FloatOverflow(ValidationError):
    """A real number beyond the float range; :class:`ClassicalCycle` words it for its schedule."""


def _real(x, what: str) -> float:
    """``x`` as a float: real numbers only, so '0.5' or None is refused rather
    than parsed, and one beyond the float range (an int such as 10**400) is
    refused rather than raising OverflowError."""
    if not isinstance(x, (float, int, numbers.Real)):  # float and int skip the slower ABC check
        raise ValidationError(f"{what} must be a real number, got {type(x).__name__}")
    try:
        return float(x)
    except OverflowError:
        raise _FloatOverflow(f"{what} {reprlib.repr(x)} is beyond the float range") from None


def _first_bad_entry(entries: list) -> ValidationError:
    """The refusal of the first entry, in schedule order, that is not a pair of
    an integer state and a real duration within the float range."""
    for i, entry in enumerate(entries):
        try:
            state, duration = entry
            _integer(state, "state")
            _real(duration, "dwell duration")
        except (TypeError, ValueError):
            return ValidationError(f"schedule entry {i} must be a (state, duration) pair")
        except _FloatOverflow:
            return ValidationError(f"schedule entry {i} overflows an int state or a float duration")
        except ValidationError as exc:
            return exc
    return ValidationError("schedule entries must be (state, duration) pairs")


def _first_out_of_range(n: int, schedule) -> ValidationError:
    """The refusal of the first entry, in schedule order, whose state is outside
    1..n or whose duration is not finite and positive."""
    for state, duration in schedule:
        if not 1 <= state <= n:
            return ValidationError(f"state {reprlib.repr(state)} outside 1..{n}")
        if not (math.isfinite(duration) and duration > 0.0):
            return ValidationError(f"dwell duration {duration} must be finite and > 0")
    return ValidationError(f"schedule entries must have states in 1..{n} and finite durations > 0")


@dataclass(frozen=True)
class ClassicalCycle:
    """Periodic schedule of (state, dwell duration) entries, states 1-based.

    Every state 1..n must appear somewhere in the schedule, every duration
    must be strictly positive, and the period (their sum) must be finite. A
    state may be visited more than once per period; dwell fractions are
    summed over all its visits. ``period`` is the correctly rounded sum of
    the durations (``math.fsum``).

    The schedule is converted and checked in one pass of C-level ``map`` and
    numpy calls; only a refused schedule is scanned entry by entry, to name
    the first bad entry.
    """

    n: int
    schedule: tuple[tuple[int, float], ...]

    def __init__(self, n: int, schedule: Iterable[Sequence]):
        n = _integer(n, "cycle n")
        entries = list(schedule)
        pairs: list[tuple] = []
        try:
            pairs.extend(map(tuple, entries))  # on failure the pairs made so far are kept for the scan
            if set(map(len, pairs)) - {2}:
                raise ValueError
            states = tuple(map(operator.index, map(operator.itemgetter(0), pairs)))
            durations = tuple(map(operator.itemgetter(1), pairs))
            if not all(issubclass(t, (float, int, numbers.Real)) for t in set(map(type, durations))):
                raise TypeError
            durations = tuple(map(float, durations))
        except (TypeError, ValueError, OverflowError):
            raise _first_bad_entry(pairs + entries[len(pairs) :]) from None
        if n < 1:
            raise ValidationError("cycle needs at least one state")
        if not states:
            raise ValidationError("schedule must be non-empty")
        if n > len(states):
            raise ValidationError(
                f"cycle n is larger than its number of schedule entries ({len(states)}), so some state never appears"
            )
        dwell = np.array(durations)
        if not (min(states) >= 1 and max(states) <= n and ((dwell > 0.0) & (dwell < math.inf)).all()):
            raise _first_out_of_range(n, zip(states, durations))
        state_index = np.array(states, dtype=np.int64)
        visits = np.bincount(state_index - 1, minlength=n)
        if not visits.all():
            missing = np.flatnonzero(visits == 0) + 1
            raise ValidationError(
                f"every state must appear in the schedule; {missing.size} missing, "
                f"first {missing[:MISSING_SHOWN].tolist()}"
            )
        try:
            period = math.fsum(durations)  # an fsum of finite durations is finite or raises OverflowError
        except OverflowError:
            raise ValidationError("schedule period (the sum of the durations) is not finite") from None
        state_index.setflags(write=False)
        dwell.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "schedule", tuple(zip(states, durations)))
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_states", state_index)
        object.__setattr__(self, "_durations", dwell)

    @cached_property
    def _boundaries(self) -> np.ndarray:
        """Cumulative dwell end times, a running sum that may differ from ``period`` in the last bits."""
        with np.errstate(over="ignore"):  # rounding up may take it past a finite period to inf; lookups allow that
            return np.cumsum(self._durations)

    def state_at(self, t: float) -> int:
        """State occupied at time t (t reduced mod T, dwells half-open [start, end))."""
        return int(self._states[self._dwell_indices(np.array([t % self.period]))[0]])

    def _dwell_indices(self, times: np.ndarray) -> np.ndarray:
        """Schedule-entry index for each time in [0, T); boundary times roll forward."""
        reduced = np.where(times >= self.period, 0.0, times)
        idx = np.searchsorted(self._boundaries, reduced, side="right")
        return np.minimum(idx, len(self.schedule) - 1)


@dataclass(frozen=True)
class PerceptionSet:
    """Subset of n perception labels as a 0/1 characteristic vector."""

    chi: tuple[int, ...]

    def __init__(self, chi: Iterable):
        values = tuple(chi)
        if not values:
            raise ValidationError("characteristic vector must have dimension >= 1")
        if not all(isinstance(c, (int, float, np.bool_, numbers.Real)) and c in (0, 1) for c in values):
            raise ValidationError("characteristic vector entries must be exactly 0 or 1")
        object.__setattr__(self, "chi", tuple(int(c) for c in values))

    @classmethod
    def from_members(cls, n: int, members: Iterable[int]) -> "PerceptionSet":
        """Build from 1-based member indices."""
        n = _integer(n, "set size n")
        member_set = set(_integer(i, "member") for i in members)
        if any(not 1 <= i <= n for i in member_set):
            raise ValidationError(f"members must lie in 1..{n}")
        return cls(tuple(1 if i in member_set else 0 for i in range(1, n + 1)))

    @property
    def n(self) -> int:
        return len(self.chi)

    @property
    def members(self) -> tuple[int, ...]:
        """1-based indices of the labels in the set."""
        return tuple(i + 1 for i, c in enumerate(self.chi) if c == 1)


@dataclass(frozen=True)
class FractionVector:
    """Nonnegative probability weights summing to 1 (within 1e-9).

    Construction rejects unnormalized input rather than silently fixing it;
    use :meth:`normalized` to renormalize explicitly.
    """

    f: tuple[float, ...]

    def __init__(self, f: Iterable[float]):
        values = tuple(_real(x, "fraction") for x in f)
        if not values:
            raise ValidationError("fraction vector must have dimension >= 1")
        if any(not (math.isfinite(x) and x >= 0.0) for x in values):
            raise ValidationError("fractions must be finite and >= 0")
        total = math.fsum(values)
        if abs(total - 1.0) > FRACTION_SUM_TOL:
            raise ValidationError(f"fractions must sum to 1 within {FRACTION_SUM_TOL}; got {total!r}")
        object.__setattr__(self, "f", values)

    @classmethod
    def normalized(cls, values: Iterable[float]) -> "FractionVector":
        """Divide nonnegative weights by their sum."""
        raw = [_real(x, "weight") for x in values]
        if any(not (math.isfinite(x) and x >= 0.0) for x in raw):
            raise ValidationError("weights must be finite and >= 0")
        total = math.fsum(raw)
        if total <= 0.0:
            raise ValidationError("cannot normalize weights with zero sum")
        return cls(x / total for x in raw)

    @property
    def n(self) -> int:
        return len(self.f)


def _check_same_dim(n1: int, n2: int) -> None:
    if n1 != n2:
        raise DimensionMismatchError(f"dimension mismatch: {n1} vs {n2}")


def char_and(s: PerceptionSet, s2: PerceptionSet) -> PerceptionSet:
    """Intersection: componentwise product of characteristic vectors."""
    _check_same_dim(s.n, s2.n)
    return PerceptionSet(a * b for a, b in zip(s.chi, s2.chi))


def char_or(s: PerceptionSet, s2: PerceptionSet) -> PerceptionSet:
    """Union: chi + chi' - chi*chi' componentwise."""
    _check_same_dim(s.n, s2.n)
    return PerceptionSet(a + b - a * b for a, b in zip(s.chi, s2.chi))


def classical_prob(s: PerceptionSet, f: FractionVector) -> float:
    """Probability of the set: sum of the fractions of its members."""
    _check_same_dim(s.n, f.n)
    return math.fsum(c * x for c, x in zip(s.chi, f.f))


def diag_projector(s: PerceptionSet) -> np.ndarray:
    """Diagonal projection matrix whose diagonal is the characteristic vector."""
    return np.diag(np.array(s.chi, dtype=complex))


def classical_density(f: FractionVector) -> np.ndarray:
    """Diagonal density matrix whose diagonal is the fraction vector."""
    return np.diag(np.array(f.f, dtype=complex))


def indicator_matrix(c: ClassicalCycle, t: float) -> np.ndarray:
    """Diagonal matrix with a single 1 marking the state occupied at time t."""
    out = np.zeros((c.n, c.n), dtype=complex)
    state = c.state_at(float(t))
    out[state - 1, state - 1] = 1.0
    return out


def time_average_indicator(c: ClassicalCycle, steps: int) -> np.ndarray:
    """Midpoint Riemann average of the indicator matrix over one period.

    Converges to ``classical_density(dwell_fractions(c))`` with max-entry
    error O(1/steps).
    """
    steps = int(steps)
    if steps < 1:
        raise ValidationError("steps must be >= 1")
    midpoints = (np.arange(steps, dtype=float) + 0.5) * (c.period / steps)
    states = c._states[c._dwell_indices(midpoints)]
    counts = np.bincount(states - 1, minlength=c.n)
    return np.diag(counts / steps).astype(complex)


def dwell_fractions(c: ClassicalCycle) -> FractionVector:
    """Fraction of the period spent in each state, summed over repeat visits.

    Each state's durations are summed by ``math.fsum``, which is correctly
    rounded whatever the order, so grouping them by a sort changes no bit.
    """
    order = np.argsort(c._states, kind="stable")
    by_state = c._durations[order].tolist()
    ends = np.searchsorted(c._states[order], np.arange(1, c.n + 1), side="right").tolist()
    return FractionVector([math.fsum(by_state[a:b]) / c.period for a, b in zip([0] + ends[:-1], ends)])
