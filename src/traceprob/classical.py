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

from .errors import ValidationError
from .matcore import _FloatOverflow, _integer, _iterate, _operand, _real, _time, fsum, same_dim

FRACTION_SUM_TOL = 1e-9
MISSING_SHOWN = 10  # missing states named in a refusal
# The longest float array numpy can size; np.arange would refuse more steps, or wrap them to an empty grid.
MAX_STEPS = np.iinfo(np.intp).max // 8


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
    the durations (``matcore.fsum``).

    The schedule is converted and checked in one pass of C-level ``map`` and
    numpy calls; only a refused schedule is scanned entry by entry, to name
    the first bad entry. Pairs of exactly an ``int`` state and a ``float``
    duration, as JSON decodes them, are kept as given, not converted.
    """

    n: int
    schedule: tuple[tuple[int, float], ...]

    def __init__(self, n: int, schedule: Iterable[Sequence]):
        n = _integer(n, "cycle n")
        entries = list(_iterate(schedule, "schedule"))
        pairs: list[tuple] = []
        try:
            pairs.extend(map(tuple, entries))  # on failure the pairs made so far are kept for the scan
            if set(map(len, pairs)) - {2}:
                raise ValueError
            states = tuple(map(operator.itemgetter(0), pairs))
            durations = tuple(map(operator.itemgetter(1), pairs))
            state_types, duration_types = set(map(type, states)), set(map(type, durations))
            if state_types != {int} or duration_types != {float}:  # else the pairs are kept as given
                if bool in state_types or not all(
                    t is not bool and issubclass(t, (float, int, numbers.Real)) for t in duration_types
                ):
                    raise TypeError  # a bool is no state or duration
                states = tuple(map(operator.index, states))
                durations = tuple(map(float, durations))
                pairs = list(zip(states, durations))
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
            raise _first_out_of_range(n, pairs)
        state_index = np.array(states, dtype=np.int64)
        visits = np.bincount(state_index - 1, minlength=n)
        if not visits.all():
            missing = np.flatnonzero(visits == 0) + 1
            raise ValidationError(
                f"every state must appear in the schedule; {missing.size} missing, "
                f"first {missing[:MISSING_SHOWN].tolist()}"
            )
        period = fsum(durations)
        if period == math.inf:
            raise ValidationError("schedule period (the sum of the durations) is not finite")
        state_index.setflags(write=False)
        dwell.setflags(write=False)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "schedule", tuple(pairs))
        object.__setattr__(self, "period", period)
        object.__setattr__(self, "_states", state_index)
        object.__setattr__(self, "_durations", dwell)

    @cached_property
    def _boundaries(self) -> np.ndarray:
        """Cumulative dwell end times, a running sum that may differ from ``period`` in the last bits."""
        with np.errstate(over="ignore"):  # rounding up may take it past a finite period to inf; lookups allow that
            return np.cumsum(self._durations)

    def state_at(self, t: float) -> int:
        """State occupied at time t (t reduced mod T, dwells half-open [start, end)); t is a finite real."""
        return int(self._states[self._dwell_indices(np.array([_time(t) % self.period]))[0]])

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
        values = tuple(_iterate(chi, "characteristic vector"))
        if not values:
            raise ValidationError("characteristic vector must have dimension >= 1")
        if not all(isinstance(c, (int, float, np.bool_, numbers.Real)) and c in (0, 1) for c in values):
            raise ValidationError("characteristic vector entries must be exactly 0 or 1")
        object.__setattr__(self, "chi", tuple(int(c) for c in values))

    @property
    def n(self) -> int:
        return len(self.chi)


@dataclass(frozen=True)
class FractionVector:
    """Nonnegative probability weights summing to 1 (within 1e-9).

    Construction rejects unnormalized input rather than silently fixing it.
    """

    f: tuple[float, ...]

    def __init__(self, f: Iterable[float]):
        values = tuple(_real(x, "fraction") for x in _iterate(f, "fractions"))
        if not values:
            raise ValidationError("fraction vector must have dimension >= 1")
        if any(not (math.isfinite(x) and x >= 0.0) for x in values):
            raise ValidationError("fractions must be finite and >= 0")
        total = fsum(values)
        if abs(total - 1.0) > FRACTION_SUM_TOL:
            raise ValidationError(f"fractions must sum to 1 within {FRACTION_SUM_TOL}; got {total!r}")
        object.__setattr__(self, "f", values)

    @property
    def n(self) -> int:
        return len(self.f)


def char_and(s: PerceptionSet, s2: PerceptionSet) -> PerceptionSet:
    """Intersection: componentwise product of characteristic vectors."""
    _operand(s, PerceptionSet, "set")
    _operand(s2, PerceptionSet, "set")
    same_dim("set", s.n, "set", s2.n)
    return PerceptionSet(a * b for a, b in zip(s.chi, s2.chi))


def classical_prob(s: PerceptionSet, f: FractionVector) -> float:
    """Probability of the set: sum of the fractions of its members."""
    _operand(s, PerceptionSet, "set")
    _operand(f, FractionVector, "fractions")
    same_dim("set", s.n, "fractions", f.n)
    return math.fsum(c * x for c, x in zip(s.chi, f.f))


def diag_projector(s: PerceptionSet) -> np.ndarray:
    """Diagonal projection matrix whose diagonal is the characteristic vector."""
    _operand(s, PerceptionSet, "set")
    return np.diag(np.array(s.chi, dtype=complex))


def classical_density(f: FractionVector) -> np.ndarray:
    """Diagonal density matrix whose diagonal is the fraction vector."""
    _operand(f, FractionVector, "fractions")
    return np.diag(np.array(f.f, dtype=complex))


def time_average_indicator(c: ClassicalCycle, steps: int) -> np.ndarray:
    """Midpoint Riemann average over one period of the indicator of the state at t (``state_at``).

    Converges to ``classical_density(dwell_fractions(c))`` with max-entry
    error O(1/steps).
    """
    _operand(c, ClassicalCycle, "cycle")
    steps = _integer(steps, "steps", 1, MAX_STEPS)
    midpoints = (np.arange(steps, dtype=float) + 0.5) * (c.period / steps)
    states = c._states[c._dwell_indices(midpoints)]
    counts = np.bincount(states - 1, minlength=c.n)
    return np.diag(counts / steps).astype(complex)


def dwell_fractions(c: ClassicalCycle) -> FractionVector:
    """Fraction of the period spent in each state, summed over repeat visits.

    Each state's durations are summed by ``math.fsum``, which is correctly
    rounded whatever the order, so grouping them by a sort changes no bit.
    """
    _operand(c, ClassicalCycle, "cycle")
    order = np.argsort(c._states, kind="stable")
    by_state = c._durations[order].tolist()
    ends = np.searchsorted(c._states[order], np.arange(1, c.n + 1), side="right").tolist()
    return FractionVector([math.fsum(by_state[a:b]) / c.period for a, b in zip([0] + ends[:-1], ends)])
