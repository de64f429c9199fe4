"""Positive-operator measures over finite perception algebras.

Dropping idempotency and unit trace turns the trace rule into an unnormalized
measure over perception sets. An algebra holds finitely many labeled atoms,
each carrying a positive Hermitian operator; the operator of a set is the sum
over its atoms. The measure is linear in that operator, so it is evaluated
as a sum of per-atom expectations Re tr(A_i rho), and disjoint-union
additivity holds exactly by construction. Dividing
by the total measure (when it is usefully nonzero) recovers probabilities,
and ratios of sub-measures give conditional probabilities.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSubsetError,
    UnknownLabelError,
    ValidationError,
    ZeroConditionMeasureError,
    ZeroTotalMeasureError,
)
from .matcore import DEFAULT_TOL, _is_hermitian, _labels, _operand, _real_diagonal, _tol, fsum, min_eigenvalue, same_dim
from .matcore import is_hermitian, matrix_from_rows  # noqa: F401  (perfbench/tracer.py wraps both as measure's)
from .quantum import PROB_SLACK, DensityMatrix, Operator, RealityMode, Sealed, _reality, bounded

ZERO_MEASURE_TOL = 1e-12
MEASURE_SLACK = 1e-10


class PovOperator(Operator):
    """Positive semidefinite Hermitian operator; not required idempotent or <= I.
    Copied once, into row-major order, as a :class:`Projector` is."""

    __slots__ = ()

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m, tol = _reality(mode, mat, "C"), _tol(tol)
        diag = _real_diagonal(m)
        if not _is_hermitian(m, diag, tol):
            raise ValidationError("POV operator must be Hermitian within tolerance")
        if min_eigenvalue(m, diag) < -tol:
            raise ValidationError("POV operator must be positive semidefinite (eigenvalues >= -tol)")
        self._seal(m, tol)


def _pairs(atoms) -> list[tuple]:
    """The (label, value) pairs of ``atoms``, which must be an iterable of pairs."""
    try:
        pairs = [tuple(atom) for atom in atoms]
        if all(len(pair) == 2 for pair in pairs):
            return pairs
    except TypeError:
        pass
    raise ValidationError("atoms must be an iterable of (label, operator) pairs")


class PerceptionAlgebra(Sealed):
    """Finite family of labeled disjoint atoms, one positive operator each.

    Sets are subsets of the atom labels; the operator of a set is the sum of
    its atoms' operators. Atoms need not sum to the identity, so the total
    measure may differ from 1.

    Measures are evaluated from the per-state expectation vector
    e_i = Re tr(A_i rho), one O(n^2) BLAS dot per atom as in ``trace_prob``.
    The algebra memoizes that vector, with its correctly rounded total, in a
    single slot keyed by the identity of the last state seen; the slot holds
    a strong reference to that (immutable) state, so the key cannot be reused
    while it is held. Repeated queries against one state then cost O(|S|) each, and
    alternating between states recomputes the vector on every switch.
    """

    __slots__ = ("_atoms", "_memo")

    def __init__(self, atoms: Sequence[tuple[str, PovOperator]]):
        table = {}
        for label, op in _pairs(atoms):
            label = str(label)
            if label in table:
                raise ValidationError(f"duplicate atom label {label!r}")
            if not isinstance(op, PovOperator):
                raise ValidationError("atoms must map labels to PovOperator values")
            table[label] = op
        if not table:
            raise ValidationError("algebra needs at least one atom")
        dims = {op.dim for op in table.values()}
        if len(dims) != 1:
            raise DimensionMismatchError(f"atom operators have mixed dims {sorted(dims)}")
        object.__setattr__(self, "_atoms", table)
        object.__setattr__(self, "_memo", None)

    @classmethod
    def from_matrices(
        cls,
        pairs: Sequence[tuple[str, object]],
        *,
        mode: RealityMode = RealityMode.COMPLEX,
        tol: float = DEFAULT_TOL,
    ) -> "PerceptionAlgebra":
        return cls([(label, PovOperator(mat, mode=mode, tol=tol)) for label, mat in _pairs(pairs)])

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(self._atoms)

    @property
    def dim(self) -> int:
        return next(iter(self._atoms.values())).dim

    def atom(self, label: str) -> PovOperator:
        try:
            return self._atoms[label]
        except (KeyError, TypeError):  # an unhashable label names no atom either
            raise UnknownLabelError(f"unknown atom label {label!r}") from None

    def _expectations(self, rho: DensityMatrix) -> tuple[dict[str, float], float]:
        """Per-atom expectations Re tr(A_i rho) by label, and their fsum total."""
        memo = self._memo
        if memo is not None and memo[0] is rho:
            return memo[1], memo[2]
        same_dim("algebra", self.dim, "density", rho.dim)
        rho_t = rho.mat.T.ravel()
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or nan, refused below
            e = {label: float(np.dot(op.mat.ravel(), rho_t).real) for label, op in self._atoms.items()}
        if not all(math.isfinite(x) for x in e.values()):
            raise NonFiniteError("an atom expectation is not finite")
        total = fsum(e.values())
        # One tuple assignment, so a concurrent reader sees either slot whole.
        object.__setattr__(self, "_memo", (rho, e, total))
        return e, total

    def __repr__(self) -> str:
        return f"PerceptionAlgebra(atoms={list(self._atoms)!r})"


def _resolve_labels(alg: PerceptionAlgebra, s: Iterable[str]) -> set[str]:
    """Validate and deduplicate a label subset, a collection of labels (a str is refused)."""
    wanted = set()
    for label in _labels(s, "a set of labels"):
        label = str(label)
        if label not in alg._atoms:
            raise UnknownLabelError(f"unknown atom label {label!r}")
        wanted.add(label)
    return wanted


def union_operator(alg: PerceptionAlgebra, s: Iterable[str]) -> PovOperator:
    """Sum of the atom operators of ``s``; the empty set gives the zero operator."""
    _operand(alg, PerceptionAlgebra, "algebra")
    labels = _resolve_labels(alg, s)
    zero = np.zeros((alg.dim, alg.dim), dtype=complex)
    with np.errstate(over="ignore"):  # an overflow reads as inf, which PovOperator refuses
        total = sum((alg.atom(label).mat for label in alg.labels if label in labels), zero)
    return PovOperator(total, tol=max(op.tol for op in alg._atoms.values()))


def measure_of(alg: PerceptionAlgebra, s: Iterable[str], rho: DensityMatrix) -> float:
    """Unnormalized measure of the set: Re tr(P(S) rho), clamped at 0.

    Evaluated as the correctly rounded sum of the atoms' expectations
    Re tr(A_i rho) over S, read from the algebra's per-state expectation
    vector (computed once per state and memoized in a single slot), so a
    call costs O(|S|) once that vector exists and no operator is summed or
    re-validated.
    """
    _operand(alg, PerceptionAlgebra, "algebra")
    _operand(rho, DensityMatrix, "density")
    e, _ = alg._expectations(rho)
    return bounded(fsum([e[label] for label in _resolve_labels(alg, s)]), "measure", MEASURE_SLACK)


def total_measure(alg: PerceptionAlgebra, rho: DensityMatrix) -> float:
    """Measure of the full perception set (all atoms)."""
    _operand(alg, PerceptionAlgebra, "algebra")
    _operand(rho, DensityMatrix, "density")
    return bounded(alg._expectations(rho)[1], "measure", MEASURE_SLACK)


def normalized_prob(alg: PerceptionAlgebra, s: Iterable[str], rho: DensityMatrix) -> float:
    """Probability of the set: measure(S) / measure(M), clamped to [0, 1]."""
    total = total_measure(alg, rho)
    if total <= ZERO_MEASURE_TOL:
        raise ZeroTotalMeasureError(f"total measure {total!r} <= {ZERO_MEASURE_TOL}; cannot normalize")
    return bounded(measure_of(alg, s, rho) / total, "normalized probability", PROB_SLACK, 1.0)


def conditional_prob(
    alg: PerceptionAlgebra, s_sub: Iterable[str], m_sub: Iterable[str], rho: DensityMatrix
) -> float:
    """Conditional probability measure(S') / measure(M') for S' inside M', clamped to [0, 1]."""
    _operand(alg, PerceptionAlgebra, "algebra")
    s_labels = _resolve_labels(alg, s_sub)
    m_labels = _resolve_labels(alg, m_sub)
    if not s_labels <= m_labels:
        extra = sorted(s_labels - m_labels)
        raise NotSubsetError(f"set is not contained in the conditioning set; extra atoms {extra}")
    denom = measure_of(alg, m_labels, rho)
    if denom <= ZERO_MEASURE_TOL:
        raise ZeroConditionMeasureError(f"conditioning measure {denom!r} <= {ZERO_MEASURE_TOL}")
    return bounded(measure_of(alg, s_labels, rho) / denom, "conditional probability", PROB_SLACK, 1.0)
