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
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    NotSubsetError,
    SpecParseError,
    UnknownLabelError,
    ValidationError,
    ZeroConditionMeasureError,
    ZeroTotalMeasureError,
    located,
)
from .matcore import DEFAULT_TOL, is_hermitian, matrix_from_rows, matrix_to_rows, min_eigenvalue
from .quantum import PROB_SLACK, DensityMatrix, Operator, RealityMode, Sealed, bounded, enforce_reality

ZERO_MEASURE_TOL = 1e-12
MEASURE_SLACK = 1e-10


class PovOperator(Operator):
    """Positive semidefinite Hermitian operator; not required idempotent or <= I."""

    __slots__ = ()

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m = enforce_reality(mode, mat)
        if not is_hermitian(m, tol):
            raise ValidationError("POV operator must be Hermitian within tolerance")
        if min_eigenvalue(m) < -tol:
            raise ValidationError("POV operator must be positive semidefinite (eigenvalues >= -tol)")
        self._seal(m)


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

    __slots__ = ("_labels", "_atoms", "_memo")

    def __init__(self, atoms: Sequence[tuple[str, PovOperator]]):
        table = {}
        for label, op in atoms:
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
        object.__setattr__(self, "_labels", tuple(table))
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
        return cls([(label, PovOperator(mat, mode=mode, tol=tol)) for label, mat in pairs])

    @property
    def labels(self) -> tuple[str, ...]:
        return self._labels

    @property
    def dim(self) -> int:
        return self._atoms[self._labels[0]].dim

    def atom(self, label: str) -> PovOperator:
        try:
            return self._atoms[label]
        except KeyError:
            raise UnknownLabelError(f"unknown atom label {label!r}") from None

    def _expectations(self, rho: DensityMatrix) -> tuple[dict[str, float], float]:
        """Per-atom expectations Re tr(A_i rho) by label, and their fsum total."""
        memo = self._memo
        if memo is not None and memo[0] is rho:
            return memo[1], memo[2]
        if self.dim != rho.dim:
            raise DimensionMismatchError(f"algebra dim {self.dim} vs density dim {rho.dim}")
        rho_t = rho.mat.T.ravel()
        e = {label: float(np.dot(op.mat.ravel(), rho_t).real) for label, op in self._atoms.items()}
        if not all(math.isfinite(x) for x in e.values()):
            raise NonFiniteError("an atom expectation is not finite")
        total = _fsum(e.values())
        # One tuple assignment, so a concurrent reader sees either slot whole.
        object.__setattr__(self, "_memo", (rho, e, total))
        return e, total

    def __repr__(self) -> str:
        return f"PerceptionAlgebra(atoms={list(self._labels)!r})"


def _fsum(values: Iterable[float]) -> float:
    """math.fsum of finite values, reading a sum beyond the float range as inf."""
    try:
        return math.fsum(values)
    except OverflowError:
        return math.inf


def _resolve_labels(alg: PerceptionAlgebra, s: Iterable[str]) -> set[str]:
    """Validate and deduplicate a label subset."""
    wanted = set()
    for label in s:
        label = str(label)
        if label not in alg._atoms:
            raise UnknownLabelError(f"unknown atom label {label!r}")
        wanted.add(label)
    return wanted


def union_operator(alg: PerceptionAlgebra, s: Iterable[str]) -> PovOperator:
    """Sum of the atom operators of ``s``; the empty set gives the zero operator."""
    labels = _resolve_labels(alg, s)
    zero = np.zeros((alg.dim, alg.dim), dtype=complex)
    return PovOperator(sum((alg.atom(label).mat for label in alg.labels if label in labels), zero))


def measure_of(alg: PerceptionAlgebra, s: Iterable[str], rho: DensityMatrix) -> float:
    """Unnormalized measure of the set: Re tr(P(S) rho), clamped at 0.

    Evaluated as the correctly rounded sum of the atoms' expectations
    Re tr(A_i rho) over S, read from the algebra's per-state expectation
    vector (computed once per state and memoized in a single slot), so a
    call costs O(|S|) once that vector exists and no operator is summed or
    re-validated.
    """
    e, _ = alg._expectations(rho)
    return bounded(_fsum(e[label] for label in _resolve_labels(alg, s)), "measure", MEASURE_SLACK)


def total_measure(alg: PerceptionAlgebra, rho: DensityMatrix) -> float:
    """Measure of the full perception set (all atoms)."""
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
    s_labels = _resolve_labels(alg, s_sub)
    m_labels = _resolve_labels(alg, m_sub)
    if not s_labels <= m_labels:
        extra = sorted(s_labels - m_labels)
        raise NotSubsetError(f"set is not contained in the conditioning set; extra atoms {extra}")
    denom = measure_of(alg, m_labels, rho)
    if denom <= ZERO_MEASURE_TOL:
        raise ZeroConditionMeasureError(f"conditioning measure {denom!r} <= {ZERO_MEASURE_TOL}")
    return bounded(measure_of(alg, s_labels, rho) / denom, "conditional probability", PROB_SLACK, 1.0)


def algebra_to_obj(alg: PerceptionAlgebra) -> dict:
    """JSON-ready form: {"atoms": [{"label": ..., "operator": rows}, ...]}."""
    return {
        "atoms": [
            {"label": label, "operator": matrix_to_rows(alg.atom(label).mat)} for label in alg.labels
        ]
    }


def algebra_from_obj(
    obj: Mapping, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL
) -> PerceptionAlgebra:
    """Parse the JSON form produced by :func:`algebra_to_obj`.

    The form is strict: one key "atoms", an array of objects with exactly the
    keys "label" (a string) and "operator" (rows). A break of the form raises
    SpecParseError, as does a label repeated, and an invalid operator
    :class:`PovOperator`'s own error, or DimensionMismatchError when its dim
    differs from atom 0's; all name the atom as ``algebra atom <i> (<label>)``.
    """
    if not isinstance(obj, Mapping) or set(obj) != {"atoms"} or not isinstance(obj["atoms"], list):
        raise SpecParseError('algebra must be an object whose only key is an "atoms" array')
    ops: dict[str, PovOperator] = {}
    dim0 = 0
    for i, atom in enumerate(obj["atoms"]):
        if not isinstance(atom, Mapping) or set(atom) != {"label", "operator"}:
            raise SpecParseError(f'algebra atom {i} must be an object with exactly the keys "label" and "operator"')
        label = atom["label"]
        if not isinstance(label, str):
            raise SpecParseError(f"algebra atom {i}: label must be a string, got {type(label).__name__}")
        where = f"algebra atom {i} ({label!r})"
        with located(where, SpecParseError):
            if label in ops:
                raise SpecParseError(f"label repeats atom {list(ops).index(label)}")
            mat = matrix_from_rows(atom["operator"])
        with located(where):
            dim0 = dim0 or len(mat)
            if len(mat) != dim0:
                raise DimensionMismatchError(f"operator dim {len(mat)} differs from atom 0's dim {dim0}")
            ops[label] = PovOperator(mat, mode=mode, tol=tol)
    return PerceptionAlgebra(list(ops.items()))
