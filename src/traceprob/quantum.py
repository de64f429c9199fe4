"""Hermitian generalization of the classical probability rule.

The probability of a perception set represented by a projector P in state
rho is the trace of P rho. It is invariant under a simultaneous unitary
change of basis, and reduces to the classical rule when both matrices are
diagonal. The product of two projectors is again a projector exactly when
they commute; for non-commuting pairs the meet is refused.
"""

from __future__ import annotations

import math
import reprlib
from enum import Enum

import numpy as np

from .errors import (
    NonCommutingError,
    NonFiniteError,
    NotRealError,
    NotUnitaryError,
    NumericalIntegrityError,
    ValidationError,
)
from .matcore import DEFAULT_TOL, UNITARY_TOL, _operand, as_matrix, is_density, is_projector, max_abs, same_dim

REAL_IMAG_TOL = 1e-12
PROB_SLACK = 1e-9


class RealityMode(Enum):
    """Scalar field of the theory: complex quantum mechanics or its real restriction."""

    COMPLEX = "complex"
    REAL = "real"


def enforce_reality(mode: RealityMode, a) -> np.ndarray:
    """Pass ``a`` through unchanged; under REAL mode reject imaginary parts > 1e-12.
    ``mode`` is read as ``RealityMode(mode)``, so "real" is REAL; any other value is refused."""
    try:
        mode = RealityMode(mode)
    except ValueError:
        raise ValidationError(f'mode must be a RealityMode, "complex" or "real", got {reprlib.repr(mode)}') from None
    mat = as_matrix(a)
    if mode is RealityMode.REAL:
        worst = float(np.max(np.abs(mat.imag)))
        if worst > REAL_IMAG_TOL:
            raise NotRealError(f"imaginary part {worst:.3e} exceeds {REAL_IMAG_TOL} in REAL mode")
    return mat


def bounded(value: float, what: str, slack: float, upper: float = math.inf) -> float:
    """``value`` clamped to [0, upper], the guard on every probability and measure returned;
    NonFiniteError if not finite, NumericalIntegrityError if outside by more than ``slack``."""
    if not math.isfinite(value):
        raise NonFiniteError(f"{what} {value!r} is not finite")
    if value < -slack or value > upper + slack:
        raise NumericalIntegrityError(f"{what} {value!r} outside [0, {upper:g}] beyond {slack}")
    return min(max(value, 0.0), upper)


class Sealed:
    """Immutable base: attribute writes and deletes are refused (constructors use object.__setattr__)."""

    __slots__ = ()

    def __setattr__(self, name, value=None):
        raise AttributeError(f"{type(self).__name__} is immutable")

    __delattr__ = __setattr__  # called as (self, name); ``value`` defaults


class Operator(Sealed):
    """Square complex matrix that passed its class's checks, sealed read-only.

    Each subclass admits its input once through :func:`enforce_reality`, runs
    its own checks on that copy and seals it with ``_seal``.
    """

    __slots__ = ("mat",)

    def _seal(self, m: np.ndarray) -> None:
        m.setflags(write=False)
        object.__setattr__(self, "mat", m)

    @property
    def dim(self) -> int:
        return self.mat.shape[0]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(dim={self.dim})"


class Projector(Operator):
    """Hermitian idempotent operator, validated once at construction."""

    __slots__ = ()

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m = enforce_reality(mode, mat)
        if not is_projector(m, tol):
            raise ValidationError("matrix is not a projector (Hermitian idempotent) within tolerance")
        self._seal(m)


class DensityMatrix(Operator):
    """Positive semidefinite Hermitian unit-trace operator, validated once.

    The matrix is sealed in column-major order, so ``mat.T.ravel()`` is a
    free C-contiguous view of rho^T, the operand of every trace-rule dot.
    """

    __slots__ = ()

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m = enforce_reality(mode, mat)
        if not is_density(m, tol):
            raise ValidationError("matrix is not a density matrix (PSD Hermitian, unit trace) within tolerance")
        self._seal(np.asfortranarray(m))


def trace_prob(p: Projector, rho: DensityMatrix) -> float:
    """Probability of the set represented by ``p`` in state ``rho``: Re tr(p rho).

    Evaluated as the O(n^2) contraction sum_ij p_ij rho_ji rather than an
    O(n^3) matrix product: one BLAS dot of p's entries with those of rho^T,
    a free view of rho's column-major storage (an operand in another layout
    is copied by ``ravel``). The contraction does not assume Hermiticity:
    both operators are Hermitian only to within their tolerance, and the
    Hermitian shortcut sum_ij p_ij conj(rho_ij) would be off by up to
    n * tol.

    The trace of a projector against a density matrix is analytically real
    and in [0, 1]; violations beyond 1e-9 raise, smaller ones are clamped.
    """
    _operand(p, Projector, "projector")
    _operand(rho, DensityMatrix, "density")
    same_dim("projector", p.dim, "density", rho.dim)
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or nan, refused below
        t = complex(np.dot(p.mat.ravel(), rho.mat.T.ravel()))
    if abs(t.imag) > PROB_SLACK:
        raise NumericalIntegrityError(f"trace imaginary part {t.imag:.3e} exceeds {PROB_SLACK}")
    return bounded(t.real, "trace probability", PROB_SLACK, 1.0)


def unitary_conjugate(u, a) -> np.ndarray:
    """Change of basis u a u^dagger.

    Raises NotUnitaryError when |u^dagger u - I|_max > 1e-9, and NonFiniteError when the product overflows.
    """
    um = as_matrix(u)
    am = as_matrix(a)
    same_dim("unitary", um.shape[0], "operand", am.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or nan, refused below
        defect = max_abs(um.conj().T @ um - np.eye(um.shape[0]))
    if not defect <= UNITARY_TOL:
        raise NotUnitaryError(f"unitarity defect {defect:.3e} exceeds {UNITARY_TOL}")
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or nan, refused below
        out = um @ am @ um.conj().T
    if not math.isfinite(norm := max_abs(out)):
        raise NonFiniteError(f"conjugate max-norm {norm!r} is not finite")
    return out


def check_invariance(p: Projector, rho: DensityMatrix, u) -> float:
    """|tr(p rho) - tr(p~ rho~)| after conjugating both by ``u``; <= 1e-9 always."""
    _operand(p, Projector, "projector")
    _operand(rho, DensityMatrix, "density")
    p_tilde = Projector(unitary_conjugate(u, p.mat))
    rho_tilde = DensityMatrix(unitary_conjugate(u, rho.mat))
    return abs(trace_prob(p, rho) - trace_prob(p_tilde, rho_tilde))


def commutes(a, b) -> bool:
    """Whether |ab - ba|_max <= 1e-10 * max(1, |a|_max * |b|_max); NonFiniteError if ab - ba overflows."""
    am = as_matrix(a)
    bm = as_matrix(b)
    same_dim("a", am.shape[0], "b", bm.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow reads as inf or nan, refused below
        defect = max_abs(am @ bm - bm @ am)
    if not math.isfinite(defect):
        raise NonFiniteError(f"commutator defect {defect!r} is not finite")
    return defect <= DEFAULT_TOL * max(1.0, max_abs(am) * max_abs(bm))


def projector_meet(p: Projector, q: Projector) -> Projector:
    """Product of two commuting projectors, which is again a projector.

    For non-commuting projectors the product is not a projection operator,
    so the meet is refused with NonCommutingError rather than returned.
    """
    _operand(p, Projector, "projector")
    _operand(q, Projector, "projector")
    if not commutes(p.mat, q.mat):
        raise NonCommutingError("projectors do not commute; their product is not a projection operator")
    return Projector(p.mat @ q.mat)

