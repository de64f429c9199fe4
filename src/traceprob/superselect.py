"""Hamiltonian time evolution, time-average dephasing, and energy superselection.

With no access to the time, only the infinite-time average of the evolving
density matrix is relevant; the off-diagonal terms between distinct energies
carry oscillatory phases that wash out, so the average is block-diagonal
across energy sectors. The average is exact algebra: the pinching
sum_k Pi_k rho Pi_k over the spectral projectors Pi_k (Bhatia, Matrix
Analysis, 1997). In the Hamiltonian's eigenbasis the pinching is a mask that
zeroes every entry joining two sectors, so it costs two basis changes, O(n^3),
whatever the number of sectors. A projector is superselection compliant when
the pinching leaves it unchanged; the norm of the entries that the mask zeroes
decides most verdicts in the eigenbasis, without the basis change back.

The sectors of a Hamiltonian are computed once, when it is built, so
dephasing a state and testing any number of projectors against one
Hamiltonian share a single clustering.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError
from .matcore import DEFAULT_TOL, _eig, _operand, _real_diagonal, _time, _tol, max_abs, same_dim
from .matcore import hermitian_eig  # noqa: F401  (perfbench/tracer.py wraps superselect.hermitian_eig)
from .quantum import DensityMatrix, Operator, Projector, RealityMode, enforce_reality

COMPLIANCE_TOL = 1e-9


class Hamiltonian(Operator):
    """Hermitian generator of time evolution (hbar = 1).

    ``energies`` (ascending) and ``eigenvectors`` are the read-only pair :func:`hermitian_eig`
    returns; ``sectors[i]`` (read-only, ascending from 0) is the energy sector of eigen-index
    ``i``. All three are computed once, at construction. Consecutive eigenvalues share a sector
    iff their gap is <= :func:`default_cluster_tol`. Joining chains,
    so a sector's width is not bounded by that tolerance: 64 levels spaced 0.9 tol form one sector 56.7 tol wide.
    """

    __slots__ = ("energies", "eigenvectors", "sectors")

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m, tol = enforce_reality(mode, mat), _tol(tol)
        values, vectors = _eig(m, _real_diagonal(m), tol)
        object.__setattr__(self, "energies", values)
        object.__setattr__(self, "eigenvectors", vectors)
        with np.errstate(over="ignore"):  # a gap beyond the float range is inf, and splits the sectors
            split = ~(np.diff(values) <= default_cluster_tol(self))
        sectors = np.concatenate(([0], np.cumsum(split)))
        sectors.setflags(write=False)
        object.__setattr__(self, "sectors", sectors)
        self._seal(m, tol)


def _mean(values: np.ndarray) -> float:
    """``np.mean(values)``, or where its sum overflows, the mean of the values
    scaled by 2**-k (k the bit length of their count) scaled back, which is finite."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    k = len(values).bit_length()
    return float(np.mean(values * 2.0**-k)) * 2.0**k if np.isinf(mean) else mean


def default_cluster_tol(h: Hamiltonian) -> float:
    """Near-degeneracy tolerance of the energy sectors: 1e-8 * max(1, |E|_max)."""
    _operand(h, Hamiltonian, "hamiltonian")
    return 1e-8 * max(1.0, float(np.max(np.abs(h.energies))))


def energy_blocks(h: Hamiltonian) -> tuple[tuple[float, tuple[int, ...]], ...]:
    """One ``(energy, eigen-indices)`` pair per energy sector of ``h``, in ascending energy.

    The indices are a run of equal values in ``h.sectors``; the energy is the mean of their eigenvalues.
    """
    _operand(h, Hamiltonian, "hamiltonian")
    bounds = [0, *(np.flatnonzero(np.diff(h.sectors)) + 1).tolist(), len(h.sectors)]
    return tuple((_mean(h.energies[a:b]), tuple(range(a, b))) for a, b in zip(bounds[:-1], bounds[1:]))


def pinch(x: np.ndarray, h: Hamiltonian) -> np.ndarray:
    """The pinching sum_k Pi_k x Pi_k over the energy sectors of ``h``, in O(n^3).

    Rotates into the eigenbasis once, zeroes every entry whose row and
    column lie in different sectors, and rotates back. Over a sector
    V_k V_k^dagger = Pi_k, so this equals the sum of sector compressions,
    degenerate sectors included.
    """
    y, cross = _in_eigenbasis(x, h)
    y[cross] = 0.0
    return h.eigenvectors @ y @ h.eigenvectors.conj().T


def _in_eigenbasis(x: np.ndarray, h: Hamiltonian) -> tuple[np.ndarray, np.ndarray]:
    """``V^dagger x V`` in the eigenbasis V of ``h``, and the mask of its entries that join two sectors."""
    sectors, v = h.sectors, h.eigenvectors
    return v.conj().T @ x @ v, sectors[:, np.newaxis] != sectors[np.newaxis, :]


def evolve(rho: DensityMatrix, h: Hamiltonian, t: float) -> DensityMatrix:
    """Conjugate rho by U(t) = V diag(exp(-i E t)) V^dagger; t is a finite real, as in ``state_at``."""
    _operand(rho, DensityMatrix, "density")
    _operand(h, Hamiltonian, "hamiltonian")
    same_dim("density", rho.dim, "hamiltonian", h.dim)
    t = _time(t)
    with np.errstate(over="ignore"):  # a phase beyond the float range reads as inf, refused below
        et = h.energies * t
    if not np.isfinite(et).all():
        raise ValidationError(f"time {t!r} makes a phase E*t beyond the float range")
    v = h.eigenvectors
    phases = np.exp(-1j * et)
    u = (v * phases[np.newaxis, :]) @ v.conj().T
    return DensityMatrix(u @ rho.mat @ u.conj().T, tol=max(rho.tol, h.tol))


def dephase(rho: DensityMatrix, h: Hamiltonian) -> DensityMatrix:
    """Infinite-time average of the evolving state: the pinching sum_k Pi_k rho Pi_k.

    Computed by :func:`pinch` in O(n^3) from the Hamiltonian's energy
    sectors. The result is block-diagonal across the energy sectors and has
    the same trace as rho; it is validated as a density matrix at the looser
    of the tolerances of ``rho`` and ``h``.
    """
    _operand(rho, DensityMatrix, "density")
    _operand(h, Hamiltonian, "hamiltonian")
    same_dim("density", rho.dim, "hamiltonian", h.dim)
    return DensityMatrix(pinch(rho.mat, h), tol=max(rho.tol, h.tol))


def is_superselection_compliant(p: Projector, h: Hamiltonian) -> bool:
    """Whether ``p`` is block-diagonal in the energy representation.

    That is, whether the pinching leaves ``p`` unchanged:
    max_abs(pinch(p) - p) <= 1e-9, measured in the original basis. Compliant
    projectors give probabilities that do not depend on the unperceived
    time: tr(p, evolve(rho, h, t)) is constant in t.

    pinch(p) - p = -V Y_off V^dagger, where Y_off is the part of V^dagger p V
    that joins two sectors. The Frobenius norm is unitarily invariant and
    max_abs(M) <= |M|_F <= n max_abs(M), so |Y_off|_F <= tol/2 decides
    compliant and |Y_off|_F > 2 n tol decides not compliant, each with a
    factor 2 to spare for rounding, from two O(n^3) products. Only a norm
    between the two is decided by the definition: one pinching and max_abs.
    """
    _operand(p, Projector, "projector")
    _operand(h, Hamiltonian, "hamiltonian")
    same_dim("projector", p.dim, "hamiltonian", h.dim)
    y, cross = _in_eigenbasis(p.mat, h)
    defect = float(np.linalg.norm(y[cross]))  # |Y_off|_F = |pinch(p) - p|_F
    if COMPLIANCE_TOL / 2 < defect <= 2 * p.dim * COMPLIANCE_TOL:  # the norm does not decide
        return max_abs(pinch(p.mat, h) - p.mat) <= COMPLIANCE_TOL
    return defect <= COMPLIANCE_TOL / 2
