"""Hamiltonian time evolution, time-average dephasing, and energy superselection.

With no access to the time, only the infinite-time average of the evolving
density matrix is relevant; the off-diagonal terms between distinct energies
carry oscillatory phases that wash out, so the average is block-diagonal
across energy sectors. The average is exact algebra: the pinching
sum_k Pi_k rho Pi_k over the spectral projectors Pi_k (Bhatia, Matrix
Analysis, 1997). In the Hamiltonian's eigenbasis the pinching is a mask that
zeroes every entry joining two sectors, so it costs two basis changes, O(n^3),
whatever the number of sectors. A projector is superselection compliant when
the pinching leaves it unchanged.

The sectors of a Hamiltonian are computed once, when it is built, so
dephasing a state and testing any number of projectors against one
Hamiltonian share a single clustering.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .matcore import DEFAULT_TOL, _operand, _time, hermitian_eig, max_abs, same_dim
from .quantum import DensityMatrix, Operator, Projector, RealityMode, enforce_reality

COMPLIANCE_TOL = 1e-9


class Hamiltonian(Operator):
    """Hermitian generator of time evolution (hbar = 1).

    ``energies`` (ascending) and ``eigenvectors`` are the read-only pair :func:`hermitian_eig`
    returns; they and the energy sectors are computed once, at construction. Consecutive
    eigenvalues share a sector iff their gap is <= :func:`default_cluster_tol`. Joining chains,
    so a sector's width is not bounded by that tolerance: 64 levels spaced 0.9 tol form one sector 56.7 tol wide.
    """

    __slots__ = ("energies", "eigenvectors", "_blocks")

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m = enforce_reality(mode, mat)
        values, vectors = hermitian_eig(m, tol=tol)
        object.__setattr__(self, "energies", values)
        object.__setattr__(self, "eigenvectors", vectors)
        with np.errstate(over="ignore"):  # a gap beyond the float range is inf, and splits the sectors
            split = ~(np.diff(values) <= default_cluster_tol(self))
        bounds = [0, *(np.flatnonzero(split) + 1).tolist(), len(values)]
        spans = list(zip(bounds[:-1], bounds[1:]))
        blocks = EnergyBlocks(
            clusters=tuple(tuple(range(a, b)) for a, b in spans),
            energies=tuple(_mean(values[a:b]) for a, b in spans),
            labels=np.concatenate(([0], np.cumsum(split))),
        )
        object.__setattr__(self, "_blocks", blocks)
        self._seal(m)


def _mean(values: np.ndarray) -> float:
    """``np.mean(values)``, or where its sum overflows, the mean of the values
    scaled by 2**-k (k the bit length of their count) scaled back, which is finite."""
    with np.errstate(over="ignore"):
        mean = float(np.mean(values))
    k = len(values).bit_length()
    return float(np.mean(values * 2.0**-k)) * 2.0**k if np.isinf(mean) else mean


@dataclass(frozen=True, eq=False)
class EnergyBlocks:
    """Partition of eigen-indices into equal-energy clusters of a Hamiltonian.

    ``labels[i]`` is the cluster of eigen-index ``i`` in the Hamiltonian's
    ``eigenvectors``; adjacent clusters are separated by an energy gap larger
    than :func:`default_cluster_tol`. ``labels`` is taken into a read-only copy,
    and refused unless it is a 1-D array of integers.
    """

    clusters: tuple[tuple[int, ...], ...]
    energies: tuple[float, ...]
    labels: np.ndarray

    def __post_init__(self):
        try:
            labels = np.array(self.labels)
            ok = labels.dtype.kind in "iu" and labels.ndim == 1
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ValidationError(f"labels must be a 1-D array of integers, got {type(self.labels).__name__}")
        labels.setflags(write=False)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return len(self.clusters)


def default_cluster_tol(h: Hamiltonian) -> float:
    """Near-degeneracy tolerance of the energy sectors: 1e-8 * max(1, |E|_max)."""
    _operand(h, Hamiltonian, "hamiltonian")
    return 1e-8 * max(1.0, float(np.max(np.abs(h.energies))))


def energy_blocks(h: Hamiltonian) -> EnergyBlocks:
    """The energy sectors of ``h``, clustered at :func:`default_cluster_tol` when ``h`` was built."""
    _operand(h, Hamiltonian, "hamiltonian")
    return h._blocks


def pinch(x: np.ndarray, h: Hamiltonian) -> np.ndarray:
    """The pinching sum_k Pi_k x Pi_k over the energy sectors of ``h``, in O(n^3).

    Rotates into the eigenbasis once, zeroes every entry whose row and
    column lie in different clusters, and rotates back. Over a cluster
    V_k V_k^dagger = Pi_k, so this equals the sum of sector compressions,
    degenerate sectors included.
    """
    labels = energy_blocks(h).labels
    v = h.eigenvectors
    y = v.conj().T @ x @ v
    y[labels[:, np.newaxis] != labels[np.newaxis, :]] = 0.0
    return v @ y @ v.conj().T


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
    return DensityMatrix(u @ rho.mat @ u.conj().T)


def dephase(rho: DensityMatrix, h: Hamiltonian) -> DensityMatrix:
    """Infinite-time average of the evolving state: the pinching sum_k Pi_k rho Pi_k.

    Computed by :func:`pinch` in O(n^3) from the Hamiltonian's energy
    blocks. The result is block-diagonal across the energy sectors and has
    the same trace as rho.
    """
    _operand(rho, DensityMatrix, "density")
    _operand(h, Hamiltonian, "hamiltonian")
    same_dim("density", rho.dim, "hamiltonian", h.dim)
    return DensityMatrix(pinch(rho.mat, h))


def is_superselection_compliant(p: Projector, h: Hamiltonian) -> bool:
    """Whether ``p`` is block-diagonal in the energy representation.

    That is, whether the pinching leaves ``p`` unchanged:
    max_abs(pinch(p) - p) <= 1e-9, measured in the original basis. One O(n^3)
    pinching per call, on the Hamiltonian's energy blocks. Compliant
    projectors give probabilities that do not depend on the unperceived
    time: tr(p, evolve(rho, h, t)) is constant in t.
    """
    _operand(p, Projector, "projector")
    _operand(h, Hamiltonian, "hamiltonian")
    same_dim("projector", p.dim, "hamiltonian", h.dim)
    return max_abs(pinch(p.mat, h) - p.mat) <= COMPLIANCE_TOL
