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

The sectors of a Hamiltonian are computed once per clustering tolerance and
cached on the ``Hamiltonian``, so dephasing a state and testing any number of
projectors against one Hamiltonian share a single clustering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DimensionMismatchError, ValidationError
from .matcore import DEFAULT_TOL, hermitian_eig, max_abs
from .quantum import DensityMatrix, Operator, Projector, RealityMode, enforce_reality

COMPLIANCE_TOL = 1e-9


class Hamiltonian(Operator):
    """Hermitian generator of time evolution (hbar = 1).

    The eigendecomposition is computed at construction; the energy blocks of
    the last clustering tolerance asked for are cached in a private slot.
    """

    __slots__ = ("eig", "_blocks")

    def __init__(self, mat, *, mode: RealityMode = RealityMode.COMPLEX, tol: float = DEFAULT_TOL):
        m = enforce_reality(mode, mat)
        object.__setattr__(self, "eig", hermitian_eig(m, tol=tol))
        object.__setattr__(self, "_blocks", None)
        self._seal(m)

    @property
    def energies(self) -> np.ndarray:
        """Ascending eigenvalues."""
        return self.eig.eigenvalues


@dataclass(frozen=True, eq=False)
class EnergyBlocks:
    """Partition of eigen-indices into equal-energy clusters of a Hamiltonian.

    ``labels[i]`` is the cluster of eigen-index ``i`` and ``basis`` the
    eigenvector matrix the clusters refer to; adjacent clusters are separated
    by an energy gap larger than the clustering tolerance used to build them.
    ``projectors`` (the spectral projectors V_k V_k^dagger, which sum to the
    identity and are mutually orthogonal) are built on first access and kept;
    dephasing and compliance never build them.
    """

    clusters: tuple[tuple[int, ...], ...]
    energies: tuple[float, ...]
    labels: np.ndarray
    basis: np.ndarray

    def __post_init__(self):
        self.labels.setflags(write=False)

    @property
    def count(self) -> int:
        return len(self.clusters)

    @cached_property
    def projectors(self) -> tuple[np.ndarray, ...]:
        out = []
        for cluster in self.clusters:
            block = self.basis[:, list(cluster)]
            pi = block @ block.conj().T
            pi.setflags(write=False)
            out.append(pi)
        return tuple(out)


def default_cluster_tol(h: Hamiltonian) -> float:
    """Default near-degeneracy tolerance: 1e-8 * max(1, |E|_max)."""
    return 1e-8 * max(1.0, float(np.max(np.abs(h.energies))))


def energy_blocks(h: Hamiltonian, cluster_tol: float | None = None) -> EnergyBlocks:
    """Greedy clustering of the ascending spectrum into equal-energy sectors.

    Consecutive eigenvalues join one cluster iff their gap is <= cluster_tol.
    Joining chains, so a cluster's width is not bounded by cluster_tol: 64
    levels spaced 0.9 * cluster_tol form one cluster 56.7 * cluster_tol wide.
    The result is cached on ``h`` in one slot keyed by the tolerance, so
    repeated calls with the same tolerance return the same object.
    """
    if cluster_tol is None:
        cluster_tol = default_cluster_tol(h)
    if cluster_tol <= 0.0:
        raise ValidationError("cluster_tol must be > 0")
    memo = h._blocks
    if memo is not None and memo[0] == cluster_tol:
        return memo[1]
    values = h.eig.eigenvalues
    joined = np.diff(values) <= cluster_tol
    labels = np.concatenate(([0], np.cumsum(~joined)))
    bounds = [0, *(np.flatnonzero(~joined) + 1).tolist(), len(values)]
    spans = list(zip(bounds[:-1], bounds[1:]))
    blocks = EnergyBlocks(
        clusters=tuple(tuple(range(a, b)) for a, b in spans),
        energies=tuple(float(np.mean(values[a:b])) for a, b in spans),
        labels=labels,
        basis=h.eig.eigenvectors,
    )
    # One tuple assignment, so a concurrent reader sees either slot whole.
    object.__setattr__(h, "_blocks", (cluster_tol, blocks))
    return blocks


def pinch(x: np.ndarray, blocks: EnergyBlocks) -> np.ndarray:
    """The pinching sum_k Pi_k x Pi_k over the energy sectors, in O(n^3).

    Rotates into the eigenbasis once, zeroes every entry whose row and
    column lie in different clusters, and rotates back. Over a cluster
    V_k V_k^dagger = Pi_k, so this equals the sum of sector compressions,
    degenerate sectors included.
    """
    v = blocks.basis
    y = v.conj().T @ x @ v
    y[blocks.labels[:, np.newaxis] != blocks.labels[np.newaxis, :]] = 0.0
    return v @ y @ v.conj().T


def evolve(rho: DensityMatrix, h: Hamiltonian, t: float) -> DensityMatrix:
    """Conjugate rho by U(t) = V diag(exp(-i E t)) V^dagger."""
    if rho.dim != h.dim:
        raise DimensionMismatchError(f"density dim {rho.dim} vs hamiltonian dim {h.dim}")
    v = h.eig.eigenvectors
    phases = np.exp(-1j * h.eig.eigenvalues * float(t))
    u = (v * phases[np.newaxis, :]) @ v.conj().T
    return DensityMatrix(u @ rho.mat @ u.conj().T)


def dephase(rho: DensityMatrix, h: Hamiltonian, cluster_tol: float | None = None) -> DensityMatrix:
    """Infinite-time average of the evolving state: the pinching sum_k Pi_k rho Pi_k.

    Computed by :func:`pinch` in O(n^3) from the Hamiltonian's cached energy
    blocks. The result is block-diagonal across the energy sectors and has
    the same trace as rho.
    """
    if rho.dim != h.dim:
        raise DimensionMismatchError(f"density dim {rho.dim} vs hamiltonian dim {h.dim}")
    return DensityMatrix(pinch(rho.mat, energy_blocks(h, cluster_tol)))


def is_superselection_compliant(p: Projector, h: Hamiltonian, cluster_tol: float | None = None) -> bool:
    """Whether ``p`` is block-diagonal in the energy representation.

    That is, whether the pinching leaves ``p`` unchanged:
    max_abs(pinch(p) - p) <= 1e-9, measured in the original basis. One O(n^3)
    pinching per call, on the Hamiltonian's cached energy blocks. Compliant
    projectors give probabilities that do not depend on the unperceived
    time: tr(p, evolve(rho, h, t)) is constant in t.
    """
    if p.dim != h.dim:
        raise DimensionMismatchError(f"projector dim {p.dim} vs hamiltonian dim {h.dim}")
    return max_abs(pinch(p.mat, energy_blocks(h, cluster_tol)) - p.mat) <= COMPLIANCE_TOL
