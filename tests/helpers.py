"""Random factories and oracles shared across the test suite.

Every factory takes a ``numpy`` Generator so sweeps are seeded and
reproducible, and a flag (or RealityMode) selecting real-restricted
construction: real symmetric operators and orthogonal basis changes instead
of complex Hermitian operators and unitary ones.
"""

from __future__ import annotations

import numpy as np

from traceprob import (
    ClassicalCycle,
    DensityMatrix,
    DimensionMismatchError,
    Hamiltonian,
    PerceptionAlgebra,
    PerceptionSet,
    Projector,
    RealityMode,
    as_matrix,
    energy_blocks,
    trace_prob,
)


def matrix_to_rows(a) -> list:
    """The spec-file form of a matrix: rows of ``[re, im]`` pairs."""
    mat = as_matrix(a)
    return np.stack([mat.real, mat.imag], -1).tolist()


def char_or(s: PerceptionSet, s2: PerceptionSet) -> PerceptionSet:
    """Union: chi + chi' - chi*chi' componentwise (the inclusion-exclusion tests' left side)."""
    if s.n != s2.n:
        raise DimensionMismatchError(f"set dim {s.n} vs set dim {s2.n}")
    return PerceptionSet(a + b - a * b for a, b in zip(s.chi, s2.chi))


def is_real_mode(mode: RealityMode) -> bool:
    return mode is RealityMode.REAL


def random_basis(rng, n: int, real: bool = False) -> np.ndarray:
    """Haar-random unitary (orthogonal when real) via QR of a Ginibre matrix."""
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return (q * (d / np.abs(d))[np.newaxis, :]).astype(complex)


def random_hermitian(rng, n: int, real: bool = False) -> np.ndarray:
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    return ((z + z.conj().T) / 2.0).astype(complex)


def random_projector_matrix(rng, n: int, rank: int | None = None, real: bool = False) -> np.ndarray:
    """Rank-``rank`` projector from the leading columns of a random basis."""
    if rank is None:
        rank = int(rng.integers(0, n + 1))
    if rank == 0:
        return np.zeros((n, n), dtype=complex)
    v = random_basis(rng, n, real)[:, :rank]
    return v @ v.conj().T


def random_projector(rng, n: int, mode: RealityMode = RealityMode.COMPLEX, rank: int | None = None) -> Projector:
    return Projector(random_projector_matrix(rng, n, rank, is_real_mode(mode)), mode=mode)


def random_density_matrix(rng, n: int, real: bool = False) -> np.ndarray:
    """Full-rank random density: normalized Wishart matrix G G^dagger / tr."""
    z = rng.standard_normal((n, n))
    if not real:
        z = z + 1j * rng.standard_normal((n, n))
    g = z @ z.conj().T
    return (g / np.trace(g).real).astype(complex)


def random_density(rng, n: int, mode: RealityMode = RealityMode.COMPLEX) -> DensityMatrix:
    return DensityMatrix(random_density_matrix(rng, n, is_real_mode(mode)), mode=mode)


def random_hamiltonian(rng, n: int, mode: RealityMode = RealityMode.COMPLEX) -> Hamiltonian:
    return Hamiltonian(random_hermitian(rng, n, is_real_mode(mode)), mode=mode)


def random_partition(rng, n: int, k: int, mode: RealityMode = RealityMode.COMPLEX) -> list[Projector]:
    """k mutually orthogonal projectors summing to I: grouped basis columns."""
    v = random_basis(rng, n, is_real_mode(mode))
    if k > 1:
        cuts = np.sort(rng.choice(np.arange(1, n), size=k - 1, replace=False))
    else:
        cuts = np.array([], dtype=int)
    bounds = [0, *cuts.tolist(), n]
    parts = []
    for a, b in zip(bounds[:-1], bounds[1:]):
        block = v[:, a:b]
        parts.append(Projector(block @ block.conj().T, mode=mode))
    return parts


def random_cycle(rng, n: int, allow_repeats: bool = True) -> ClassicalCycle:
    """Cycle visiting every state once, sometimes with an extra repeat visit."""
    entries = [[i, float(rng.uniform(0.1, 3.0))] for i in range(1, n + 1)]
    if allow_repeats and n >= 2 and rng.random() < 0.5:
        entries.append([int(rng.integers(1, n + 1)), float(rng.uniform(0.1, 3.0))])
    rng.shuffle(entries)
    return ClassicalCycle(n, [(int(s), d) for s, d in entries])


def random_subset(rng, n: int) -> PerceptionSet:
    return PerceptionSet(tuple(int(b) for b in rng.integers(0, 2, size=n)))


def random_pov_matrix(rng, n: int, real: bool = False) -> np.ndarray:
    """Random positive semidefinite operator of random rank (generally not a projector)."""
    k = int(rng.integers(1, n + 1))
    z = rng.standard_normal((n, k))
    if not real:
        z = z + 1j * rng.standard_normal((n, k))
    return (z @ z.conj().T / n).astype(complex)


def random_algebra(rng, n: int, m: int, mode: RealityMode = RealityMode.COMPLEX) -> PerceptionAlgebra:
    pairs = [(f"a{i}", random_pov_matrix(rng, n, is_real_mode(mode))) for i in range(m)]
    return PerceptionAlgebra.from_matrices(pairs, mode=mode)


def projective_algebra(rng, n: int, k: int, mode: RealityMode = RealityMode.COMPLEX) -> PerceptionAlgebra:
    """Algebra whose atoms are an orthogonal resolution of the identity."""
    parts = random_partition(rng, n, k, mode)
    return PerceptionAlgebra.from_matrices(
        [(f"a{i}", p.mat) for i, p in enumerate(parts)], mode=mode
    )


def averaged_evolution(rho: DensityMatrix, h: Hamiltonian, times: np.ndarray) -> np.ndarray:
    """Mean of evolve(rho, h, t) over the given times.

    Computed in the energy eigenbasis, where each conjugation is an entrywise
    phase factor, so the mean of many samples stays cheap. Algebraically
    identical to averaging the conjugated matrices one at a time (checked
    against the literal loop in the superselection tests).
    """
    v = h.eigenvectors
    e = h.energies
    rho_eig = v.conj().T @ rho.mat @ v
    delta = e[:, np.newaxis] - e[np.newaxis, :]
    mean_phase = np.exp(-1j * np.multiply.outer(np.asarray(times, dtype=float), delta)).mean(axis=0)
    return v @ (rho_eig * mean_phase) @ v.conj().T


def spectral_projectors(h: Hamiltonian) -> tuple[np.ndarray, ...]:
    """The spectral projectors Pi_k = V_k V_k^dagger of h, one per energy sector,
    with V_k the eigenvector columns of sector k. They sum to the identity and
    are mutually orthogonal; the library never builds them."""
    v = h.eigenvectors
    blocks = (v[:, list(indices)] for _, indices in energy_blocks(h))
    return tuple(b @ b.conj().T for b in blocks)


def sector_sum(x: np.ndarray, h: Hamiltonian) -> np.ndarray:
    """Literal pinching: the sum of Pi_k x Pi_k over the energy sectors of h.

    One dense sandwich per sector, so the cost is O(n^4) on a nondegenerate
    spectrum. The oracle for the library's O(n^3) pinching.
    """
    return sum((pi @ x @ pi for pi in spectral_projectors(h)), np.zeros_like(x))


def degenerate_hamiltonian(rng, n: int) -> Hamiltonian:
    """Hamiltonian with about n/3 distinct integer levels in a Haar-random basis,
    so that most energy sectors span several eigen-indices."""
    levels = np.sort(rng.integers(0, max(2, n // 3), size=n)).astype(float)
    v = random_basis(rng, n)
    return Hamiltonian((v * levels[np.newaxis, :]) @ v.conj().T)


def literal_classical_counts(c: ClassicalCycle, n_samples: int, seed: int) -> np.ndarray:
    """Per-state counts of n_samples times drawn uniformly over one period.

    The literal uniform-in-time sampler: one draw and one schedule lookup
    per sample, so O(N). The oracle for the library's multinomial draw.
    """
    times = np.random.default_rng(seed).random(n_samples) * c.period
    states = c._states[c._dwell_indices(times)]
    return np.bincount(states - 1, minlength=c.n)


def literal_measurement_counts(partition, rho: DensityMatrix, n_samples: int, seed: int) -> np.ndarray:
    """Per-outcome counts of n_samples inverse-CDF draws with trace-rule weights.

    One uniform draw and one ``searchsorted`` on the CDF per sample, so
    O(N). The oracle for the library's multinomial draw; it assumes a valid
    partition.
    """
    weights = np.array([trace_prob(p, rho) for p in partition])
    cdf = np.cumsum(weights / weights.sum())
    cdf[-1] = 1.0
    draws = np.random.default_rng(seed).random(n_samples)
    return np.bincount(np.searchsorted(cdf, draws, side="right"), minlength=len(partition))
