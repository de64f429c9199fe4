"""Seeded benchmark inputs, built with numpy alone.

Nothing here imports traceprob: the inputs and the oracle must not depend on
the code under measurement.
"""

from __future__ import annotations

import json

import numpy as np

# Energy levels sit one unit apart plus a jitter below LEVEL_JITTER, so the
# smallest gap is at least 1 - LEVEL_JITTER. The library's default sector
# tolerance is 1e-8 * max(1, |E|_max), about 1e-6 at n = 96, so every level is
# its own sector and the sector count is exactly n.
LEVEL_JITTER = 0.5


def haar_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary: QR of a complex Ginibre matrix with the R phases divided out."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))[np.newaxis, :]


def hermitize(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2.0


def projector_from_columns(cols: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the span of orthonormal columns."""
    return hermitize(cols @ cols.conj().T)


def random_density(rng: np.random.Generator, n: int) -> np.ndarray:
    """Full-rank mixed state G G^dagger / tr(G G^dagger) from a complex Ginibre G."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    rho = hermitize(g @ g.conj().T)
    return rho / np.trace(rho).real


def gapped_levels(rng: np.random.Generator, n: int) -> np.ndarray:
    return np.arange(n, dtype=float) + rng.uniform(0.0, LEVEL_JITTER, n)


def hamiltonian(eigenvectors: np.ndarray, levels: np.ndarray) -> np.ndarray:
    return hermitize((eigenvectors * levels[np.newaxis, :]) @ eigenvectors.conj().T)


def column_subsets(rng: np.random.Generator, n: int, count: int, rank: int) -> list[np.ndarray]:
    return [np.sort(rng.choice(n, size=rank, replace=False)) for _ in range(count)]


def psd_atoms(rng: np.random.Generator, n: int, m: int, rank: int) -> np.ndarray:
    """m rank-`rank` positive operators X X^dagger, scaled so that their sum has trace near n."""
    x = rng.standard_normal((m, n, rank)) + 1j * rng.standard_normal((m, n, rank))
    atoms = np.einsum("kir,kjr->kij", x, x.conj()) / (2.0 * rank * m)
    return (atoms + np.conj(np.swapaxes(atoms, 1, 2))) / 2.0


def rows(mat: np.ndarray) -> list:
    """The spec-file matrix form: rows of [re, im] pairs."""
    return np.stack([mat.real, mat.imag], axis=-1).tolist()


def write_json(path, obj) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
