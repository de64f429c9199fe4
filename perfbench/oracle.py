"""Independent numpy oracle for every number the workloads produce.

No traceprob call is made here. Probabilities are einsum contractions,
dephasing is a mask in the Hamiltonian eigenbasis, measures are sums of
per-atom expectations, and sampler reports are re-checked from their counts.
"""

from __future__ import annotations

import numpy as np

# The library's contract: probabilities and measures are exact to 1e-9.
TOL = 1e-9
SIGMAS = 5.0


def expectations(ops: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Re tr(A_k rho) for a stack of operators A_k."""
    return np.einsum("kij,ji->k", ops, rho).real


def sector_labels(energies: np.ndarray) -> np.ndarray:
    """Sector of each ascending level, split where a gap exceeds 1e-8 * max(1, |E|_max)."""
    tol = 1e-8 * max(1.0, float(np.max(np.abs(energies))))
    return np.concatenate([[0], np.cumsum(np.diff(energies) > tol)])


def pinch(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Infinite-time average of x under h: zero every eigenbasis entry joining two sectors."""
    energies, v = np.linalg.eigh(h)
    labels = sector_labels(energies)
    mask = labels[:, np.newaxis] == labels[np.newaxis, :]
    return v @ ((v.conj().T @ x @ v) * mask) @ v.conj().T


def matrix(rows) -> np.ndarray:
    a = np.asarray(rows, dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def dwell_fractions(n: int, states: np.ndarray, durations: np.ndarray) -> np.ndarray:
    totals = np.bincount(states - 1, weights=durations, minlength=n)
    return totals / totals.sum()


class Check:
    """Accumulates the largest deviation from the oracle and every contract breach."""

    def __init__(self):
        self.max_abs_err = 0.0
        self.problems: list[str] = []

    def close(self, what: str, got, want, tol: float = TOL) -> None:
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want)))) if np.size(want) else 0.0
        self.max_abs_err = max(self.max_abs_err, err)
        if not err <= tol:
            self.problems.append(f"{what}: off by {err:.3e} (tolerance {tol:.0e})")

    def equal(self, what: str, got, want) -> None:
        if got != want:
            self.problems.append(f"{what}: got {got!r}, want {want!r}")

    def sample_report(self, what: str, report: dict, n: int, probs: np.ndarray) -> None:
        """Counts sum to N, predictions match the oracle, and every outcome is within 5 sigma."""
        counts = np.asarray(report["counts"], dtype=float)
        self.equal(f"{what} total", report["total"], n)
        self.equal(f"{what} counts sum", int(counts.sum()), n)
        self.equal(f"{what} outcomes", len(counts), len(probs))
        self.close(f"{what} expected_probs", report["expected_probs"], probs)
        bound = SIGMAS * np.sqrt(probs * (1.0 - probs) / n) + 1.0 / n
        worst = float(np.max(np.abs(counts / n - probs) - bound))
        if worst > 0.0:
            self.problems.append(f"{what}: a frequency is {worst:.3e} beyond its 5 sigma bound")
        self.equal(f"{what} deviation_check_5sigma", report["deviation_check_5sigma"], True)
