"""Time evolution, energy sectors, dephasing, and superselection compliance."""

from __future__ import annotations

import itertools
import math
import json

import numpy as np
import pytest

from helpers import (
    PAULI_Y,
    averaged_evolution,
    degenerate_hamiltonian,
    matrix_to_rows,
    random_basis,
    random_density,
    random_hamiltonian,
    random_hermitian,
    random_projector,
    sector_sum,
    spectral_projectors,
    tilted_state,
)
import traceprob.superselect
from traceprob import (
    DensityMatrix,
    DimensionMismatchError,
    Hamiltonian,
    NotHermitianError,
    NotRealError,
    Projector,
    ValidationError,
    RealityMode,
    commutes,
    default_cluster_tol,
    dephase,
    energy_blocks,
    evolve,
    hermitian_eig,
    is_superselection_compliant,
    max_abs,
    trace,
    trace_prob,
)
from traceprob.cli import main
from traceprob import superselect
from traceprob.superselect import COMPLIANCE_TOL, _mean, pinch

PLUS_STATE = np.full((2, 2), 0.5)


def _sector_energies(h: Hamiltonian) -> list[float]:
    return [energy for energy, _ in energy_blocks(h)]


def _sector_indices(h: Hamiltonian) -> tuple[tuple[int, ...], ...]:
    return tuple(indices for _, indices in energy_blocks(h))


def _min_cluster_gap(h: Hamiltonian) -> float:
    energies = _sector_energies(h)
    if len(energies) < 2:
        return 1.0
    return float(np.min(np.diff(energies)))


# --- Hamiltonian ---


def test_hamiltonian_rejects_non_hermitian():
    with pytest.raises(NotHermitianError):
        Hamiltonian(np.array([[0.0, 1.0], [2.0, 0.0]]))


def test_hamiltonian_real_mode():
    Hamiltonian(np.array([[0.0, 1.0], [1.0, 0.0]]), mode=RealityMode.REAL)
    with pytest.raises(NotRealError):
        Hamiltonian(np.array([[0.0, -1j], [1j, 0.0]]), mode=RealityMode.REAL)


def test_hamiltonian_caches_ascending_energies():
    h = Hamiltonian(np.diag([3.0, 1.0, 2.0]))
    np.testing.assert_allclose(h.energies, [1.0, 2.0, 3.0], atol=1e-14)
    with pytest.raises(AttributeError):
        h.mat = np.eye(3)


# --- evolve ---


def test_evolve_at_time_zero():
    rng = np.random.default_rng(51)
    rho = random_density(rng, 4)
    h = random_hamiltonian(rng, 4)
    assert max_abs(evolve(rho, h, 0.0).mat - rho.mat) <= 1e-12


def test_evolve_zero_hamiltonian():
    rng = np.random.default_rng(52)
    rho = random_density(rng, 3)
    h = Hamiltonian(np.zeros((3, 3)))
    assert max_abs(evolve(rho, h, 17.3).mat - rho.mat) <= 1e-12


def test_evolve_phase_example():
    # Off-diagonal picks up e^{-i pi} = -1 between energies 0 and 1.
    h = Hamiltonian(np.diag([0.0, 1.0]))
    rho = DensityMatrix(PLUS_STATE)
    expected = 0.5 * np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert max_abs(evolve(rho, h, np.pi).mat - expected) <= 1e-12


def test_evolve_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        evolve(DensityMatrix(PLUS_STATE), Hamiltonian(np.zeros((3, 3))), 1.0)


@pytest.mark.parametrize(
    "t, message",
    [
        ("1", "time must be a real number, got str"),
        (None, "time must be a real number, got NoneType"),
        (10**400, "time 100000000000000000...0000000000000000000 is beyond the float range"),
        (float("nan"), "time must be finite, got nan"),
        (float("inf"), "time must be finite, got inf"),
    ],
    ids=["string", "none", "int-beyond-float", "nan", "inf"],
)
def test_evolve_takes_its_time_by_the_rule_of_state_at(t, message):
    with pytest.raises(ValidationError) as info:
        evolve(DensityMatrix(np.eye(2) / 2), Hamiltonian(np.diag([0.0, 1.0])), t)
    assert str(info.value) == message


@pytest.mark.parametrize("t", [1e308, -1e308])
def test_evolve_refuses_a_time_whose_phase_overflows(t):
    # E*t = 1e309 is beyond the float range: refused before U is built, without a numpy warning.
    with pytest.raises(ValidationError) as info:
        evolve(DensityMatrix(np.eye(2) / 2), Hamiltonian(np.diag([0.0, 10.0])), t)
    assert str(info.value) == f"time {t!r} makes a phase E*t beyond the float range"


@pytest.mark.parametrize("energy, t", [(10.0, 1e307), (1.0, 1e308)])
def test_evolve_takes_a_huge_time_whose_phase_is_finite(energy, t):
    rho = evolve(DensityMatrix(np.eye(2) / 2), Hamiltonian(np.diag([0.0, energy])), t)
    np.testing.assert_allclose(rho.mat, np.eye(2) / 2, atol=1e-15)


def test_evolve_validates_the_evolved_state_at_its_operands_tol():
    # rho's 1e-8 Hermiticity defect is within its tol; evolving does not move it.
    rho = DensityMatrix(LOOSE_RHO, tol=1e-6)
    assert max_abs(evolve(rho, Hamiltonian(LOOSE_H), 0.0).mat - rho.mat) <= 1e-15
    # The rotation raises a defect of 0.85e-6 to 1.2e-6: beyond rho's tol, within a looser h's.
    tilted = DensityMatrix(tilted_state(0.6e-6), tol=1e-6)
    with pytest.raises(ValidationError, match="not a density matrix"):
        evolve(tilted, Hamiltonian(PAULI_Y), math.pi / 8)
    assert evolve(tilted, Hamiltonian(PAULI_Y, tol=2e-6), math.pi / 8).tol == 2e-6


# --- energy blocks ---


def test_energy_blocks_degenerate_pair():
    h = Hamiltonian(np.diag([0.0, 0.0, 5.0]))
    assert _sector_indices(h) == ((0, 1), (2,))
    assert len(energy_blocks(h)) == 2
    np.testing.assert_allclose(spectral_projectors(h)[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_energy_blocks_distinct_spectrum():
    indices = _sector_indices(Hamiltonian(np.diag([1.0, 2.0, 4.0, 8.0])))
    assert len(indices) == 4
    assert all(len(c) == 1 for c in indices)


def test_energy_blocks_zero_hamiltonian():
    h = Hamiltonian(np.zeros((3, 3)))
    assert len(energy_blocks(h)) == 1
    np.testing.assert_allclose(spectral_projectors(h)[0], np.eye(3), atol=1e-12)


def test_energy_blocks_resolution_of_identity():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, n)
        projectors = spectral_projectors(h)
        assert len(projectors) == len(energy_blocks(h))
        total = sum(projectors)
        assert max_abs(total - np.eye(n)) <= 1e-9
        for i in range(len(projectors)):
            for j in range(i + 1, len(projectors)):
                assert max_abs(projectors[i] @ projectors[j]) <= 1e-9


def test_energy_blocks_cluster_gaps_exceed_tol():
    h = Hamiltonian(np.diag([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.0]))
    tol = default_cluster_tol(h)
    energies = _sector_energies(h)
    assert len(energies) == 3
    gaps = np.diff(energies)
    assert np.all(gaps > tol)


def test_energy_blocks_chain_small_gaps_into_one_wide_sector():
    # Clustering is greedy on consecutive gaps, so a sector's width is not
    # bounded by the clustering tolerance: 64 levels 0.9 tol apart form one sector 56.7 tol wide.
    tol = 1e-8
    levels = 0.9 * tol * np.arange(64)
    h = Hamiltonian(np.diag(levels))
    assert default_cluster_tol(h) == tol
    assert len(energy_blocks(h)) == 1
    assert _sector_indices(h) == (tuple(range(64)),)
    width = h.energies[-1] - h.energies[0]
    assert width / tol == pytest.approx(56.7)
    # One gap just above tol splits the chain there, and only there.
    levels[32:] += 0.2 * tol
    assert _sector_indices(Hamiltonian(np.diag(levels))) == (tuple(range(32)), tuple(range(32, 64)))


def test_default_cluster_tol_scales_with_spectrum():
    assert default_cluster_tol(Hamiltonian(np.diag([0.0, 5.0]))) == 5e-8
    assert default_cluster_tol(Hamiltonian(np.diag([0.0, 0.1]))) == 1e-8


# --- dephase ---


def test_dephase_kills_cross_energy_coherence():
    h = Hamiltonian(np.diag([0.0, 1.0]))
    result = dephase(DensityMatrix(PLUS_STATE), h)
    np.testing.assert_allclose(result.mat, np.diag([0.5, 0.5]), atol=1e-15)


# rho's 1e-8 Hermiticity defect sits in rho_01, inside the degenerate sector
# of H, so the pinching keeps it: within 1e-6, beyond the default tolerance.
EXACT_RHO = np.diag([0.4, 0.3, 0.2, 0.1])
LOOSE_RHO = EXACT_RHO.copy()
LOOSE_RHO[0, 1], LOOSE_RHO[1, 0] = 0.05 + 1e-8, 0.05
LOOSE_H = np.diag([0.0, 0.0, 1.0, 2.0])


def test_dephase_validates_the_pinched_state_at_its_tol(monkeypatch):
    # The looser of rho's and h's tolerances, whichever of the two holds it.
    rho, h = DensityMatrix(LOOSE_RHO, tol=1e-6), Hamiltonian(LOOSE_H)
    assert max_abs(dephase(rho, h).mat - rho.mat) <= 1e-15
    assert dephase(rho, h).tol == dephase(DensityMatrix(EXACT_RHO), Hamiltonian(LOOSE_H, tol=1e-6)).tol == 1e-6
    # A pinched state whose defect is beyond that tolerance is still refused.
    bump = np.zeros((4, 4))
    monkeypatch.setattr(traceprob.superselect, "pinch", lambda x, h: x + bump)
    exact = DensityMatrix(EXACT_RHO, tol=1e-6)
    bump[0, 1] = 0.5e-6
    assert dephase(exact, h).tol == 1e-6
    bump[0, 1] = 2e-6
    with pytest.raises(ValidationError, match="not a density matrix"):
        dephase(exact, h)
    with pytest.raises(TypeError):
        dephase(rho, h, tol=1e-6)  # the tolerance is the operands'


def test_dephase_zero_hamiltonian_is_identity_map():
    rng = np.random.default_rng(54)
    rho = random_density(rng, 4)
    result = dephase(rho, Hamiltonian(np.zeros((4, 4))))
    assert max_abs(result.mat - rho.mat) <= 1e-12


def test_dephase_properties_sweep():
    rng = np.random.default_rng(55)
    for _ in range(15):
        n = int(rng.integers(2, 7))
        rho = random_density(rng, n)
        h = random_hamiltonian(rng, n)
        bar = dephase(rho, h)
        # idempotent
        assert max_abs(dephase(bar, h).mat - bar.mat) <= 1e-10
        # trace preserved
        assert abs(trace(bar.mat) - trace(rho.mat)) <= 1e-12
        # positive
        assert float(np.min(np.linalg.eigvalsh(bar.mat))) >= -1e-10
        # stationary under further evolution
        for t in rng.uniform(0.0, 100.0, size=20):
            assert max_abs(evolve(bar, h, t).mat - bar.mat) <= 1e-9


def test_dephase_diagonal_in_nondegenerate_eigenbasis():
    rng = np.random.default_rng(56)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        rho = random_density(rng, n)
        h = random_hamiltonian(rng, n)  # continuous spectrum: a.s. nondegenerate
        bar = dephase(rho, h)
        v = h.eigenvectors
        in_basis = v.conj().T @ bar.mat @ v
        off = in_basis - np.diag(np.diagonal(in_basis))
        assert max_abs(off) <= 1e-10


def test_dephase_matches_literal_long_time_average():
    rng = np.random.default_rng(57)
    for _ in range(3):
        rho = random_density(rng, 6)
        h = random_hamiltonian(rng, 6)
        window = 1e3 / _min_cluster_gap(h)
        times = rng.uniform(0.0, window, size=2000)
        literal = np.mean([evolve(rho, h, t).mat for t in times], axis=0)
        assert max_abs(literal - dephase(rho, h).mat) <= 5e-3
        # the vectorized average used by the acceptance suite is the same sum
        assert max_abs(averaged_evolution(rho, h, times) - literal) <= 1e-12


def test_dephase_dim_mismatch():
    with pytest.raises(DimensionMismatchError):
        dephase(DensityMatrix(PLUS_STATE), Hamiltonian(np.zeros((3, 3))))


@pytest.mark.parametrize(
    "refuse, match",
    [
        (lambda: commutes(PLUS_STATE, np.zeros((3, 3))), "a dim 2 vs b dim 3"),
        (
            lambda: is_superselection_compliant(Projector(PLUS_STATE), Hamiltonian(np.zeros((3, 3)))),
            "projector dim 2 vs hamiltonian dim 3",
        ),
    ],
    ids=["commutes", "compliance"],
)
def test_commutation_tests_refuse_operands_of_different_dims(refuse, match):
    with pytest.raises(DimensionMismatchError, match=match):
        refuse()


# --- compliance ---


def test_compliance_identity_always():
    rng = np.random.default_rng(58)
    h = random_hamiltonian(rng, 5)
    assert is_superselection_compliant(Projector(np.eye(5)), h)


def test_compliance_rejects_cross_energy_projector():
    h = Hamiltonian(np.diag([0.0, 1.0]))
    assert not is_superselection_compliant(Projector(PLUS_STATE), h)


def test_compliance_of_spectral_projectors():
    rng = np.random.default_rng(59)
    h = Hamiltonian(random_hermitian(rng, 5))
    for pi in spectral_projectors(h):
        assert is_superselection_compliant(Projector(pi), h)


def test_compliance_of_whole_sectors_at_n_1024():
    # 256 four-fold sectors in a random orthogonal basis; the projector spans the first 128 of them.
    v = random_basis(np.random.default_rng(1024), 1024, real=True)
    h = Hamiltonian((v * np.repeat(np.arange(256.0), 4)) @ v.conj().T)
    assert len(energy_blocks(h)) == 256
    half = v[:, :512]
    assert is_superselection_compliant(Projector(half @ half.conj().T), h)


def test_compliant_probabilities_are_time_independent():
    rng = np.random.default_rng(60)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        rho = random_density(rng, n)
        h = random_hamiltonian(rng, n)
        keep = rng.integers(0, 2, size=len(energy_blocks(h)))
        if not keep.any():
            keep[0] = 1
        p = Projector(sum(pi for pi, k in zip(spectral_projectors(h), keep) if k))
        assert is_superselection_compliant(p, h)
        baseline = trace_prob(p, dephase(rho, h))
        for t in rng.uniform(0.0, 50.0, size=5):
            assert abs(trace_prob(p, evolve(rho, h, t)) - baseline) <= 1e-9



# --- compliance near its threshold ---
#
# The verdict's definition, kept here as the oracle: one pinching, compared in the original basis.
def _compliant_by_pinching(p: Projector, h: Hamiltonian) -> bool:
    return max_abs(pinch(p.mat, h) - p.mat) <= COMPLIANCE_TOL


# is_superselection_compliant first measures F = |Y_off|_F, the Frobenius norm
# of the part of y = V^dagger P V that joins two sectors. pinch(P) - P =
# -V Y_off V^dagger with V unitary, and the Frobenius norm is unitarily
# invariant, so F = |M|_F for M = pinch(P) - P. For an n x n matrix,
# max_abs(M) <= |M|_F <= n max_abs(M). Hence, with tol = COMPLIANCE_TOL:
#  - F <= tol/2 gives max_abs(M) <= F <= tol/2 <= tol: compliant, from the norm alone.
#  - F > 2n tol gives max_abs(M) >= F/n > 2 tol > tol: not compliant, from the norm alone.
#  - Between the two, the norm does not decide, and the pinching decides as the oracle does.
# Each fast bound keeps a factor 2 from the bound the inequality allows (tol and
# n tol), against the rounding of the computed V, about n * 1e-16 here.
NEAR_TOL = {
    "max-0.5x": ("max", 0.5 * COMPLIANCE_TOL),
    "max-0.99x": ("max", 0.99 * COMPLIANCE_TOL),
    "max-1.01x": ("max", 1.01 * COMPLIANCE_TOL),
    "max-2x": ("max", 2 * COMPLIANCE_TOL),
    "fro-in-half": ("fro", 0.99 * COMPLIANCE_TOL / 2),
    "fro-out-half": ("fro", 1.01 * COMPLIANCE_TOL / 2),
    "fro-in-2n": ("fro", 0.99 * 2 * COMPLIANCE_TOL),  # times n below
    "fro-out-2n": ("fro", 1.01 * 2 * COMPLIANCE_TOL),
}


def _tilted_projector(u: np.ndarray, columns: list[int], k: np.ndarray, eps: float) -> Projector:
    """exp(i eps K) P0 exp(-i eps K), where P0 projects onto the given columns of ``u``."""
    w, q = np.linalg.eigh(k)
    r = (q * np.exp(1j * eps * w)) @ q.conj().T
    p = r @ u[:, columns] @ (r @ u[:, columns]).conj().T
    return Projector((p + p.conj().T) / 2)


@pytest.mark.parametrize("n", [2, 8])
def test_compliance_near_its_threshold_agrees_with_one_pinching(monkeypatch, n):
    # H has sectors of two levels (n=8) or one (n=2) in a random basis U; P0, the
    # projector onto some of U's columns, is compliant, and exp(i eps K) tilts it
    # out by a defect linear in eps to first order (eps**2 is about 1e-18 here).
    # Each case scales eps so that max_abs(M) or |M|_F lands on its target.
    rng = np.random.default_rng(1031 + n)
    u = random_basis(rng, n)
    levels = np.repeat(np.arange(n // 2, dtype=float), 2) if n > 2 else np.array([0.0, 1.0])
    h = Hamiltonian((u * levels) @ u.conj().T)
    columns = [0] if n == 2 else [0, 1, 4]
    k = random_hermitian(rng, n)
    pinched = []  # one entry per max_abs call: the verdict took the pinching
    monkeypatch.setattr(superselect, "max_abs", lambda m: pinched.append(1) or max_abs(m))

    def defects(p):
        m = pinch(p.mat, h) - p.mat
        return {"max": max_abs(m), "fro": float(np.linalg.norm(m))}

    base = defects(_tilted_projector(u, columns, k, 1e-9))
    cases = {name: (kind, target * (n if name.endswith("2n") else 1)) for name, (kind, target) in NEAR_TOL.items()}
    cases.update({"exact": ("max", 0.0), "far": ("max", 1e-6)})
    branches = set()
    for name, (kind, target) in cases.items():
        p = _tilted_projector(u, columns, k, 1e-9 * target / base[kind])
        got = defects(p)
        assert got[kind] == pytest.approx(target, rel=1e-4, abs=1e-12), name  # the case is the one it names
        pinched.clear()
        verdict = is_superselection_compliant(p, h)
        assert verdict == _compliant_by_pinching(p, h), name
        decided_by_norm = not COMPLIANCE_TOL / 2 < got["fro"] <= 2 * n * COMPLIANCE_TOL
        assert bool(pinched) != decided_by_norm, name
        branches.add("pinched" if pinched else f"norm: {verdict}")
    assert branches == {"norm: True", "norm: False", "pinched"}


# --- pinching ---


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_pinching_matches_sector_sum(n):
    rng = np.random.default_rng(61 + n)
    h = degenerate_hamiltonian(rng, n)
    indices = _sector_indices(h)
    assert max(len(c) for c in indices) > 1
    rho = random_density(rng, n)
    assert max_abs(dephase(rho, h).mat - sector_sum(rho.mat, h)) <= 1e-12
    in_sector = h.eigenvectors[:, list(indices[0][:1])]
    candidates = [
        Projector(sum(spectral_projectors(h)[::2])),  # whole sectors
        Projector(in_sector @ in_sector.conj().T),  # part of one sector
        random_projector(rng, n, rank=n // 2),  # across sectors
    ]
    verdicts = []
    for p in candidates:
        literal = sector_sum(p.mat, h)
        assert max_abs(pinch(p.mat, h) - literal) <= 1e-12
        verdict = is_superselection_compliant(p, h)
        assert verdict == (max_abs(literal - p.mat) <= COMPLIANCE_TOL)
        verdicts.append(verdict)
    assert verdicts == [True, True, False]


def test_sectors_are_sealed():
    h = degenerate_hamiltonian(np.random.default_rng(62), 8)
    with pytest.raises(AttributeError):
        h.sectors = None
    with pytest.raises(AttributeError):
        del h.sectors


def test_hamiltonian_sectors_label_each_eigen_index_read_only():
    h = Hamiltonian(np.diag([2.0, 0.0, 0.0, 5.0]))
    assert h.sectors.tolist() == [0, 0, 1, 2]
    with pytest.raises(ValueError):
        h.sectors[0] = 1


@pytest.mark.parametrize(
    "mat, sectors",
    [
        ([[3.0]], [0]),
        (np.zeros((3, 3)), [0, 0, 0]),
        (np.diag([1.0, 2.0, 4.0, 8.0]), [0, 1, 2, 3]),
        (np.diag([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.0]), [0, 0, 1, 1, 2]),
        ([[1.0, 1j], [-1j, 1.0]], [0, 1]),
        (np.diag([-1e308, -1e308, 1e308]), [0, 0, 1]),
    ],
    ids=["one-level", "zero", "distinct", "near-degenerate", "complex", "gap-beyond-float-range"],
)
def test_sectors_are_read_only_integer_labels(mat, sectors):
    h = Hamiltonian(np.asarray(mat))
    assert h.sectors.tolist() == sectors
    assert h.sectors.ndim == 1 and h.sectors.dtype.kind == "i" and not h.sectors.flags.writeable
    # a new sector starts exactly where the gap to the previous level exceeds the cluster tolerance
    with np.errstate(over="ignore"):
        splits = np.diff(h.energies) > default_cluster_tol(h)
    assert np.diff(h.sectors).tolist() == splits.astype(int).tolist()


def test_hamiltonian_holds_the_read_only_spectrum_of_hermitian_eig():
    h = random_hamiltonian(np.random.default_rng(63), 6)
    values, vectors = hermitian_eig(h.mat)
    assert h.energies.tobytes() == values.tobytes() and h.eigenvectors.tobytes() == vectors.tobytes()
    for held in (h.energies, h.eigenvectors):
        with pytest.raises(ValueError):
            held[0] = 9.0


def test_energy_blocks_are_the_runs_of_equal_sectors():
    rng = np.random.default_rng(66)
    for n in (1, 2, 5, 12, 40):
        h = degenerate_hamiltonian(rng, n)
        runs = [list(g) for _, g in itertools.groupby(range(n), key=lambda i: h.sectors[i])]
        assert [list(indices) for _, indices in energy_blocks(h)] == runs
        assert [energy for energy, _ in energy_blocks(h)] == [_mean(h.energies[run]) for run in runs]
        assert h.sectors.dtype.kind == "i" and not h.sectors.flags.writeable


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("c", [1e-3, 0.5, 7.0, 1e3])
def test_clusters_invariant_under_shift_and_scale(n, c):
    rng = np.random.default_rng(64 + n)
    h = degenerate_hamiltonian(rng, n)
    assert len(energy_blocks(h)) < n
    shifted = Hamiltonian(h.mat + c * np.eye(n))
    scaled = Hamiltonian(c * h.mat)
    for other in (shifted, scaled):
        assert _sector_indices(other) == _sector_indices(h)
        assert other.sectors.tolist() == h.sectors.tolist()


def test_sector_energies_are_the_numpy_means_of_their_levels():
    h = degenerate_hamiltonian(np.random.default_rng(65), 12)
    blocks = energy_blocks(h)
    assert len(blocks) < 12
    assert [energy for energy, _ in blocks] == [float(np.mean(h.energies[list(c)])) for _, c in blocks]


def _refuse_constant(name):
    raise ValueError(f"not a JSON number: {name}")


@pytest.mark.parametrize(
    "levels, energies",
    [((1e308, 1e308), [1e308]), ((1e308, -1e308), [-1e308, 1e308])],
    ids=["sum-overflows", "gap-overflows"],
)
def test_levels_near_the_float_range_split_and_average(tmp_path, capsys, levels, energies):
    spec = tmp_path / "system.json"
    obj = {
        "rho": matrix_to_rows(np.eye(2) / 2),
        "hamiltonian": matrix_to_rows(np.diag(levels)),
        "projectors": {"a": [1, 0], "b": [0, 1]},
    }
    spec.write_text(json.dumps(obj), encoding="utf-8")
    for command in ("quantum", "dephase", "check"):
        assert main([command, "--spec", str(spec)]) == 0
        assert capsys.readouterr().err == ""
    assert main(["dephase", "--spec", str(spec), "--json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert json.loads(out, parse_constant=_refuse_constant)["blocks"]["energies"] == energies
