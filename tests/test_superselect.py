"""Time evolution, energy blocks, dephasing, and superselection compliance."""

from __future__ import annotations

import json

import numpy as np
import pytest

from helpers import (
    averaged_evolution,
    degenerate_hamiltonian,
    random_density,
    random_hamiltonian,
    random_hermitian,
    random_projector,
    sector_sum,
)
from traceprob import (
    DensityMatrix,
    DimensionMismatchError,
    Hamiltonian,
    NotHermitianError,
    NotRealError,
    Projector,
    RealityMode,
    ValidationError,
    default_cluster_tol,
    dephase,
    energy_blocks,
    evolve,
    is_superselection_compliant,
    matrix_to_rows,
    max_abs,
    trace,
    trace_prob,
)
from traceprob.cli import main
from traceprob.superselect import COMPLIANCE_TOL, EnergyBlocks, pinch

PLUS_STATE = np.full((2, 2), 0.5)


def _min_cluster_gap(h: Hamiltonian) -> float:
    energies = energy_blocks(h).energies
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


# --- energy blocks ---


def test_energy_blocks_degenerate_pair():
    blocks = energy_blocks(Hamiltonian(np.diag([0.0, 0.0, 5.0])))
    assert blocks.clusters == ((0, 1), (2,))
    assert blocks.count == 2
    np.testing.assert_allclose(blocks.projectors[0], np.diag([1.0, 1.0, 0.0]), atol=1e-12)


def test_energy_blocks_distinct_spectrum():
    blocks = energy_blocks(Hamiltonian(np.diag([1.0, 2.0, 4.0, 8.0])))
    assert blocks.count == 4
    assert all(len(c) == 1 for c in blocks.clusters)


def test_energy_blocks_zero_hamiltonian():
    blocks = energy_blocks(Hamiltonian(np.zeros((3, 3))))
    assert blocks.count == 1
    np.testing.assert_allclose(blocks.projectors[0], np.eye(3), atol=1e-12)


def test_energy_blocks_resolution_of_identity():
    rng = np.random.default_rng(53)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        h = random_hamiltonian(rng, n)
        blocks = energy_blocks(h)
        total = sum(blocks.projectors)
        assert max_abs(total - np.eye(n)) <= 1e-9
        for i in range(blocks.count):
            for j in range(i + 1, blocks.count):
                assert max_abs(blocks.projectors[i] @ blocks.projectors[j]) <= 1e-9


def test_energy_blocks_cluster_gaps_exceed_tol():
    h = Hamiltonian(np.diag([0.0, 1e-12, 1.0, 1.0 + 1e-12, 2.0]))
    tol = default_cluster_tol(h)
    blocks = energy_blocks(h, tol)
    assert blocks.count == 3
    gaps = np.diff(blocks.energies)
    assert np.all(gaps > tol)


def test_energy_blocks_chain_small_gaps_into_one_wide_sector():
    # Clustering is greedy on consecutive gaps, so a sector's width is not
    # bounded by cluster_tol: 64 levels 0.9 tol apart form one sector 56.7 tol wide.
    tol = 1e-8
    levels = 0.9 * tol * np.arange(64)
    h = Hamiltonian(np.diag(levels))
    assert default_cluster_tol(h) == tol
    blocks = energy_blocks(h)
    assert blocks.count == 1
    assert blocks.clusters == (tuple(range(64)),)
    width = h.energies[-1] - h.energies[0]
    assert width / tol == pytest.approx(56.7)
    # One gap just above tol splits the chain there, and only there.
    levels[32:] += 0.2 * tol
    assert energy_blocks(Hamiltonian(np.diag(levels))).clusters == (tuple(range(32)), tuple(range(32, 64)))


def test_energy_blocks_rejects_bad_tol():
    with pytest.raises(ValidationError):
        energy_blocks(Hamiltonian(np.eye(2)), 0.0)


def test_default_cluster_tol_scales_with_spectrum():
    assert default_cluster_tol(Hamiltonian(np.diag([0.0, 5.0]))) == 5e-8
    assert default_cluster_tol(Hamiltonian(np.diag([0.0, 0.1]))) == 1e-8


# --- dephase ---


def test_dephase_kills_cross_energy_coherence():
    h = Hamiltonian(np.diag([0.0, 1.0]))
    result = dephase(DensityMatrix(PLUS_STATE), h)
    np.testing.assert_allclose(result.mat, np.diag([0.5, 0.5]), atol=1e-15)


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
        v = h.eig.eigenvectors
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
    for pi in energy_blocks(h).projectors:
        assert is_superselection_compliant(Projector(pi), h)


def test_compliant_probabilities_are_time_independent():
    rng = np.random.default_rng(60)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        rho = random_density(rng, n)
        h = random_hamiltonian(rng, n)
        blocks = energy_blocks(h)
        keep = rng.integers(0, 2, size=blocks.count)
        if not keep.any():
            keep[0] = 1
        p = Projector(sum(pi for pi, k in zip(blocks.projectors, keep) if k))
        assert is_superselection_compliant(p, h)
        baseline = trace_prob(p, dephase(rho, h))
        for t in rng.uniform(0.0, 50.0, size=5):
            assert abs(trace_prob(p, evolve(rho, h, t)) - baseline) <= 1e-9


# --- pinching ---


@pytest.mark.parametrize("n", [4, 16, 64, 128])
def test_pinching_matches_sector_sum(n):
    rng = np.random.default_rng(61 + n)
    h = degenerate_hamiltonian(rng, n)
    blocks = energy_blocks(h)
    assert max(len(c) for c in blocks.clusters) > 1
    rho = random_density(rng, n)
    assert max_abs(dephase(rho, h).mat - sector_sum(rho.mat, h, blocks.clusters)) <= 1e-12
    in_sector = blocks.basis[:, list(blocks.clusters[0][:1])]
    candidates = [
        Projector(sum(blocks.projectors[::2])),  # whole sectors
        Projector(in_sector @ in_sector.conj().T),  # part of one sector
        random_projector(rng, n, rank=n // 2),  # across sectors
    ]
    verdicts = []
    for p in candidates:
        literal = sector_sum(p.mat, h, blocks.clusters)
        assert max_abs(pinch(p.mat, blocks) - literal) <= 1e-12
        verdict = is_superselection_compliant(p, h)
        assert verdict == (max_abs(literal - p.mat) <= COMPLIANCE_TOL)
        verdicts.append(verdict)
    assert verdicts == [True, True, False]


def test_energy_blocks_cached_per_tolerance():
    rng = np.random.default_rng(62)
    h = degenerate_hamiltonian(rng, 8)
    default = energy_blocks(h)
    assert energy_blocks(h) is default
    assert energy_blocks(h, default_cluster_tol(h)) is default
    wide = energy_blocks(h, 10.0)
    assert wide is not default
    assert energy_blocks(h, 10.0) is wide
    assert wide.count == 1
    with pytest.raises(ValidationError):
        energy_blocks(h, 0.0)
    with pytest.raises(AttributeError):
        h._blocks = None


def test_energy_blocks_labels_and_basis():
    h = Hamiltonian(np.diag([2.0, 0.0, 0.0, 5.0]))
    blocks = energy_blocks(h)
    assert blocks.labels.tolist() == [0, 0, 1, 2]
    assert blocks.basis is h.eig.eigenvectors
    with pytest.raises(ValueError):
        blocks.labels[0] = 1


def test_projectors_are_read_only_and_cached():
    blocks = energy_blocks(Hamiltonian(np.diag([0.0, 0.0, 1.0])))
    assert blocks.projectors is blocks.projectors
    for pi in blocks.projectors:
        with pytest.raises(ValueError):
            pi[0, 0] = 7.0


def test_dephase_and_compliance_build_no_projectors(monkeypatch, tmp_path, capsys):
    built = []
    lazy = EnergyBlocks.projectors

    def counting(self):
        built.append(1)
        return lazy.func(self)

    monkeypatch.setattr(EnergyBlocks, "projectors", property(counting))
    rng = np.random.default_rng(63)
    h = degenerate_hamiltonian(rng, 6)
    rho = random_density(rng, 6)
    dephase(rho, h)
    is_superselection_compliant(random_projector(rng, 6), h)
    spec = tmp_path / "system.json"
    obj = {
        "rho": matrix_to_rows(rho.mat),
        "hamiltonian": matrix_to_rows(h.mat),
        "projectors": {"p": matrix_to_rows(np.eye(6))},
    }
    spec.write_text(json.dumps(obj), encoding="utf-8")
    assert main(["quantum", "--spec", str(spec), "--json"]) == 0
    capsys.readouterr()
    assert built == []
    energy_blocks(h).projectors
    assert built == [1]


@pytest.mark.parametrize("n", [128, 256])
@pytest.mark.parametrize("c", [1e-3, 0.5, 7.0, 1e3])
def test_clusters_invariant_under_shift_and_scale(n, c):
    rng = np.random.default_rng(64 + n)
    h = degenerate_hamiltonian(rng, n)
    tol = 1e-6
    reference = energy_blocks(h, tol)
    assert reference.count < n
    shifted = energy_blocks(Hamiltonian(h.mat + c * np.eye(n)), tol)
    scaled = energy_blocks(Hamiltonian(c * h.mat), c * tol)
    for blocks in (shifted, scaled):
        assert blocks.clusters == reference.clusters
        assert blocks.labels.tolist() == reference.labels.tolist()
