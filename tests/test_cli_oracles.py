"""The paper's invariants carried from a spec file to printed output.

Each test writes a pair of spec files that must give the same answers, runs
every subcommand that applies on both through ``cli.main``, and compares what
it prints: byte for byte where the two runs do the same arithmetic, and
within a bound stated from the library's tolerances where they do not.
"""

from __future__ import annotations

import contextlib
import io
import json

import numpy as np
import pytest

from helpers import (
    matrix_to_rows,
    random_cycle,
    random_density_matrix,
    random_hermitian,
    random_partition,
    random_pov_matrix,
    random_projector_matrix,
    random_subset,
)
from traceprob import RealityMode
from traceprob.cli import main
from traceprob.quantum import PROB_SLACK
from traceprob.superselect import COMPLIANCE_TOL

SIZES = [4, 16, 64]
COMMANDS = (["classical"], ["quantum"], ["dephase"], ["measure"], ["sample", "--n", "1000", "--seed", "7"], ["check"])


def _run(path, command: list[str], flags: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([*command, "--spec", str(path), *flags])
    return code, out.getvalue(), err.getvalue()


def _write(tmp_path, name: str, obj: dict):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(obj), encoding="utf-8")
    return path


# --- reality mode ---


def _real_specs(rng, n: int) -> dict[str, dict]:
    """Two real specs: a cycle with characteristic-vector sets, and a dense
    partition; both with a real rho, Hamiltonian and algebra."""
    cycle = random_cycle(rng, n)
    shared = {
        "rho": matrix_to_rows(random_density_matrix(rng, n, real=True)),
        "hamiltonian": matrix_to_rows(random_hermitian(rng, n, real=True)),
        "algebra": {
            "atoms": [
                {"label": f"a{i}", "operator": matrix_to_rows(random_pov_matrix(rng, n, real=True))} for i in range(3)
            ]
        },
    }
    sets = {f"s{k}": list(random_subset(rng, n).chi) for k in range(3)}
    parts = random_partition(rng, n, min(n, 4), RealityMode.REAL)
    partition = {f"p{k}": matrix_to_rows(p.mat) for k, p in enumerate(parts)}
    return {
        "cycle": {**shared, "cycle": {"n": n, "schedule": [list(e) for e in cycle.schedule]}, "projectors": sets},
        "partition": {**shared, "projectors": partition},
    }


@pytest.mark.parametrize("n", SIZES)
def test_a_real_spec_prints_the_same_under_either_mode(tmp_path, n):
    # REAL mode only refuses imaginary parts; on real input every number is the
    # same arithmetic, so only check's mode line and key may differ.
    rng = np.random.default_rng([27, n])
    for name, spec in _real_specs(rng, n).items():
        real, complex_ = (
            _write(tmp_path, f"{name}-{mode}", spec | {"reality_mode": mode}) for mode in ("real", "complex")
        )
        for command in COMMANDS:
            for flags in ([], ["--json"]):
                got = _run(real, command, flags)
                want = _run(complex_, command, flags)
                if command == ["check"]:
                    key = '"reality_mode": "{}"' if flags else "reality mode: {}"
                    assert key.format("complex") in want[1]
                    want = (want[0], want[1].replace(key.format("complex"), key.format("real")), want[2])
                assert got == want, (name, command, flags)
                # Every subcommand runs, but classical on the partition, which has no cycle.
                assert got[0] == (1 if (name, command) == ("partition", ["classical"]) else 0), got[2]


# --- a diagonal Hamiltonian against the same system permuted ---

# Both specs hold the same operators, exactly: a permutation moves entries and
# rounds nothing. So two answers differ only by how each run rounds, and the
# library's tolerances bound that. A probability is refused beyond PROB_SLACK
# outside [0, 1], so each run is within it of the exact value. The compliance
# test calls a projector compliant when its computed pinching is within
# COMPLIANCE_TOL of it, so a pinching of an operator of norm at most 1 (a
# projector, or rho) is within that of the exact one. Two runs: twice each.
RHO_BOUND = 2 * COMPLIANCE_TOL


def _diagonal_specs(rng, n: int) -> tuple[dict, dict, np.ndarray]:
    """A diagonal H with shuffled degenerate levels, a dense rho, characteristic
    vectors and dense projectors; the same conjugated by a permutation; and the
    permutation, as the original index of each permuted basis state."""
    levels = rng.integers(0, max(2, n // 3), size=n).astype(float)  # fewer levels than states: some degenerate
    values, counts = np.unique(levels, return_counts=True)
    sector = np.flatnonzero(levels == values[np.argmax(counts)])
    inside = np.zeros((n, n), dtype=complex)
    inside[np.ix_(sector, sector)] = random_projector_matrix(rng, len(sector), 1)
    h = np.diag(levels)
    rho = random_density_matrix(rng, n)
    dense = {"inside-a-sector": inside, "random": random_projector_matrix(rng, n, max(1, n // 4))}
    sets = {f"set{k}": np.array(random_subset(rng, n).chi) for k in range(2)}
    perm = rng.permutation(n)

    def spec(order):
        def conj(a):
            return matrix_to_rows(a[np.ix_(order, order)])

        projectors = {label: chi[order].tolist() for label, chi in sets.items()}
        projectors |= {label: conj(p) for label, p in dense.items()}
        return {"rho": conj(rho), "hamiltonian": conj(h), "projectors": projectors}

    return spec(np.arange(n)), spec(perm), perm


def _rows_to_matrix(rows) -> np.ndarray:
    a = np.array(rows)
    return a[..., 0] + 1j * a[..., 1]


@pytest.mark.parametrize("n", SIZES)
def test_a_diagonal_hamiltonian_and_its_permutation_give_the_same_answers(tmp_path, n):
    rng = np.random.default_rng([9, n])
    plain, permuted, perm = _diagonal_specs(rng, n)
    paths = _write(tmp_path, "plain", plain), _write(tmp_path, "permuted", permuted)

    # The sectors: the same energies and eigen-indices, byte for byte, in both forms.
    (code_a, text_a, _), (code_b, text_b, _) = (_run(p, ["dephase"], []) for p in paths)
    assert code_a == code_b == 0
    block_lines = [[line for line in text.splitlines() if "block" in line] for text in (text_a, text_b)]
    assert block_lines[0] == block_lines[1]
    deph_a, deph_b = (json.loads(_run(p, ["dephase"], ["--json"])[1]) for p in paths)
    assert json.dumps(deph_a["blocks"]) == json.dumps(deph_b["blocks"])

    # The dephased rho, taken back to the first basis.
    inverse = np.argsort(perm)
    rho_a = _rows_to_matrix(deph_a["rho_dephased"])
    rho_b = _rows_to_matrix(deph_b["rho_dephased"])[np.ix_(inverse, inverse)]
    assert np.max(np.abs(rho_a - rho_b)) <= RHO_BOUND

    # Verdicts are equal; probabilities agree within the bound, and a dephased
    # one moves by at most sum_ij |P_ij| times the entrywise bound on rho.
    quantum_a, quantum_b = (json.loads(_run(p, ["quantum"], ["--json"])[1])["projectors"] for p in paths)
    for a, b in zip(quantum_a, quantum_b):
        label = a["label"]
        assert b["label"] == label
        assert a["compliant"] == b["compliant"]
        assert abs(a["probability"] - b["probability"]) <= 2 * PROB_SLACK
        p = plain["projectors"][label]
        weight = np.sum(np.abs(np.diag(p) if isinstance(p[0], int) else _rows_to_matrix(p)))
        assert abs(a["dephased_probability"] - b["dephased_probability"]) <= 2 * PROB_SLACK + weight * RHO_BOUND
    verdicts = {e["label"]: e["compliant"] for e in quantum_a}
    assert verdicts == {"set0": True, "set1": True, "inside-a-sector": True, "random": False}

    # check prints no float: its text and JSON are the same for both forms.
    for flags in ([], ["--json"]):
        first, second = (_run(p, ["check"], flags) for p in paths)
        assert first == second
        assert first[0] == 0
