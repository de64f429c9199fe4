"""The paper's invariants carried from a spec file to printed output.

Each test writes a pair of spec files that must give the same answers, runs
every subcommand that applies on both through ``cli.main``, and compares what
it prints: byte for byte where the two runs do the same arithmetic, and
within a bound derived from the library's tolerances, and from rounding-error
analysis, where they do not.
"""

from __future__ import annotations

import contextlib
import io
import json
import re

import numpy as np
import pytest

from helpers import (
    matrix_to_rows,
    random_basis,
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


# --- the classical case: a cycle, and the diagonal density of its dwell fractions ---


@pytest.mark.parametrize("n", SIZES)
def test_a_cycle_and_its_diagonal_fractions_give_one_trace_rule_column(tmp_path, n):
    # classical builds rho = diag(fractions) itself; the second spec writes that
    # rho out. --json writes each fraction as its repr, which reads back as the
    # same float, so both runs contract the same operators: byte-identical text.
    rng = np.random.default_rng([10, n])
    cycle = random_cycle(rng, n)
    sets = {f"s{k}": list(random_subset(rng, n).chi) for k in range(4)}
    schedule = [list(e) for e in cycle.schedule]
    code, classical, err = _run(
        _write(tmp_path, "cycle", {"cycle": {"n": n, "schedule": schedule}, "projectors": sets}), ["classical"], ["--json"]
    )
    assert (code, err) == (0, "")
    rho = matrix_to_rows(np.diag(json.loads(classical)["fractions"]))
    code, quantum, err = _run(_write(tmp_path, "diagonal", {"rho": rho, "projectors": sets}), ["quantum"], ["--json"])
    assert (code, err) == (0, "")
    trace_rule = re.findall(r'"trace_prob": ([^,\n]*)', classical)
    assert len(trace_rule) == len(sets)
    assert re.findall(r'"probability": ([^,\n]*)', quantum) == trace_rule


# --- a change of basis ---

# Spec B holds each operator x of spec A as fl(fl(u x) u^dagger), hermitized,
# with u one Haar unitary as computed: it is not the exact conjugate, and u is
# not exactly unitary. Each bound below is derived from rounding-error
# facts and the library's stated tolerances; none was fitted to the output.
# ||.|| is the Frobenius norm, u0 = 2**-53 and gamma(k) = k u0 / (1 - k u0).
#  - A computed complex product of n-term inner products is within
#    gamma(2n) |A||B| of the exact one, entrywise (Higham, Accuracy and
#    Stability of Numerical Algorithms, 2nd ed., 2002, sections 3.1 and 3.6:
#    gamma(n - 1) for the sum and sqrt(2) gamma(2) for each complex product),
#    so within gamma(2n) ||A|| ||B|| in norm. trace_prob and an atom's
#    expectation are one dot of n**2 terms: within gamma(2 n**2) ||P|| ||rho||.
#  - delta = ||fl(u^dagger u) - I|| + gamma(2n) ||u||**2 bounds ||u^dagger u - I||_2.
#    With u = Q M its polar decomposition (Q unitary), ||u - Q||_2 <= delta.
#    In exact arithmetic every number the CLI prints is the same for
#    Q x Q^dagger as for x, so
#    E(x), a bound on ||x_B - Q x Q^dagger||, carries the whole difference.
#  - |tr(P_B rho_B) - tr(P rho)| <= E(P) (||rho|| + E(rho)) + ||P|| E(rho).
#    Each printed value is clamped to its range, which moves no two values apart.
#  - Dephasing: the library's pinching is within COMPLIANCE_TOL of the exact
#    one, entrywise (the compliance contract), so tr(P F) <= sum|P_ij| COMPLIANCE_TOL
#    for its error F. H's eigenvalues lie within 0.25 of their integer levels
#    (asserted), so its sectors are at least 0.5 apart, and by the
#    Davis-Kahan sin theta theorem with Weyl's inequality each spectral
#    projector of H_B is within theta = E(H) / (0.5 - E(H)) of Q's conjugate of
#    H's, in 2-norm. A pinching is a contraction, so with K sectors the two
#    dephased states differ by at most D = E(rho) + 2 K theta ||rho||.
#  - The norms this test computes carry a relative error below n u0; the
#    factor SAFETY covers it.
U0 = 2.0**-53
SAFETY = 1 + 1e-6


def _gamma(k: int) -> float:
    return k * U0 / (1 - k * U0)


def _norm(a) -> float:
    return float(np.linalg.norm(a))


def _hermitized(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2  # exactly Hermitian: the two sums of a pair round alike


class _Conjugation:
    """One Haar unitary ``u``, with the rounding bounds of conjugating by it."""

    def __init__(self, rng, n: int):
        self.u, self.g = random_basis(rng, n), _gamma(2 * n)
        self.u_norm = _norm(self.u)
        self.delta = _norm(self.u.conj().T @ self.u - np.eye(n)) + self.g * self.u_norm**2
        assert self.delta < 1e-10

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return _hermitized(self.u @ x @ self.u.conj().T)

    def bound(self, x: np.ndarray) -> float:
        """E(x): how far ``self(x)`` may lie from Q x Q^dagger, in Frobenius norm."""
        g, d, x_norm = self.g, self.delta, _norm(x)
        e1 = g * self.u_norm * x_norm  # fl(u x) - u x
        rounding = e1 * (1 + d) + g * self.u_norm * ((1 + d) * x_norm + e1)  # fl(fl(u x) u^dagger) - u x u^dagger
        e = rounding + d * (2 + d) * x_norm  # ... - Q x Q^dagger
        return e + U0 * (x_norm + e)  # the hermitizing sum rounds each entry once more


def _basis_operators(rng, n: int) -> tuple[dict, dict, _Conjugation]:
    """Spec A's operators by name: a dense rho, a Hamiltonian with integer
    levels each n/K-fold degenerate (K sectors), two projectors inside sectors
    and two across them, and three atoms; spec B's, the same conjugated; the conjugation."""
    k = max(2, n // 4)
    levels = rng.permutation(np.arange(n) % k).astype(float)
    v = random_basis(rng, n)
    sector = [v[:, levels == level] for level in range(k)]
    w = random_basis(rng, n // k)[:, 0]
    inside, across = sector[0] @ w, (sector[0][:, 0] + sector[1][:, 0]) / np.sqrt(2)
    ops = {
        "rho": _hermitized(random_density_matrix(rng, n)),
        "hamiltonian": _hermitized((v * levels) @ v.conj().T),
        "p-in-one-sector": _hermitized(np.outer(inside, inside.conj())),
        "p-two-sectors": _hermitized(np.hstack(sector[:2]) @ np.hstack(sector[:2]).conj().T),
        "p-across-two-sectors": _hermitized(np.outer(across, across.conj())),
        "p-random": _hermitized(random_projector_matrix(rng, n, max(1, n // 4))),
        "a0": _hermitized(random_pov_matrix(rng, n)),
        "a1": _hermitized(random_pov_matrix(rng, n)),
        "a2": _hermitized(random_pov_matrix(rng, n)),
    }
    conj = _Conjugation(rng, n)
    return ops, {name: conj(x) for name, x in ops.items()}, conj


def _basis_spec(ops: dict) -> dict:
    return {
        "rho": matrix_to_rows(ops["rho"]),
        "hamiltonian": matrix_to_rows(ops["hamiltonian"]),
        "projectors": {name: matrix_to_rows(x) for name, x in ops.items() if name.startswith("p-")},
        "algebra": {"atoms": [{"label": a, "operator": matrix_to_rows(ops[a])} for a in ("a0", "a1", "a2")]},
    }


def _compliance_defect(p: np.ndarray, h: np.ndarray) -> float:
    """max |pinch(p) - p|, the pinching taken over h's eigenvalues rounded to their integer levels."""
    energies, vectors = np.linalg.eigh(h)
    level = np.round(energies)
    y = vectors.conj().T @ p @ vectors
    y[level[:, np.newaxis] != level[np.newaxis, :]] = 0
    return float(np.max(np.abs(vectors @ y @ vectors.conj().T - p)))


@pytest.mark.parametrize("n", SIZES)
def test_a_change_of_basis_moves_no_answer_beyond_its_rounding_bound(tmp_path, n):
    rng = np.random.default_rng([11, n])
    ops, turned, conj = _basis_operators(rng, n)
    paths = _write(tmp_path, "plain", _basis_spec(ops)), _write(tmp_path, "turned", _basis_spec(turned))
    rho, h = ops["rho"], ops["hamiltonian"]
    energies = np.linalg.eigvalsh(h)
    assert np.max(np.abs(energies - np.round(energies))) < 0.25
    sectors = len(set(np.round(energies)))

    def run_json(command):
        results = [_run(path, [command], ["--json"]) for path in paths]
        assert [(code, err) for code, _, err in results] == [(0, "")] * 2, command
        return [json.loads(out) for _, out, _ in results]

    def trace_rule_bound(x, other, x_b, other_b):
        # both evaluations, then the difference of the operators themselves
        evaluations = _gamma(2 * n**2) * (_norm(x) * _norm(other) + _norm(x_b) * _norm(other_b))
        e_x, e_other = conj.bound(x), conj.bound(other)
        return evaluations + e_x * (_norm(other) + e_other) + _norm(x) * e_other

    # The sectors: the same count in both bases.
    blocks = [out["blocks"]["count"] for out in run_json("dephase")]
    assert blocks == [sectors, sectors]

    # Probabilities, verdicts and dephased probabilities.
    quantum_a, quantum_b = (out["projectors"] for out in run_json("quantum"))
    rho_b, h_b = turned["rho"], turned["hamiltonian"]
    theta = conj.bound(h) / (0.5 - conj.bound(h))
    spread = conj.bound(rho) + 2 * sectors * theta * _norm(rho)  # D above
    for a, b in zip(quantum_a, quantum_b):
        label = a["label"]
        assert b["label"] == label
        p, p_b = ops[label], turned[label]
        assert abs(a["probability"] - b["probability"]) <= SAFETY * trace_rule_bound(p, rho, p_b, rho_b), label
        defects = _compliance_defect(p, h), _compliance_defect(p_b, h_b)
        assert all(d < 1e-11 or d > 1e-6 for d in defects), (label, defects)  # far from COMPLIANCE_TOL
        assert a["compliant"] == b["compliant"] == (label in ("p-in-one-sector", "p-two-sectors"))
        # A dephased state is a pinching, of norm at most its state's, plus the
        # pinching's error F, of n**2 entries each at most COMPLIANCE_TOL.
        evaluations = _gamma(2 * n**2) * sum(
            _norm(x) * (_norm(state) + n * COMPLIANCE_TOL) for x, state in ((p, rho), (p_b, rho_b))
        )
        pinching_errors = COMPLIANCE_TOL * (np.sum(np.abs(p)) + np.sum(np.abs(p_b)))
        dephased = evaluations + pinching_errors + conj.bound(p) * _norm(rho_b) + _norm(p) * spread
        assert abs(a["dephased_probability"] - b["dephased_probability"]) <= SAFETY * dephased, label

    # Measures: each atom alone, their correctly rounded total, and each quotient.
    measure_a, measure_b = run_json("measure")
    total_a, total_b = measure_a["total_measure"], measure_b["total_measure"]
    atom_bounds = [trace_rule_bound(ops[a["label"]], rho, turned[a["label"]], rho_b) for a in measure_a["atoms"]]
    total_bound = sum(atom_bounds) + U0 * (total_a + total_b)
    assert abs(total_a - total_b) <= SAFETY * total_bound
    for a, b, atom_bound in zip(measure_a["atoms"], measure_b["atoms"], atom_bounds):
        assert a["label"] == b["label"]
        assert abs(a["measure"] - b["measure"]) <= SAFETY * atom_bound
        quotient = atom_bound / total_b + a["measure"] * total_bound / (total_a * total_b) + 2 * U0
        assert abs(a["normalized_prob"] - b["normalized_prob"]) <= SAFETY * quotient

    # check runs quantum, measure and sample (which finds no partition) on both.
    for path in paths:
        code, out, err = _run(path, ["check"], [])
        assert (code, err) == (0, "") and out.endswith("all validations passed\n")
