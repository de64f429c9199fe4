"""The three workloads: seeded inputs, the job that runs them, and the oracle check.

Every call within a workload does the same work on the same inputs, so a
run's median latency never falls between groups of calls of different
sizes. Inputs are generated here, before any clock starts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracle
from jobs import CliJob, QueryJob


@dataclass
class Workload:
    job: CliJob | QueryJob
    check: Callable[[tuple], oracle.Check]
    # call_tail_ms is this percentile (nearest rank) in every run of the
    # workload, chosen so that the shortest runs seen still leave at least ten
    # calls beyond it.
    tail_pct: int
    # Results must be byte-identical to the first call's (seeded sampler reports).
    same_as_first: bool = False


SPECTRAL_N, SPECTRAL_PROJECTORS, SPECTRAL_RANK = 96, 8, 24
CYCLE_STATES, CYCLE_ENTRIES, CYCLE_SETS = 64, 4096, 8
PARTITION_N, PARTITION_K = 32, 8
SAMPLES = 2_000_000
# A query call answers every question for each of QUERY_STATES states, so
# that a call lasts long enough for a short stall of the machine not to
# dominate the tail.
QUERY_STATES, QUERY_N, QUERY_PROJECTORS, QUERY_RANK = 6, 256, 32, 64
QUERY_ATOM_N, QUERY_ATOMS, QUERY_SUBSETS, QUERY_SUBSET_SIZE = 32, 256, 16, 64


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, sum(map(ord, workload))])


def spectral(seed: int, workdir: Path) -> Workload:
    """`quantum --json` with a Hamiltonian: n sectors, half the projectors compliant."""
    rng = _rng(seed, "spectral")
    n = SPECTRAL_N
    eigenbasis, other = gen.haar_unitary(rng, n), gen.haar_unitary(rng, n)
    h = gen.hamiltonian(eigenbasis, gen.gapped_levels(rng, n))
    rho = gen.random_density(rng, n)
    # Even-numbered projectors span eigenvectors of h, so they are sector-compliant.
    projectors = np.array(
        [
            gen.projector_from_columns((eigenbasis if k % 2 == 0 else other)[:, cols])
            for k, cols in enumerate(gen.column_subsets(rng, n, SPECTRAL_PROJECTORS, SPECTRAL_RANK))
        ]
    )
    labels = [f"p{k}" for k in range(len(projectors))]
    path = workdir / "spectral.json"
    gen.write_json(
        path,
        {
            "rho": gen.rows(rho),
            "hamiltonian": gen.rows(h),
            "projectors": {label: gen.rows(p) for label, p in zip(labels, projectors)},
        },
    )

    rho_dephased = oracle.pinch(rho, h)
    probs = oracle.expectations(projectors, rho)
    dephased_probs = oracle.expectations(projectors, rho_dephased)
    compliant = [bool(np.max(np.abs(oracle.pinch(p, h) - p)) <= oracle.TOL) for p in projectors]
    if compliant != [k % 2 == 0 for k in range(len(projectors))]:
        raise RuntimeError("generator built a projector whose compliance is not the intended one")

    def check(result: tuple) -> oracle.Check:
        out, c = json.loads(result[0]), oracle.Check()
        entries = out["projectors"]
        c.equal("labels", [e["label"] for e in entries], labels)
        c.close("probability", [e["probability"] for e in entries], probs)
        c.equal("compliant", [e["compliant"] for e in entries], compliant)
        c.close("dephased_probability", [e["dephased_probability"] for e in entries], dephased_probs)
        c.close("rho_dephased", oracle.matrix(out["rho_dephased"]), rho_dephased)
        return c

    return Workload(CliJob([["quantum", "--spec", str(path), "--json"]]), check, tail_pct=75)


def sample(seed: int, workdir: Path) -> Workload:
    """Two seeded `sample --json` runs (cycle, projective partition) and `classical --json`."""
    rng = _rng(seed, "sample")
    n = CYCLE_STATES
    extra = rng.integers(1, n + 1, CYCLE_ENTRIES - n)
    states = rng.permutation(np.concatenate([np.arange(1, n + 1), extra]))
    durations = rng.uniform(0.5, 1.5, CYCLE_ENTRIES)
    chis = rng.integers(0, 2, (CYCLE_SETS, n))
    cycle_path = workdir / "cycle.json"
    gen.write_json(
        cycle_path,
        {
            "cycle": {"n": n, "schedule": [[int(s), float(d)] for s, d in zip(states, durations)]},
            "projectors": {f"s{k}": chi.tolist() for k, chi in enumerate(chis)},
        },
    )

    rho = gen.random_density(rng, PARTITION_N)
    basis = gen.haar_unitary(rng, PARTITION_N)
    groups = rng.permutation(PARTITION_N).reshape(PARTITION_K, -1)
    partition = np.array([gen.projector_from_columns(basis[:, np.sort(g)]) for g in groups])
    partition_path = workdir / "partition.json"
    gen.write_json(
        partition_path,
        {"rho": gen.rows(rho), "projectors": {f"m{k}": gen.rows(p) for k, p in enumerate(partition)}},
    )

    fractions = oracle.dwell_fractions(n, states, durations)
    outcome_probs = oracle.expectations(partition, rho)
    set_probs = chis @ fractions
    draws = ["--n", str(SAMPLES), "--seed", str(seed)]

    def check(result: tuple) -> oracle.Check:
        c = oracle.Check()
        c.sample_report("cycle sample", json.loads(result[0]), SAMPLES, fractions)
        c.sample_report("partition sample", json.loads(result[1]), SAMPLES, outcome_probs)
        out = json.loads(result[2])
        c.close("classical fractions", out["fractions"], fractions)
        c.close("classical rho", oracle.matrix(out["rho"]), np.diag(fractions))
        c.close("classical_prob", [s["classical_prob"] for s in out["sets"]], set_probs)
        c.close("trace_prob", [s["trace_prob"] for s in out["sets"]], set_probs)
        return c

    job = CliJob(
        [
            ["sample", "--spec", str(cycle_path), "--json", *draws],
            ["sample", "--spec", str(partition_path), "--json", *draws],
            ["classical", "--spec", str(cycle_path), "--json"],
        ]
    )
    return Workload(job, check, tail_pct=80, same_as_first=True)


def query(seed: int, workdir: Path) -> Workload:
    """Library API in-process: operators validated once, then trace_prob and measures per call."""
    rng = _rng(seed, "query")
    rhos = np.array([gen.random_density(rng, QUERY_N) for _ in range(QUERY_STATES)])
    basis = gen.haar_unitary(rng, QUERY_N)
    projectors = np.array(
        [
            gen.projector_from_columns(basis[:, cols])
            for cols in gen.column_subsets(rng, QUERY_N, QUERY_PROJECTORS, QUERY_RANK)
        ]
    )
    atom_rhos = np.array([gen.random_density(rng, QUERY_ATOM_N) for _ in range(QUERY_STATES)])
    atoms = gen.psd_atoms(rng, QUERY_ATOM_N, QUERY_ATOMS, 2)
    subsets = np.array(
        [np.sort(rng.choice(QUERY_ATOMS, QUERY_SUBSET_SIZE, replace=False)) for _ in range(QUERY_SUBSETS)]
    )
    conditions = subsets[:, : QUERY_SUBSET_SIZE // 2]
    path = workdir / "query.npz"
    np.savez(
        path,
        rhos=rhos,
        projectors=projectors,
        atom_rhos=atom_rhos,
        atoms=atoms,
        labels=np.array([f"a{i:03d}" for i in range(QUERY_ATOMS)]),
        subsets=subsets,
        conditions=conditions,
    )

    expected = []
    for rho, atom_rho in zip(rhos, atom_rhos):
        expected += list(oracle.expectations(projectors, rho))
        per_atom = oracle.expectations(atoms, atom_rho)
        total = math.fsum(per_atom)
        for s, sub in zip(subsets, conditions):
            m_s = math.fsum(per_atom[s])
            expected += [m_s, m_s / total, math.fsum(per_atom[sub]) / m_s]
    expected = np.array(expected)

    def check(result: tuple) -> oracle.Check:
        c = oracle.Check()
        c.equal("result count", len(result), len(expected))
        if len(result) == len(expected):
            c.close("probabilities and measures", np.array(result), expected)
        return c

    job = QueryJob(str(path))
    job.load()
    return Workload(job, check, tail_pct=70)


WORKLOADS = {"spectral": spectral, "sample": sample, "query": query}
