"""The calls a workload makes into traceprob.

A job is described by a small JSON object so that the set-up probe, a fresh
process, can rebuild it. Every traceprob function is looked up through its
module at call time, so the tracer's wrappers see each call.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout


class CallFailed(Exception):
    """A CLI command exited non-zero."""


class CliJob:
    """One call runs each argv through ``traceprob.cli.main`` in-process and returns the outputs."""

    def __init__(self, argvs: list[list[str]]):
        self.argvs = argvs

    def describe(self) -> dict:
        return {"kind": "cli", "argvs": self.argvs}

    def setup(self) -> None:
        import traceprob.cli

        self.cli = traceprob.cli

    def call(self) -> tuple[str, ...]:
        outputs = []
        for argv in self.argvs:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
            if code != 0:
                raise CallFailed(f"{argv[0]} exited {code}: {err.getvalue().strip()}")
            outputs.append(out.getvalue())
        return tuple(outputs)


class QueryJob:
    """Load once, query many: set-up validates the operators, a call only evaluates rules."""

    def __init__(self, inputs: str):
        self.inputs = inputs

    def describe(self) -> dict:
        return {"kind": "query", "inputs": self.inputs}

    def load(self) -> None:
        """Read the generated arrays; this is input delivery, not program set-up."""
        import numpy as np

        with np.load(self.inputs) as data:
            self.arrays = {key: data[key] for key in data.files}

    def setup(self) -> None:
        import traceprob.measure
        import traceprob.quantum

        a = self.arrays
        quantum, measure = traceprob.quantum, traceprob.measure
        self.quantum, self.measure = quantum, measure
        self.rhos = [quantum.DensityMatrix(rho) for rho in a["rhos"]]
        self.projectors = [quantum.Projector(p) for p in a["projectors"]]
        self.atom_rhos = [quantum.DensityMatrix(rho) for rho in a["atom_rhos"]]
        labels = [str(x) for x in a["labels"]]
        self.algebra = measure.PerceptionAlgebra.from_matrices(list(zip(labels, a["atoms"])))
        self.subsets = [[labels[i] for i in row] for row in a["subsets"]]
        self.conditions = [[labels[i] for i in row] for row in a["conditions"]]

    def call(self) -> tuple[float, ...]:
        quantum, measure, alg = self.quantum, self.measure, self.algebra
        out = []
        for rho, atom_rho in zip(self.rhos, self.atom_rhos):
            out += [quantum.trace_prob(p, rho) for p in self.projectors]
            for s, sub in zip(self.subsets, self.conditions):
                out.append(measure.measure_of(alg, s, atom_rho))
                out.append(measure.normalized_prob(alg, s, atom_rho))
                out.append(measure.conditional_prob(alg, sub, s, atom_rho))
        return tuple(out)


def from_description(desc: dict):
    if desc["kind"] == "cli":
        return CliJob(desc["argvs"])
    job = QueryJob(desc["inputs"])
    job.load()
    return job
