"""Every public callable answers a hostile argument with a result or a typed refusal.

Each public function in ``traceprob.__all__``, each validating class and each
public method that takes an argument is called once with valid arguments, then
with each of its parameters in turn replaced by each value of ``HOSTILE`` (the
others kept valid). Every call must return or raise a ``TraceProbError``; the
suite's ``filterwarnings = error`` makes a warning fail it too.

The record type ``SampleReport`` gates its four fields, so it is in the
table. Left out: the exception classes, which check nothing;
``RealityMode``, a standard-library Enum whose values every operator class
gates; and the record type ``SystemSpec``, which holds what the spec-file
loader built.
"""

from __future__ import annotations

import inspect
import json
from pathlib import Path

import numpy as np
import pytest

import traceprob
from traceprob import (
    ClassicalCycle,
    DensityMatrix,
    FractionVector,
    Hamiltonian,
    PerceptionAlgebra,
    PerceptionSet,
    PovOperator,
    Projector,
    TraceProbError,
    sample_classical,
)

GOLDEN = Path(__file__).resolve().parent / "golden"

HOSTILE = {
    "None": lambda: None,
    "str": lambda: "x",
    "bytes": lambda: b"x",
    "-1": lambda: -1,
    "nan": lambda: float("nan"),
    "inf": lambda: float("inf"),
    "10**400": lambda: 10**400,
    "[]": lambda: [],
    "generator": lambda: (x for x in [1, 0]),
    "eye(2)": lambda: np.eye(2),
    "object()": lambda: object(),
}

LEFT_OUT = {"RealityMode", "SystemSpec"}

UP = Projector(np.diag([1.0, 0.0]))
DOWN = Projector(np.diag([0.0, 1.0]))
RHO = DensityMatrix(np.eye(2) / 2)
H = Hamiltonian(np.diag([0.0, 1.0]))
ALG = PerceptionAlgebra.from_matrices([("a", np.diag([1.0, 0.0])), ("b", np.diag([0.0, 1.0]))])
CYCLE = ClassicalCycle(2, [(1, 1.0), (2, 1.0)])
SET = PerceptionSet([1, 0])
FRACTIONS = FractionVector([0.5, 0.5])
ROWS = [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]

# The valid arguments of each callable, by parameter name; a parameter left
# out takes its default.
VALID = {
    "ClassicalCycle": {"n": 2, "schedule": [(1, 1.0), (2, 1.0)]},
    "ClassicalCycle.state_at": {"t": 0.5},
    "FractionVector": {"f": [0.5, 0.5]},
    "PerceptionSet": {"chi": [1, 0]},
    "char_and": {"s": SET, "s2": SET},
    "classical_density": {"f": FRACTIONS},
    "classical_prob": {"s": SET, "f": FRACTIONS},
    "diag_projector": {"s": SET},
    "dwell_fractions": {"c": CYCLE},
    "time_average_indicator": {"c": CYCLE, "steps": 10},
    "hermitian_eig": {"a": np.eye(2)},
    "is_density": {"a": np.eye(2) / 2},
    "is_hermitian": {"a": np.eye(2)},
    "is_projector": {"a": np.eye(2)},
    "matrix_from_rows": {"rows": ROWS},
    "max_abs": {"a": np.eye(2)},
    "trace": {"a": np.eye(2)},
    "PerceptionAlgebra": {"atoms": [("a", PovOperator(np.eye(2)))]},
    "PerceptionAlgebra.from_matrices": {"pairs": [("a", np.eye(2))]},
    "PerceptionAlgebra.atom": {"label": "a"},
    "PovOperator": {"mat": np.eye(2)},
    "conditional_prob": {"alg": ALG, "s_sub": ["a"], "m_sub": ["a", "b"], "rho": RHO},
    "measure_of": {"alg": ALG, "s": ["a"], "rho": RHO},
    "normalized_prob": {"alg": ALG, "s": ["a"], "rho": RHO},
    "total_measure": {"alg": ALG, "rho": RHO},
    "union_operator": {"alg": ALG, "s": ["a"]},
    "DensityMatrix": {"mat": np.eye(2) / 2},
    "Projector": {"mat": np.diag([1.0, 0.0])},
    "check_invariance": {"p": UP, "rho": RHO, "u": np.eye(2)},
    "commutes": {"a": np.eye(2), "b": np.eye(2)},
    "projector_meet": {"p": UP, "q": UP},
    "trace_prob": {"p": UP, "rho": RHO},
    "unitary_conjugate": {"u": np.eye(2), "a": np.eye(2)},
    "SampleReport": {"outcomes": ("a",), "counts": (1,), "expected_probs": (1.0,), "seed": 0},
    "deviation_check": {"report": sample_classical(CYCLE, 10, 0)},
    "sample_classical": {"c": CYCLE, "n_samples": 10, "seed": 0},
    "sample_measurement": {"partition": [UP, DOWN], "rho": RHO, "n_samples": 10, "seed": 0, "labels": ["u", "d"]},
    "algebra_from_obj": {"obj": json.loads((GOLDEN / "measure.json").read_text(encoding="utf-8"))["algebra"]},
    "load_system_spec": {"path": str(GOLDEN / "generic.json")},
    "Hamiltonian": {"mat": np.diag([0.0, 1.0])},
    "default_cluster_tol": {"h": H},
    "dephase": {"rho": RHO, "h": H},
    "energy_blocks": {"h": H},
    "evolve": {"rho": RHO, "h": H, "t": 1.0},
    "is_superselection_compliant": {"p": UP, "h": H},
}
INSTANCES = {"ClassicalCycle": CYCLE, "PerceptionAlgebra": ALG}  # whose methods are called


def _callable(name: str):
    owner, _, method = name.partition(".")
    return getattr(INSTANCES[owner], method) if method else getattr(traceprob, name)


def test_the_table_covers_the_public_surface():
    public = {
        name
        for name in traceprob.__all__
        if callable(value := getattr(traceprob, name))
        and not (isinstance(value, type) and issubclass(value, Exception))
        and name not in LEFT_OUT
    }
    assert {name for name in VALID if "." not in name} == public


@pytest.mark.parametrize("name", sorted(VALID))
def test_hostile_calls_are_answered_or_refused(name):
    fn, valid = _callable(name), VALID[name]
    fn(**valid)
    raw = []
    for param in inspect.signature(fn).parameters:
        for label, make in HOSTILE.items():
            try:
                fn(**{**valid, param: make()})
            except TraceProbError:
                pass
            except Exception as exc:  # a warning, turned into an error by the suite, included
                raw.append(f"{param}={label}: {type(exc).__name__}: {exc}")
    assert raw == []
