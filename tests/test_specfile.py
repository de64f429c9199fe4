"""Loading spec files: the collector pause and the dimension-mismatch refusal."""

from __future__ import annotations

import gc
import json

import numpy as np
import pytest

from helpers import matrix_to_rows
from traceprob import SpecParseError, ValidationError, specfile
from traceprob.specfile import load_system_spec

HALF = matrix_to_rows(np.full((2, 2), 0.5))

SPECS = {
    "accepted": ({"rho": HALF, "projectors": {"a": [1, 0], "b": HALF}}, None),
    "bad-json": ('{"rho": ', SpecParseError),
    "missing-file": (None, SpecParseError),
    "dimension-mismatch": ({"rho": HALF, "projectors": {"a": [1, 0, 0]}}, SpecParseError),
    "not-a-density": ({"rho": matrix_to_rows(np.eye(2))}, ValidationError),
    "bad-cycle": ({"cycle": {"n": 2, "schedule": [[1, 1.0], [2, -1.0]]}}, ValidationError),
}


def _write(tmp_path, content) -> str:
    path = tmp_path / "spec.json"
    if content is not None:
        path.write_text(content if isinstance(content, str) else json.dumps(content), encoding="utf-8")
    return str(path)


@pytest.fixture
def collector_state():
    """Restores the collector's state, whatever a test leaves it in."""
    before = gc.isenabled()
    yield
    (gc.enable if before else gc.disable)()


@pytest.mark.parametrize("collecting", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("content, refusal", SPECS.values(), ids=SPECS.keys())
def test_load_leaves_the_collector_as_it_found_it(tmp_path, collector_state, collecting, content, refusal):
    path = _write(tmp_path, content)
    (gc.enable if collecting else gc.disable)()
    if refusal is None:
        assert load_system_spec(path).dim == 2
    else:
        with pytest.raises(refusal):
            load_system_spec(path)
    assert gc.isenabled() is collecting


def test_the_collector_is_paused_while_matrices_are_built(tmp_path, collector_state, monkeypatch):
    seen = []
    parse = specfile.matrix_from_rows
    monkeypatch.setattr(specfile, "matrix_from_rows", lambda rows: seen.append(gc.isenabled()) or parse(rows))
    gc.enable()
    load_system_spec(_write(tmp_path, SPECS["accepted"][0]))
    assert seen == [False, False]
    assert gc.isenabled()


def test_dimension_mismatch_names_each_dimension_once(tmp_path):
    spec = {
        "cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]},
        "rho": HALF,
        "projectors": {f"p{k}": [1, 0, 0] for k in range(5)} | {"last": [1, 0, 0, 0]},
    }
    with pytest.raises(SpecParseError) as info:
        load_system_spec(_write(tmp_path, spec))
    assert str(info.value) == "dimension mismatch across fields: cycle=2 (+1 more), projector 'p0'=3 (+4 more), projector 'last'=4"


def test_dimension_mismatch_counts_fields_whose_shortened_labels_collide(tmp_path):
    # Both labels shorten to the same text; each field is still counted.
    labels = ["x" * 40 + "a" + "x" * 40, "x" * 40 + "b" + "x" * 40]
    spec = {"rho": HALF, "projectors": {label: [1, 0, 0] for label in labels}}
    with pytest.raises(SpecParseError) as info:
        load_system_spec(_write(tmp_path, spec))
    assert str(info.value) == f"dimension mismatch across fields: rho=2, projector '{'x' * 12}...{'x' * 13}'=3 (+1 more)"
