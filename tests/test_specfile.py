"""Loading spec files: the two decoders, the collector pause and the dimension-mismatch refusal."""

from __future__ import annotations

import gc
import json
import os
import subprocess
import sys
from enum import Enum
from pathlib import Path

import numpy as np
import orjson
import pytest
from hypothesis import HealthCheck, given, settings

import traceprob
from helpers import matrix_to_rows
from test_cli import mutated_specs, run_cli
from traceprob import SpecParseError, TraceProbError, ValidationError, specfile
from traceprob.specfile import load_system_spec

HALF = matrix_to_rows(np.full((2, 2), 0.5))

SPECS = {
    "accepted": ({"rho": HALF, "projectors": {"a": [1, 0], "b": HALF}}, None),
    "bad-json": ('{"rho": ', SpecParseError),
    "missing-file": (None, SpecParseError),
    "dim-mismatch": ({"rho": HALF, "projectors": {"a": [1, 0, 0]}}, SpecParseError),
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


def test_a_path_of_another_type_is_refused_before_anything_is_opened():
    read_end, write_end = os.pipe()
    content = json.dumps(SPECS["accepted"][0]).encode()
    os.write(write_end, content)
    os.close(write_end)
    try:
        for path in (read_end, None):
            with pytest.raises(ValidationError) as info:
                load_system_spec(path)
            assert str(info.value) == f"spec path must be a str, bytes or os.PathLike, got {type(path).__name__}"
        assert os.read(read_end, len(content) + 1) == content  # the descriptor was neither read nor closed
    finally:
        os.close(read_end)


def test_a_path_may_be_a_str_bytes_or_path_like(tmp_path):
    path = _write(tmp_path, SPECS["accepted"][0])
    for given in (path, os.fsencode(path), Path(path)):
        assert load_system_spec(given).dim == 2


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


# --- orjson decodes, json decides every refusal ---

GOLDEN = sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))


def _bits(value):
    """A key equal for two values iff they are the same bit for bit: a float
    by its hex form (sign of zero included), an array by dtype, shape and
    bytes, and any other object by its type and attributes."""
    if isinstance(value, np.ndarray):
        return ("ndarray", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, (tuple, list)):
        return (type(value).__name__, *map(_bits, value))
    if isinstance(value, dict):
        return ("dict", *((key, _bits(item)) for key, item in value.items()))
    if value is None or isinstance(value, (bool, int, str, Enum)):
        return (type(value).__name__, value)
    slots = [name for cls in type(value).__mro__ for name in getattr(cls, "__slots__", ())]
    attrs = {name: getattr(value, name) for name in slots if hasattr(value, name)}
    return (type(value).__name__, _bits(attrs | getattr(value, "__dict__", {})))


def _outcome(path: str):
    try:
        return _bits(load_system_spec(path))
    except TraceProbError as exc:
        return type(exc), str(exc)


def _refuse(data):
    raise orjson.JSONDecodeError("refused for the test", "", 0)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow]
)
@given(spec=mutated_specs())
def test_orjson_first_loads_what_json_alone_loads(tmp_path, monkeypatch, spec):
    path = _write(tmp_path, spec)  # json.dumps writes NaN, Infinity and integers of any size
    shipped = _outcome(path)
    with monkeypatch.context() as patched:
        patched.setattr(specfile.orjson, "loads", _refuse)
        assert _outcome(path) == shipped


@pytest.mark.parametrize("path", GOLDEN, ids=[p.stem for p in GOLDEN])
def test_an_accepted_spec_is_decoded_by_orjson_alone(monkeypatch, path):
    expected = _bits(load_system_spec(str(path)))
    monkeypatch.setattr(specfile.json, "loads", lambda text: pytest.fail("json decoded an accepted spec"))
    assert _bits(load_system_spec(str(path))) == expected


# Number forms that json.dumps never writes, in matrix entries, a
# characteristic vector and a cycle duration; "L" stands for the literal.
NUMBER_FORMS = [b"-0", b"-0.0", b"1E2", b"0e0"]
NUMBER_SPECS = {
    "rho": b'{"rho": [[[1, L], [L, L]], [[L, L], [L, 0]]]}',
    "hamiltonian": b'{"hamiltonian": [[[L, 0], [L, 0]], [[L, 0], [L, 0]]]}',
    "projector": b'{"projectors": {"a": [1, L]}}',
    "duration": b'{"cycle": {"n": 2, "schedule": [[1, 1.5], [2, L]]}}',
}


@pytest.mark.parametrize("literal", NUMBER_FORMS, ids=[form.decode() for form in NUMBER_FORMS])
@pytest.mark.parametrize("template", NUMBER_SPECS.values(), ids=NUMBER_SPECS.keys())
def test_orjson_reads_hand_written_numbers_as_json_does(tmp_path, monkeypatch, template, literal):
    path = tmp_path / "spec.json"
    path.write_bytes(template.replace(b"L", literal))
    shipped = _outcome(str(path))
    monkeypatch.setattr(specfile.orjson, "loads", _refuse)
    assert _outcome(str(path)) == shipped


BIG = str(10**30).encode()
# Inputs where the two decoders differ, each with the stderr line of `check`;
# "{path}" stands for the spec file's path.
REFUSALS = {
    "nan-entry": (
        b'{"rho": [[[NaN, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "error[SpecParse]: rho: matrix entries must be finite (no NaN/Inf)",
    ),
    "infinity-entry": (
        b'{"rho": [[[Infinity, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "error[SpecParse]: rho: matrix entries must be finite (no NaN/Inf)",
    ),
    "1e400-entry": (
        b'{"rho": [[[1e400, 0], [0, 0]], [[0, 0], [1, 0]]]}',
        "error[SpecParse]: rho: matrix entries must be finite (no NaN/Inf)",
    ),
    "cycle-n-10**30": (
        b'{"cycle": {"n": ' + BIG + b', "schedule": [[1, 1.0]]}}',
        "error[Validation]: cycle n is larger than its number of schedule entries (1), so some state never appears",
    ),
    "state-minus-10**30": (
        b'{"cycle": {"n": 1, "schedule": [[-' + BIG + b", 1.0]]}}",
        "error[Validation]: state -1000000000000000000000000000000 outside 1..1",
    ),
    "char-vector-2**64": (
        b'{"projectors": {"a": [18446744073709551616, 0]}}',
        "error[Validation]: projector 'a': characteristic vector entries must be exactly 0 or 1",
    ),
    "reality-mode-10**30": (
        b'{"reality_mode": ' + BIG + b"}",
        'error[SpecParse]: reality_mode must be "complex" or "real", got int',
    ),
    "lone-surrogate-label": (
        b'{"projectors": {"\\ud800": [1, 2]}}',
        "error[Validation]: projector '\\ud800': characteristic vector entries must be exactly 0 or 1",
    ),
    "bom": (
        b'\xef\xbb\xbf{"projectors": {"a": [1, 0]}}',
        "error[SpecParse]: {path} is not valid JSON: Unexpected UTF-8 BOM (decode using utf-8-sig): line 1 column 1 (char 0)",
    ),
    "crlf-trailing-comma": (  # the offset counts each CRLF as one character
        b'{\r\n  "projectors": {"a": [1, 0]}\r\n},\r\n',
        "error[SpecParse]: {path} is not valid JSON: Extra data: line 3 column 2 (char 33)",
    ),
    "empty": (b"", "error[SpecParse]: {path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
    "deep-nesting": (
        b"[" * 100000 + b"]" * 100000,
        "error[SpecParse]: {path} nests JSON arrays or objects too deeply",
    ),
    "deep-mode": (  # refusing RealityMode(...) takes the repr of the whole list
        b'{"reality_mode": ' + b"[" * 5000 + b"]" * 5000 + b"}",
        "error[SpecParse]: {path} nests JSON arrays or objects too deeply",
    ),
    "deep-algebra": (
        b'{"algebra": ' + b'{"a": ' * 5000 + b"0" + b"}" * 5000 + b"}",
        "error[SpecParse]: {path} nests JSON arrays or objects too deeply",
    ),
}


@pytest.mark.parametrize("content, line", REFUSALS.values(), ids=REFUSALS.keys())
def test_json_words_the_refusals_where_the_decoders_differ(tmp_path, capsys, content, line):
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    assert run_cli(capsys, "check", "--spec", str(path)) == (1, "", line.replace("{path}", str(path)) + "\n")


def test_a_spec_on_stdin_is_read_once(tmp_path):
    # orjson's tree is refused, so json decodes the spec again: from the bytes
    # already read, as a second read of a pipe would find it empty.
    content, line = REFUSALS["reality-mode-10**30"]
    path = tmp_path / "spec.json"
    path.write_bytes(content)
    env = {**os.environ, "PYTHONPATH": str(Path(traceprob.__file__).resolve().parents[1])}

    def check(spec: str):
        command = [sys.executable, "-m", "traceprob.cli", "check", "--spec", spec]
        done = subprocess.run(command, input=content, capture_output=True, env=env, timeout=60)
        return done.returncode, done.stdout, done.stderr.decode()

    assert check("/dev/stdin") == check(str(path)) == (1, b"", line + "\n")
