"""Golden CLI corpus: the output of every subcommand on fixed spec files.

Each case runs one subcommand on one spec file under ``tests/golden/`` and
compares with the recorded output in ``tests/golden/expected/``:

- ``<case>.json``, the ``--json`` payload: keys, strings, booleans and
  integers (``sample`` counts included) must match exactly, floats within
  ``FLOAT_ATOL``, because their last bits depend on the BLAS build;
- ``<case>.txt``, the text output, byte for byte.

The ``--json`` text itself must be ``json.dumps(payload, indent=2)`` plus a
newline, byte for byte; that is checked against the payload it parses to, so
it does not depend on the BLAS build either. The corpus guards refactors that
are meant to keep the CLI's output.

To record the corpus from a source tree, run this file as a script with that
tree on the path::

    PYTHONPATH=src python tests/test_golden.py [case-id ...]

With case ids (``<spec stem>-<subcommand>``, e.g. ``generic-sample``) only
those cases are recorded again and every other expected file is left as it
is; with none, all of them are.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from traceprob.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
EXPECTED = GOLDEN / "expected"
FLOAT_ATOL = 1e-12

# (spec file stem, subcommand, extra arguments)
CASES = [
    ("cycle", "classical", []),
    ("cycle", "sample", ["--n", "20000", "--seed", "11"]),
    ("cycle", "check", []),
    ("degenerate", "quantum", []),
    ("degenerate", "dephase", []),
    ("degenerate", "check", []),
    ("generic", "quantum", []),
    ("generic", "dephase", []),
    ("generic", "sample", ["--n", "50000", "--seed", "5"]),
    ("generic", "check", []),
    ("real", "quantum", []),
    ("real", "dephase", []),
    ("real", "sample", ["--n", "30000", "--seed", "3"]),
    ("real", "check", []),
    ("measure", "measure", []),
    ("measure", "check", []),
    ("sectors", "check", []),  # no rho, so no quantum: check computes the compliance verdicts itself
]


def _case_id(case) -> str:
    return f"{case[0]}-{case[1]}"


def _stdout(stem: str, command: str, extra: list[str], as_json: bool) -> str:
    buf = io.StringIO()
    mode = ["--json"] if as_json else []
    with contextlib.redirect_stdout(buf):
        code = main([command, "--spec", str(GOLDEN / f"{stem}.json"), *mode, *extra])
    assert code == 0, f"{command} on {stem}.json exited {code}"
    return buf.getvalue()


def _assert_matches(got, want, path: str = "$") -> None:
    if isinstance(want, float) and type(got) is float:
        assert abs(got - want) <= FLOAT_ATOL, f"{path}: {got!r} vs {want!r}"
        return
    assert type(got) is type(want), f"{path}: {type(got).__name__} vs {type(want).__name__}"
    if isinstance(want, dict):
        assert list(got) == list(want), f"{path}: keys {list(got)} vs {list(want)}"
        for key in want:
            _assert_matches(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), f"{path}: length {len(got)} vs {len(want)}"
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_matches(g, w, f"{path}[{i}]")
    else:
        assert got == want, f"{path}: {got!r} vs {want!r}"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_cli_output(case):
    stem, command, extra = case
    want = json.loads((EXPECTED / f"{_case_id(case)}.json").read_text(encoding="utf-8"))
    _assert_matches(json.loads(_stdout(stem, command, extra, as_json=True)), want)


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_json_is_indented_dumps_byte_for_byte(case):
    out = _stdout(*case, as_json=True)
    assert out == json.dumps(json.loads(out), indent=2) + "\n"


@pytest.mark.parametrize("case", CASES, ids=_case_id)
def test_golden_text_output(case):
    want = (EXPECTED / f"{_case_id(case)}.txt").read_text(encoding="utf-8")
    assert _stdout(*case, as_json=False) == want


@pytest.mark.parametrize("case", [c for c in CASES if c[1] == "check"], ids=_case_id)
def test_check_text_prints_the_compliance_its_json_holds(case):
    recorded = EXPECTED / _case_id(case)
    verdicts = json.loads(recorded.with_suffix(".json").read_text(encoding="utf-8")).get("compliant", {})
    lines = recorded.with_suffix(".txt").read_text(encoding="utf-8").splitlines()
    assert [line for line in lines if "superselection-compliant" in line] == [
        f"projector {label!r} superselection-compliant: {'yes' if ok else 'no'}" for label, ok in verdicts.items()
    ]


def test_golden_corpus_is_complete():
    for suffix in ("json", "txt"):
        recorded = {p.stem for p in EXPECTED.glob(f"*.{suffix}")}
        assert recorded == {_case_id(c) for c in CASES}, suffix
    assert {c[1] for c in CASES} == {"classical", "quantum", "dephase", "measure", "sample", "check"}


def record(case_ids=()) -> None:
    """Write the expected ``.json`` and ``.txt`` files of each named case, or of
    every case when none is named."""
    known = {_case_id(c): c for c in CASES}
    unknown = sorted(set(case_ids) - set(known))
    if unknown:
        raise SystemExit(f"unknown golden case ids: {unknown}; known: {sorted(known)}")
    EXPECTED.mkdir(exist_ok=True)
    for case_id in case_ids or known:
        for suffix, as_json in (("json", True), ("txt", False)):
            out = _stdout(*known[case_id], as_json=as_json)
            (EXPECTED / f"{case_id}.{suffix}").write_text(out, encoding="utf-8")


if __name__ == "__main__":
    record(sys.argv[1:])
