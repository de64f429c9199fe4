"""End-to-end checks of the batch front-end."""

from __future__ import annotations

import contextlib
import copy
import io
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from helpers import matrix_to_rows, random_density_matrix, random_hermitian
import traceprob
from traceprob import Projector, cli
from traceprob.cli import json_text, main

PLUS_ROWS = matrix_to_rows(np.full((2, 2), 0.5))
DIAG_10_ROWS = matrix_to_rows(np.diag([1.0, 0.0]))
EYE_2_ROWS = matrix_to_rows(np.eye(2))
H_01_ROWS = matrix_to_rows(np.diag([0.0, 1.0]))


def write_spec(tmp_path, obj, name="system.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj), encoding="utf-8")
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- classical ---


def test_classical_half_half(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}, "projectors": {"S": [1, 0]}})
    code, out, err = run_cli(capsys, "classical", "--spec", spec, "--json")
    assert code == 0 and err == ""
    payload = json.loads(out)
    assert payload["sets"][0]["classical_prob"] == 0.5


def test_classical_dwell_arithmetic(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 3.0], [2, 1.0]]}, "projectors": {"S": [1, 0]}})
    code, out, _ = run_cli(capsys, "classical", "--spec", spec, "--json")
    assert code == 0
    entry = json.loads(out)["sets"][0]
    assert entry["classical_prob"] == 0.75
    assert entry["abs_diff"] <= 1e-12


def test_classical_dual_paths_agree(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "cycle": {"n": 4, "schedule": [[2, 0.7], [1, 1.3], [4, 0.2], [3, 2.2], [1, 0.6]]},
            "projectors": {"A": [1, 0, 1, 0], "B": [0, 1, 1, 1], "none": [0, 0, 0, 0]},
        },
    )
    code, out, _ = run_cli(capsys, "classical", "--spec", spec, "--json")
    assert code == 0
    for entry in json.loads(out)["sets"]:
        assert entry["abs_diff"] <= 1e-12


def test_classical_needs_char_vector_projectors(tmp_path, capsys):
    spec = write_spec(
        tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}, "projectors": {"P": PLUS_ROWS}}
    )
    code, out, err = run_cli(capsys, "classical", "--spec", spec)
    assert code == 1
    assert err.startswith("error[Validation]")


# --- quantum ---


def test_quantum_symmetric_state(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"up": DIAG_10_ROWS, "all": EYE_2_ROWS}})
    code, out, _ = run_cli(capsys, "quantum", "--spec", spec, "--json")
    assert code == 0
    probs = {e["label"]: e["probability"] for e in json.loads(out)["projectors"]}
    assert probs["up"] == 0.5
    assert probs["all"] == 1.0


def test_quantum_with_hamiltonian_reports_compliance(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"rho": PLUS_ROWS, "hamiltonian": H_01_ROWS, "projectors": {"up": DIAG_10_ROWS, "plus": PLUS_ROWS}},
    )
    code, out, _ = run_cli(capsys, "quantum", "--spec", spec, "--json")
    assert code == 0
    entries = {e["label"]: e for e in json.loads(out)["projectors"]}
    assert entries["up"]["compliant"] is True
    assert entries["plus"]["compliant"] is False
    # compliant projectors keep their probability through dephasing
    assert abs(entries["up"]["probability"] - entries["up"]["dephased_probability"]) <= 1e-9


def test_quantum_human_table(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"up": DIAG_10_ROWS}})
    code, out, _ = run_cli(capsys, "quantum", "--spec", spec)
    assert code == 0
    assert "projector" in out and "up" in out and "0.5" in out


# --- dephase ---


def test_dephase_reports_blocks_and_state(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "hamiltonian": H_01_ROWS})
    code, out, _ = run_cli(capsys, "dephase", "--spec", spec, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["blocks"]["count"] == 2
    assert payload["rho_dephased"][0][0] == [0.5, 0.0]
    assert payload["rho_dephased"][0][1] == [0.0, 0.0]
    assert abs(payload["trace"] - 1.0) <= 1e-12


def test_dephase_refuses_a_hamiltonian_whose_eigenvalue_overflows(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": DIAG_10_ROWS, "hamiltonian": matrix_to_rows(1e308 * np.ones((2, 2)))})
    for extra in ((), ("--json",)):
        code, out, err = run_cli(capsys, "dephase", "--spec", spec, *extra)
        assert (code, out, err) == (1, "", "error[NonFinite]: hamiltonian: eigenvalue inf is not finite\n")


# --- measure ---


def test_measure_subcommand(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {
            "rho": matrix_to_rows(np.diag([0.3, 0.7])),
            "algebra": {
                "atoms": [
                    {"label": "a", "operator": matrix_to_rows(2.0 * np.diag([1.0, 0.0]))},
                    {"label": "b", "operator": matrix_to_rows(2.0 * np.diag([0.0, 1.0]))},
                ]
            },
        },
    )
    code, out, _ = run_cli(capsys, "measure", "--spec", spec, "--json")
    assert code == 0
    payload = json.loads(out)
    atoms = {a["label"]: a for a in payload["atoms"]}
    assert abs(atoms["a"]["measure"] - 0.6) <= 1e-12
    assert abs(atoms["a"]["normalized_prob"] - 0.3) <= 1e-12
    assert abs(payload["total_measure"] - 2.0) <= 1e-12


ONE_ROWS = [[[1.0, 0.0]]]


@pytest.mark.parametrize(
    "algebra,category,message",
    [
        (
            {"atoms": [{"label": [1], "operator": ONE_ROWS}]},
            "SpecParse",
            "algebra atom 0: label must be a string, got list",
        ),
        (
            {"atoms": [{"label": "a", "operator": ONE_ROWS, "z": 1}]},
            "SpecParse",
            'algebra atom 0 must be an object with exactly the keys "label" and "operator"',
        ),
        (
            {"atoms": [{"label": "a", "operator": ONE_ROWS}], "z": 1},
            "SpecParse",
            'algebra must be an object whose only key is an "atoms" array',
        ),
        (
            {"atoms": []},
            "SpecParse",
            'algebra "atoms" array is empty; it needs at least one atom',
        ),
        (
            {"atoms": [{"label": "a", "operator": ONE_ROWS}, {"label": "b", "operator": [[[1.0, "x"]]]}]},
            "SpecParse",
            "algebra atom 1 ('b'): matrix entry (0,0) must be a [re, im] pair of numbers",
        ),
        (
            {"atoms": [{"label": "a", "operator": ONE_ROWS}, {"label": "b", "operator": [[[-1.0, 0.0]]]}]},
            "Validation",
            "algebra atom 1 ('b'): POV operator must be positive semidefinite (eigenvalues >= -tol)",
        ),
        (
            {"atoms": [{"label": "a", "operator": ONE_ROWS}, {"label": "a", "operator": ONE_ROWS}]},
            "SpecParse",
            "algebra atom 1 ('a'): label repeats atom 0",
        ),
        (
            {"atoms": [{"label": "a", "operator": ONE_ROWS}, {"label": "b", "operator": EYE_2_ROWS}]},
            "DimensionMismatch",
            "algebra atom 1 ('b'): operator dim 2 differs from atom 0's dim 1",
        ),
    ],
    ids=[
        "label-not-string",
        "unknown-atom-key",
        "unknown-algebra-key",
        "no-atoms",
        "bad-atom-matrix",
        "atom-not-psd",
        "repeated-label",
        "mixed-dims",
    ],
)
@pytest.mark.parametrize("command", ["measure", "check"])
def test_algebra_defects_name_the_atom(tmp_path, capsys, command, algebra, category, message):
    spec = write_spec(tmp_path, {"rho": ONE_ROWS, "algebra": algebra})
    code, out, err = run_cli(capsys, command, "--spec", spec)
    assert code == 1
    assert out == ""
    assert err == f"error[{category}]: {message}\n"


@pytest.mark.parametrize(
    "field,category,message",
    [
        (
            {"rho": matrix_to_rows(np.diag([0.6, 0.6]))},
            "Validation",
            "rho: matrix is not a density matrix (PSD Hermitian, unit trace) within tolerance",
        ),
        (
            {"hamiltonian": matrix_to_rows(np.array([[0.0, 1.0], [0.0, 0.0]]))},
            "NotHermitian",
            "hamiltonian: Hermiticity defect 1.000e+00 exceeds tolerance",
        ),
        (
            {"projectors": {"a": matrix_to_rows(np.diag([2.0, 0.0]))}},
            "Validation",
            "projector 'a': matrix is not a projector (Hermitian idempotent) within tolerance",
        ),
        (
            {"projectors": {"a": [2, 0]}},
            "Validation",
            "projector 'a': characteristic vector entries must be exactly 0 or 1",
        ),
        (
            {"rho": matrix_to_rows(np.diag([1e308, 1e308]))},
            "Validation",
            "rho: matrix is not a density matrix (PSD Hermitian, unit trace) within tolerance",
        ),
        ({"projectors": {}}, "SpecParse", "projectors must be a nonempty object of label -> value"),
        ({"projectors": [[1, 0]]}, "SpecParse", "projectors must be a nonempty object of label -> value"),
    ],
    ids=[
        "rho-not-density",
        "hamiltonian-not-hermitian",
        "projector-not-projector",
        "bad-char-vector",
        "rho-trace-overflows",
        "projectors-empty",
        "projectors-not-an-object",
    ],
)
@pytest.mark.parametrize("command", ["quantum", "check"])
def test_operator_defects_name_the_field(tmp_path, capsys, command, field, category, message):
    base = {"rho": DIAG_10_ROWS, "hamiltonian": H_01_ROWS, "projectors": {"a": DIAG_10_ROWS}}
    spec = write_spec(tmp_path, {**base, **field})
    code, out, err = run_cli(capsys, command, "--spec", spec)
    assert code == 1
    assert out == ""
    assert err == f"error[{category}]: {message}\n"


GOLDEN_SPECS = {
    path.stem: json.loads(path.read_text(encoding="utf-8"))
    for path in sorted((Path(__file__).resolve().parent / "golden").glob("*.json"))
}
GOLDEN_MEASURE = GOLDEN_SPECS["measure"]
# Whole fields of the golden specs, grafted into other specs by the mutations.
GOLDEN_FIELDS = [value for spec in GOLDEN_SPECS.values() for value in spec.values()]
FIELD_NAMES = sorted({key for spec in GOLDEN_SPECS.values() for key in spec} | {"n", "schedule", "atoms", "label", "operator"})
NUMBERS = st.floats() | st.integers() | st.sampled_from([10**30, -(10**30), 2**63, 10**400, 0, 1, -1])
# Strings, labels and keys: short ones, and ones long enough (a short text
# repeated 75 to 400 times) that echoing one whole would break the bound on
# an error line.
TEXT = st.text(max_size=8) | st.builds(operator.mul, st.text(min_size=1, max_size=4), st.integers(75, 400))

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | NUMBERS | TEXT | st.sampled_from(["a0", "a1", "real"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(TEXT, inner, max_size=4),
    max_leaves=10,
)
NEW_VALUES = JSON_VALUES | st.sampled_from(GOLDEN_FIELDS).map(copy.deepcopy)


def _mutate(draw, value, max_depth: int):
    """``value`` with one to three random edits: a value replaced by any JSON
    value, by a number (up to 10**30 and beyond the float range included) or
    by a whole field of a golden spec; a key or element deleted; or a key or
    element added. Each edit lands at a random depth up to ``max_depth``,
    most often at the deepest, a single number of a matrix entry."""
    root = [copy.deepcopy(value)]
    for _ in range(draw(st.integers(1, 3))):
        holder, key = root, 0
        for _ in range(draw(st.sampled_from(range(max_depth, -1, -1)))):
            node = holder[key]
            if isinstance(node, dict) and node:
                holder, key = node, draw(st.sampled_from(sorted(node)))
            elif isinstance(node, list) and node:
                holder, key = node, draw(st.integers(0, len(node) - 1))
            else:
                break
        edit = draw(st.sampled_from(["replace", "delete", "add", "number"]))
        target = holder[key]
        if edit == "number":
            holder[key] = draw(NUMBERS)
        elif edit == "delete" and holder is not root:
            del holder[key]
        elif edit == "add" and isinstance(target, dict):
            target[draw(st.sampled_from(FIELD_NAMES) | TEXT)] = draw(NEW_VALUES)
        elif edit == "add" and isinstance(target, list):
            target.insert(draw(st.integers(0, len(target))), draw(NEW_VALUES))
        else:
            holder[key] = draw(NEW_VALUES)
    return root[0]


@st.composite
def mutated_algebras(draw):
    """The golden measure spec's algebra after :func:`_mutate`."""
    return _mutate(draw, GOLDEN_MEASURE["algebra"], 7)


@st.composite
def mutated_specs(draw):
    """One golden spec after :func:`_mutate`, any field or the whole spec."""
    return _mutate(draw, GOLDEN_SPECS[draw(st.sampled_from(sorted(GOLDEN_SPECS)))], 8)


def _answer_or_one_error_line(spec_obj, tmp_path_factory, commands, modes=((),)) -> dict:
    """Run each command in-process once per output mode (extra arguments): exit
    0 with output and a silent stderr, or exit 1 with no output and one
    ``error[...]`` line of at most 300 characters. The exit code and stderr
    must be the same in every mode; they are returned by command."""
    spec = tmp_path_factory.mktemp("spec") / "system.json"
    spec.write_text(json.dumps(spec_obj), encoding="utf-8")
    results = {}
    for command in commands:
        outcomes = set()
        for extra in modes:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--spec", str(spec), *extra])
            if code == 0:
                assert out.getvalue() and not err.getvalue()
            else:
                assert code == 1
                assert out.getvalue() == ""
                text = err.getvalue()
                assert text.startswith("error[") and text.count("\n") == 1 and text.endswith("\n")
                assert len(text) <= 300, text
            outcomes.add((code, err.getvalue()))
        assert len(outcomes) == 1, (command, outcomes)
        results[command] = outcomes.pop()
    return results


def _check_vouches_for_the_others(results: dict) -> None:
    """When ``check`` exits 0, every other subcommand exits 0, refuses for want
    of its fields, or is ``sample`` refusing projectors that are not a partition."""
    if results["check"][0] != 0:
        return
    for command, (code, err) in results.items():
        assert (
            code == 0
            or err.startswith(f"error[Validation]: {command} needs ")
            or (command == "sample" and err.startswith("error[NotAPartition]: projectors "))
        ), (command, err)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(algebra=mutated_algebras())
def test_mutated_algebra_gives_an_answer_or_one_error_line(tmp_path_factory, algebra):
    _answer_or_one_error_line({"rho": GOLDEN_MEASURE["rho"], "algebra": algebra}, tmp_path_factory, ("measure", "check"))


ALL_COMMANDS = ("classical", "quantum", "dephase", "measure", "sample", "check")
BOTH_MODES = ((), ("--json",))


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(spec=mutated_specs())
def test_mutated_spec_gives_an_answer_or_one_error_line(tmp_path_factory, spec):
    _check_vouches_for_the_others(_answer_or_one_error_line(spec, tmp_path_factory, ALL_COMMANDS, modes=BOTH_MODES))


@pytest.mark.parametrize("stem", sorted(GOLDEN_SPECS))
def test_golden_spec_gets_the_same_exit_and_stderr_in_both_modes(tmp_path_factory, stem):
    # Mutations mostly break a spec at load time; the intact specs reach every
    # command's renderer, and the refusals that come after loading.
    _check_vouches_for_the_others(
        _answer_or_one_error_line(GOLDEN_SPECS[stem], tmp_path_factory, ALL_COMMANDS, modes=BOTH_MODES)
    )


# --- the --json writer ---

# Floats whose reprs take each form, and the neighbours of each place where
# repr's layout changes: signed zero, the smallest subnormal, the smallest
# normal and its lower neighbour, one ulp either side of 1e-5, 1e-4, 1e15,
# 1e16, 1e21 and 1e22, one-digit values, and 17-digit values in each range.
FLOAT_EDGES = [
    0.0,
    -0.0,
    5e-324,
    2.2250738585072014e-308,
    math.nextafter(2.2250738585072014e-308, 0.0),
    *(math.nextafter(x, toward) for x in (1e-5, 1e-4, 1e15, 1e16, 1e21, 1e22) for toward in (0.0, math.inf)),
    *(float(f"{d}e{e}") for d in (1, 2, 9) for e in (-7, -5, -4, 15, 16, 22)),
    1.3646643630321325e-07,
    1.0243726515143181e-05,
    0.0012989116202186328,
    7493933473226503.0,
    3.6674358257827245e17,
]
MATRIX_ENTRIES = st.sampled_from(FLOAT_EDGES + [-x for x in FLOAT_EDGES]) | st.floats(
    allow_nan=False, allow_infinity=False
)
WRITER_LABELS = TEXT | st.sampled_from(['say "hi"', "two\nlines", "ünïcødé ψ", "traceprob-matrix-0", "back\\slash"])


@st.composite
def complex_matrices(draw):
    n = draw(st.integers(1, 6))
    a = np.empty((n, n), dtype=complex)
    for part in (a.real, a.imag):
        part[...] = np.reshape(draw(st.lists(MATRIX_ENTRIES, min_size=n * n, max_size=n * n)), (n, n))
    return np.asfortranarray(a) if draw(st.booleans()) else a


WRITTEN_ENTRIES = MATRIX_ENTRIES.filter(lambda x: x != 0.0 or math.copysign(1.0, x) < 0.0)  # all but +0.0


@st.composite
def mostly_zero_matrices(draw):
    """Matrices whose floats are mostly +0.0: diagonal ones, and ones in which
    at most half the floats, or one past half, are set to a float other than
    +0.0 (-0.0 and subnormals among them); the writer writes +0.0 as text
    when fewer than half of the floats differ from it."""
    n = draw(st.integers(1, 8))
    flat = np.zeros(2 * n * n)
    if draw(st.booleans()):
        slots = [2 * (n + 1) * i + part for i in range(n) for part in (0, 1)]  # each diagonal entry's re and im
        values = st.lists(MATRIX_ENTRIES, min_size=len(slots), max_size=len(slots))
    else:
        count = draw(st.sampled_from([1, n * n - 1, n * n, n * n + 1]) | st.integers(0, n * n))
        slots = draw(st.permutations(range(2 * n * n)))[:count]
        values = st.lists(WRITTEN_ENTRIES, min_size=count, max_size=count)
    flat[slots] = draw(values)
    return flat.view(complex).reshape(n, n)


SPECTRAL_ENTRIES = st.builds(operator.mul, st.sampled_from([1.0, -1.0]), st.floats(1e-5, 1e-4, exclude_max=True))


@st.composite
def spectral_matrices(draw):
    """Dense matrices whose floats mostly lie in [1e-5, 1e-4) in magnitude, as
    most of a dephased state's do: orjson writes those positionally and repr in
    exponent form. Up to n floats are drawn from all entries instead."""
    n = draw(st.integers(1, 6))
    flat = draw(st.lists(SPECTRAL_ENTRIES, min_size=2 * n * n, max_size=2 * n * n))
    for k in draw(st.lists(st.integers(0, 2 * n * n - 1), max_size=n)):
        flat[k] = draw(MATRIX_ENTRIES)
    return np.array(flat).view(complex).reshape(n, n)


@settings(max_examples=200, deadline=None)
@given(
    payload=st.dictionaries(
        WRITER_LABELS,
        complex_matrices()
        | mostly_zero_matrices()
        | spectral_matrices()
        | JSON_VALUES
        | WRITER_LABELS
        | st.lists(st.fixed_dictionaries({"label": WRITER_LABELS, "probability": MATRIX_ENTRIES})),
        min_size=1,
        max_size=5,
    )
)
def test_json_writer_is_indented_dumps_byte_for_byte(payload):
    rows = {key: matrix_to_rows(v) if isinstance(v, np.ndarray) else v for key, v in payload.items()}
    assert json_text(payload) == json.dumps(rows, indent=2)


def test_float_texts_are_reprs():
    # Dense matrices take their float text from orjson's digits; an orjson
    # release that changes its float text fails here.
    rng = np.random.default_rng(31)
    magnitudes = 10.0 ** rng.uniform(-325.0, 308.25, 60_000) * rng.choice([-1.0, 1.0], 60_000)
    patterns = rng.integers(0, 2**64, 60_000, dtype=np.uint64).view(float)
    values = np.concatenate([magnitudes, patterns[np.isfinite(patterns)], FLOAT_EDGES, np.negative(FLOAT_EDGES)])
    assert values.size > 100_000
    assert cli._float_texts(values) == list(map(float.__repr__, values.tolist()))


# --- the text matrix writer ---


def _fmt_matrix_by_entry(a: np.ndarray) -> str:
    """The text matrix as one f-string per entry formatted it: the oracle of the row-at-a-time writer."""
    return "\n".join("  [ " + "  ".join(f"{z.real:.10g}{z.imag:+.10g}j" for z in row) + " ]" for row in a)


TEXT_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e16, -1e16, 1e-5, 1e300, -1e300, 1 / 3]
TEXT_ENTRIES = st.sampled_from(TEXT_EDGES) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def half_zero_matrices(draw):
    """Matrices in which the entries other than +0.0+0.0j are at most half of
    the entries, or one past half; the writer writes +0.0+0.0j as text when
    fewer than half of the entries differ from it."""
    n = draw(st.integers(1, 8))
    half = n * n // 2
    count = draw(st.sampled_from([half - 1, half, half + 1]).filter(lambda c: c >= 0))
    a = np.zeros((n, n), dtype=complex)
    slots = draw(st.permutations(range(n * n)))[:count]
    pairs = st.tuples(TEXT_ENTRIES, TEXT_ENTRIES).filter(lambda z: any(z) or np.signbit(z).any())  # not (+0.0, +0.0)
    for slot in slots:
        a.real.flat[slot], a.imag.flat[slot] = draw(pairs)
    return a


@settings(max_examples=200, deadline=None)
@given(a=complex_matrices() | mostly_zero_matrices() | spectral_matrices() | half_zero_matrices())
def test_text_matrix_writer_is_the_per_entry_format(a):
    assert cli._fmt_matrix(a) == _fmt_matrix_by_entry(a)


@pytest.mark.parametrize("value", TEXT_EDGES, ids=repr)
def test_text_matrix_writer_formats_each_edge_value(value):
    a = np.array([[complex(value, -value), value], [1j * value, 0.0]])
    assert cli._fmt_matrix(a) == _fmt_matrix_by_entry(a)


# --- sample ---


def test_sample_classical_passes(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}})
    code, out, _ = run_cli(capsys, "sample", "--spec", spec, "--n", "100000", "--seed", "12")
    assert code == 0
    assert "deviation check (5 sigma): pass" in out


def test_sample_trivial_partition(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"all": EYE_2_ROWS}})
    code, out, _ = run_cli(capsys, "sample", "--spec", spec, "--json", "--n", "5000", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    assert payload["counts"] == [5000]
    assert payload["deviation_check_5sigma"] is True


def test_sample_rerun_is_byte_identical(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 3, "schedule": [[1, 1.0], [2, 0.5], [3, 1.5]]}})
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    args = ["sample", "--spec", spec, "--json", "--n", "20000", "--seed", "99"]
    assert main(args + ["--out", str(out_a)]) == 0
    assert main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    assert out_a.read_bytes() == out_b.read_bytes()


def test_sample_report_round_trips_at_full_precision(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.2], [2, 0.8]]}})
    code, out, _ = run_cli(capsys, "sample", "--spec", spec, "--json", "--n", "9999", "--seed", "5")
    assert code == 0
    payload = json.loads(out)
    from traceprob import sample_classical, ClassicalCycle

    report = sample_classical(ClassicalCycle(2, ((1, 1.2), (2, 0.8))), 9999, seed=5)
    assert tuple(payload["empirical_freqs"]) == report.empirical_freqs
    assert tuple(payload["expected_probs"]) == report.expected_probs


def test_sample_not_a_partition(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"up": DIAG_10_ROWS}})
    code, _, err = run_cli(capsys, "sample", "--spec", spec)
    assert code == 1
    assert err.startswith("error[NotAPartition]")


@pytest.mark.parametrize(
    "command, code, err",
    [
        ("sample", 1, "error[NumericalIntegrity]: outcome weights sum to 1.0000005, off 1 beyond 1e-9\n"),
        ("check", 1, "error[NumericalIntegrity]: sample: outcome weights sum to 1.0000005, off 1 beyond 1e-9\n"),
        ("quantum", 0, ""),
    ],
    ids=["sample", "check", "quantum"],
)
def test_sample_refuses_outcome_weights_that_only_tol_admits(tmp_path, capsys, command, code, err):
    # rho's trace is 1 + 5e-7, within --tol 1e-6, so the file loads; the
    # sampler holds the weights of a partition to 1e-9, and check refuses with it:
    # weights off 1 are a numerical fault of a partition, not a sign of none.
    obj = {"rho": matrix_to_rows(np.diag([0.5, 0.5 + 5e-7])), "projectors": {"a": [1, 0], "b": [0, 1]}}
    got_code, _, got_err = run_cli(capsys, command, "--spec", write_spec(tmp_path, obj), "--tol", "1e-6")
    assert (got_code, got_err) == (code, err)


@pytest.mark.parametrize("command", ["quantum", "dephase", "check"])
def test_tol_reaches_the_dephased_state(tmp_path, capsys, command):
    # rho_01 carries a 1e-8 Hermiticity defect, within --tol 1e-6; it joins two
    # levels of one energy sector, so the dephased state keeps it and is held to --tol too.
    rho = np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex)
    rho[0, 1], rho[1, 0] = 0.05 + 1e-8, 0.05
    obj = {
        "rho": matrix_to_rows(rho),
        "hamiltonian": matrix_to_rows(np.diag([0.0, 0.0, 1.0, 2.0])),
        "projectors": {"low": matrix_to_rows(np.diag([1.0, 1.0, 0.0, 0.0]))},
    }
    spec = write_spec(tmp_path, obj)
    assert run_cli(capsys, command, "--spec", spec, "--tol", "1e-6")[::2] == (0, "")
    assert run_cli(capsys, command, "--spec", spec, "--tol", "1e-6", "--json")[::2] == (0, "")


def test_sample_needs_inputs(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS})
    code, _, err = run_cli(capsys, "sample", "--spec", spec)
    assert code == 1
    assert err.startswith("error[Validation]")


# --- check ---


def test_check_reports_fields(tmp_path, capsys):
    spec = write_spec(
        tmp_path,
        {"rho": PLUS_ROWS, "hamiltonian": H_01_ROWS, "projectors": {"up": DIAG_10_ROWS}},
    )
    code, out, _ = run_cli(capsys, "check", "--spec", spec)
    assert code == 0
    assert "all validations passed" in out
    assert "superselection-compliant: yes" in out


@pytest.mark.parametrize("command", ["classical", "check"])
def test_cycle_with_matrix_projector_is_refused(tmp_path, capsys, command):
    spec = write_spec(
        tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}, "projectors": {"a": PLUS_ROWS}}
    )
    code, out, err = run_cli(capsys, command, "--spec", spec)
    where = "classical: " if command == "check" else ""
    assert (code, out) == (1, "")
    assert err == f"error[Validation]: {where}projector 'a': must be a characteristic vector for the classical command\n"


HALF_ROWS = matrix_to_rows(np.eye(2) / 2)
HUGE_ROWS = matrix_to_rows(np.diag([1e308, 1e308]))


@pytest.mark.parametrize(
    "obj, code, err",
    [
        (
            {"rho": DIAG_10_ROWS, "algebra": {"atoms": [{"label": "a", "operator": H_01_ROWS}]}},
            1,
            "error[ZeroTotalMeasure]: measure: total measure 0.0 <= 1e-12; cannot normalize\n",
        ),
        (
            {"rho": HALF_ROWS, "algebra": {"atoms": [{"label": a, "operator": HUGE_ROWS} for a in "ab"]}},
            1,
            "error[NonFinite]: measure: measure inf is not finite\n",
        ),
        ({"rho": HALF_ROWS, "projectors": {"a": [1, 0]}}, 0, ""),  # not a partition, so no sample
    ],
    ids=["zero-total-measure", "total-measure-overflows", "projectors-not-a-partition"],
)
def test_check_runs_the_subcommands_that_apply(tmp_path, capsys, obj, code, err):
    got_code, _, got_err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, obj))
    assert (got_code, got_err) == (code, err)


@pytest.mark.parametrize(
    "obj, code, err, calls",
    [
        ({"rho": HALF_ROWS, "projectors": {"a": [1, 0], "b": [0, 1]}}, 0, "", 1),
        ({"rho": HALF_ROWS, "projectors": {"a": [1, 0]}}, 0, "", 1),  # NotAPartition: check skips sample
        (
            {"rho": matrix_to_rows(np.diag([0.5, 0.5 + 5e-7])), "projectors": {"a": [1, 0], "b": [0, 1]}},
            1,
            "error[NumericalIntegrity]: sample: outcome weights sum to 1.0000005, off 1 beyond 1e-9\n",
            1,
        ),
    ],
    ids=["partition", "not-a-partition", "partition-weights-off"],
)
def test_check_takes_the_partition_verdict_from_sample(tmp_path, capsys, monkeypatch, obj, code, err, calls):
    # sample_measurement is the one place that tests a partition; check runs it once and reads its refusal.
    seen = []

    def counted(*args, sample=cli.sample_measurement, **kwargs):
        seen.append(args)
        return sample(*args, **kwargs)

    monkeypatch.setattr(cli, "sample_measurement", counted)
    got_code, _, got_err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, obj), "--tol", "1e-6")
    assert (got_code, got_err, len(seen)) == (code, err, calls)


# generic.json has rho and 3 projectors, so quantum gives the verdicts; sectors.json
# has 2 projectors and no rho, so no quantum, and check computes them itself.
@pytest.mark.parametrize("stem, calls", [("generic", 3), ("sectors", 2)])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_check_computes_each_compliance_verdict_once(tmp_path, capsys, monkeypatch, stem, calls, mode):
    seen = []

    def counted(p, h, test=cli.is_superselection_compliant):
        seen.append(p)
        return test(p, h)

    monkeypatch.setattr(cli, "is_superselection_compliant", counted)
    got_code, _, got_err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, GOLDEN_SPECS[stem]), *mode)
    assert (got_code, got_err, len(seen)) == (0, "", calls)


# With projectors, quantum dephases rho and check skips dephase; with rho and
# a hamiltonian alone, quantum does not run and dephase makes the one call.
@pytest.mark.parametrize("stem", ["generic", "degenerate", "real", "rho-and-hamiltonian"])
@pytest.mark.parametrize("mode", [[], ["--json"]], ids=["text", "json"])
def test_check_dephases_rho_once(tmp_path, capsys, monkeypatch, stem, mode):
    seen = []

    def counted(rho, h, dephase=cli.dephase, **kwargs):
        seen.append(rho)
        return dephase(rho, h, **kwargs)

    monkeypatch.setattr(cli, "dephase", counted)
    generic = GOLDEN_SPECS["generic"]
    obj = GOLDEN_SPECS.get(stem) or {"rho": generic["rho"], "hamiltonian": generic["hamiltonian"]}
    got_code, _, got_err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, obj), *mode)
    assert (got_code, got_err, len(seen)) == (0, "", 1)


ALL_1E308_ROWS = matrix_to_rows(np.full((2, 2), 1e308))


@pytest.mark.parametrize(
    "obj, args, err",
    [
        (
            {"rho": PLUS_ROWS, "algebra": {"atoms": [{"label": "a", "operator": ALL_1E308_ROWS}]}},
            ["measure"],
            "error[NonFinite]: an atom expectation is not finite\n",
        ),
        (
            {"rho": PLUS_ROWS, "algebra": {"atoms": [{"label": "a", "operator": ALL_1E308_ROWS}]}},
            ["check"],
            "error[NonFinite]: measure: an atom expectation is not finite\n",
        ),
        (
            {"rho": PLUS_ROWS, "projectors": {"a": ALL_1E308_ROWS}},
            ["quantum", "--tol", "1e300"],
            "error[NonFinite]: trace probability inf is not finite\n",
        ),
    ],
    ids=["measure", "check", "quantum"],
)
def test_overflowing_trace_contraction_is_one_typed_refusal(tmp_path, capsys, obj, args, err):
    # The suite turns warnings into errors, so a RuntimeWarning from the dot would fail here.
    got = run_cli(capsys, *args, "--spec", write_spec(tmp_path, obj))
    assert got == (1, "", err)


def test_check_json_without_dimension(tmp_path, capsys):
    spec = write_spec(tmp_path, {"reality_mode": "real"})
    code, out, _ = run_cli(capsys, "check", "--spec", spec, "--json")
    assert code == 0
    assert json.loads(out) == {"ok": True, "fields": [], "dim": None, "reality_mode": "real"}


def test_check_json(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 1, "schedule": [[1, 1.0]]}})
    code, out, _ = run_cli(capsys, "check", "--spec", spec, "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"ok": True, "fields": ["cycle"], "dim": 1, "reality_mode": "complex"}


# --- flags and error paths ---


def test_out_flag_writes_file(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"up": DIAG_10_ROWS}})
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "quantum", "--spec", spec, "--out", str(target))
    assert code == 0
    assert out == ""
    assert "0.5" in target.read_text(encoding="utf-8")


def test_missing_spec_file(tmp_path, capsys):
    code, _, err = run_cli(capsys, "quantum", "--spec", str(tmp_path / "absent.json"))
    assert code == 1
    assert err.startswith("error[SpecParse]")


def test_invalid_json(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run_cli(capsys, "quantum", "--spec", str(path))
    assert code == 1
    assert err.startswith("error[SpecParse]")


def test_unknown_spec_key(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "bogus": 1})
    code, _, err = run_cli(capsys, "check", "--spec", spec)
    assert code == 1
    assert err.startswith("error[SpecParse]")


def test_dimension_mismatch_across_fields(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"p": [1, 0, 1]}})
    code, _, err = run_cli(capsys, "check", "--spec", spec)
    assert code == 1
    assert err.startswith("error[SpecParse]")


def test_real_flag_is_not_an_option(tmp_path, capsys):
    # The file's "reality_mode" key is the one switch for real mode.
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"up": DIAG_10_ROWS}})
    with pytest.raises(SystemExit) as exc:
        main(["quantum", "--spec", spec, "--real"])
    assert exc.value.code == 2
    assert capsys.readouterr() == ("", "error[Usage]: unrecognized arguments: --real\n")


def test_reality_mode_key_in_file(tmp_path, capsys):
    complex_rho = matrix_to_rows(0.5 * np.array([[1.0, -1j], [1j, 1.0]]))
    spec = write_spec(
        tmp_path, {"reality_mode": "real", "rho": complex_rho, "projectors": {"up": DIAG_10_ROWS}}
    )
    code, _, err = run_cli(capsys, "quantum", "--spec", spec)
    assert code == 1
    assert err.startswith("error[NotReal]")


def test_invalid_reality_mode_value(tmp_path, capsys):
    spec = write_spec(tmp_path, {"reality_mode": "quaternionic", "rho": PLUS_ROWS})
    code, _, err = run_cli(capsys, "check", "--spec", spec)
    assert code == 1
    assert err.startswith("error[SpecParse]")


@pytest.mark.parametrize(
    "obj, message",
    [
        (
            {"reality_mode": 5, "rho": PLUS_ROWS},
            'error[SpecParse]: reality_mode must be "complex" or "real", got int\n',
        ),
        (
            {"reality_mode": [[[0.5, 0.0]] * 40] * 40, "rho": PLUS_ROWS},
            'error[SpecParse]: reality_mode must be "complex" or "real", got list\n',
        ),
        (
            {"reality_mode": "q" * 1000, "rho": PLUS_ROWS},
            "error[SpecParse]: reality_mode must be \"complex\" or \"real\", got 'qqqqqqqqqqqq...qqqqqqqqqqqqq'\n",
        ),
        (
            {"cycle": {"n": 2, "schedule": [[1, 1.0], [10**400, 1.0]]}},
            f"error[Validation]: state 1{'0' * 17}...{'0' * 19} outside 1..2\n",
        ),
        (
            {"rho": PLUS_ROWS, "projectors": {"x" * 1000: matrix_to_rows(np.diag([2.0, 0.0]))}},
            f"error[Validation]: projector '{'x' * 12}...{'x' * 13}': "
            "matrix is not a projector (Hermitian idempotent) within tolerance\n",
        ),
        (
            {"rho": PLUS_ROWS, "projectors": {"w" * 1000: [1, 0, 1]}},
            f"error[SpecParse]: dimension mismatch across fields: rho=2, projector '{'w' * 12}...{'w' * 13}'=3\n",
        ),
        (
            {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}, "projectors": {"v" * 1000: PLUS_ROWS}},
            f"error[Validation]: classical: projector '{'v' * 12}...{'v' * 13}': "
            "must be a characteristic vector for the classical command\n",
        ),
        (
            {"rho": ONE_ROWS, "algebra": {"atoms": [{"label": "y" * 1000, "operator": [[[-1.0, 0.0]]]}]}},
            f"error[Validation]: algebra atom 0 ('{'y' * 12}...{'y' * 13}'): "
            "POV operator must be positive semidefinite (eigenvalues >= -tol)\n",
        ),
        (
            {"rho": PLUS_ROWS, "z" * 1000: 1},
            f"error[SpecParse]: unknown keys: ['{'z' * 12}...{'z' * 13}']\n",
        ),
    ],
    ids=[
        "mode-int",
        "mode-matrix",
        "mode-long-string",
        "state-400-digits",
        "projector-label",
        "projector-label-dimension",
        "projector-label-char-vector",
        "atom-label",
        "unknown-key",
    ],
)
def test_refusals_shorten_the_values_they_echo(tmp_path, capsys, obj, message):
    code, out, err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, obj))
    assert (code, out, err) == (1, "", message)


def test_many_mismatched_projectors_give_one_short_error_line(tmp_path, capsys):
    # 200 projectors of one wrong dimension, then of 200 distinct ones
    cases = [
        ({f"p{k}": [1, 0, 0] for k in range(200)}, "rho=2, projector 'p0'=3 (+199 more)"),
        (
            {f"p{k}": [1] + [0] * (k + 2) for k in range(200)},
            "rho=2, projector 'p0'=3, projector 'p1'=4, and 198 more dimensions",
        ),
    ]
    for projectors, message in cases:
        spec = {"rho": PLUS_ROWS, "projectors": projectors}
        code, out, err = run_cli(capsys, "check", "--spec", write_spec(tmp_path, spec))
        assert (code, out) == (1, "")
        _one_error_line(err, "SpecParse")
        assert err == f"error[SpecParse]: dimension mismatch across fields: {message}\n"


def test_main_builds_no_parser_per_call(tmp_path, capsys, monkeypatch):
    def build_parser():
        raise AssertionError("main built a parser")

    monkeypatch.setattr(cli, "build_parser", build_parser)
    spec = write_spec(tmp_path, {"cycle": {"n": 1, "schedule": [[1, 1.0]]}})
    for command in ("check", "sample"):
        assert run_cli(capsys, command, "--spec", spec)[0] == 0


def _count_projector_builds(monkeypatch) -> list:
    built = []
    init = Projector.__init__
    monkeypatch.setattr(Projector, "__init__", lambda self, *a, **k: built.append(a) or init(self, *a, **k))
    return built


CYCLE_WITH_SETS = {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 3.0]]}, "projectors": {"a": [1, 0], "b": [1, 1]}}


def test_classical_builds_one_projector_per_set(tmp_path, capsys, monkeypatch):
    built = _count_projector_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "classical", "--spec", write_spec(tmp_path, CYCLE_WITH_SETS), "--json")
    assert code == 0
    assert [s["trace_prob"] for s in json.loads(out)["sets"]] == [0.25, 1.0]
    assert len(built) == 2


def test_sample_on_a_cycle_builds_no_projector_for_its_sets(tmp_path, capsys, monkeypatch):
    # A characteristic vector is held as its set; sampling a cycle reads no projector.
    built = _count_projector_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "sample", "--spec", write_spec(tmp_path, CYCLE_WITH_SETS), "--json")
    assert code == 0
    assert json.loads(out)["outcomes"] == ["state-1", "state-2"]
    assert built == []


@pytest.mark.parametrize("n", [4, 16])
def test_sets_as_vectors_and_as_diagonal_matrices_print_the_same(tmp_path, capsys, n):
    # Three sets partition the basis. The Hamiltonian is diagonal on the first
    # half of it and a random Hermitian block on the rest, so the first set,
    # inside the first half, is compliant and the others are not.
    rng = np.random.default_rng(n)
    half = n // 2
    h = np.zeros((n, n), dtype=complex)
    h[:half, :half] = np.diag(rng.standard_normal(half))
    h[half:, half:] = random_hermitian(rng, n - half)
    groups = [range(half // 2), range(half // 2, half + 1), range(half + 1, n)]
    chis = [np.isin(np.arange(n), list(g)).astype(int) for g in groups]
    base = {"rho": matrix_to_rows(random_density_matrix(rng, n)), "hamiltonian": matrix_to_rows(h)}
    forms = {
        "vectors": {f"s{k}": chi.tolist() for k, chi in enumerate(chis)},
        "matrices": {f"s{k}": matrix_to_rows(np.diag(chi)) for k, chi in enumerate(chis)},
    }
    paths = [write_spec(tmp_path, base | {"projectors": p}, f"{name}.json") for name, p in forms.items()]
    for command in (["quantum"], ["sample", "--n", "1000", "--seed", "3"], ["check"]):
        for flags in ([], ["--json"]):
            first, second = (run_cli(capsys, *command, "--spec", path, *flags) for path in paths)
            assert first == second
            assert first[0] == 0
    assert list(json.loads(first[1])["compliant"].values()) == [True, False, False]


def test_quantum_needs_rho_and_projectors(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}})
    code, _, err = run_cli(capsys, "quantum", "--spec", spec)
    assert code == 1
    assert err.startswith("error[Validation]")


def test_usage_error_is_tagged(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["quantum"])  # missing required --spec
    assert exc.value.code == 2
    assert "error[Usage]" in capsys.readouterr().err


def test_non_integer_cycle_n(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2.5, "schedule": [[1, 1.0], [2, 1.0]]}})
    code, _, err = run_cli(capsys, "check", "--spec", spec)
    assert code == 1
    assert err.startswith("error[SpecParse]")


@pytest.mark.parametrize(
    "schedule, category",
    [
        ([[1, "abc"], [2, 1.0]], "SpecParse"),  # non-numeric duration
        ([[1.7, 1.0], [2, 1.0]], "SpecParse"),  # fractional state
        ([[1, 1.0], [2, True]], "SpecParse"),  # boolean duration
        ([[1, 10**400], [2, 1.0]], "Validation"),  # integer beyond the float range
        ([[1, 1e308], [2, 1e308]], "Validation"),  # period overflows
    ],
)
@pytest.mark.parametrize("command", ["classical", "check"])
def test_bad_cycle_schedule_is_one_tagged_error(tmp_path, capsys, command, schedule, category):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": schedule}, "projectors": {"a": [1, 0]}})
    code, out, err = run_cli(capsys, command, "--spec", spec)
    assert code == 1
    assert out == ""
    assert err.startswith(f"error[{category}]: ")
    assert err.count("\n") == 1


def _one_error_line(err: str, category: str, max_len: int = 300) -> None:
    assert err.startswith(f"error[{category}]: ")
    assert err.count("\n") == 1
    assert len(err) <= max_len


@pytest.mark.parametrize("command", ["check", "classical", "sample"])
@pytest.mark.parametrize(
    "cycle",
    [
        {"n": 10**30, "schedule": [[1, 1.0]]},  # more states than schedule entries
        {"n": 2000, "schedule": [[1, 1.0]] * 2000},  # 1999 states missing
    ],
    ids=["huge-n", "many-missing"],
)
def test_cycle_with_absent_states_is_one_short_error(tmp_path, capsys, command, cycle):
    spec = write_spec(tmp_path, {"cycle": cycle, "projectors": {"a": [1] + [0] * 1999}})
    code, out, err = run_cli(capsys, command, "--spec", spec)
    assert code == 1
    assert out == ""
    _one_error_line(err, "Validation")


@pytest.mark.parametrize(
    "flag, value", [("--n", str(2**63)), ("--n", str(10**30)), ("--n", "0"), ("--seed", "-1")]
)
def test_sample_draw_args_out_of_range(tmp_path, capsys, flag, value):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}})
    code, out, err = run_cli(capsys, "sample", "--spec", spec, f"{flag}={value}")
    assert code == 1
    assert out == ""
    _one_error_line(err, "Validation")


def test_sample_n_past_int64_names_the_bound(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}})
    assert run_cli(capsys, "sample", "--spec", spec, "--n", str(2**63)) == (
        1,
        "",
        "error[Validation]: n_samples must be <= 9223372036854775807\n",
    )


def test_sample_largest_n(tmp_path, capsys):
    spec = write_spec(tmp_path, {"cycle": {"n": 2, "schedule": [[1, 1.0], [2, 1.0]]}})
    code, out, _ = run_cli(capsys, "sample", "--spec", spec, "--json", "--n", str(2**63 - 1))
    assert code == 0
    assert sum(json.loads(out)["counts"]) == 2**63 - 1


@pytest.mark.parametrize(
    "content",
    [
        b"[" * 100000 + b"]" * 100000,
        b'{"cycle": {"n": ' + b"9" * 5000 + b"}}",
        b'{"rho": "\xff"}',
    ],
    ids=["deep-nesting", "int-beyond-digit-limit", "not-utf8"],
)
def test_unparsable_json_is_a_spec_parse_error(tmp_path, capsys, content):
    path = tmp_path / "system.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "check", "--spec", str(path))
    assert code == 1
    assert out == ""
    _one_error_line(err, "SpecParse")


def test_out_into_missing_directory(tmp_path, capsys):
    spec = write_spec(tmp_path, {"rho": PLUS_ROWS, "projectors": {"up": DIAG_10_ROWS}})
    target = tmp_path / "absent" / "report.txt"
    code, out, err = run_cli(capsys, "quantum", "--spec", spec, "--out", str(target))
    assert code == 1
    assert out == ""
    _one_error_line(err, "Output")
    assert not target.parent.exists()


def _closed_pipe() -> int:
    # The read end is closed before the child starts, so its first write meets no reader.
    read_end, write_end = os.pipe()
    os.close(read_end)
    return write_end


@pytest.mark.parametrize(
    "open_stdout, reason",
    [
        (_closed_pipe, "Broken pipe"),
        pytest.param(
            lambda: os.open("/dev/full", os.O_WRONLY),
            "No space left on device",
            marks=pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full"),
        ),
    ],
    ids=["closed-pipe", "full-disk"],
)
@pytest.mark.parametrize("buffered", [False, True], ids=["unbuffered", "buffered"])
def test_an_unwritable_stdout_is_one_output_error_line(open_stdout, reason, buffered):
    env = {**os.environ, "PYTHONPATH": str(Path(traceprob.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    spec = str(Path(__file__).resolve().parent / "golden" / "generic.json")
    command = [sys.executable, "-m", "traceprob.cli", "quantum", "--spec", spec, "--json"]
    stdout = open_stdout()
    try:
        done = subprocess.run(command, stdout=stdout, stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(stdout)
    assert (done.returncode, done.stderr.decode()) == (1, f"error[Output]: cannot write stdout: {reason}\n")


BAD_TOLS = ["inf", "-inf", "nan", "0", "-1e-10"]


@pytest.mark.parametrize(
    "tol,spelling",
    [(t, "--tol=") for t in BAD_TOLS] + [(t, "--tol ") for t in BAD_TOLS],
    ids=BAD_TOLS + [f"{t}-separate" for t in BAD_TOLS],
)
def test_tol_must_be_finite_and_positive(tmp_path, capsys, tol, spelling):
    # rho = [[5]] has trace 5: only an infinite tolerance would let it through
    spec = write_spec(tmp_path, {"rho": matrix_to_rows(np.array([[5.0]])), "projectors": {"p": [1]}})
    tol_args = [f"--tol={tol}"] if spelling == "--tol=" else ["--tol", tol]
    code, out, err = run_cli(capsys, "quantum", "--spec", spec, *tol_args)
    assert code == 1
    assert out == ""
    _one_error_line(err, "Validation")
    assert "--tol" in err
