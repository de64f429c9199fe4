"""Every refusal of a cycle, word for word, from a spec file and from ClassicalCycle.

A spec file's cycle is checked for JSON types by the spec loader (a
``SpecParse`` refusal) and then for its invariants by ``ClassicalCycle`` (a
``Validation`` refusal). When several rules fail, the one reported is the
first in this order: ``n`` is an integer; each entry, in schedule order, is a
pair, then has an integer state, then a real duration that fits a float;
``n >= 1``; the schedule is non-empty; ``n`` is at most its length; each
entry, in schedule order, has a state in range, then a finite positive
duration; every state appears; the period is finite.
"""

from __future__ import annotations

import json
from fractions import Fraction

import numpy as np
import pytest

from traceprob import ClassicalCycle, ValidationError
from traceprob.cli import main

BIG = 10**400
BIG_SHOWN = f"1{'0' * 17}...{'0' * 19}"
NOT_AN_OBJECT = 'cycle must be an object with keys "n" and "schedule"'
NOT_PAIRS = "cycle schedule must be a list of [state, duration] pairs"

# (cycle object of a spec file, the one line ``check`` writes to stderr)
SPEC_REFUSALS = {
    "cycle-list": ([1, 2], f"SpecParse]: {NOT_AN_OBJECT}"),
    "cycle-extra-key": ({"n": 1, "schedule": [[1, 1.0]], "t": 0}, f"SpecParse]: {NOT_AN_OBJECT}"),
    "cycle-no-schedule": ({"n": 1}, f"SpecParse]: {NOT_AN_OBJECT}"),
    "n-float": ({"n": 2.0, "schedule": [[1, 1.0], [2, 1.0]]}, "SpecParse]: cycle n must be an integer"),
    "n-bool": ({"n": True, "schedule": [[1, 1.0]]}, "SpecParse]: cycle n must be an integer"),
    "n-string": ({"n": "2", "schedule": [[1, 1.0], [2, 1.0]]}, "SpecParse]: cycle n must be an integer"),
    "schedule-object": ({"n": 1, "schedule": {"1": 1.0}}, f"SpecParse]: {NOT_PAIRS}"),
    "entry-short": ({"n": 2, "schedule": [[1, 1.0], [2]]}, f"SpecParse]: {NOT_PAIRS}"),
    "entry-long": ({"n": 1, "schedule": [[1, 1.0, 0]]}, f"SpecParse]: {NOT_PAIRS}"),
    "entry-scalar": ({"n": 2, "schedule": [[1, 1.0], 2]}, f"SpecParse]: {NOT_PAIRS}"),
    "entry-object": ({"n": 1, "schedule": [{"1": 1.0, "2": 0}]}, f"SpecParse]: {NOT_PAIRS}"),
    "entry-bad-then-short": ({"n": 2, "schedule": [["1", 1.0], [2]]}, f"SpecParse]: {NOT_PAIRS}"),
    "state-float": (
        {"n": 2, "schedule": [[1, 1.0], [2.0, 1.0]]},
        "SpecParse]: cycle schedule entry 1: state must be an integer, got float",
    ),
    "state-bool": (
        {"n": 1, "schedule": [[True, 1.0]]},
        "SpecParse]: cycle schedule entry 0: state must be an integer, got bool",
    ),
    "state-null": (
        {"n": 1, "schedule": [[None, 1.0]]},
        "SpecParse]: cycle schedule entry 0: state must be an integer, got NoneType",
    ),
    "duration-string": (
        {"n": 2, "schedule": [[1, 1.0], [2, "1"]]},
        "SpecParse]: cycle schedule entry 1: duration must be a number, got str",
    ),
    "duration-bool": (
        {"n": 1, "schedule": [[1, False]]},
        "SpecParse]: cycle schedule entry 0: duration must be a number, got bool",
    ),
    "duration-list": (
        {"n": 1, "schedule": [[1, [1.0]]]},
        "SpecParse]: cycle schedule entry 0: duration must be a number, got list",
    ),
    "state-before-duration": (
        {"n": 2, "schedule": [[1, 1.0], ["2", None]]},
        "SpecParse]: cycle schedule entry 1: state must be an integer, got str",
    ),
    "first-bad-entry": (
        {"n": 3, "schedule": [[1, 1.0], [2, None], [3.5, 1.0]]},
        "SpecParse]: cycle schedule entry 1: duration must be a number, got NoneType",
    ),
    "n-zero": ({"n": 0, "schedule": [[1, 1.0]]}, "Validation]: cycle needs at least one state"),
    "n-negative": ({"n": -3, "schedule": []}, "Validation]: cycle needs at least one state"),
    "schedule-empty": ({"n": 1, "schedule": []}, "Validation]: schedule must be non-empty"),
    "n-above-entries": (
        {"n": 3, "schedule": [[1, 1.0], [2, 1.0]]},
        "Validation]: cycle n is larger than its number of schedule entries (2), so some state never appears",
    ),
    "duration-overflow": (
        {"n": 2, "schedule": [[1, 1.0], [2, BIG]]},
        "Validation]: schedule entry 1 overflows an int state or a float duration",
    ),
    "overflow-before-n": (
        {"n": 5, "schedule": [[1, BIG]]},
        "Validation]: schedule entry 0 overflows an int state or a float duration",
    ),
    "overflow-before-range": (
        {"n": 2, "schedule": [[0, 1.0], [2, BIG]]},
        "Validation]: schedule entry 1 overflows an int state or a float duration",
    ),
    "state-zero": ({"n": 2, "schedule": [[1, 1.0], [0, 1.0]]}, "Validation]: state 0 outside 1..2"),
    "state-negative": ({"n": 2, "schedule": [[-1, 1.0], [2, 1.0]]}, "Validation]: state -1 outside 1..2"),
    "state-above-n": ({"n": 2, "schedule": [[1, 1.0], [3, 1.0]]}, "Validation]: state 3 outside 1..2"),
    "state-huge": ({"n": 2, "schedule": [[1, 1.0], [BIG, 1.0]]}, f"Validation]: state {BIG_SHOWN} outside 1..2"),
    "duration-zero": ({"n": 2, "schedule": [[1, 1.0], [2, 0]]}, "Validation]: dwell duration 0.0 must be finite and > 0"),
    "duration-minus-zero": (
        {"n": 1, "schedule": [[1, -0.0]]},
        "Validation]: dwell duration -0.0 must be finite and > 0",
    ),
    "duration-negative": (
        {"n": 2, "schedule": [[1, -2.5], [2, 1.0]]},
        "Validation]: dwell duration -2.5 must be finite and > 0",
    ),
    "duration-inf": (
        {"n": 2, "schedule": [[1, 1.0], [2, float("inf")]]},
        "Validation]: dwell duration inf must be finite and > 0",
    ),
    "duration-nan": (
        {"n": 2, "schedule": [[1, float("nan")], [2, 1.0]]},
        "Validation]: dwell duration nan must be finite and > 0",
    ),
    "range-by-entry": (
        {"n": 2, "schedule": [[1, 1.0], [2, -1.0], [5, 1.0]]},
        "Validation]: dwell duration -1.0 must be finite and > 0",
    ),
    "state-before-duration-range": (
        {"n": 2, "schedule": [[1, 1.0], [5, -1.0]]},
        "Validation]: state 5 outside 1..2",
    ),
    "missing-one": (
        {"n": 3, "schedule": [[1, 1.0], [3, 1.0], [1, 2.0]]},
        "Validation]: every state must appear in the schedule; 1 missing, first [2]",
    ),
    "missing-many": (
        {"n": 14, "schedule": [[14, 1.0]] * 14},
        "Validation]: every state must appear in the schedule; 13 missing, first [1, 2, 3, 4, 5, 6, 7, 8, 9, 10]",
    ),
    "period-overflow": (
        {"n": 2, "schedule": [[1, 1e308], [2, 1e308]]},
        "Validation]: schedule period (the sum of the durations) is not finite",
    ),
}


@pytest.mark.parametrize("cycle, line", SPEC_REFUSALS.values(), ids=SPEC_REFUSALS.keys())
def test_spec_cycle_refusals_word_for_word(tmp_path, capsys, cycle, line):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({"cycle": cycle}), encoding="utf-8")
    code = main(["check", "--spec", str(path)])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error[{line}\n")


PAIR_0 = "schedule entry 0 must be a (state, duration) pair"
PAIR_1 = "schedule entry 1 must be a (state, duration) pair"
OVERFLOW_1 = "schedule entry 1 overflows an int state or a float duration"

# (n, schedule, the ValidationError message) for inputs a spec file cannot hold
DIRECT_REFUSALS = {
    "n-float": (2.9, [(1, 1.0), (2, 1.0)], "cycle n must be an integer, got float"),
    "n-numpy-float": (np.float64(2), [(1, 1.0), (2, 1.0)], "cycle n must be an integer, got float64"),
    "n-before-entries": ("2", [(1.5, 1.0)], "cycle n must be an integer, got str"),
    "entry-short": (2, [(1, 1.0), (2,)], PAIR_1),
    "entry-long": (2, [(1, 1.0, 0.0), (2, 1.0)], PAIR_0),
    "entry-scalar": (2, [(1, 1.0), 2], PAIR_1),
    "entry-none": (2, [None, (2, 1.0)], PAIR_0),
    "entry-scalar-after-an-iterator": (2, [iter((1, 1.0)), 2], PAIR_1),
    "entry-array-of-three": (1, [np.array([1.0, 1.0, 1.0])], PAIR_0),
    "state-float": (2, [(1, 1.0), (1.5, 1.0)], "state must be an integer, got float"),
    "state-numpy-float": (1, [np.array([1.0, 1.0])], "state must be an integer, got float64"),
    "state-numpy-bool": (1, [(np.True_, 1.0)], "state must be an integer, got bool"),
    "state-string": (2, ["12", (2, 1.0)], "state must be an integer, got str"),
    "duration-string": (2, [(1, 1.0), (2, "3")], "dwell duration must be a real number, got str"),
    "duration-none": (2, [(1, None), (2, 1.0)], "dwell duration must be a real number, got NoneType"),
    "duration-complex": (1, [(1, 1j)], "dwell duration must be a real number, got complex"),
    "short-before-bad-state": (2, [(1,), (1.5, 1.0)], PAIR_0),
    "bad-state-before-short": (2, [(1.5, 1.0), (1,)], "state must be an integer, got float"),
    "duration-overflow": (2, [(1, 1.0), (2, BIG)], OVERFLOW_1),
    "fraction-overflow": (2, [(1, 1.0), (2, Fraction(BIG, 3))], OVERFLOW_1),
    "huge-state": (2, [(1, 1.0), (BIG, 1.0)], f"state {BIG_SHOWN} outside 1..2"),
    "huge-numpy-state": (2, [(1, 1.0), (np.uint64(2**64 - 1), 1.0)], f"state {2**64 - 1} outside 1..2"),
    "numpy-duration-zero": (2, [(1, np.float32(0.0)), (2, 1.0)], "dwell duration 0.0 must be finite and > 0"),
    "bool-duration-zero": (1, [(1, False)], "dwell duration 0.0 must be finite and > 0"),
    "huge-n": (10**30, [(1, 1.0)], "cycle n is larger than its number of schedule entries (1), so some state never appears"),
    "empty-generator": (1, iter(()), "schedule must be non-empty"),
}


@pytest.mark.parametrize("n, schedule, message", DIRECT_REFUSALS.values(), ids=DIRECT_REFUSALS.keys())
def test_direct_cycle_refusals_word_for_word(n, schedule, message):
    with pytest.raises(ValidationError) as info:
        ClassicalCycle(n, schedule)
    assert str(info.value) == message


# The Validation lines of the spec table, which are ClassicalCycle's own messages
SPEC_VALIDATION_REFUSALS = {
    key: (cycle, line.removeprefix("Validation]: "))
    for key, (cycle, line) in SPEC_REFUSALS.items()
    if line.startswith("Validation]: ")
}


@pytest.mark.parametrize("cycle, message", SPEC_VALIDATION_REFUSALS.values(), ids=SPEC_VALIDATION_REFUSALS.keys())
def test_spec_validation_refusals_are_the_constructors(cycle, message):
    with pytest.raises(ValidationError) as info:
        ClassicalCycle(cycle["n"], cycle["schedule"])
    assert str(info.value) == message


@pytest.mark.parametrize(
    "n, schedule, expected",
    [
        (np.int64(2), [(np.int8(1), np.float32(0.5)), (np.uint16(2), 3)], ((1, 0.5), (2, 3.0))),
        (2, [(True, 1.0), (2, True)], ((1, 1.0), (2, 1.0))),
        (2, [[1, Fraction(1, 4)], np.array([2, 5])], ((1, 0.25), (2, 5.0))),
        (1, iter([(1, 2.0), (1, 0.5)]), ((1, 2.0), (1, 0.5))),
        (2, ((s, d) for s, d in [(2, 1.5), (1, np.int64(2))]), ((2, 1.5), (1, 2.0))),
        (2, [{1: "a", 2: "b"}, (2, 1.0)], ((1, 2.0), (2, 1.0))),  # a pair is anything that unpacks to two
    ],
    ids=["numpy-scalars", "bool-state-and-duration", "fraction-and-array", "iterator", "generator", "dict-keys"],
)
def test_cycle_accepts_numpy_ints_bools_and_any_pair(n, schedule, expected):
    c = ClassicalCycle(n, schedule)
    assert c.schedule == expected
    assert all(type(s) is int and type(d) is float for s, d in c.schedule)
    assert type(c.n) is int
