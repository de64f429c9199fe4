"""The README's examples run as printed.

The ``python`` block of the library quick start runs as it stands. Each
command of the command-line transcript, run on the README's JSON spec,
prints the lines under it. ``_table`` pads every column to its width, the
last one included, so lines are compared with trailing spaces stripped.
"""

from __future__ import annotations

import re
import shlex
from pathlib import Path

import pytest

from traceprob.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def _blocks(lang: str) -> list[str]:
    return re.findall(rf"^```{lang}\n(.*?)^```$", README, re.S | re.M)


def _transcript() -> dict[str, tuple[list[str], list[str]]]:
    """Each ``$ traceprob ...`` command of the text block, by subcommand: its arguments and the lines it prints."""
    runs = {}
    for chunk in re.split(r"^\$ ", _blocks("text")[0], flags=re.M)[1:]:
        command, *lines = chunk.rstrip("\n").split("\n")
        prog, *args = shlex.split(command)
        assert prog == "traceprob"
        runs[args[0]] = (args, lines)
    return runs


def test_the_quick_start_runs():
    (block,) = _blocks("python")
    exec(compile(block, "README.md", "exec"), {})


@pytest.mark.parametrize("args, lines", _transcript().values(), ids=_transcript().keys())
def test_the_transcript_prints_what_it_shows(tmp_path, capsys, args, lines):
    spec = tmp_path / "system.json"
    spec.write_text(_blocks("json")[0], encoding="utf-8")
    assert args[args.index("--spec") + 1] == "system.json"
    code = main([str(spec) if arg == "system.json" else arg for arg in args])
    captured = capsys.readouterr()
    assert (code, captured.err) == (0, "")
    assert [line.rstrip() for line in captured.out.rstrip("\n").split("\n")] == [line.rstrip() for line in lines]
