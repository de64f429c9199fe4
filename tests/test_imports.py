"""Every name a library module imports is read in that module.

An import that nothing reads costs a lookup at start-up and, after a
refactor, keeps a removed path looking alive. A module that imports a name
only so that something outside reads it there says so on the import line:
``# noqa: F401`` followed by the reason in parentheses. ``__init__.py``
imports to re-export, so it is left out.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "traceprob"
MODULES = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
EXCUSED = re.compile(r"#\s*noqa: F401\s+\(\S[^)]*\)")


def unread_imports(source: str) -> list[str]:
    """``"<line>: <name>"`` for each imported name that the module never reads and no excuse covers."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unread = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)) or getattr(node, "module", None) == "__future__":
            continue
        if any(EXCUSED.search(line) for line in lines[node.lineno - 1 : node.end_lineno]):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in read:
                unread.append(f"{node.lineno}: {name}")
    return unread


@pytest.mark.parametrize("module", MODULES)
def test_every_imported_name_is_read(module):
    assert unread_imports((SRC / module).read_text(encoding="utf-8")) == []


@pytest.mark.parametrize(
    "source, unread",
    [
        ("import os\n", ["1: os"]),
        ("import os.path\nos.sep\n", []),
        ("import numpy as np\nnp.eye\n", []),
        ("from a import b, c\nb()\n", ["1: c"]),
        ("from a import (\n    b,\n    c,\n)\nc\n", ["1: b"]),
        ("from a import b\nb = 1\n", ["1: b"]),  # written, never read
        ("from a import b\ndef f(x: b) -> None: ...\n", []),  # an annotation is read
        ("from a import b  # noqa: F401\n", ["1: b"]),  # no reason given
        ("from a import b  # noqa: F401  (tools wrap a.b here)\n", []),
        ("from __future__ import annotations\n", []),
    ],
    ids=[
        "import",
        "dotted-import-read",
        "import-as-read",
        "one-of-two-read",
        "parenthesized",
        "rebound",
        "annotation",
        "noqa-without-reason",
        "noqa-with-reason",
        "future",
    ],
)
def test_the_check_reads_names_loads_and_excuses(source, unread):
    assert unread_imports(source) == unread


def test_the_check_catches_a_name_left_imported_after_its_last_use():
    # cli once imported sampler's partition test to run it a second time; it runs no partition test now.
    source = (SRC / "cli.py").read_text(encoding="utf-8")
    stale = source.replace("from .sampler import ", "from .sampler import partition_refusal, ", 1)
    assert stale != source
    assert [entry.split(": ")[1] for entry in unread_imports(stale)] == ["partition_refusal"]
