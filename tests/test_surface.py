"""Every public name has a use: a caller in the library or the benchmark, or
a paper claim that the acceptance gate runs.

Names whose only users are unit tests belong in ``tests/helpers.py`` as
oracles, not in ``traceprob.__all__``. That list is derived from the package's
imports, so a star import binds it and nothing else.
"""

from __future__ import annotations

import ast
from pathlib import Path
from types import ModuleType

import traceprob

ROOT = Path(__file__).resolve().parents[1]


def _used_names(path: Path) -> set[str]:
    used = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def test_every_public_name_has_a_use():
    sources = [p for p in sorted((ROOT / "src" / "traceprob").glob("*.py")) if p.name != "__init__.py"]
    sources += sorted((ROOT / "perfbench").glob("*.py"))
    sources.append(ROOT / "tests" / "test_acceptance.py")
    used = set().union(*map(_used_names, sources))
    assert [name for name in traceprob.__all__ if name != "__version__" and name not in used] == []


def test_star_import_binds_exactly_the_derived_surface():
    namespace: dict = {}
    exec("from traceprob import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(traceprob.__all__)
    assert [name for name in traceprob.__all__ if isinstance(namespace[name], ModuleType)] == []
    assert "__version__" in traceprob.__all__
