"""Every public name has a use: a caller in the library or the benchmark, or
a paper claim that the acceptance gate runs.

Names whose only users are unit tests belong in ``tests/helpers.py`` as
oracles, not in ``traceprob.__all__``. That list is derived from the package's
imports, so a star import binds it and nothing else. Importing the package
loads no third-party package but its two declared dependencies.

The same rule holds for the public methods and properties of the public
classes: each must be read as an attribute by those sources. The scan goes by
name, not by type, so a member is counted as read when any object's attribute
of that name is read. A property named ``projectors`` would pass it whoever
read it, because ``spec.projectors`` has the same name.
"""

from __future__ import annotations

import ast
import functools
import os
import subprocess
import sys
from pathlib import Path
from types import FunctionType, MemberDescriptorType, ModuleType

import traceprob

ROOT = Path(__file__).resolve().parents[1]


# The library's modules but ``__init__``, the benchmark's, and the acceptance gate.
SOURCES = [
    *(p for p in sorted((ROOT / "src" / "traceprob").glob("*.py")) if p.name != "__init__.py"),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
]
_MEMBER_KINDS = (FunctionType, property, functools.cached_property, classmethod, staticmethod, MemberDescriptorType)


def _nodes(path: Path):
    return ast.walk(ast.parse(path.read_text(encoding="utf-8")))


def _used_names(path: Path) -> set[str]:
    used = set()
    for node in _nodes(path):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
    return used


def _attributes_read(path: Path) -> set[str]:
    return {node.attr for node in _nodes(path) if isinstance(node, ast.Attribute)}


def _public_members(cls: type):
    """``Class.member`` for each public method, property and ``__slots__`` member
    that ``cls`` defines or inherits from a class of this package."""
    for owner in cls.__mro__:
        if owner.__module__.startswith("traceprob."):
            for name, value in vars(owner).items():
                if name[0] != "_" and isinstance(value, _MEMBER_KINDS):
                    yield f"{cls.__name__}.{name}"


def test_every_public_name_has_a_use():
    used = set().union(*map(_used_names, SOURCES))
    assert [name for name in traceprob.__all__ if name != "__version__" and name not in used] == []


def test_every_public_member_is_read():
    read = set().union(*map(_attributes_read, SOURCES))
    classes = [value for value in map(traceprob.__dict__.get, traceprob.__all__) if isinstance(value, type)]
    members = [member for cls in classes for member in _public_members(cls)]
    # a method, an inherited property, a slot, and an inherited slot
    assert {"ClassicalCycle.state_at", "Projector.dim", "Hamiltonian.eigenvectors", "Projector.mat"} <= set(members)
    assert [member for member in members if member.rpartition(".")[2] not in read] == []


def test_star_import_binds_exactly_the_derived_surface():
    namespace: dict = {}
    exec("from traceprob import *", namespace)
    namespace.pop("__builtins__")
    assert sorted(namespace) == sorted(traceprob.__all__)
    assert [name for name in traceprob.__all__ if isinstance(namespace[name], ModuleType)] == []
    assert "__version__" in traceprob.__all__


# Prints the top-level names that importing traceprob adds to sys.modules,
# leaving out the standard library's (and its sysconfig data module, whose
# name depends on the platform).
_NEW_PACKAGES = """
import sys
before = set(sys.modules)
import traceprob
added = {name.partition(".")[0] for name in set(sys.modules) - before}
print(sorted(n for n in added if n not in sys.stdlib_module_names and not n.startswith("_sysconfigdata")))
"""


def test_import_loads_numpy_and_orjson_and_no_other_package():
    env = {**os.environ, "PYTHONPATH": str(Path(traceprob.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _NEW_PACKAGES], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == "['numpy', 'orjson', 'traceprob']\n"
