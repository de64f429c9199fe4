"""The benchmark tracer's boundary list must name functions that exist.

``perfbench/tracer.py`` wraps library functions under the names their callers
look them up by. A refactor that drops or renames one of those names breaks
the traced benchmark run; this test fails first. It reads the tracer and
changes nothing in it.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import traceprob
import traceprob.cli  # noqa: F401  (the tracer names attributes of every submodule)

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    targets = _load_tracer().targets(traceprob)
    assert targets
    missing = []
    for owner, attr, span, _ in targets:
        found = attr in owner if isinstance(owner, dict) else attr in vars(owner)
        if not found:
            missing.append(f"{getattr(owner, '__name__', type(owner).__name__)}.{attr} ({span})")
    assert missing == []


def test_cli_keeps_diag_projector_for_the_tracer():
    # cli no longer calls diag_projector (classical reuses the projectors built
    # at load), but the tracer wraps it under the cli name.
    spans = {(owner, attr) for owner, attr, _, _ in _load_tracer().targets(traceprob) if not isinstance(owner, dict)}
    assert (traceprob.cli, "diag_projector") in spans
    assert traceprob.cli.diag_projector is traceprob.classical.diag_projector
