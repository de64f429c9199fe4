"""Span tracing from outside the program.

The tracer replaces public traceprob functions under the names their callers
look them up by (``traceprob.cli.dephase``, ``traceprob.specfile.matrix_from_rows``,
...) and wraps constructors' ``__init__`` in place, so ``isinstance`` checks
still see the original classes. Each wrapped call records a span with its
parent; spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import json
import statistics
import time
from collections import defaultdict

# Layers whose self time a call is split into; "bench" is the benchmark's own
# share of a call, outside every traced function.
LAYERS = ("specfile", "matcore", "quantum", "superselect", "measure", "sampler", "classical", "cli", "bench")


def _matrix_entries(args, kwargs) -> int:
    return len(args[0]) ** 2


def _draws(position: int):
    return lambda args, kwargs: int(args[position])


def targets(tp) -> list[tuple[object, str, str, object]]:
    """(owner, attribute, span name, amount) for every boundary the tracer wraps.

    ``amount`` maps the call's arguments to a work count that the span carries.
    """
    cli, specfile, quantum = tp.cli, tp.specfile, tp.quantum
    superselect, measure, sampler, classical = tp.superselect, tp.measure, tp.sampler, tp.classical
    out = [(cli, "main", "cli.main", None), (cli, "load_system_spec", "specfile.load", None)]
    out += [(cli._COMMANDS, name, "cli.command", None) for name in list(cli._COMMANDS)]
    out += [
        (specfile, "matrix_from_rows", "matcore.matrix_from_rows", _matrix_entries),
        (measure, "matrix_from_rows", "matcore.matrix_from_rows", _matrix_entries),
        (quantum, "is_projector", "matcore.validate", None),
        (quantum, "is_density", "matcore.validate", None),
        (measure, "is_hermitian", "matcore.validate", None),
        (superselect, "hermitian_eig", "matcore.hermitian_eig", None),
        (quantum.Projector, "__init__", "quantum.construct", None),
        (quantum.DensityMatrix, "__init__", "quantum.construct", None),
        (measure.PovOperator, "__init__", "measure.construct", None),
        (measure.PerceptionAlgebra, "__init__", "measure.construct", None),
        (superselect.Hamiltonian, "__init__", "superselect.construct", None),
        (superselect, "energy_blocks", "superselect.energy_blocks", None),
        (cli, "energy_blocks", "superselect.energy_blocks", None),
        (cli, "dephase", "superselect.dephase", None),
        (cli, "is_superselection_compliant", "superselect.compliance", None),
        (quantum, "trace_prob", "quantum.trace_prob", None),
        (cli, "trace_prob", "quantum.trace_prob", None),
        (sampler, "trace_prob", "quantum.trace_prob", None),
        (measure, "measure_of", "measure.measure_of", None),
        (cli, "measure_of", "measure.measure_of", None),
        (measure, "normalized_prob", "measure.normalized_prob", None),
        (cli, "normalized_prob", "measure.normalized_prob", None),
        (measure, "conditional_prob", "measure.conditional_prob", None),
        (cli, "sample_classical", "sampler.sample_classical", _draws(1)),
        (cli, "sample_measurement", "sampler.sample_measurement", _draws(2)),
        (cli, "deviation_check", "sampler.deviation_check", None),
        (classical.ClassicalCycle, "__init__", "classical", None),
        (classical.PerceptionSet, "__init__", "classical", None),
    ]
    out += [
        (cli, name, "classical", None)
        for name in ("dwell_fractions", "classical_prob", "classical_density", "diag_projector")
    ]
    out += [(sampler, "dwell_fractions", "classical", None), (specfile, "diag_projector", "classical", None)]
    return out


class Tracer:
    """Records spans [name, tag, start, end, parent, call, amount] at wrapped boundaries."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.call = -1

    def _wrap(self, fn, name: str, tag: str, amount):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, tag, 0.0, 0.0, stack[-1] if stack else -1, self.call, 0])
            if amount is not None:
                spans[index][6] = amount(args, kwargs)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index][2] = start
                spans[index][3] = end

        return traced

    def install(self, boundaries) -> None:
        for owner, attr, name, amount in boundaries:
            if isinstance(owner, dict):
                original = owner[attr]
                owner[attr] = self._wrap(original, name, f"cli._COMMANDS[{attr}]", amount)
            else:
                original = owner.__dict__[attr]
                tag = f"{getattr(owner, '__name__', owner)}.{attr}"
                setattr(owner, attr, self._wrap(original, name, tag, amount))
            self._patched.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    def traced_call(self, fn):
        """Run one benchmark call under a root span named "bench.call"."""
        self.call += 1
        return self._wrap(fn, "bench.call", "bench.call", None)()

    def per_call(self) -> list[dict]:
        """Self time (ms), span count and work amount by span name, for each call."""
        child_time = defaultdict(float)
        for span in self.spans:
            if span[4] >= 0:
                child_time[span[4]] += span[3] - span[2]
        calls: dict[int, dict] = defaultdict(
            lambda: {"self_ms": defaultdict(float), "count": defaultdict(int), "amount": defaultdict(int), "tags": defaultdict(int)}
        )
        for index, (name, tag, start, end, parent, call, amount) in enumerate(self.spans):
            rec = calls[call]
            rec["self_ms"][name] += (end - start - child_time[index]) * 1e3
            rec["count"][name] += 1
            rec["amount"][name] += amount
            rec["tags"][tag] += 1
            if name == "bench.call":
                rec["call_ms"] = (end - start) * 1e3
        return [calls[k] for k in sorted(calls)]

    def dump(self, path) -> None:
        """Write every span as one JSON array per line: name, tag, start, end, parent, call, amount."""
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def layer_metrics(calls: list[dict], output_bytes: list[int]) -> dict[str, float]:
    """Per-layer metrics as medians over traced calls."""

    def med(values) -> float:
        return float(statistics.median(values)) if values else 0.0

    def self_ms(name):
        return med([c["self_ms"].get(name, 0.0) for c in calls])

    def count(name, kind="count"):
        return med([c[kind].get(name, 0) for c in calls])

    def tags(tag):
        return med([c["tags"].get(tag, 0) for c in calls])

    samplers = ("sampler.sample_classical", "sampler.sample_measurement")

    def draws(c):
        return sum(c["amount"].get(name, 0) for name in samplers)

    def ns_per_draw(c):
        busy = sum(c["self_ms"].get(name, 0.0) for name in samplers)
        return busy * 1e6 / draws(c) if draws(c) else 0.0

    def layer_share(c, layer):
        busy = sum(ms for name, ms in c["self_ms"].items() if name.split(".")[0] == layer)
        return 100.0 * busy / c["call_ms"]

    m = {
        "specfile.load_ms": self_ms("specfile.load"),
        "specfile.load.calls": count("specfile.load"),
        "matcore.matrix_from_rows_ms": self_ms("matcore.matrix_from_rows"),
        "matcore.matrix_from_rows.calls": count("matcore.matrix_from_rows"),
        "matcore.matrix_from_rows.entries": count("matcore.matrix_from_rows", "amount"),
        "quantum.construct_ms": self_ms("quantum.construct"),
        "matcore.validate_ms": self_ms("matcore.validate"),
        "matcore.validate.calls": count("matcore.validate"),
        "measure.construct_ms": self_ms("measure.construct"),
        "superselect.construct_ms": self_ms("superselect.construct"),
        "matcore.hermitian_eig_ms": self_ms("matcore.hermitian_eig"),
        "superselect.energy_blocks_ms": self_ms("superselect.energy_blocks"),
        "superselect.energy_blocks.calls": count("superselect.energy_blocks"),
        "superselect.dephase_ms": self_ms("superselect.dephase"),
        "superselect.compliance_ms": self_ms("superselect.compliance"),
        "superselect.compliance.calls": count("superselect.compliance"),
        "quantum.trace_prob_ms": self_ms("quantum.trace_prob"),
        "quantum.trace_prob.calls": count("quantum.trace_prob"),
        "measure.measure_of_ms": self_ms("measure.measure_of"),
        "measure.normalized_prob_ms": self_ms("measure.normalized_prob"),
        "measure.conditional_prob_ms": self_ms("measure.conditional_prob"),
        "measure.measure_of.calls": count("measure.measure_of"),
        "measure.pov_validations": tags("PovOperator.__init__"),
        "sampler.sample_classical_ms": self_ms("sampler.sample_classical"),
        "sampler.sample_measurement_ms": self_ms("sampler.sample_measurement"),
        "sampler.draws": med([draws(c) for c in calls]),
        "sampler.ns_per_draw": med([ns_per_draw(c) for c in calls]),
        "sampler.deviation_check_ms": self_ms("sampler.deviation_check"),
        "classical.ms": self_ms("classical"),
        "cli.command_ms": self_ms("cli.command"),
        "cli.format_ms": self_ms("cli.main"),
        "cli.output_bytes": med(output_bytes),
        "trace.spans_per_call": med([sum(c["count"].values()) for c in calls]),
    }
    for layer in LAYERS:
        m[f"{layer}.share"] = med([layer_share(c, layer) for c in calls])
    return m
