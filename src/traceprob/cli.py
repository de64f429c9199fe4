"""Batch command-line front-end.

One system description file per invocation; the subcommand selects the
pipeline. Human-readable tables go to stdout (or the --out path), --json
switches to a machine format, and all diagnostics go to stderr with a
category tag. Exit status is 0 on success and nonzero on every error path.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import numpy as np

from .classical import PerceptionSet, classical_density, classical_prob, diag_projector, dwell_fractions
from .errors import TraceProbError, ValidationError, located
from .matcore import DEFAULT_TOL, matrix_to_rows, trace
from .measure import measure_of, normalized_prob, total_measure
from .quantum import DensityMatrix, Projector, RealityMode, trace_prob
from .sampler import deviation_check, sample_classical, sample_measurement
from .specfile import SystemSpec, load_system_spec
from .superselect import dephase, energy_blocks, is_superselection_compliant

SIGMA_MULTIPLIER = 5.0


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


def _fmt_complex(z: complex) -> str:
    return f"{z.real:.10g}{z.imag:+.10g}j"


def _fmt_matrix(a: np.ndarray) -> str:
    return "\n".join("  [ " + "  ".join(_fmt_complex(z) for z in row) + " ]" for row in a)


def _table(headers: list[str], rows: list[list[str]]) -> str:
    widths = [max(len(h), max((len(r[i]) for r in rows), default=0)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    out.extend("  ".join(c.ljust(w) for c, w in zip(r, widths)) for r in rows)
    return "\n".join(out)


def _require(spec: SystemSpec, command: str, **fields):
    missing = [name for name, value in fields.items() if value is None or value == ()]
    if missing:
        raise ValidationError(f"{command} needs {', '.join(missing)} in the system file")


def _require_char_vectors(spec: SystemSpec):
    for lp in spec.projectors:
        if lp.chi is None:
            with located(f"projector {lp.label!r}"):
                raise ValidationError("must be a characteristic vector for the classical command")


def cmd_classical(spec: SystemSpec, args) -> tuple[str, dict]:
    _require(spec, "classical", cycle=spec.cycle, projectors=spec.projectors)
    _require_char_vectors(spec)
    f = dwell_fractions(spec.cycle)
    rho = DensityMatrix(classical_density(f), mode=spec.mode, tol=args.tol)
    rows, sets = [], []
    for lp in spec.projectors:
        s = PerceptionSet(lp.chi)
        p_cl = classical_prob(s, f)
        p_tr = trace_prob(Projector(diag_projector(s), mode=spec.mode, tol=args.tol), rho)
        rows.append([lp.label, _fmt(p_cl), _fmt(p_tr), _fmt(abs(p_cl - p_tr))])
        sets.append(
            {
                "label": lp.label,
                "chi": list(lp.chi),
                "classical_prob": p_cl,
                "trace_prob": p_tr,
                "abs_diff": abs(p_cl - p_tr),
            }
        )
    text = "\n".join(
        [
            f"cycle: n={spec.cycle.n}, period={_fmt(spec.cycle.period)}",
            "dwell fractions: " + "  ".join(_fmt(x) for x in f.f),
            "diagonal density matrix:",
            _fmt_matrix(rho.mat),
            "",
            _table(["set", "classical", "trace-rule", "|diff|"], rows),
        ]
    )
    payload = {
        "fractions": list(f.f),
        "rho": matrix_to_rows(rho.mat),
        "sets": sets,
    }
    return text, payload


def cmd_quantum(spec: SystemSpec, args) -> tuple[str, dict]:
    _require(spec, "quantum", rho=spec.rho, projectors=spec.projectors)
    have_h = spec.hamiltonian is not None
    rho_deph = dephase(spec.rho, spec.hamiltonian) if have_h else None
    headers = ["projector", "probability"] + (["compliant", "dephased"] if have_h else [])
    rows, entries = [], []
    for lp in spec.projectors:
        p = trace_prob(lp.projector, spec.rho)
        entry = {"label": lp.label, "probability": p}
        row = [lp.label, _fmt(p)]
        if have_h:
            ok = is_superselection_compliant(lp.projector, spec.hamiltonian)
            pd = trace_prob(lp.projector, rho_deph)
            entry["compliant"] = ok
            entry["dephased_probability"] = pd
            row += ["yes" if ok else "no", _fmt(pd)]
        rows.append(row)
        entries.append(entry)
    text = _table(headers, rows)
    payload = {"projectors": entries}
    if have_h:
        payload["rho_dephased"] = matrix_to_rows(rho_deph.mat)
    return text, payload


def cmd_dephase(spec: SystemSpec, args) -> tuple[str, dict]:
    _require(spec, "dephase", rho=spec.rho, hamiltonian=spec.hamiltonian)
    blocks = energy_blocks(spec.hamiltonian)
    rho_deph = dephase(spec.rho, spec.hamiltonian)
    tr = trace(rho_deph.mat).real
    lines = [f"energy blocks: {blocks.count}"]
    for k, (energy, cluster) in enumerate(zip(blocks.energies, blocks.clusters)):
        lines.append(f"  block {k}: energy={_fmt(energy)}, eigenvector indices={list(cluster)}")
    lines += ["dephased density matrix:", _fmt_matrix(rho_deph.mat), f"trace: {_fmt(tr)}"]
    payload = {
        "blocks": {
            "count": blocks.count,
            "energies": list(blocks.energies),
            "clusters": [list(c) for c in blocks.clusters],
        },
        "rho_dephased": matrix_to_rows(rho_deph.mat),
        "trace": tr,
    }
    return "\n".join(lines), payload


def cmd_measure(spec: SystemSpec, args) -> tuple[str, dict]:
    _require(spec, "measure", algebra=spec.algebra, rho=spec.rho)
    alg, rho = spec.algebra, spec.rho
    total = total_measure(alg, rho)
    rows, atoms = [], []
    for label in alg.labels:
        m = measure_of(alg, {label}, rho)
        p = normalized_prob(alg, {label}, rho)
        rows.append([label, _fmt(m), _fmt(p)])
        atoms.append({"label": label, "measure": m, "normalized_prob": p})
    text = "\n".join(
        [_table(["atom", "measure", "normalized"], rows), f"total measure: {_fmt(total)}"]
    )
    return text, {"atoms": atoms, "total_measure": total}


def cmd_sample(spec: SystemSpec, args) -> tuple[str, dict]:
    if spec.cycle is not None:
        report = sample_classical(spec.cycle, args.n, args.seed)
    elif spec.rho is not None and spec.projectors:
        report = sample_measurement(
            [lp.projector for lp in spec.projectors],
            spec.rho,
            args.n,
            args.seed,
            labels=[lp.label for lp in spec.projectors],
        )
    else:
        raise ValidationError("sample needs a cycle, or projectors plus rho, in the system file")
    passed = deviation_check(report, SIGMA_MULTIPLIER)
    rows = [
        [o, str(c), _fmt(f), _fmt(e)]
        for o, c, f, e in zip(
            report.outcomes, report.counts, report.empirical_freqs, report.expected_probs
        )
    ]
    text = "\n".join(
        [
            _table(["outcome", "count", "frequency", "expected"], rows),
            f"max |frequency - expected|: {_fmt(report.max_abs_deviation)}",
            f"deviation check (5 sigma): {'pass' if passed else 'FAIL'}",
        ]
    )
    payload = report.to_obj()
    payload["deviation_check_5sigma"] = passed
    return text, payload


def cmd_check(spec: SystemSpec, args) -> tuple[str, dict]:
    names = ("cycle", "rho", "hamiltonian", "projectors", "algebra")
    fields = [name for name in names if getattr(spec, name) not in (None, ())]
    if spec.cycle is not None and spec.projectors:
        _require_char_vectors(spec)
    lines = [
        f"fields: {', '.join(fields) if fields else '(none)'}",
        f"dimension: {spec.dim if spec.dim is not None else '(none)'}",
        f"reality mode: {spec.mode.value}",
    ]
    if spec.hamiltonian is not None and spec.projectors:
        for lp in spec.projectors:
            ok = is_superselection_compliant(lp.projector, spec.hamiltonian)
            lines.append(f"projector {lp.label!r} superselection-compliant: {'yes' if ok else 'no'}")
    lines.append("all validations passed")
    payload = {"ok": True, "fields": fields, "dim": spec.dim, "reality_mode": spec.mode.value}
    return "\n".join(lines), payload


_COMMANDS = {
    "classical": cmd_classical,
    "quantum": cmd_quantum,
    "dephase": cmd_dephase,
    "measure": cmd_measure,
    "sample": cmd_sample,
    "check": cmd_check,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print(f"error[Usage]: {message}", file=sys.stderr)
        raise SystemExit(2)


def build_parser() -> argparse.ArgumentParser:
    common = _Parser(add_help=False)
    common.add_argument("--spec", required=True, metavar="PATH", help="system description file")
    common.add_argument("--json", action="store_true", help="emit machine-readable JSON")
    common.add_argument("--out", metavar="PATH", help="write output to this file instead of stdout")
    common.add_argument("--real", action="store_true", help="enforce real-amplitude mode")
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="validation tolerance")

    parser = _Parser(prog="traceprob", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "classical": "dwell-fraction probabilities with the trace-rule cross-check",
        "quantum": "trace-rule probabilities per projector (plus dephasing if a hamiltonian is present)",
        "dephase": "energy blocks and the time-averaged density matrix",
        "measure": "positive-operator measures, total, and normalized probabilities",
        "sample": "Monte Carlo sampling with a 5-sigma deviation check",
        "check": "run all validations on a system file",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "sample":
            p.add_argument("--n", type=int, default=100000, help="number of samples")
            p.add_argument("--seed", type=int, default=0, help="generator seed")
    return parser


def _fail(category: str, message) -> int:
    print(f"error[{category}]: {message}", file=sys.stderr)
    return 1


def _attach_tol_values(argv: list[str]) -> list[str]:
    """``--tol X`` as ``--tol=X``, so that argparse reads no value like ``-1e-10`` as an option."""
    rest = iter(argv)
    return [f"--tol={next(rest, '')}" if arg == "--tol" else arg for arg in rest]


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_tol_values(sys.argv[1:] if argv is None else argv))
    mode = RealityMode.REAL if args.real else None
    try:
        if not (math.isfinite(args.tol) and args.tol > 0.0):
            raise ValidationError(f"--tol must be finite and > 0, got {args.tol!r}")
        spec = load_system_spec(args.spec, mode_override=mode, tol=args.tol)
        text, payload = _COMMANDS[args.command](spec, args)
    except TraceProbError as exc:
        return _fail(type(exc).__name__.removesuffix("Error"), exc)
    output = json.dumps(payload, indent=2) + "\n" if args.json else text + "\n"
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        except OSError as exc:
            return _fail("Output", f"cannot write {args.out}: {exc.strerror or exc}")
    else:
        sys.stdout.write(output)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
