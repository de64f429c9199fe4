"""Batch command-line front-end.

One system description file per invocation; the subcommand selects the
pipeline. Each subcommand computes one payload. Human-readable tables are
rendered from it and go to stdout (or the --out path); --json writes the
payload instead, exactly as ``json.dumps(indent=2)`` would, and renders no
text. All diagnostics go to stderr with a category tag. Exit status is 0 on
success and nonzero on every error path.
"""

from __future__ import annotations

import argparse
import json
import reprlib
import sys

import numpy as np

from .classical import classical_density, classical_prob, dwell_fractions
from .classical import diag_projector  # noqa: F401  (perfbench/tracer.py wraps cli.diag_projector)
from .errors import NotAPartitionError, TraceProbError, ValidationError, located
from .matcore import DEFAULT_TOL, _tol, trace
from .measure import measure_of, normalized_prob, total_measure
from .quantum import DensityMatrix, trace_prob
from .sampler import deviation_check, partition_refusal, sample_classical, sample_measurement
from .specfile import SystemSpec, load_system_spec
from .superselect import dephase, energy_blocks, is_superselection_compliant


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


# Separators of a matrix written as the value of a top-level key by
# json.dumps(indent=2): rows of [re, im] pairs, one number per line. Each
# float of the matrix follows one of the first four; the last closes it.
_MATRIX_OPEN = "[\n    [\n      [\n        "
_NEXT_ROW = "\n      ]\n    ],\n    [\n      [\n        "
_NEXT_ENTRY = "\n      ],\n      [\n        "
_IMAG = ",\n        "
_MATRIX_CLOSE = "\n      ]\n    ]\n  ]"


def _matrix_json(a: np.ndarray) -> str:
    n_rows, n_cols = a.shape
    row = [_NEXT_ENTRY, "", _IMAG, ""] * n_cols  # separator, float, separator, float, ...
    row[0] = _NEXT_ROW
    parts = row * n_rows
    parts[0] = _MATRIX_OPEN
    parts[1::2] = map(float.__repr__, np.stack([a.real, a.imag], -1).ravel().tolist())
    return "".join(parts) + _MATRIX_CLOSE


def json_text(payload: dict) -> str:
    """``json.dumps(p, indent=2)`` byte for byte, where ``p`` is ``payload``
    with each ndarray value replaced by its spec-file form (rows of ``[re, im]`` pairs).

    ``payload`` is a nonempty dict; an ndarray may appear only as a top-level
    value, and is always the ``.mat`` of an admitted operator (complex, n×n,
    n ≥ 1, finite), so each entry's ``float.__repr__`` is what the encoder
    writes. Other values go through ``json.dumps(indent=2)`` and are indented
    one level by prefixing every line break: a JSON string holds no raw
    newline. Matrices are written as one join of float reprs between fixed
    separators, at C speed; ``json.dumps`` with an indent runs the
    pure-Python encoder.
    """
    items = [
        json.dumps(key)
        + ": "
        + (_matrix_json(value) if isinstance(value, np.ndarray) else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in payload.items()
    ]
    return "{\n  " + ",\n  ".join(items) + "\n}"


# The spec fields each subcommand reads, as alternatives: it runs when every
# field of one alternative is present, and refuses with a "needs" line
# otherwise. ``check`` runs, in this order, each subcommand whose fields the spec has.
_READS = {
    "classical": (("cycle", "projectors"),),
    "quantum": (("rho", "projectors"),),
    "dephase": (("rho", "hamiltonian"),),
    "measure": (("algebra", "rho"),),
    "sample": (("cycle",), ("projectors", "rho")),
}
SAMPLE_N, SAMPLE_SEED = 100000, 0  # sample's --n and --seed defaults, at which check runs it


def _lacks(spec: SystemSpec, command: str) -> ValidationError | None:
    """The refusal of ``command`` when ``spec`` lacks a field of each of its alternatives, else None."""
    alternatives = _READS.get(command, ((),))
    missing = [[name for name in alt if getattr(spec, name) in (None, ())] for alt in alternatives]
    if not all(missing):
        return None
    if len(alternatives) == 1:
        wanted = ", ".join(missing[0])
    else:  # "a cycle, or projectors plus rho,"
        wanted = "a " + ", or ".join(" plus ".join(alt) for alt in alternatives) + ","
    return ValidationError(f"{command} needs {wanted} in the system file")


# Each cmd_* returns the payload that --json writes; matrices in it are the
# operators' own arrays. Without --json, the command's render_* turns the
# payload (and, where the payload does not carry it, the spec) into text.


def cmd_classical(spec: SystemSpec, args) -> dict:
    for lp in spec.projectors:
        if lp.pset is None:
            with located(f"projector {reprlib.repr(lp.label)}"):
                raise ValidationError("must be a characteristic vector for the classical command")
    f = dwell_fractions(spec.cycle)
    rho = DensityMatrix(classical_density(f), mode=spec.mode, tol=args.tol)
    sets = []
    for lp in spec.projectors:
        p_cl = classical_prob(lp.pset, f)
        p_tr = trace_prob(lp.projector, rho)
        sets.append(
            {
                "label": lp.label,
                "chi": list(lp.pset.chi),
                "classical_prob": p_cl,
                "trace_prob": p_tr,
                "abs_diff": abs(p_cl - p_tr),
            }
        )
    return {"fractions": list(f.f), "rho": rho.mat, "sets": sets}


def render_classical(spec: SystemSpec, payload: dict) -> str:
    rows = [
        [s["label"], _fmt(s["classical_prob"]), _fmt(s["trace_prob"]), _fmt(s["abs_diff"])] for s in payload["sets"]
    ]
    return "\n".join(
        [
            f"cycle: n={spec.cycle.n}, period={_fmt(spec.cycle.period)}",
            "dwell fractions: " + "  ".join(_fmt(x) for x in payload["fractions"]),
            "diagonal density matrix:",
            _fmt_matrix(payload["rho"]),
            "",
            _table(["set", "classical", "trace-rule", "|diff|"], rows),
        ]
    )


def cmd_quantum(spec: SystemSpec, args) -> dict:
    have_h = spec.hamiltonian is not None
    rho_deph = dephase(spec.rho, spec.hamiltonian) if have_h else None
    entries = []
    for lp in spec.projectors:
        entry = {"label": lp.label, "probability": trace_prob(lp.projector, spec.rho)}
        if have_h:
            entry["compliant"] = is_superselection_compliant(lp.projector, spec.hamiltonian)
            entry["dephased_probability"] = trace_prob(lp.projector, rho_deph)
        entries.append(entry)
    payload = {"projectors": entries}
    if have_h:
        payload["rho_dephased"] = rho_deph.mat
    return payload


def render_quantum(spec: SystemSpec, payload: dict) -> str:
    have_h = "rho_dephased" in payload
    headers = ["projector", "probability"] + (["compliant", "dephased"] if have_h else [])
    rows = []
    for e in payload["projectors"]:
        row = [e["label"], _fmt(e["probability"])]
        if have_h:
            row += ["yes" if e["compliant"] else "no", _fmt(e["dephased_probability"])]
        rows.append(row)
    return _table(headers, rows)


def cmd_dephase(spec: SystemSpec, args) -> dict:
    blocks = energy_blocks(spec.hamiltonian)
    rho_deph = dephase(spec.rho, spec.hamiltonian)
    return {
        "blocks": {
            "count": blocks.count,
            "energies": list(blocks.energies),
            "clusters": [list(c) for c in blocks.clusters],
        },
        "rho_dephased": rho_deph.mat,
        "trace": trace(rho_deph.mat).real,
    }


def render_dephase(spec: SystemSpec, payload: dict) -> str:
    blocks = payload["blocks"]
    lines = [f"energy blocks: {blocks['count']}"]
    for k, (energy, cluster) in enumerate(zip(blocks["energies"], blocks["clusters"])):
        lines.append(f"  block {k}: energy={_fmt(energy)}, eigenvector indices={cluster}")
    lines += ["dephased density matrix:", _fmt_matrix(payload["rho_dephased"]), f"trace: {_fmt(payload['trace'])}"]
    return "\n".join(lines)


def cmd_measure(spec: SystemSpec, args) -> dict:
    alg, rho = spec.algebra, spec.rho
    total = total_measure(alg, rho)
    atoms = [
        {"label": label, "measure": measure_of(alg, {label}, rho), "normalized_prob": normalized_prob(alg, {label}, rho)}
        for label in alg.labels
    ]
    return {"atoms": atoms, "total_measure": total}


def render_measure(spec: SystemSpec, payload: dict) -> str:
    rows = [[a["label"], _fmt(a["measure"]), _fmt(a["normalized_prob"])] for a in payload["atoms"]]
    return "\n".join(
        [_table(["atom", "measure", "normalized"], rows), f"total measure: {_fmt(payload['total_measure'])}"]
    )


def cmd_sample(spec: SystemSpec, args) -> dict:
    if spec.cycle is not None:
        report = sample_classical(spec.cycle, args.n, args.seed)
    else:
        report = sample_measurement(
            [lp.projector for lp in spec.projectors],
            spec.rho,
            args.n,
            args.seed,
            labels=[lp.label for lp in spec.projectors],
        )
    payload = report.to_obj()
    payload["deviation_check_5sigma"] = deviation_check(report)
    return payload


def render_sample(spec: SystemSpec, payload: dict) -> str:
    columns = zip(payload["outcomes"], payload["counts"], payload["empirical_freqs"], payload["expected_probs"])
    rows = [[o, str(c), _fmt(f), _fmt(e)] for o, c, f, e in columns]
    return "\n".join(
        [
            _table(["outcome", "count", "frequency", "expected"], rows),
            f"max |frequency - expected|: {_fmt(payload['max_abs_deviation'])}",
            f"deviation check (5 sigma): {'pass' if payload['deviation_check_5sigma'] else 'FAIL'}",
        ]
    )


def cmd_check(spec: SystemSpec, args) -> dict:
    """Run every subcommand whose fields the spec has, ``sample`` at its
    defaults, and keep their payloads; the first refusal names its subcommand.
    ``dephase`` is skipped where ``quantum`` already dephased rho.
    With a hamiltonian and projectors, ``compliant`` holds each projector's sector compliance."""
    run_args = argparse.Namespace(**vars(args), n=SAMPLE_N, seed=SAMPLE_SEED)
    ran = {}
    for command in _READS:
        if command == "dephase" and "quantum" in ran and spec.hamiltonian is not None:
            continue  # quantum made dephase's one call that can refuse, on the same operators
        if _lacks(spec, command) is None:
            try:
                with located(command):
                    ran[command] = _COMMANDS[command](spec, run_args)
            except NotAPartitionError:  # projectors that are no partition are quantum input only
                if partition_refusal([lp.projector for lp in spec.projectors], spec.rho.dim) is None:
                    raise  # a partition's refusal, of its outcome weights, stands
    names = ("cycle", "rho", "hamiltonian", "projectors", "algebra")
    fields = [name for name in names if getattr(spec, name) not in (None, ())]
    payload = {"ok": True, "fields": fields, "dim": spec.dim, "reality_mode": spec.mode.value}
    if "quantum" in ran and spec.hamiltonian is not None:  # quantum computed each verdict
        payload["compliant"] = {e["label"]: e["compliant"] for e in ran["quantum"]["projectors"]}
    elif (h := spec.hamiltonian) is not None and spec.projectors:  # without rho, quantum did not run
        payload["compliant"] = {lp.label: is_superselection_compliant(lp.projector, h) for lp in spec.projectors}
    return payload


def render_check(spec: SystemSpec, payload: dict) -> str:
    fields, dim = payload["fields"], payload["dim"]
    lines = [
        f"fields: {', '.join(fields) if fields else '(none)'}",
        f"dimension: {dim if dim is not None else '(none)'}",
        f"reality mode: {payload['reality_mode']}",
    ]
    for label, ok in payload.get("compliant", {}).items():
        lines.append(f"projector {label!r} superselection-compliant: {'yes' if ok else 'no'}")
    lines.append("all validations passed")
    return "\n".join(lines)


_COMMANDS = {
    "classical": cmd_classical,
    "quantum": cmd_quantum,
    "dephase": cmd_dephase,
    "measure": cmd_measure,
    "sample": cmd_sample,
    "check": cmd_check,
}
_RENDERERS = {
    "classical": render_classical,
    "quantum": render_quantum,
    "dephase": render_dephase,
    "measure": render_measure,
    "sample": render_sample,
    "check": render_check,
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
    common.add_argument("--tol", type=float, default=DEFAULT_TOL, help="validation tolerance")

    parser = _Parser(prog="traceprob", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "classical": "dwell-fraction probabilities with the trace-rule cross-check",
        "quantum": "trace-rule probabilities per projector (plus dephasing if a hamiltonian is present)",
        "dephase": "energy blocks and the time-averaged density matrix",
        "measure": "positive-operator measures, total, and normalized probabilities",
        "sample": "Monte Carlo sampling with a 5-sigma deviation check",
        "check": "validate a system file by running every subcommand that applies to it",
    }
    for name, fn in _COMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=helps[name])
        if name == "sample":
            p.add_argument("--n", type=int, default=SAMPLE_N, help="number of samples")
            p.add_argument("--seed", type=int, default=SAMPLE_SEED, help="generator seed")
    return parser


def _fail(category: str, message) -> int:
    print(f"error[{category}]: {message}", file=sys.stderr)
    return 1


def _attach_tol_values(argv: list[str]) -> list[str]:
    """``--tol X`` as ``--tol=X``, so that argparse reads no value like ``-1e-10`` as an option."""
    rest = iter(argv)
    return [f"--tol={next(rest, '')}" if arg == "--tol" else arg for arg in rest]


_PARSER = build_parser()


def main(argv=None) -> int:
    args = _PARSER.parse_args(_attach_tol_values(sys.argv[1:] if argv is None else argv))
    try:
        spec = load_system_spec(args.spec, tol=_tol(args.tol, "--tol"))
        refusal = _lacks(spec, args.command)
        if refusal is not None:
            raise refusal
        payload = _COMMANDS[args.command](spec, args)
        output = (json_text(payload) if args.json else _RENDERERS[args.command](spec, payload)) + "\n"
    except TraceProbError as exc:
        return _fail(type(exc).__name__.removesuffix("Error"), exc)
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
