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
import contextlib
import json
import os
import reprlib
import sys

import numpy as np
import orjson

from .classical import PerceptionSet, classical_density, classical_prob, dwell_fractions
from .classical import diag_projector  # noqa: F401  (perfbench/tracer.py wraps cli.diag_projector)
from .errors import NotAPartitionError, TraceProbError, ValidationError, located
from .matcore import DEFAULT_TOL, _tol, _trace
from .measure import measure_of, normalized_prob, total_measure
from .quantum import DensityMatrix, trace_prob
from .sampler import deviation_check, sample_classical, sample_measurement
from .specfile import SystemSpec, _projector, load_system_spec
from .superselect import dephase, energy_blocks, is_superselection_compliant


def _fmt(x: float) -> str:
    return f"{float(x):.12g}"


_ENTRY = "%.10g%+.10gj"  # one complex entry of a text matrix: "1.5-0.25j"


def _fmt_matrix(a: np.ndarray) -> str:
    """One line per row, each row formatted by one ``%``; where fewer than half
    the entries differ from +0.0+0.0j (a diagonal matrix), those are written
    as the text "0+0j" and only the others take a ``%``."""
    n_rows, n_cols = a.shape
    values = np.stack([a.real, a.imag], -1)
    written = ((values != 0.0) | np.signbit(values)).any(-1)  # the entries other than +0.0+0.0j
    if 2 * np.count_nonzero(written) < written.size:
        entries = [["0+0j"] * n_cols for _ in range(n_rows)]
        for (i, j), pair in zip(np.argwhere(written).tolist(), values[written].tolist()):
            entries[i][j] = _ENTRY % tuple(pair)
        rows = map("  ".join, entries)
    else:
        template = "  ".join([_ENTRY] * n_cols)
        rows = (template % tuple(row) for row in values.reshape(n_rows, 2 * n_cols).tolist())
    return "\n".join("  [ " + row + " ]" for row in rows)


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
    row = [_NEXT_ENTRY, "0.0", _IMAG, "0.0"] * n_cols  # separator, float, separator, float, ...
    row[0] = _NEXT_ROW
    parts = row * n_rows
    parts[0] = _MATRIX_OPEN
    values = np.stack([a.real, a.imag], -1).ravel()
    written = (values != 0.0) | np.signbit(values)  # the floats other than +0.0, whose repr is "0.0"
    if 2 * np.count_nonzero(written) < values.size:
        for k, text in zip((2 * np.flatnonzero(written) + 1).tolist(), map(float.__repr__, values[written].tolist())):
            parts[k] = text
    else:
        parts[1::2] = _float_texts(values)
    return "".join(parts) + _MATRIX_CLOSE


def _float_texts(values: np.ndarray) -> list[str]:
    """``float.__repr__`` of each float of ``values``, a finite float64 vector, from orjson's digits.

    orjson writes the shortest round-trip digits, as ``repr`` does, in C. Its
    text differs from ``repr``'s in two layouts only, and both are rewritten
    over the whole array: 1e-5 <= |x| < 1e-4 is positional ("0.000012" for
    "1.2e-05"), and an exponent has no sign or zero padding ("1e-7", "1e16"
    for "1e-07", "1e+16"). The signs come from ``np.signbit``, since orjson
    writes |x|. 24 bytes hold every repr: "-2.2250738585072014e-308".
    """
    dumped = orjson.dumps(np.abs(values), option=orjson.OPT_SERIALIZE_NUMPY)  # "[1e-7,0.5,...]"
    tokens = np.array(dumped[1:-1].split(b","), dtype="S24")
    exponent_form = np.char.find(tokens, b"e") >= 0
    if exponent_form.any():
        mantissa, _, exponent = np.char.partition(tokens[exponent_form], b"e").T
        sign = np.where(np.char.startswith(exponent, b"-"), b"e-", b"e+")
        digits = np.char.zfill(np.char.lstrip(exponent, b"-"), 2)
        tokens[exponent_form] = np.char.add(np.char.add(mantissa, sign), digits)
    positional = np.char.startswith(tokens, b"0.0000")  # 1e-5 <= |x| < 1e-4: "0.0000" and the digits
    if positional.any():
        digits = np.char.lstrip(tokens[positional], b"0.")
        # "." after the first digit, on the bytes of each token
        grid = np.insert(digits.view(np.uint8).reshape(len(digits), -1), 1, ord("."), axis=1)
        dotted = grid.view(f"S{grid.shape[1]}").ravel()
        tokens[positional] = np.char.add(np.char.rstrip(dotted, b"."), b"e-05")  # "1." (for 1e-05) loses its point
    signed = np.char.add(np.where(np.signbit(values), b"-", b""), tokens)
    return b",".join(signed.tolist()).decode().split(",")


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
    pure-Python encoder. A dense matrix's reprs are rewritten from orjson's
    digits by :func:`_float_texts`. Where most of a matrix's floats are +0.0
    (a diagonal one), they are written as the text "0.0" and only the others
    take a ``repr``.
    """
    items = [
        json.dumps(key)
        + ": "
        + (_matrix_json(value) if isinstance(value, np.ndarray) else json.dumps(value, indent=2).replace("\n", "\n  "))
        for key, value in payload.items()
    ]
    return "{\n  " + ",\n  ".join(items) + "\n}"


SAMPLE_N, SAMPLE_SEED = 100000, 0  # sample's --n and --seed defaults, at which check runs it


def _lacks(spec: SystemSpec, command: str) -> ValidationError | None:
    """The refusal of ``command`` when ``spec`` lacks a field of each of its alternatives, else None."""
    alternatives = _SUBCOMMANDS[command][0]
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
    for label, entry in spec.projectors:
        if not isinstance(entry, PerceptionSet):
            with located(f"projector {reprlib.repr(label)}"):
                raise ValidationError("must be a characteristic vector for the classical command")
    f = dwell_fractions(spec.cycle)
    rho = DensityMatrix(classical_density(f), mode=spec.mode, tol=args.tol)
    sets = []
    for label, pset in spec.projectors:
        p_cl = classical_prob(pset, f)
        p_tr = trace_prob(_projector(pset), rho)
        sets.append(
            {
                "label": label,
                "chi": list(pset.chi),
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
    for label, e in spec.projectors:
        p = _projector(e)
        entry = {"label": label, "probability": trace_prob(p, spec.rho)}
        if have_h:
            entry["compliant"] = is_superselection_compliant(p, spec.hamiltonian)
            entry["dephased_probability"] = trace_prob(p, rho_deph)
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
            "count": len(blocks),
            "energies": [energy for energy, _ in blocks],
            "clusters": [list(indices) for _, indices in blocks],
        },
        "rho_dephased": rho_deph.mat,
        "trace": _trace(rho_deph.mat).real,
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
        labels, entries = zip(*spec.projectors)
        report = sample_measurement([_projector(e) for e in entries], spec.rho, args.n, args.seed, labels=labels)
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
    ``dephase`` is skipped where ``quantum`` already dephased rho, and ``sample``
    where it finds no partition: such projectors are ``quantum`` input only.
    With a hamiltonian and projectors, ``compliant`` holds each projector's sector compliance."""
    run_args = argparse.Namespace(**vars(args), n=SAMPLE_N, seed=SAMPLE_SEED)
    ran = {}
    for command in _SUBCOMMANDS:
        if command == "check":
            break  # the last row: every other subcommand has had its turn
        if command == "dephase" and "quantum" in ran and spec.hamiltonian is not None:
            continue  # quantum made dephase's one call that can refuse, on the same operators
        if _lacks(spec, command) is None:
            with contextlib.suppress(NotAPartitionError), located(command):
                ran[command] = _COMMANDS[command](spec, run_args)
    names = ("cycle", "rho", "hamiltonian", "projectors", "algebra")
    fields = [name for name in names if getattr(spec, name) not in (None, ())]
    payload = {"ok": True, "fields": fields, "dim": spec.dim, "reality_mode": spec.mode.value}
    if "quantum" in ran and spec.hamiltonian is not None:  # quantum computed each verdict
        payload["compliant"] = {e["label"]: e["compliant"] for e in ran["quantum"]["projectors"]}
    elif (h := spec.hamiltonian) is not None and spec.projectors:  # without rho, quantum did not run
        payload["compliant"] = {label: is_superselection_compliant(_projector(e), h) for label, e in spec.projectors}
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


# One row per subcommand: the spec fields it reads, as alternatives (it runs
# when every field of one alternative is present, and refuses with a "needs"
# line otherwise), its payload function, its renderer and its help line.
# ``check`` runs, in this order, each subcommand above it whose fields the spec has.
# fmt: off
_SUBCOMMANDS = {
    "classical": ((("cycle", "projectors"),), cmd_classical, render_classical,
                  "dwell-fraction probabilities with the trace-rule cross-check"),
    "quantum":   ((("rho", "projectors"),), cmd_quantum, render_quantum,
                  "trace-rule probabilities per projector (plus dephasing if a hamiltonian is present)"),
    "dephase":   ((("rho", "hamiltonian"),), cmd_dephase, render_dephase,
                  "energy blocks and the time-averaged density matrix"),
    "measure":   ((("algebra", "rho"),), cmd_measure, render_measure,
                  "positive-operator measures, total, and normalized probabilities"),
    "sample":    ((("cycle",), ("projectors", "rho")), cmd_sample, render_sample,
                  "Monte Carlo sampling with a 5-sigma deviation check"),
    "check":     (((),), cmd_check, render_check,
                  "validate a system file by running every subcommand that applies to it"),
}
# fmt: on
# main and check call each payload function through this dict, whose entries perfbench/tracer.py wraps.
_COMMANDS = {name: run for name, (_, run, _, _) in _SUBCOMMANDS.items()}


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
    for name, (_, _, _, help_line) in _SUBCOMMANDS.items():
        p = sub.add_parser(name, parents=[common], help=help_line)
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
        output = (json_text(payload) if args.json else _SUBCOMMANDS[args.command][2](spec, payload)) + "\n"
    except TraceProbError as exc:
        return _fail(type(exc).__name__.removesuffix("Error"), exc)
    try:
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(output)
        else:
            sys.stdout.write(output)
            sys.stdout.flush()
    except OSError as exc:  # a path that cannot be opened, a closed pipe or a full disk
        if not args.out:  # the interpreter's last flush of stdout goes to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return _fail("Output", f"cannot write {args.out or 'stdout'}: {exc.strerror or exc}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
