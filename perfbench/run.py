"""Benchmark of the traceprob CLI and library.

Usage:
    python3 perfbench/run.py --workload {spectral,sample,query,all}
        [--seed N] [--seconds S] [--trace 0|1]

One process, one client, closed loop: the next call starts when the previous
one returns. With --trace 0 the run reports the end-to-end metrics; with
--trace 1 it alternates untraced and traced calls and reports the per-layer
metrics. Every result is checked against an independent numpy oracle. The
metric names and units come from BENCHMARK.json; the last line of standard
output is one JSON object with the result.
"""

import os

# Pin BLAS and OpenMP to one thread before numpy loads, here and in every
# child process, so call latencies do not depend on thread scheduling.
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in THREAD_PINS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("spectral", "sample", "query")
# Set-up runs in this many fresh processes per run; setup_s is their median.
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# What the traced run is expected to show at today's code (the benchmark's
# design assumptions). They are reported, never enforced: an optimisation is
# meant to move them.
DESIGN = {
    "spectral": [("superselect.share", ">", 40.0)],
    "sample": [("sampler.share", ">", 70.0), ("superselect.energy_blocks.calls", "==", 0), ("superselect.compliance.calls", "==", 0)],
    "query": [
        ("specfile.load.calls", "==", 0),
        ("matcore.matrix_from_rows.calls", "==", 0),
        ("superselect.energy_blocks.calls", "==", 0),
        ("superselect.compliance.calls", "==", 0),
    ],
}
_OPS = {">": lambda a, b: a > b, ">=": lambda a, b: a >= b, "==": lambda a, b: a == b}


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """The pct-th percentile (nearest rank) and the number of samples beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct * len(ordered) / 100))
    return ordered[rank - 1], len(ordered) - rank


def new_record() -> dict:
    return {"latencies": [], "results": {}, "raised": 0, "errors": [], "wall": 0.0}


def run_phase(records: list[dict], calls: list, seconds: float) -> None:
    """Closed loop for `seconds`, taking the calls in turn; call i adds to records[i].

    A record keeps latencies, distinct results with their counts, failures
    and the loop's wall time. Interleaving keeps slow drift of the machine
    out of comparisons between the call functions.
    """
    clock = time.perf_counter
    start, i = clock(), 0
    while clock() - start < seconds:
        record, call = records[i % len(calls)], calls[i % len(calls)]
        i += 1
        t0 = clock()
        try:
            result = call()
        except (Exception, SystemExit) as exc:  # a failing call is counted, not fatal
            result = None
            record["raised"] += 1
            if len(record["errors"]) < 3:
                record["errors"].append(f"{type(exc).__name__}: {exc}")
        record["latencies"].append(clock() - t0)
        if result is not None:
            record["results"][result] = record["results"].get(result, 0) + 1
    wall = clock() - start
    for record in records:
        record["wall"] += wall


def evaluate(workload, phases: list[dict], reference) -> tuple[int, int, float, list[str]]:
    """(attempted, failed, largest oracle deviation, problems) over the phases' calls."""
    attempted = sum(len(p["latencies"]) for p in phases)
    failed = sum(p["raised"] for p in phases)
    problems = [e for p in phases for e in p["errors"]]
    counts: dict = {}
    for p in phases:
        for result, n in p["results"].items():
            counts[result] = counts.get(result, 0) + n
    max_err = 0.0
    for result, n in counts.items():
        try:
            check = workload.check(result)
            bad = list(check.problems)
            max_err = max(max_err, check.max_abs_err)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            bad = [f"malformed output: {type(exc).__name__}: {exc}"]
        if workload.same_as_first and result != reference:
            bad.append("output differs from the first call's output for the same seed")
        if bad:
            failed += n
            problems += bad
    return attempted, failed, max_err, list(dict.fromkeys(problems))


def warm_up(job):
    """Set the job up and make its first call; the result is the reference for later calls."""
    job.setup()
    try:
        return job.call()
    except (Exception, SystemExit):  # the timed calls will fail the same way and be counted
        return None


def probe(job_file: Path) -> tuple[float, float]:
    """(set-up seconds, peak RSS in MB) of one set-up in a fresh interpreter (see probe.py)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "probe.py"), str(SRC), str(job_file)],
        env=dict(os.environ, PYTHONDONTWRITEBYTECODE="1"),
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {done.stderr.strip()}")
    seconds, rss_mb = done.stdout.strip().splitlines()[-1].split()
    return float(seconds), float(rss_mb)


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=False)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": {var: os.environ[var] for var in THREAD_PINS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
    }


def output_bytes(result) -> int:
    return sum(len(o.encode()) for o in result if isinstance(o, str))


def plain_run(workload, seconds: float, workdir: Path) -> tuple[dict, dict]:
    job_file = workdir / "job.json"
    job_file.write_text(json.dumps(workload.job.describe()), encoding="utf-8")
    reference = warm_up(workload.job)
    # The set-ups alternate with equal slices of the timed loop, so both
    # sample the machine over the whole run rather than one moment of it.
    phase, probes = new_record(), []
    for _ in range(SETUP_PROBES):
        probes.append(probe(job_file))
        run_phase([phase], [workload.job.call], seconds / SETUP_PROBES)
    attempted, failed, max_err, problems = evaluate(workload, [phase], reference)
    lat_ms = [x * 1e3 for x in phase["latencies"]]
    tail_ms, beyond = tail(lat_ms, workload.tail_pct)
    setups = [s for s, _ in probes]
    metrics = {
        "calls_per_s": len(lat_ms) / phase["wall"],
        "call_p50_ms": statistics.median(lat_ms),
        "call_tail_ms": tail_ms,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rss for _, rss in probes),
    }
    notes = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "rule.max_abs_err": max_err,
        "problems": problems[:10],
        "call_tail": f"p{workload.tail_pct} of {len(lat_ms)} calls, {beyond} beyond it",
        "setup_probes_s": setups,
        "timed_wall_s": phase["wall"],
    }
    return metrics, notes


def traced_run(workload, seconds: float, workdir: Path) -> tuple[dict, dict]:
    import traceprob
    import traceprob.cli  # noqa: F401  (the tracer wraps names in every submodule)

    import tracer as tracing

    reference = warm_up(workload.job)
    tr = tracing.Tracer()
    boundaries = tracing.targets(traceprob)

    def traced_call():
        tr.install(boundaries)
        try:
            return tr.traced_call(workload.job.call)
        finally:
            tr.uninstall()

    untraced, traced = new_record(), new_record()
    run_phase([untraced, traced], [workload.job.call, traced_call], seconds)
    attempted, failed, max_err, problems = evaluate(workload, [untraced, traced], reference)
    sizes = [output_bytes(r) for r, n in traced["results"].items() for _ in range(n)]
    metrics = tracing.layer_metrics(tr.per_call(), sizes)
    # Calls alternate, so each kind's rate is its calls over its own busy time.
    untraced_cps = len(untraced["latencies"]) / sum(untraced["latencies"])
    traced_cps = len(traced["latencies"]) / sum(traced["latencies"])
    metrics.update(
        {
            "rule.max_abs_err": max_err,
            "trace.overhead_ratio": traced_cps / untraced_cps,
            "trace.traced_calls_per_s": traced_cps,
            "trace.untraced_calls_per_s": untraced_cps,
        }
    )
    tr.dump(workdir / "spans.jsonl")
    notes = {
        "attempted": attempted,
        "failed": failed,
        "fail_ratio": failed / attempted,
        "problems": problems[:10],
        "traced_calls": len(traced["latencies"]),
        "untraced_calls": len(untraced["latencies"]),
    }
    return metrics, notes


def run_all(args) -> int:
    """Run every workload in its own process and combine their results."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(argv, capture_output=True, text=True, check=False)
        lines = done.stdout.strip().splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "traceprob" / "__init__.py").is_file():
        print(f"error: no traceprob sources under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)

    wanted = spec["per_layer" if args.trace else "end_to_end"]

    sys.path.insert(0, str(SRC))
    import traceprob

    if not traceprob.__file__.startswith(str(SRC)):
        print(f"error: traceprob imported from {traceprob.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import workloads

    workdir = WORK / args.workload
    workdir.mkdir(parents=True, exist_ok=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
    run = traced_run if args.trace else plain_run
    metrics, notes = run(workload, args.seconds, workdir)
    if args.trace:
        notes["design"] = [
            f"{name} = {metrics[name]:.4g} (predicted {op} {want}): {'holds' if _OPS[op](metrics[name], want) else 'DOES NOT HOLD'}"
            for name, op, want in DESIGN[args.workload]
        ]

    result = {
        "correct": notes["failed"] == 0,
        "attempted": notes["attempted"],
        "failed": notes["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace, "env": environment(), **notes, "result": result}
    (workdir / f"run-trace{args.trace}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"workload {args.workload}: seed {args.seed}, {args.seconds:g} s, one client in a closed loop")
    for name, value in result["metrics"].items():
        print(f"  {name:34s} {value['value']:.6g} {value['unit']}")
    for key in ("fail_ratio", "rule.max_abs_err", "call_tail", "setup_probes_s", "traced_calls", "untraced_calls"):
        if key in notes:
            print(f"  {key:34s} {notes[key]}")
    print(f"  {'failed / attempted':34s} {notes['failed']} / {notes['attempted']}")
    for line in notes.get("design", []):
        print(f"  design: {line}")
    for problem in notes["problems"]:
        print(f"  problem: {problem}")
    print(f"env: {json.dumps(record['env'])}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
