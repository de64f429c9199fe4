"""Run the benchmark repeatedly and report each metric's spread against its bound.

Usage:
    python3 perfbench/steadiness.py --runs 10 [--workloads spectral sample ...]
        [--first-seed 100] [--seconds S] --save runs.json
    python3 perfbench/steadiness.py --compare first.json second.json

A run set uses one seed per run (first-seed, first-seed + 1, ...) and measures
the end-to-end metrics. The spread of a metric is the distance between the
first and third quartiles of its values, as a share of their median.
--compare reports how far each set's median is worse than the other's, as a
share of the other's, and keeps the larger of the two directions.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
METRICS = {m["name"]: m for m in SPEC["end_to_end"]}


def spread(values: list[float]) -> float:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median


def collect(args) -> dict:
    runs: dict[str, list[dict]] = {}
    for workload in args.workloads:
        for i in range(args.runs):
            seed = args.first_seed + i
            argv = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, check=False)
            if done.returncode != 0:
                sys.exit(f"{workload} seed {seed} exited {done.returncode}: {done.stderr.strip()}")
            result = json.loads(done.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} " + " ".join(f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
    return runs


def spread_table(runs: dict) -> str:
    lines = ["| workload | metric | median | spread | bound | within bound | within a third of bound |", "|---|---|---|---|---|---|---|"]
    for workload, results in runs.items():
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            bound, s = METRICS[name]["bound"], spread(values)
            lines.append(f"| {workload} | {name} | {statistics.median(values):.4g} {METRICS[name]['unit']} | {s:.3f} | {bound} | {'yes' if s <= bound else 'NO'} | {'yes' if s < bound / 3 else 'no'} |")
    return "\n".join(lines)


def compare_table(first: dict, second: dict) -> str:
    lines = ["| workload | metric | first median | second median | drift | bound | within bound |", "|---|---|---|---|---|---|---|"]
    for workload, results in first.items():
        for name in results[0]["metrics"]:
            a = statistics.median(r["metrics"][name]["value"] for r in results)
            b = statistics.median(r["metrics"][name]["value"] for r in second[workload])
            # Either set may be the parent's, so the drift is the worse of the
            # two directions: as a share of the better median.
            m = METRICS[name]
            better = min(a, b) if m["better"] == "lower" else max(a, b)
            drift, bound = abs(b - a) / better, m["bound"]
            lines.append(f"| {workload} | {name} | {a:.4g} | {b:.4g} | {drift:.3f} | {bound} | {'yes' if drift <= bound else 'NO'} |")
    return "\n".join(lines)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--first-seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--save", metavar="PATH", help="write the raw results here")
    parser.add_argument("--compare", nargs=2, metavar="PATH", help="compare two saved run sets")
    args = parser.parse_args()
    if args.compare:
        first, second = (json.loads(Path(p).read_text(encoding="utf-8")) for p in args.compare)
        print(compare_table(first, second))
        return
    runs = collect(args)
    if args.save:
        Path(args.save).write_text(json.dumps(runs), encoding="utf-8")
    if args.runs >= 2:
        print(spread_table(runs))


if __name__ == "__main__":
    main()
