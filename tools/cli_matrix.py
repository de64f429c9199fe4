"""Run the traceprob CLI over a fixed matrix of spec files and record what each run printed.

Each run is one subcommand on one spec, as text or as ``--json``, in a fresh
interpreter that imports traceprob from the given ``src`` tree, with BLAS
pinned to one thread. ``sample`` runs with ``--n 1000``. A manifest line
names the spec, the subcommand and the mode, then gives the md5 of stdout,
the md5 of stderr and the exit code. Two manifests, from two trees, are
compared with ``diff``:

    python tools/cli_matrix.py run src --large > new.txt
    python tools/cli_matrix.py run /path/to/other/src --large > old.txt
    python tools/cli_matrix.py diff old.txt new.txt

The specs are the golden corpus (``tests/golden``) and the benchmark's three
generated specs at seed 5; ``--large`` adds an n=2048 cycle with 4096 entries
and 8 sets, and an n=512 spec with rho, a Hamiltonian and 4 projectors. They
are written by the benchmark's own generators (``perfbench/gen.py`` and
``perfbench/workloads.py``) to a temporary directory, together with copies of
any spec files named on the command line, and every run reads its spec by
file name from there, so that no run's output depends on where the tree is.

``run`` exits 1 when a run's stderr holds a Python traceback or its exit code
is not 0, 1 or 2: every run must end in its output or a typed error.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import gen  # noqa: E402
import workloads  # noqa: E402

SUBCOMMANDS = ("classical", "quantum", "dephase", "measure", "sample", "check")
MODES = {"text": [], "json": ["--json"]}
SEED = 5
CONTRACT_CODES = (0, 1, 2)  # success, a typed error, a usage error
THREAD_PINS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")


def large_cycle(path: Path, n: int = 2048, entries: int = 4096, sets: int = 8) -> None:
    """A cycle over n states with ``entries`` schedule entries and ``sets`` characteristic vectors."""
    rng = np.random.default_rng([SEED, n])
    extra = rng.integers(1, n + 1, entries - n)
    states = rng.permutation(np.concatenate([np.arange(1, n + 1), extra]))
    durations = rng.uniform(0.5, 1.5, entries)
    chis = rng.integers(0, 2, (sets, n))
    cycle = {"n": n, "schedule": [[int(s), float(d)] for s, d in zip(states, durations)]}
    gen.write_json(path, {"cycle": cycle, "projectors": {f"s{k}": chi.tolist() for k, chi in enumerate(chis)}})


def large_spectral(path: Path, n: int = 512, count: int = 4) -> None:
    """rho, a Hamiltonian with n sectors and ``count`` projectors of rank n/4, half of them compliant."""
    rng = np.random.default_rng([SEED, n])
    eigenbasis, other = gen.haar_unitary(rng, n), gen.haar_unitary(rng, n)
    h = gen.hamiltonian(eigenbasis, gen.gapped_levels(rng, n))
    rho = gen.random_density(rng, n)
    columns = gen.column_subsets(rng, n, count, n // 4)
    projectors = {
        f"p{k}": gen.rows(gen.projector_from_columns((eigenbasis if k % 2 == 0 else other)[:, c]))
        for k, c in enumerate(columns)
    }
    gen.write_json(path, {"rho": gen.rows(rho), "hamiltonian": gen.rows(h), "projectors": projectors})


def write_specs(workdir: Path, large: bool, extra: list[Path]) -> list[str]:
    """The spec files of the matrix, written to ``workdir``; their names, in run order."""
    for path in sorted((ROOT / "tests" / "golden").glob("*.json")) + extra:
        if (workdir / path.name).exists():
            raise SystemExit(f"two specs are named {path.name}")
        shutil.copyfile(path, workdir / path.name)
    bench = workdir / "bench"  # the benchmark writes a cycle.json, a golden name
    bench.mkdir()
    workloads.spectral(SEED, bench)
    workloads.sample(SEED, bench)
    for path in bench.glob("*.json"):
        path.rename(workdir / f"bench-{path.name}")
    if large:
        large_cycle(workdir / "cycle-2048.json")
        large_spectral(workdir / "spectral-512.json")
    return sorted(path.name for path in workdir.glob("*.json"))


def child_env(src: Path) -> dict:
    env = {**os.environ, "PYTHONPATH": str(src)}
    env.update({var: "1" for var in THREAD_PINS})
    return env


def run(args) -> int:
    src = Path(args.src).resolve()
    env = child_env(src)
    probe = [sys.executable, "-c", "import traceprob; print(traceprob.__file__)"]
    imported = subprocess.run(probe, env=env, capture_output=True, text=True, check=True).stdout.strip()
    if not imported.startswith(str(src)):
        raise SystemExit(f"traceprob imports from {imported}, not from {src}")
    broken = []
    with tempfile.TemporaryDirectory(prefix="cli-matrix-") as tmp:
        workdir = Path(tmp)
        for spec in write_specs(workdir, args.large, [Path(p).resolve() for p in args.specs]):
            for command in SUBCOMMANDS:
                for mode, flags in MODES.items():
                    argv = [command, "--spec", spec, *flags, *(["--n", "1000"] if command == "sample" else [])]
                    done = subprocess.run(
                        [sys.executable, "-m", "traceprob.cli", *argv], cwd=workdir, env=env, capture_output=True
                    )
                    out, err = hashlib.md5(done.stdout).hexdigest(), hashlib.md5(done.stderr).hexdigest()
                    print(f"{spec} {command} {mode} {out} {err} {done.returncode}", flush=True)
                    if b"Traceback (most recent call last)" in done.stderr or done.returncode not in CONTRACT_CODES:
                        stderr = done.stderr.decode(errors="replace")
                        broken.append(f"{spec} {command} {mode}: exit {done.returncode}\n{stderr}")
    for report in broken:
        print(report, file=sys.stderr)
    return 1 if broken else 0


def diff(args) -> int:
    old, new = (Path(p).read_text().splitlines() for p in (args.old, args.new))
    if [line.split()[:3] for line in old] != [line.split()[:3] for line in new]:
        print("the manifests do not list the same runs", file=sys.stderr)
        return 1
    changed = [(a, b) for a, b in zip(old, new) if a != b]
    for a, b in changed:
        print(f"- {a}\n+ {b}")
    print(f"{len(old) - len(changed)} of {len(old)} runs equal")
    return 1 if changed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="action", required=True)
    p = sub.add_parser("run", help="run the matrix against a src tree and print its manifest")
    p.add_argument("src", help="the src directory that holds the traceprob package")
    p.add_argument("--large", action="store_true", help="add the n=2048 cycle and the n=512 spectral spec")
    p.add_argument("specs", nargs="*", help="more spec files to run")
    p.set_defaults(func=run)
    p = sub.add_parser("diff", help="compare two manifests run by run")
    p.add_argument("old")
    p.add_argument("new")
    p.set_defaults(func=diff)
    args = parser.parse_args()
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
