"""Time one program set-up in a fresh interpreter.

Usage: python3 probe.py SRC_DIR JOB_FILE

Set-up is importing traceprob, the job's own set-up (building the validated
operators, for the query job) and one warm-up call. Reading the generated
inputs is the benchmark's cost and is left out. Prints the seconds and the
process's peak resident memory in MB on the last line. The process holds only
the inputs and the program, so its peak is the program's, not the input
generator's or the oracle's. A failing warm-up call is still timed, since the
benchmark's own calls count the failure.
"""

import json
import resource
import sys
import time


def main(src: str, job_file: str) -> None:
    with open(job_file, encoding="utf-8") as fh:
        desc = json.load(fh)
    sys.path.insert(0, src)
    start = time.perf_counter()
    import traceprob.cli  # noqa: F401  (the import is what is timed)

    imported = time.perf_counter()
    import jobs

    job = jobs.from_description(desc)
    resumed = time.perf_counter()
    job.setup()
    try:
        job.call()
    except (Exception, SystemExit):  # the benchmark's own calls count the failure
        pass
    done = time.perf_counter()
    if not traceprob.__file__.startswith(src):
        raise SystemExit(f"traceprob was imported from {traceprob.__file__}, not {src}")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{(imported - start) + (done - resumed):.9f} {rss_mb:.3f}")


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
