"""One benchmark process: set up one workload, then stop or run its job loop.

Thread counts are pinned before numpy is imported, and metivier is imported
from the checkout's `src/`, as the test suite does.  With --setup-only the
process stops as soon as set-up is done, so `run.py` can time set-up in
fresh processes.  Otherwise it runs a closed loop, one job in flight, until
--seconds have passed, checks every job against its oracle, and prints one
JSON line.  With --trace 1 every other job after the warm-up runs under the
tracer; the untraced ones give the tracing overhead.
"""

import argparse
import contextlib
import json
import os
import sys
import time
import traceback
from pathlib import Path

THREADS = 1
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "METIVIER_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = str(THREADS)

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))


def environment():
    import platform

    import numpy as np
    import scipy

    from metivier import grids

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": THREADS,
        "default_grid": {str(n): list(p) for n, p in grids.DEFAULT_GRID_PARAMS.items()},
    }


def run_loop(workload, seconds, recorder):
    """Closed loop until `seconds` have passed.

    Job 0 is a warm-up: it is checked like every job, but run.py leaves its
    time out of the timing metrics.  With a recorder, the jobs after it
    alternate traced and untraced, and at least one of each runs.
    """
    jobs = []
    deadline = time.monotonic() + seconds
    i = 0
    while True:
        kinds = {j["traced"] for j in jobs[1:]}
        if time.monotonic() >= deadline and (recorder is None or kinds == {True, False}):
            break
        traced = recorder is not None and i % 2 == 1
        job = workload.prepare(i)
        entry = {"warmup": i == 0, "traced": traced, "ok": False, "digits": None}
        t0, c0 = time.perf_counter(), time.process_time()
        try:
            out = recorder.run_job(i, workload.solve, job) if traced else workload.solve(job)
            entry["seconds"] = time.perf_counter() - t0
            entry["cpu_seconds"] = time.process_time() - c0
            check = workload.check(job, out)
            entry.update(ok=check.ok, digits=check.digits, detail=check.detail)
        except Exception:  # a failing job is counted, the loop goes on
            entry.setdefault("seconds", time.perf_counter() - t0)
            entry.setdefault("cpu_seconds", time.process_time() - c0)
            entry["detail"] = traceback.format_exc(limit=3)
        if not entry["ok"]:
            print(f"{workload.name} job {i} failed: {entry['detail']}", file=sys.stderr)
        jobs.append(entry)
        out = job = None
        i += 1
    return jobs


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--trace-file")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    import resource

    from tracer import Recorder
    from workloads import WORKLOADS

    os.makedirs(args.workdir, exist_ok=True)
    workload = WORKLOADS[args.workload](args.seed, args.workdir)
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    with Recorder() if args.trace else contextlib.nullcontext() as recorder:
        jobs = run_loop(workload, args.seconds, recorder)
    result = {
        "ready": ready,
        "jobs": jobs,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "env": environment(),
    }
    if recorder is not None:
        result["layers"] = recorder.jobs
        if args.trace_file:
            with open(args.trace_file, "w") as fh:
                json.dump({"fields": ["id", "label", "start", "end", "parent", "job"],
                           "spans": recorder.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
