"""Benchmark of metivier: three seeded workloads, oracle-checked, timed end to end.

    python3 perfbench/run.py --workload reconstruct --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Set-up is timed in SETUP_SAMPLES fresh
processes (the last one goes on to run the jobs) and reported as the median.
The job process runs a closed loop, one job in flight, for --seconds; every
job is checked against its oracle.  The last line printed is one JSON
object: with --trace 0 it holds the end-to-end metrics, with --trace 1 the
per-layer metrics of `layers.json` (self seconds and counts per job at
metivier's module boundaries).  Spans of a traced run are kept in
`.perfbench_work/traces/`.  Exits non-zero, printing no result, when the
package or a worker process is missing or fails.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORK = ROOT / ".perfbench_work"
SETUP_SAMPLES = 5
TIME_LIMIT = 170.0  # seconds for the whole run, set-up samples included

END_TO_END_UNITS = {
    "setup_s": "s",
    "job_cpu_s.p50": "s",
    "jobs_per_cpu_s": "1/s",
    "peak_rss_mb": "MB",
    "digits.min": "digits",
    "pass_frac": "ratio",
}


class BenchError(Exception):
    pass


def spawn(args, deadline):
    """Run one worker to completion; return its JSON line with setup_s added."""
    start = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(WORKER), *args], cwd=ROOT,
                              stdout=subprocess.PIPE, timeout=max(deadline - start, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out: {' '.join(args)}") from exc
    lines = proc.stdout.decode().strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(args)}")
    out = json.loads(lines[-1])
    out["setup_s"] = out["ready"] - start
    return out


def timed(jobs):
    """The jobs whose times count: all but the warm-up, unless it ran alone."""
    return [j for j in jobs if not j["warmup"]] or jobs


def end_to_end(jobs, setups, peak_rss_mb):
    """The end-to-end metrics of one untraced run.

    A closed loop with one job in flight completes one job per mean job time.
    Throughput takes the median job time in place of the mean: on a shared host
    single jobs run up to 45% slower, in CPU time too, for reasons outside the
    program, and with one to five timed jobs one of them moves the mean by
    more than the metric's bound.
    """
    done = [j for j in jobs if j["digits"] is not None]
    counted = timed(jobs)
    p50 = statistics.median(j["cpu_seconds"] for j in counted)
    return {
        "setup_s": statistics.median(setups),
        "job_cpu_s.p50": p50,
        "jobs_per_cpu_s": sum(j["ok"] for j in counted) / (len(counted) * p50) if p50 > 0 else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "digits.min": min((j["digits"] for j in done), default=0.0),
        "pass_frac": sum(j["ok"] for j in jobs) / len(jobs),
    }


def per_layer(jobs, layer_jobs, definitions):
    """Per-job means over the traced jobs, plus the tracing overhead."""
    traced = [j["cpu_seconds"] for j in timed(jobs) if j["traced"]]
    plain = [j["cpu_seconds"] for j in timed(jobs) if not j["traced"]]
    out = {}
    for name in definitions:
        if name == "trace.job_cpu_s.p50":
            value = statistics.median(traced)
        elif name == "trace.overhead_s":
            value = statistics.median(traced) - statistics.median(plain)
        elif name == "trace.unattributed_s":
            value = statistics.fmean(s["self_s"].get("job", 0.0) for s in layer_jobs)
        elif name.endswith("_s"):
            value = statistics.fmean(s["self_s"].get(name[:-2], 0.0) for s in layer_jobs)
        else:
            value = statistics.fmean(s["counters"].get(name, 0.0) for s in layer_jobs)
        out[name] = value
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("reconstruct", "spectral", "admissibility"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "metivier" / "__init__.py").is_file():
        print(f"metivier sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT
    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            out = spawn([*common, "--workdir", str(work / f"setup{k}"), "--setup-only"], deadline)
            setups.append(out["setup_s"])
        run_args = [*common, "--seconds", str(args.seconds), "--trace", str(args.trace),
                    "--workdir", str(work / "run")]
        if args.trace:
            (WORK / "traces").mkdir(parents=True, exist_ok=True)
            run_args += ["--trace-file",
                         str(WORK / "traces" / f"{args.workload}-seed{args.seed}.json")]
        out = spawn(run_args, deadline)
        setups.append(out["setup_s"])
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    jobs = out["jobs"]
    if args.trace:
        definitions = json.loads((HERE / "layers.json").read_text())["per_layer"]
        values = per_layer(jobs, out["layers"], [d["name"] for d in definitions])
        metrics = {d["name"]: {"value": values[d["name"]], "unit": d["unit"]}
                   for d in definitions}
    else:
        values = end_to_end(jobs, setups, out["peak_rss_mb"])
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    failed = sum(not j["ok"] for j in jobs)
    print(json.dumps({"env": out["env"], "setup_samples_s": setups,
                      "job_s": [j["seconds"] for j in jobs],
                      "job_cpu_s": [j["cpu_seconds"] for j in jobs]}))
    print(json.dumps({"correct": failed == 0, "attempted": len(jobs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
