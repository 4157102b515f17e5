"""Self-checks of the benchmark: metric names, live oracle gates, self times.

    python3 -m pytest perfbench -q

About three minutes on two cores: one real job per workload, plus a short run
of `run.py` per workload and trace mode.
"""

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import worker  # noqa: E402  (pins thread counts before numpy is imported)
import numpy as np  # noqa: E402

from tracer import FUNCTIONS, METHODS, Recorder  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

BENCHMARK = json.loads((worker.ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((HERE / "layers.json").read_text())


@pytest.fixture(scope="module")
def solved(tmp_path_factory):
    """One real job per workload: (workload, job, output)."""
    out = {}
    for name, cls in WORKLOADS.items():
        wl = cls(3, str(tmp_path_factory.mktemp(name)))
        job = wl.prepare(0)
        out[name] = (wl, job, wl.solve(job))
    return out


def test_layer_definitions_match_benchmark_json():
    assert [d["name"] for d in LAYERS["per_layer"]] == [d["name"] for d in BENCHMARK["per_layer"]]
    for ours, theirs in zip(LAYERS["per_layer"], BENCHMARK["per_layer"]):
        assert (ours["unit"], ours["better"]) == (theirs["unit"], theirs["better"])
    assert sorted(w["name"] for w in BENCHMARK["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_run_prints_every_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace)],
        cwd=worker.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and isinstance(got["value"], float)
        if not trace:
            assert got["value"] != 0


def test_reconstruct_oracle_is_live(solved):
    wl, job, out = solved["reconstruct"]
    assert wl.check(job, out).ok
    assert not wl.check(job, out * (1 + 1e-3)).ok


def test_spectral_oracles_are_live(solved):
    wl, job, (conv, back) = solved["spectral"]
    assert wl.check(job, (conv, back)).ok
    i, k = job["nodes"][0]
    bad = conv.copy()
    bad[i, k] += 1e-6 * job["fg_norm"]
    assert not wl.check(job, (bad, back)).ok
    assert not wl.check(job, (conv, back * (1 + 1e-6))).ok


def test_admissibility_oracle_is_live(solved):
    wl, job, (iso, aniso, cx) = solved["admissibility"]
    assert wl.check(job, (iso, aniso, cx)).ok

    def flipped(v):
        return dataclasses.replace(v, admissible_within_bounds=not v.admissible_within_bounds)

    assert not wl.check(job, ([flipped(iso[0])] + iso[1:], aniso, cx)).ok
    assert not wl.check(job, (iso, flipped(aniso), cx)).ok
    assert not wl.check(job, (iso, aniso, dataclasses.replace(cx, mean_residual=1e-3))).ok
    assert not wl.check(job, (iso, aniso, dataclasses.replace(cx, radius=cx.radius * (1 + 1e-8)))).ok
    lag = next((k for k, p in enumerate(job["iso"]) if p["kind"] == "laguerre"), None)
    if lag is not None:  # an inadmissible verdict must name the conflict the pair was built on
        v = iso[lag]
        wrong = dataclasses.replace(v, laguerre_conflicts=((99, 0, 99, 1, 0.0),))
        assert not wl.check(job, (iso[:lag] + [wrong] + iso[lag + 1:], aniso, cx)).ok


def test_traced_self_times_add_up(tmp_path):
    wl = WORKLOADS["admissibility"](4, str(tmp_path))
    originals = {(h, a): getattr(sys.modules[f"metivier.{h}"], a) for h, a, *_ in FUNCTIONS}
    with Recorder() as rec:
        assert sys.modules["metivier.grids"].sample is not originals[("grids", "sample")]
        rec.run_job(0, wl.solve, wl.prepare(0))
    summary = rec.jobs[0]
    assert summary["job_s"] > 0
    assert all(v >= -1e-9 for v in summary["self_s"].values())
    assert sum(summary["self_s"].values()) == pytest.approx(summary["job_s"], rel=1e-9)
    assert summary["self_s"]["injectivity.two_radii_check"] > 0
    assert summary["counters"]["grids.build_sphere_rule.calls"] > 0
    # uninstall restores every wrapped name and method
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[f"metivier.{home}"], attr) is fn
    for home, cls, meth, *_ in METHODS:
        assert not hasattr(getattr(getattr(sys.modules[f"metivier.{home}"], cls), meth),
                           "__wrapped__")


def test_digits():
    from workloads import digits

    assert digits(1e-7) == pytest.approx(7.0)
    assert digits(0.0) == 16.0
    assert np.isfinite(digits(1.0))
