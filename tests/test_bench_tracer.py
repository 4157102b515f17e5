"""The benchmark tracer (perfbench/tracer.py) still finds and counts the names
it wraps, and restores them when uninstalled."""

import os
import sys

import numpy as np

from metivier import injectivity, transforms
from metivier.grids import polar_grid, sample

PERFBENCH = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "perfbench")


def _import_tracer():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracer
    finally:
        sys.path.remove(PERFBENCH)
    return tracer


def test_tracer_counts_analysis_and_synthesis():
    tracer = _import_tracer()
    originals = {(home, attr): getattr(sys.modules[f"metivier.{home}"], attr)
                 for home, attr, *_ in tracer.FUNCTIONS}
    grid = polar_grid(1, 24, 32, 8.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]), grid)
    mu = injectivity.RadialMeasure([1.0], [1.0])

    def job():
        transforms.decompose(f, [1.0], k_max=4)
        mean = injectivity.measure_mean(f, mu, [1.0])
        injectivity.reconstruct_from_measure_mean(mean, mu, [1.0], 4)

    rec = tracer.Recorder().install()
    try:
        rec.run_job(0, job)
        rec.run_job(1, transforms.twisted_convolution, f, f, [1.0])
    finally:
        rec.uninstall()
    counters = rec.jobs[0]["counters"]
    # blocks k <= 4: decompose takes |alpha| <= k + 6 (45 pairs) and does
    # not synthesize, the reconstruction |alpha| <= 10 (55 pairs)
    assert counters["transforms.analysis.coefficients"] == 100
    assert counters["transforms.synthesis.terms"] == 55
    # each synthesis reuses the radial profiles of its analysis
    assert counters["special.special_hermite_1d.calls"] == 100
    # the convolution analyses f twice over its modes 0 and 1 with indices
    # <= 46 (47 + 46 pairs each) and synthesizes its modes 0, 1, 2
    # (47 + 46 + 45 terms); both analyses and the synthesis share one
    # profile table
    counters = rec.jobs[1]["counters"]
    assert counters["transforms.twisted_convolution.calls"] == 1
    # one forward angular FFT per field, shared by its modes and its
    # analysis, and one inverse for the synthesis
    assert counters["grids.angular_fft.calls"] == 3
    assert counters["transforms.analysis.coefficients"] == 2 * 93
    assert counters["transforms.synthesis.terms"] == 138
    assert counters["special.special_hermite_1d.distinct_ratio"] == 1.0
    assert "transforms.twisted_convolution" in rec.jobs[1]["self_s"]
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[f"metivier.{home}"], attr) is fn


def test_round_trip_makes_one_analysis_and_one_synthesis():
    tracer = _import_tracer()
    grid = polar_grid(2, 12, 32, 6.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)) * (1 + z[..., 0]), grid)
    rec = tracer.Recorder().install()
    try:
        rec.run_job(0, lambda: transforms.synthesize(transforms.decompose(f, [1.8, 2.1], k_max=1)))
    finally:
        rec.uninstall()
    counters = rec.jobs[0]["counters"]
    assert counters["transforms.analysis.calls"] == 1
    assert counters["transforms.synthesis.calls"] == 1
    # the analysis's forward and the synthesis's inverse transform
    assert counters["grids.angular_fft.calls"] == 2


def test_admissibility_builds_one_sphere_rule_per_degree_and_samples_no_grid():
    tracer = _import_tracer()
    originals = {(home, attr): getattr(sys.modules[f"metivier.{home}"], attr)
                 for home, attr, *_ in tracer.FUNCTIONS}
    grid = polar_grid(2, 16, 8, 6.0)
    rec = tracer.Recorder().install()
    try:
        rec.run_job(0, lambda: injectivity.two_radii_check(
            1.0, 1.7, n=2, lambda_prime=(1.0, 2.0), k_max=3, bessel_count=10))
        rec.run_job(1, lambda: injectivity.one_radius_counterexample(
            1, [1.1, 1.1], n=2, grid=grid))
    finally:
        rec.uninstall()
    # the anisotropic scan builds one unit rule per degree and reduces it to
    # its torus orbits, for the scan and the root refinement alike
    counters = rec.jobs[0]["counters"]
    assert counters["grids.build_sphere_rule.calls"] == 3
    assert counters["injectivity.two_radii_check.calls"] == 1
    # the witness samples theta_l on the radial nodes only; its residual's
    # sphere means build one rule
    counters = rec.jobs[1]["counters"]
    assert counters["injectivity.one_radius_counterexample.calls"] == 1
    assert counters.get("grids.sample.calls", 0) == 0
    assert counters["grids.build_sphere_rule.calls"] == 1
    # its evaluator transforms a 4-angle copy of the grid, not the grid: the
    # tracer counts a read and a write per angular axis of the 16 x 4 x 16 x 4
    # complex array
    four_angles = 16 * 4 * 16 * 4 * np.dtype(complex).itemsize
    assert counters["grids.angular_fft.calls"] == 1
    assert counters["grids.angular_fft.bytes"] <= 2 * grid.n * four_angles
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[f"metivier.{home}"], attr) is fn
    assert injectivity.build_sphere_rule is originals[("grids", "build_sphere_rule")]
