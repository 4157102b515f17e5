"""The benchmark tracer (perfbench/tracer.py) still finds and counts the names
it wraps, and restores them when uninstalled."""

import os
import sys

import numpy as np

from metivier import grids, injectivity, transforms
from metivier.grids import build_sphere_rule, polar_grid, sample

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
    # 48 radial nodes: on 24 the convolution of f aliases (GridTooCoarse)
    grid = polar_grid(1, 48, 32, 8.0)
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
    # analysis and synthesis tabulate their radial profiles from Laguerre
    # sequences, without special_hermite_1d
    assert counters.get("special.special_hermite_1d.calls", 0) == 0
    # the convolution analyses f twice over its modes 0 and 1 with indices
    # <= 46 (47 + 46 pairs each) and synthesizes its modes 0, 1, 2
    # (47 + 46 + 45 terms)
    counters = rec.jobs[1]["counters"]
    assert counters["transforms.twisted_convolution.calls"] == 1
    # one forward angular FFT per field, shared by its modes and its
    # analysis; the synthesis expands only the band of its modes
    assert counters["grids.angular_fft.calls"] == 2
    assert counters["transforms.analysis.coefficients"] == 2 * 93
    assert counters["transforms.synthesis.terms"] == 138
    assert counters.get("special.special_hermite_1d.calls", 0) == 0
    assert "transforms.twisted_convolution" in rec.jobs[1]["self_s"]
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[f"metivier.{home}"], attr) is fn


def test_measure_mean_makes_one_forward_and_one_inverse_fft():
    tracer = _import_tracer()
    grid = polar_grid(1, 48, 32, 8.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]), grid)
    mu = injectivity.RadialMeasure([0.9, 1.6], [0.5, 0.5])
    rec = tracer.Recorder().install()
    try:
        rec.run_job(0, lambda: injectivity.reconstruct_from_measure_mean(
            injectivity.measure_mean(f, mu, [1.0]), mu, [1.0], 4))
    finally:
        rec.uninstall()
    counters = rec.jobs[0]["counters"]
    # both atoms share one evaluator (one forward FFT) and one inverse FFT,
    # and the mean no longer goes through reduced_mean
    assert counters["grids.angular_fft.calls"] == 2
    assert counters["injectivity.measure_mean.calls"] == 1
    assert counters.get("transforms.reduced_mean.calls", 0) == 0
    # blocks k <= 4 with |alpha| <= 10: 55 pairs analysed and synthesized
    assert counters["transforms.analysis.coefficients"] == 55
    assert counters["transforms.synthesis.terms"] == 55


def test_reconstruction_analyses_each_mean_over_its_own_degrees(monkeypatch):
    tracer = _import_tracer()
    grid = polar_grid(1, 48, 32, 8.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]), grid)
    radii, k_max = [0.9, 1.7], 6
    means = {r: transforms.reduced_mean(f, [1.0], r) for r in radii}
    # each degree is inverted from the radius with the larger |c_k theta_k|;
    # here both radii serve some degree, and every degree is usable
    best = np.argmax(np.abs(transforms.mean_eigenvalue(np.arange(k_max + 1), [1.0], radii)),
                     axis=1)
    assert set(best) == {0, 1}
    block = k_max + 7  # pairs per block at n = 1: |alpha| <= k_max + 6, one beta
    served = [int(np.sum(best == i)) * block for i in (0, 1)]
    tables = []
    tabulate = transforms._axis_tables
    monkeypatch.setattr(transforms, "_axis_tables",
                        lambda g, lam, pairs: tables.append(len(pairs)) or tabulate(g, lam, pairs))
    rec = tracer.Recorder().install()
    try:
        rec.run_job(0, injectivity.reconstruct_from_means, means, [1.0], k_max)
    finally:
        rec.uninstall()
    counters = rec.jobs[0]["counters"]
    # one analysis per radius over its degrees' pairs, and one synthesis over
    # all of them, which tabulates its own basis tables
    assert tables == served + [(k_max + 1) * block]
    assert counters["transforms.analysis.calls"] == 2
    assert counters["transforms.analysis.coefficients"] == sum(served)
    assert counters["transforms.synthesis.terms"] == (k_max + 1) * block


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
    # analysis and synthesis transform only the band of their modes, with
    # no full angular FFT
    assert counters.get("grids.angular_fft.calls", 0) == 0


def test_admissibility_builds_one_sphere_rule_per_check_and_samples_no_grid(monkeypatch):
    tracer = _import_tracer()
    originals = {(home, attr): getattr(sys.modules[f"metivier.{home}"], attr)
                 for home, attr, *_ in tracer.FUNCTIONS}
    grid = polar_grid(2, 16, 8, 6.0)
    rows = []
    radial_matrix = grids.FieldEvaluator._radial_matrix
    monkeypatch.setattr(grids.FieldEvaluator, "_radial_matrix",
                        lambda ev, j, t: rows.append(t.size) or radial_matrix(ev, j, t))
    rec = tracer.Recorder().install()
    try:
        rec.run_job(0, lambda: injectivity.two_radii_check(
            1.0, 1.7, n=2, lambda_prime=(1.0, 2.0), k_max=6, bessel_count=10))
        rows.clear()
        rec.run_job(1, lambda: injectivity.one_radius_counterexample(
            1, [1.1, 1.1], n=2, grid=grid))
    finally:
        rec.uninstall()
    # the anisotropic scan builds one unit rule per check and reads its
    # torus orbits off the rule's factors, for every degree's scan and polish
    counters = rec.jobs[0]["counters"]
    assert counters["grids.build_sphere_rule.calls"] == 1
    assert counters["injectivity.two_radii_check.calls"] == 1
    # the tracer counts the pool from one _anisotropic_block_zeros call: at
    # lam' = (1, 2) degree k has k zeros, 21 up to k = 6
    assert counters["injectivity.two_radii_check.pairs"] == 21**2 + 10**2
    # the witness samples theta_l on the radial nodes only; its residual's
    # sphere means build one rule
    counters = rec.jobs[1]["counters"]
    assert counters["injectivity.one_radius_counterexample.calls"] == 1
    assert counters.get("grids.sample.calls", 0) == 0
    assert counters["grids.build_sphere_rule.calls"] == 1
    # the means sum the order-16 rule one coordinate at a time and evaluate
    # no point: one barycentric row per coordinate node (17 per coordinate)
    # of each of the rule's 9 outer nodes around each of the 6 probes
    assert "grids.FieldEvaluator.points" not in counters
    coordinates = build_sphere_rule(2, 1.0, 16).coordinates
    assert sum(rows) == 2 * 6 * 9 * 17 == sum(6 * w.size for w in coordinates)
    # its evaluator transforms the distinct entries alone, one mode per
    # broadcast angle: the tracer counts a read and a write per angular axis
    # of the 16 x 1 x 16 x 1 complex array
    distinct = 16 * 16 * np.dtype(complex).itemsize
    assert counters["grids.angular_fft.calls"] == 1
    assert counters["grids.angular_fft.bytes"] <= 2 * grid.n * distinct
    for (home, attr), fn in originals.items():
        assert getattr(sys.modules[f"metivier.{home}"], attr) is fn
    assert injectivity.build_sphere_rule is originals[("grids", "build_sphere_rule")]
