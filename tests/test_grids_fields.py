"""Grids, quadrature, sampling, off-grid evaluation, sphere rules, field IO."""

import json
import tracemalloc
from math import factorial

import numpy as np
import pytest
from numpy.polynomial.legendre import leggauss

from metivier import grids
from metivier.errors import (
    DimensionMismatch,
    GridMismatch,
    MalformedFile,
    NonFiniteValue,
    VersionMismatch,
)
from metivier.fieldio import read_field, write_field
from metivier.grids import (
    FieldEvaluator,
    SampledField,
    SphereRule,
    angular_mode_coefficients,
    build_sphere_rule,
    default_grid,
    inner_product,
    polar_grid,
    sample,
    sample_periodic,
    values_from_mode_coefficients,
)
from metivier.special import phi_k, psi_alpha_beta
from metivier.structures import complex_from_real, real_from_complex


def test_gaussian_integral_n1():
    g = polar_grid(1, 48, 64, 8.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    total = np.sum(g.quadrature_weights() * f.values).real
    assert total == pytest.approx(np.pi, abs=1e-8)


def test_gaussian_integral_n2():
    g = polar_grid(2, 32, 8, 7.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)), g)
    total = np.sum(g.quadrature_weights() * f.values).real
    assert total == pytest.approx(np.pi**2, rel=1e-8)


def test_phi0_inner_product():
    # (phi_0, phi_0) = integral of e^{-|z|^2/2} over C = 2 pi
    g = default_grid(1)
    f = sample(lambda z: phi_k(0, 1, z), g)
    assert inner_product(f, f).real == pytest.approx(2 * np.pi, rel=1e-10)


def test_grid_validation():
    with pytest.raises(DimensionMismatch):
        polar_grid(1, 16, 48, 6.0)  # 48 not a power of two
    with pytest.raises(DimensionMismatch):
        polar_grid(1, 16, 2, 6.0)  # below the minimum angular count
    with pytest.raises(DimensionMismatch):
        polar_grid(0, 16, 16, 6.0)


def test_grid_equality_and_mismatch():
    a = polar_grid(1, 16, 16, 6.0)
    b = polar_grid(1, 16, 16, 6.0)
    c = polar_grid(1, 16, 16, 7.0)
    assert a == b
    f = sample(lambda z: np.abs(z[..., 0]), a)
    h = sample(lambda z: np.abs(z[..., 0]), c)
    with pytest.raises(GridMismatch):
        inner_product(f, h)


def test_sample_rejects_nonfinite():
    # the error names the first bad node, located only after SampledField's
    # check fails, also for a result that is a broadcast over some axes
    g = polar_grid(1, 8, 8, 4.0)
    with pytest.raises(NonFiniteValue) as err, np.errstate(divide="ignore"):
        sample(lambda z: 1.0 / (np.abs(z[..., 0]) - np.abs(z[..., 0])), g)
    assert err.value.node == (complex(g.radial_nodes[0][0]),)
    g2 = polar_grid(2, 6, 8, 4.0)
    spoiled = np.ones((6, 8), complex)  # a function of z_2 alone
    spoiled[3, 2] = np.nan
    with pytest.raises(NonFiniteValue) as err:
        sample(lambda z: spoiled, g2)
    assert err.value.node == (complex(g2.radial_nodes[0][0]),
                              g2.radial_nodes[1][3] * np.exp(1j * g2.angles(1)[2]))


def test_sample_rejects_a_result_that_does_not_broadcast_to_the_grid():
    g = polar_grid(1, 8, 8, 4.0)
    with pytest.raises(DimensionMismatch):
        sample(lambda z: np.ones(3), g)


@pytest.mark.parametrize("radial", [0, -2, 2.5, [8, 0]])
def test_polar_grid_radial_counts_must_be_positive_integers(radial):
    with pytest.raises(DimensionMismatch):
        polar_grid(1 if np.isscalar(radial) else 2, radial, 16, 5.0)


def test_sample_keeps_a_broadcast_result():
    g = polar_grid(2, 6, 8, 4.0)
    profile = np.exp(-np.abs(g.coordinate_axes()[1][0, 0]) ** 2) * (1 + 0.5j)
    f = sample(lambda z: profile, g)
    assert np.shares_memory(f.values, profile)
    assert np.array_equal(f.values, np.broadcast_to(profile, g.shape))


def test_sampled_field_accepts_broadcast_and_flipped_values():
    # a complex broadcast is kept without a copy, a repeated last axis too;
    # a flipped last axis is copied; the checks read repeated entries once
    rng = np.random.default_rng(3)
    g1 = polar_grid(1, 8, 8, 4.0)
    g2 = polar_grid(2, 6, 8, 4.0)
    a = rng.normal(size=g1.shape) + 1j * rng.normal(size=g1.shape)
    row = rng.normal(size=(6, 1, 6, 8)) + 1j * rng.normal(size=(6, 1, 6, 8))
    cases = [
        (g1, np.broadcast_to(np.ones((8, 1), complex), (8, 8))),
        (g1, np.flip(a, axis=1)),
        (g1, a[::-1, ::-1]),
        (g2, np.broadcast_to(row, g2.shape)),
    ]
    for g, values in cases:
        f = SampledField(g, values)
        want = SampledField(g, np.array(values))
        assert np.array_equal(f.values, want.values)
        assert f.norm2() == pytest.approx(want.norm2(), rel=1e-15)
        assert f.max_abs() == want.max_abs()
    assert np.shares_memory(SampledField(g1, cases[0][1]).values, cases[0][1])
    assert np.shares_memory(SampledField(g2, cases[3][1]).values, row)
    for bad in (np.nan, complex(0, np.inf)):
        spoiled = row.copy()
        spoiled[-1, 0, -1, -1] = bad
        with pytest.raises(NonFiniteValue):
            SampledField(g2, np.broadcast_to(spoiled, g2.shape))


def test_finiteness_check_makes_no_field_sized_temporary():
    # the check runs in slabs, so building a default n = 2 field allocates a
    # small fraction of its size; a NaN in the last slab and an infinite
    # imaginary part are still caught
    g = default_grid(2)
    values = np.zeros(g.shape, complex)
    tracemalloc.start()
    try:
        SampledField(g, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.05 * values.nbytes
    for index, bad in (((-1, -1, -1, -1), np.nan), ((0, 3, 5, 7), complex(1, -np.inf))):
        values[index] = bad
        with pytest.raises(NonFiniteValue):
            SampledField(g, values)
        values[index] = 0


def _lagrange_basis(nodes, t):
    """Product-form Lagrange basis prod_{k != i} (t - r_k) / (r_i - r_k) as a
    (len(t), len(nodes)) matrix."""
    out = np.ones((len(t), len(nodes)))
    for i, ri in enumerate(nodes):
        for k, rk in enumerate(nodes):
            if k != i:
                out[:, i] *= (t - rk) / (ri - rk)
    return out


def test_radial_matrix_matches_the_product_form_lagrange_basis():
    g = polar_grid(1, 16, 8, 4.0)
    r = g.radial_nodes[0]
    ev = FieldEvaluator(sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g))
    rng = np.random.default_rng(4)
    off = np.concatenate([rng.uniform(0, g.r_max, 40), [0.0, g.r_max, 1.01 * g.r_max]])
    B = ev._radial_matrix(0, off)
    L = _lagrange_basis(r, off)
    # relative to each row's Lebesgue function sum |l_i(t)|, which grows fast
    # past the last node (33 at 1.01 r_max)
    assert np.all(np.abs(B - L) < 1e-13 * np.abs(L).sum(axis=1, keepdims=True))
    # at a node and within half the 1e-15 r_max tolerance of it: unit rows
    shift = 0.5e-15 * g.r_max
    for at in (r, r + shift, r - shift):
        assert np.array_equal(ev._radial_matrix(0, at), np.eye(len(r)))
    assert np.all(np.abs(B.sum(axis=1) - 1) < 1e-13)


def test_evaluator_reproduces_grid_nodes_exactly():
    g = polar_grid(1, 24, 32, 6.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * z[..., 0] ** 2, g)
    ev = FieldEvaluator(f)
    pts = (g.radial_nodes[0][:, None] * np.exp(1j * g.angles(0))[None, :]).reshape(-1, 1)
    got = ev(pts).reshape(f.values.shape)
    assert np.max(np.abs(got - f.values)) < 1e-13 * f.max_abs()


def test_evaluator_off_grid_accuracy():
    g = default_grid(1)
    fn = lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * (1 + z[..., 0])
    f = sample(fn, g)
    ev = FieldEvaluator(f)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 5.0, (50, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 1)))
    assert np.max(np.abs(ev(pts) - fn(pts))) < 1e-10


def test_evaluator_fill_modes():
    g = polar_grid(1, 16, 16, 3.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    # zero fill past r_max is the only behaviour; there is no slack
    outside = np.array([[4.0 + 0.0j], [3.0 + 1e-9 + 0.0j]])
    assert not np.any(FieldEvaluator(f)(outside))
    assert FieldEvaluator(f).extrap_slack == 0.0


def test_evaluator_n2():
    g = polar_grid(2, 24, 16, 6.0)
    fn = lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 2) * z[..., 0] * np.conj(z[..., 1])
    f = sample(fn, g)
    ev = FieldEvaluator(f)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 3.0, (20, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (20, 2)))
    assert np.max(np.abs(ev(pts) - fn(pts))) < 1e-9


def test_evaluator_n3_reproduces_grid_samples():
    g = polar_grid(3, 6, 4, 4.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 2)
               * (1 + z[..., 0] * np.conj(z[..., 1]) + z[..., 2]), g)
    z = np.stack(np.broadcast_arrays(*g.coordinate_axes()), axis=-1).reshape(-1, 3)
    got = FieldEvaluator(f)(z).reshape(g.shape)
    assert np.max(np.abs(got - f.values)) < 1e-13 * f.max_abs()


@pytest.mark.parametrize("n", [1, 2])
def test_evaluator_batch_matches_pointwise_evaluation(n):
    from metivier.special import psi_alpha_beta
    from metivier.structures import complex_from_real, real_from_complex

    g = polar_grid(n, 24, 16, 7.0)
    f = sample(lambda z: psi_alpha_beta((1,) + (0,) * (n - 1), (0,) * (n - 1) + (2,),
                                        [1.0] * n, z), g)
    ev = FieldEvaluator(f)
    rng = np.random.default_rng(3)
    base = rng.uniform(0.3, 2.5, (2, n)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (2, n)))
    # sphere-rule shifts: at n = 2 each coordinate's radius repeats across
    # the nodes around a point; at n = 1 most radii are distinct
    rule = build_sphere_rule(n, 1.1, 8)
    shifts = complex_from_real(real_from_complex(base)[:, None, :]
                               - rule.nodes_real()[None, :, :]).reshape(-1, n)
    r = g.radial_nodes[0]
    # exact radial nodes, each twice
    nodes = np.repeat(r[[0, 7, -1]], 2)[:, None] * np.exp(1j * rng.uniform(0, 2 * np.pi, (6, n)))
    origin = np.zeros((2, n), complex)
    past = np.full((2, n), 0.5 + 0.5j)
    past[:, -1] = 1.2 * g.r_max
    pts = np.concatenate([shifts, nodes, origin, past, shifts[:5]])
    got = ev(pts)
    scale = f.max_abs()
    one_by_one = np.concatenate([ev(p[None, :]) for p in pts])
    assert np.max(np.abs(got - one_by_one)) <= 1e-15 * scale
    perm = rng.permutation(len(pts))
    assert np.max(np.abs(ev(pts[perm]) - got[perm])) <= 1e-15 * scale
    assert not np.any(ev(past))
    assert np.all(np.isfinite(got)) and np.max(np.abs(got)) > 0.1 * scale


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(1, np.nan)])
def test_evaluator_rejects_nonfinite_points(bad):
    # a NaN point used to evaluate to NaN and an infinite one to 0
    g = polar_grid(1, 16, 16, 3.0)
    ev = FieldEvaluator(sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g))
    with pytest.raises(DimensionMismatch, match="point 2 is not finite"):
        ev(np.array([0.5, 1 + 1j, bad, np.nan]))


def test_gauss_legendre_rules_are_built_once_and_read_only(monkeypatch):
    x, w = grids._gauss_legendre(9)
    for a in (x, w):
        with pytest.raises(ValueError):
            a[0] = 0.0
    grids._gauss_legendre.cache_clear()
    solves = []
    monkeypatch.setattr(grids, "leggauss", lambda count: solves.append(count) or leggauss(count))
    rules = [build_sphere_rule(2, r, 16) for r in (1.1, 2.3)]
    grid = default_grid(2)
    assert default_grid(2) == grid
    # the order-16 rule's 9 Gauss-Legendre nodes, and the grid's 48
    assert solves == [9, 48]
    assert np.array_equal(rules[0].weights, rules[1].weights)


def test_float_sphere_rule_order_fails_alike_with_a_cold_and_a_warm_memo():
    # order 16.0 is rejected before any Gauss-Legendre rule is asked for, so
    # an int 16 rule in the memo cannot answer for it
    def outcome():
        try:
            return len(build_sphere_rule(2, 1.0, 16.0).nodes)
        except DimensionMismatch as err:
            return str(err)

    grids._gauss_legendre.cache_clear()
    cold = outcome()
    build_sphere_rule(2, 1.0, 16)
    assert outcome() == cold


def test_angular_transforms_leave_their_input_unchanged():
    g = polar_grid(2, 6, 8, 4.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)) * (1 + z[..., 0]), g)
    values = f.values.copy()
    fhat = angular_mode_coefficients(f)
    assert np.array_equal(f.values, values)
    modes = fhat.copy()
    back = values_from_mode_coefficients(g, fhat)
    assert np.array_equal(fhat, modes)
    assert np.max(np.abs(back - values)) < 1e-14 * f.max_abs()


def test_angular_transforms_allocate_one_field():
    # the first FFT allocates the result and the others transform it in place;
    # the values are those of one FFT per axis
    g = polar_grid(2, 12, 32, 6.0)
    rng = np.random.default_rng(2)
    f = SampledField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    tracemalloc.start()
    try:
        fhat = angular_mode_coefficients(f)
        fhat_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        back = values_from_mode_coefficients(g, fhat)
        back_peak = tracemalloc.get_traced_memory()[1] - fhat.nbytes
    finally:
        tracemalloc.stop()
    want = np.fft.fft(np.fft.fft(f.values, axis=1) / 32, axis=3) / 32
    assert np.array_equal(fhat, want)
    assert np.max(np.abs(back - f.values)) < 1e-14 * f.max_abs()
    assert max(fhat_peak, back_peak) < 1.1 * f.values.nbytes


@pytest.mark.parametrize("count", [4, 8, 64, 256])
@pytest.mark.parametrize("n, axes", [(1, (1,)), (2, (1,)), (2, (3,)), (2, (1, 3))],
                         ids=["n1-axis1", "n2-axis1", "n2-axis3", "n2-both"])
def test_broadcast_angular_axis_holds_the_exact_mode_zero(count, n, axes):
    # the FFT of a constant line is that constant in mode 0 and exact zeros
    # elsewhere at a power-of-two angle count, so a broadcast angular axis
    # comes back with length 1, bit for bit mode 0 of the full FFT
    g = polar_grid(n, 3, count, 4.0)
    rng = np.random.default_rng(count)
    shape = tuple(1 if a in axes else size for a, size in enumerate(g.shape))
    values = np.broadcast_to(rng.normal(size=shape) + 1j * rng.normal(size=shape), g.shape)
    fhat = angular_mode_coefficients(SampledField(g, values))
    full = np.array(values)
    for a in range(1, 2 * n, 2):
        full = np.fft.fft(full, axis=a, norm="forward")
    assert fhat.shape == shape
    assert np.array_equal(fhat, full[tuple(slice(0, 1) if a in axes else slice(None)
                                           for a in range(2 * n))])
    for a in axes:
        assert np.all(np.take(full, range(1, count), axis=a) == 0)


def test_evaluator_band_is_relative_to_the_field_peak():
    # the kept angular modes are those above 1e-13 of the largest mode
    # amplitude, so scaling the field keeps the same band
    g = polar_grid(2, 12, 16, 6.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 2)
               * (1 + z[..., 0] ** 3 + 1e-6 * np.conj(z[..., 1]) ** 2), g)
    want = [m.tolist() for m in FieldEvaluator(f).modes]
    assert want == [[0, 3], [0, -2]]
    for scale in (1e-9, 1e9):
        assert [m.tolist() for m in FieldEvaluator(f.with_values(scale * f.values)).modes] == want


def test_evaluator_band_matches_the_per_axis_cut():
    # non-separable n = 2 field: the band of each angle depends on the other
    g = polar_grid(2, 12, 16, 6.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1))
               * (1 + z[..., 0] ** 3 * np.conj(z[..., 1]) + 1e-9 * z[..., 1] ** 2
                  + 1e-15 * np.conj(z[..., 0]) ** 5 * z[..., 1] ** 3), g)
    # the band cut one angular axis after another, each on what the earlier
    # axes kept
    fhat = angular_mode_coefficients(f)
    gmax = np.max(np.abs(fhat))
    modes = []
    for j in range(2):
        axis = 2 * j + 1
        amp = np.max(np.abs(fhat), axis=tuple(a for a in range(4) if a != axis))
        keep = np.flatnonzero(amp >= 1e-13 * gmax)
        modes.append(np.fft.fftfreq(16, d=1.0 / 16).astype(int)[keep])
        fhat = np.take(fhat, keep, axis=axis)
    ev = FieldEvaluator(f)
    assert [m.tolist() for m in ev.modes] == [m.tolist() for m in modes]
    # mode 3 of the second angle lives only under the dropped mode -5 of the first
    assert [sorted(m.tolist()) for m in modes] == [[0, 3], [-1, 0, 2]]
    assert np.array_equal(ev.fhat, fhat)


def test_norm2_matches_the_product_rule():
    g = polar_grid(2, 10, 8, 5.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 3) * (z[..., 0] + 2j * z[..., 1] ** 2), g)
    want = np.sqrt(np.sum(g.quadrature_weights() * np.abs(f.values) ** 2))
    assert f.norm2() == pytest.approx(want, rel=1e-14)
    assert f.norm2() == pytest.approx(np.sqrt(inner_product(f, f).real), rel=1e-14)


def test_norm2_makes_no_field_sized_temporary():
    # |f|^2 is summed from the values' real view; taking np.abs would allocate
    # half the field
    g = polar_grid(2, 24, 64, 8.0)
    rng = np.random.default_rng(1)
    f = SampledField(g, rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    tracemalloc.start()
    try:
        got = f.norm2()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < f.values.nbytes / 100
    assert got == pytest.approx(np.sqrt(np.sum(g.quadrature_weights() * np.abs(f.values) ** 2)),
                                rel=1e-14)


def test_sphere_rule_circle_moments():
    # n = 1: the rule is the uniform circle measure; angular monomials average
    # to zero and |w|^2 is constant
    rule = build_sphere_rule(1, 1.3, 63)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    w = rule.nodes[:, 0]
    for m in range(1, 5):
        assert abs(np.sum(rule.weights * w**m)) < 1e-13
    assert np.sum(rule.weights * np.abs(w) ** 2) == pytest.approx(1.3**2, rel=1e-13)


@pytest.mark.parametrize("n, order, outer_count, inner_count", [
    (1, 63, 1, 64), (1, 6, 1, 7), (2, 16, 9, 17), (2, 5, 3, 6), (3, 4, 9, 5)])
def test_sphere_rule_is_its_factors_written_out(n, order, outer_count, inner_count):
    # node (q, x_1, .., x_n) = (w_1[q, x_1], .., w_n[q, x_n]), weight
    # outer[q] / (X_1 .. X_n), in that order: (order // 2 + 1)^(n - 1) outer
    # nodes and order + 1 phases per coordinate
    rule = build_sphere_rule(n, 1.3, order)
    outer, coordinates = rule.outer, rule.coordinates
    assert outer.shape == (outer_count,)
    assert [w.shape for w in coordinates] == [(outer_count, inner_count)] * n
    grid = np.meshgrid(np.arange(outer_count), *[np.arange(inner_count)] * n, indexing="ij")
    q = grid[0].ravel()
    nodes = np.stack([w[q, x.ravel()] for w, x in zip(coordinates, grid[1:])], axis=1)
    assert np.array_equal(rule.nodes, nodes)
    assert np.array_equal(rule.weights, outer[q] / inner_count**n)


def test_sphere_rule_n2_consistency():
    # doubling the order does not change smooth integrals (exactness check)
    fn = lambda w: np.exp(w[:, 0].real) * (1 + np.abs(w[:, 1]) ** 2) + (w[:, 0] * np.conj(w[:, 1])).real
    r = 1.1
    lo = build_sphere_rule(2, r, 16)
    hi = build_sphere_rule(2, r, 32)
    a = np.sum(lo.weights * fn(lo.nodes))
    b = np.sum(hi.weights * fn(hi.nodes))
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))
    assert np.all(np.abs(np.abs(lo.nodes[:, 0]) ** 2 + np.abs(lo.nodes[:, 1]) ** 2 - r**2) < 1e-12)


def test_sphere_rule_checks_its_factors():
    rule = build_sphere_rule(2, 1.3, 5)
    with pytest.raises(DimensionMismatch, match="sum to 1"):
        SphereRule(2, 1.3, 2 * rule.outer, rule.coordinates, 5)
    w1, w2 = rule.coordinates
    off = w2.copy()
    off[1, 3] *= 1 + 1e-9  # one product node per x_1 leaves |w| = r
    with pytest.raises(DimensionMismatch, match="lie on"):
        SphereRule(2, 1.3, rule.outer, (w1, off), 5)
    # one coordinate array for n = 2, of unit moduli: the weights and radii
    # pass, and its product nodes could not be written out
    unit = build_sphere_rule(2, 1.0, 5)
    w = np.exp(1j * np.angle(unit.coordinates[0]))
    for coordinates in ((w,), (w, w[:, :, None]), (w, w[:-1])):
        with pytest.raises(DimensionMismatch, match="coordinate arrays"):
            SphereRule(2, 1.0, unit.outer, coordinates, 5)
    with pytest.raises(DimensionMismatch, match="n >= 1"):
        build_sphere_rule(0, 1.0, 5)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_sphere_rule_outer_weights_give_the_dirichlet_moments(n):
    # the shares t_j = |w_j|^2 / r^2 are uniform on the simplex, whose
    # moments E[prod t_j^p_j] = (n - 1)! prod p_j! / (|p| + n - 1)! the
    # order-16 rule integrates exactly up to |p| = 8, and every node's
    # shares sum to 1
    rule = build_sphere_rule(n, 1.7, 16)
    t = np.stack([np.abs(w[:, 0]) ** 2 for w in rule.coordinates], axis=1) / 1.7**2
    assert np.max(np.abs(t.sum(axis=1) - 1)) < 1e-14
    for w in rule.coordinates:
        assert np.ptp(np.abs(w), axis=1).max() < 1e-14
    for p in np.ndindex(*[9] * n):
        if sum(p) <= 8:
            exact = (factorial(n - 1) * np.prod([factorial(q) for q in p])
                     / factorial(sum(p) + n - 1))
            assert rule.outer @ np.prod(t ** np.array(p), axis=1) == pytest.approx(
                exact, rel=1e-13, abs=1e-15), p


def test_field_io_bit_identical_round_trip(tmp_path):
    g = default_grid(1)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + 1j * z[..., 0]), g,
               metadata="round trip")
    path = tmp_path / "f.field"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == f.grid
    assert back.metadata == f.metadata
    assert np.array_equal(back.values, f.values)
    # a second write is byte-identical
    path2 = tmp_path / "f2.field"
    write_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_field_io_complex64(tmp_path):
    g = polar_grid(1, 8, 8, 4.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    path = tmp_path / "f32.field"
    write_field(f, path, dtype="complex64")
    back = read_field(path)
    assert np.max(np.abs(back.values - f.values)) < 1e-6


def test_field_io_malformed(tmp_path):
    g = polar_grid(1, 8, 8, 4.0)
    f = sample(lambda z: np.abs(z[..., 0]), g)
    path = tmp_path / "f.field"
    write_field(f, path)
    raw = path.read_bytes()
    truncated = tmp_path / "trunc.field"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(MalformedFile):
        read_field(truncated)
    garbled = tmp_path / "garbled.field"
    garbled.write_bytes(b"not json\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(MalformedFile):
        read_field(garbled)
    bumped = tmp_path / "versioned.field"
    head, rest = raw.split(b"\n", 1)
    bumped.write_bytes(head.replace(b'"version": 1', b'"version": 99') + b"\n" + rest)
    with pytest.raises((VersionMismatch, MalformedFile)):
        read_field(bumped)


def _small_field_bytes(tmp_path, periodic=False):
    """The 8x8 field file of test_field_io_malformed (or a periodic variant)."""
    g = polar_grid(1, 8, 8, 4.0)
    if periodic:
        f = sample_periodic(lambda z, t: np.abs(z[..., 0]) * np.cos(t[0]), g, [4])
    else:
        f = sample(lambda z: np.abs(z[..., 0]), g)
    path = tmp_path / "small.field"
    write_field(f, path)
    return path.read_bytes()


def test_field_io_every_truncation_is_malformed(tmp_path):
    raw = _small_field_bytes(tmp_path)
    cut = tmp_path / "cut.field"
    # every cut before the final newline loses header or payload bytes
    for k in range(len(raw) - 1):
        cut.write_bytes(raw[:k])
        with pytest.raises(MalformedFile):
            read_field(cut)


def test_field_io_any_0xff_byte_gives_a_typed_error(tmp_path):
    raw = _small_field_bytes(tmp_path)
    bad = tmp_path / "bad.field"
    for k in range(len(raw)):
        bad.write_bytes(raw[:k] + b"\xff" + raw[k + 1:])
        try:
            read_field(bad)
        except (MalformedFile, VersionMismatch):
            pass


@pytest.mark.parametrize("periodic, key, value, message", [
    (False, "count", None, "'count' must be a non-negative integer"),
    (False, "count", "64", "'count' must be a non-negative integer"),
    (False, "count", 63, "payload holds 1024 bytes"),
    (False, "dtype", ["complex128"], "unsupported dtype"),
    (False, "metadata", {"a": 1}, "metadata must be a string"),
    (False, "kind", "sphere", "unknown kind"),
    (True, "m", None, "'m' must be a non-negative integer"),
    (True, "center_counts", ["four"], "center_counts must be a list of integers"),
    (True, "center_counts", [2, 2], "invalid periodic file: center_counts must have length m"),
    (False, "grid.radial_nodes", [[]], "invalid grid header"),
    (False, "grid.radial_weights", [[1.0]], "invalid grid header"),
    (False, "grid.n", 1e400, "invalid grid header"),
    (False, "grid.angular_counts", [6], "invalid grid header: angular count 6"),
], ids=["count-missing", "count-string", "count-short", "dtype-list", "metadata-dict",
        "kind-unknown", "m-missing", "center-counts-string", "center-counts-length",
        "grid-nodes-empty", "grid-weights-short", "grid-n-overflow", "grid-angles-not-pow2"])
def test_field_io_ill_typed_header_is_malformed(tmp_path, periodic, key, value, message):
    head, body = _small_field_bytes(tmp_path, periodic).split(b"\n", 1)
    header = json.loads(head)
    *parents, leaf = key.split(".")
    target = header
    for name in parents:
        target = target[name]
    if value is None:
        del target[leaf]
    else:
        target[leaf] = value
    bad = tmp_path / "bad.field"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(MalformedFile, match=message):
        read_field(bad)


def test_field_io_deeply_nested_header_is_malformed(tmp_path):
    bad = tmp_path / "deep.field"
    bad.write_bytes(b"[" * 100000 + b"\n")
    with pytest.raises(MalformedFile):
        read_field(bad)


def test_periodic_field_sampling():
    g = polar_grid(1, 8, 8, 4.0)
    pf = sample_periodic(lambda z, t: np.exp(-np.abs(z[..., 0]) ** 2) * np.cos(t[0]), g, [8])
    assert pf.values.shape == g.shape + (8,)
    assert pf.center_angles(0)[1] == pytest.approx(2 * np.pi / 8)
