"""Reconstruction from spherical means, one-radius counterexamples,
weighted norms, and two-radii admissibility / recovery."""

import numpy as np
import pytest

from metivier.errors import (
    DimensionMismatch,
    InadmissibleRadii,
    NoUsableRadius,
    RangeExceeded,
    UnsupportedDimension,
)
from metivier.grids import build_sphere_rule, default_grid, polar_grid, sample, sample_periodic
from metivier.injectivity import (
    RadialMeasure,
    euclidean_mean,
    euclidean_two_radii_invert,
    inadmissible_radius_pair,
    measure_mean,
    one_radius_counterexample,
    reconstruct_from_means,
    reconstruct_from_measure_mean,
    two_radii_check,
    two_radii_reconstruct,
    weighted_norm,
)
from metivier.special import bessel_zeros, laguerre_zeros, psi_alpha_beta, theta_k, theta_radial
from metivier.structures import builtin_structure, symplectic_spectrum
from metivier.transforms import mean_eigenvalue, reduced_mean, twisted_mean

LAM1 = np.array([1.0])


@pytest.fixture(scope="module")
def g1():
    return default_grid(1)


# ---------------------------------------------------------------------------
# Radial measures and annihilation
# ---------------------------------------------------------------------------


def test_radial_measure_validation():
    RadialMeasure([1.0, 2.0], [0.5, 0.5])
    RadialMeasure([1.0, 2.0], [0.0, 1.0])  # zero weights allowed
    with pytest.raises(DimensionMismatch):
        RadialMeasure([1.0, 1.0], [0.5, 0.5])  # duplicate radius
    with pytest.raises(DimensionMismatch):
        RadialMeasure([1.0, -2.0], [0.5, 0.5])
    with pytest.raises(DimensionMismatch):
        RadialMeasure([1.0, 2.0], [0.5, 0.6])  # not a probability vector
    mu = RadialMeasure([1.0, 2.0], [0.3, 0.7])
    assert mu.atoms == ((1.0, 0.3), (2.0, 0.7))


def test_one_radius_counterexample_annihilation(g1):
    ce = one_radius_counterexample(1, LAM1)
    # L_1 has its zero at 1, so the blind radius is sqrt(2)
    assert ce.radius == pytest.approx(np.sqrt(2.0), abs=1e-12)
    assert ce.degree == 1
    assert ce.mean_residual < 1e-8
    assert ce.field.norm2() > 0
    # higher zero index picks a larger blind radius
    ce2 = one_radius_counterexample(3, LAM1, zero_index=2)
    assert ce2.radius > ce.radius
    assert ce2.mean_residual < 1e-8
    with pytest.raises(RangeExceeded):
        one_radius_counterexample(0, LAM1)
    with pytest.raises(RangeExceeded):
        one_radius_counterexample(1, [1.0, 2.0], n=2)
    # the twist is checked before the blind radius sqrt(2 x0 / lam) is formed
    for lam in ([-1.0], [0.0]):
        with pytest.raises(RangeExceeded):
            one_radius_counterexample(1, lam)


def test_measure_multiplier_and_designed_cancellation():
    # the scalar the aggregated mean applies on block k: sum_i w_i c_k theta_k(r_i)
    def multiplier(mu, k):
        return mean_eigenvalue(k, LAM1, mu.radii) @ mu.weights

    # single atom: just theta_k at the radius
    mu1 = RadialMeasure([np.sqrt(2.0)], [1.0])
    assert abs(multiplier(mu1, 1)) < 1e-14
    assert multiplier(mu1, 0) == pytest.approx(np.exp(-0.5), rel=1e-12)
    # two atoms with weights solved to cancel the degree-2 block:
    # theta_2 changes sign between r = 1 and r = 2
    t1 = float(theta_radial(2, LAM1, np.array(1.0)))
    t2 = float(theta_radial(2, LAM1, np.array(2.0)))
    assert t1 > 0 > t2
    w = -t2 / (t1 - t2)
    mu = RadialMeasure([1.0, 2.0], [w, 1.0 - w])
    assert abs(multiplier(mu, 2)) < 1e-14
    assert abs(multiplier(mu, 0)) > 0.1


# ---------------------------------------------------------------------------
# Reconstruction from means
# ---------------------------------------------------------------------------


def test_single_radius_reconstruction_gaussian(g1):
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    mean = reduced_mean(f, LAM1, 1.0)
    result = reconstruct_from_means({1.0: mean}, LAM1, 25)
    assert result.unrecoverable == ()
    err = result.field.with_values(result.field.values - f.values).norm2()
    assert err < 1e-3 * f.norm2()
    # the divisor on each block is c_k theta_k(1)
    assert result.divisor[0] == pytest.approx(np.exp(-0.25), rel=1e-12)
    assert result.condition_number(0) == pytest.approx(np.exp(0.25), rel=1e-12)


def test_blind_radius_loses_exactly_its_degree(g1):
    # at r = sqrt(2) the degree-1 block is invisible; everything else returns
    f = sample(
        lambda z: theta_k(0, LAM1, z) + theta_k(1, LAM1, z) + 0.5 * theta_k(2, LAM1, z),
        g1,
    )
    mean = reduced_mean(f, LAM1, np.sqrt(2.0))
    result = reconstruct_from_means({np.sqrt(2.0): mean}, LAM1, 4)
    assert result.unrecoverable == (1,)
    want = sample(lambda z: theta_k(0, LAM1, z) + 0.5 * theta_k(2, LAM1, z), g1)
    err = result.field.with_values(result.field.values - want.values).norm2()
    assert err < 1e-6 * want.norm2()
    # adding a second radius that sees degree 1 restores everything
    mean2 = reduced_mean(f, LAM1, 0.7)
    both = reconstruct_from_means({np.sqrt(2.0): mean, 0.7: mean2}, LAM1, 4)
    assert both.unrecoverable == ()
    assert both.used_radius[1] == pytest.approx(0.7)
    err = both.field.with_values(both.field.values - f.values).norm2()
    assert err < 1e-6 * f.norm2()


def test_reconstruct_from_measure_mean_cancelled_block(g1):
    t1 = float(theta_radial(2, LAM1, np.array(1.0)))
    t2 = float(theta_radial(2, LAM1, np.array(2.0)))
    w = -t2 / (t1 - t2)
    mu = RadialMeasure([1.0, 2.0], [w, 1.0 - w])
    f = sample(
        lambda z: theta_k(0, LAM1, z) + theta_k(1, LAM1, z) + theta_k(2, LAM1, z), g1
    )
    mean = measure_mean(f, mu, LAM1)
    result = reconstruct_from_measure_mean(mean, mu, LAM1, 4)
    assert result.unrecoverable == (2,)
    want = sample(lambda z: theta_k(0, LAM1, z) + theta_k(1, LAM1, z), g1)
    err = result.field.with_values(result.field.values - want.values).norm2()
    assert err < 1e-6 * want.norm2()


def test_no_usable_radius(g1):
    # at r = 12 every theta_k is exponentially below the threshold
    zero = sample(lambda z: np.zeros(z.shape[:-1]), g1)
    with pytest.raises(NoUsableRadius):
        reconstruct_from_means({12.0: zero}, LAM1, 2)
    with pytest.raises(DimensionMismatch):
        reconstruct_from_means([zero], LAM1, 2)  # bare list without radii


def test_reconstruction_keeps_high_alpha_in_low_blocks(g1):
    # every block is expanded over |alpha| <= k_max + 2n + 4, not k + 2n + 4
    f = sample(lambda z: psi_alpha_beta((9,), (0,), LAM1, z)
               + psi_alpha_beta((2,), (3,), LAM1, z), g1)
    result = reconstruct_from_means({1.0: reduced_mean(f, LAM1, 1.0)}, LAM1, 4)
    err = result.field.with_values(result.field.values - f.values).norm2()
    assert err < 1e-6 * f.norm2()


def test_one_atom_measure_matches_single_radius_reconstruction(g1):
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]), g1)
    r = 1.3
    mean = reduced_mean(f, LAM1, r)
    a = reconstruct_from_measure_mean(mean, RadialMeasure([r], [1.0]), LAM1, 12)
    b = reconstruct_from_means({r: mean}, LAM1, 12)
    assert np.array_equal(a.field.values, b.field.values)
    assert a.divisor == b.divisor
    assert a.recovered_norm == b.recovered_norm
    assert a.unrecoverable == b.unrecoverable


def test_means_input_forms(g1):
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    mean = reduced_mean(f, LAM1, 1.0)
    a = reconstruct_from_means({1.0: mean}, LAM1, 6)
    b = reconstruct_from_means([(1.0, mean)], LAM1, 6)
    assert np.array_equal(a.field.values, b.field.values)
    with pytest.raises(DimensionMismatch):
        reconstruct_from_means([(1.0, mean), (1.0, mean)], LAM1, 6)


def test_reconstructions_divide_by_mean_eigenvalue(g1):
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]), g1)
    radii = [0.9, 1.7]
    means = reconstruct_from_means({r: reduced_mean(f, LAM1, r) for r in radii}, LAM1, 8)
    for k, r in means.used_radius.items():
        assert means.divisor[k] == mean_eigenvalue(k, LAM1, r)
    mu = RadialMeasure(radii, [0.4, 0.6])
    measure = reconstruct_from_measure_mean(measure_mean(f, mu, LAM1), mu, LAM1, 8)
    for k in measure.divisor:
        assert measure.divisor[k] == mean_eigenvalue(k, LAM1, mu.radii) @ mu.weights
    assert set(measure.used_radius.values()) == {None}


def test_negative_twist_is_inverted_by_conjugation(g1):
    # conjugated in z, the means at lam = -1.3 are the means at 1.3 of f
    # conjugated in z, so both reconstructions divide by the scalars at |lam|
    f = sample(lambda z: np.exp(-0.4 * np.abs(z[..., 0]) ** 2)
               * (1 + 0.5j * z[..., 0] - 0.3 * np.conj(z[..., 0]) ** 2), g1)
    lam, radii = [-1.3], [0.9, 1.6]
    mu = RadialMeasure(radii, [0.5, 0.5])
    means = reconstruct_from_means({r: reduced_mean(f, lam, r) for r in radii}, lam, 25)
    measure = reconstruct_from_measure_mean(measure_mean(f, mu, lam), mu, lam, 25)
    for result in (means, measure):
        assert result.unrecoverable == ()
        err = result.field.with_values(result.field.values - f.values).norm2()
        assert err < 1e-10 * f.norm2()
    for k, r in means.used_radius.items():
        assert means.divisor[k] == mean_eigenvalue(k, [1.3], r)


# ---------------------------------------------------------------------------
# Weighted norms (tempered growth)
# ---------------------------------------------------------------------------


def test_weighted_norm_analytic_value(g1):
    # |e^{-|z|^2} e^{|z|^2/4}|^2 integrates to 2 pi / 3
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    wn = weighted_norm(f, [1.0], p=2)
    assert wn.value == pytest.approx(np.sqrt(2 * np.pi / 3), rel=1e-10)
    assert not wn.boundary_dominated
    # a symplectic spectrum supplies its diagonal weights directly
    spec = symplectic_spectrum(builtin_structure("heisenberg:1"), [1.0])
    wn2 = weighted_norm(f, spec, p=2)
    assert wn2.value == pytest.approx(wn.value, rel=1e-12)


def test_weighted_norm_sup_and_boundary_flags(g1):
    decaying = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    wn = weighted_norm(decaying, [1.0], p=np.inf)
    # the sup sits at the origin; the innermost radial node is ~2e-3 away
    assert wn.value == pytest.approx(1.0, rel=1e-4)
    assert not wn.boundary_dominated
    # constant 1 times the weight grows: the sup sits on the outer shell
    flat = sample(lambda z: np.ones(z.shape[:-1]), g1)
    wn2 = weighted_norm(flat, [1.0], p=np.inf)
    assert wn2.boundary_dominated
    wn3 = weighted_norm(flat, [1.0], p=2)
    assert wn3.boundary_dominated
    with pytest.raises(DimensionMismatch):
        weighted_norm(flat, [1.0], p=0.5)
    with pytest.raises(DimensionMismatch):
        weighted_norm(flat, [-1.0])


@pytest.mark.parametrize("j", [0, 1, 2])
def test_weighted_norm_outer_shell_of_every_coordinate(j):
    # all of the field sits on the outermost radial node of coordinate j
    g = polar_grid(3, 6, 4, 4.0)
    values = np.zeros(g.shape, dtype=complex)
    np.moveaxis(values, 2 * j, 0)[-1] = 1.0
    field = sample(lambda z: np.zeros(z.shape[:-1]), g).with_values(values)
    for p in (2, np.inf):
        wn = weighted_norm(field, [1.0, 1.0, 1.0], p=p)
        assert wn.boundary_fraction == pytest.approx(1.0, rel=1e-12)
        assert wn.boundary_dominated


# ---------------------------------------------------------------------------
# Two-radii admissibility
# ---------------------------------------------------------------------------


def test_two_radii_check_admissible_pair():
    verdict = two_radii_check(1.0, 2.0, k_max=12, bessel_count=40)
    assert verdict.admissible
    assert verdict.laguerre_conflicts == ()
    assert verdict.bessel_conflicts == ()
    assert verdict.search_bounds == (12, 40, 1e-9)
    assert not verdict.anisotropic_best_effort


def test_two_radii_check_laguerre_conflict():
    r1, r2 = inadmissible_radius_pair(degree_i=2, index_i=0, index_j=1)
    # by construction r1^2/r2^2 = x_1/x_2 for the zeros of L_2
    z = laguerre_zeros(2, 0).zeros
    assert (r1 / r2) ** 2 == pytest.approx(z[0] / z[1], rel=1e-14)
    verdict = two_radii_check(r1, r2, k_max=6)
    assert not verdict.admissible
    assert any(ki == 2 and kj == 2 for ki, _, kj, _, _ in verdict.laguerre_conflicts)


def test_two_radii_check_bessel_conflict():
    bz = bessel_zeros(0, 2).zeros
    verdict = two_radii_check(bz[0] / bz[1], 1.0, k_max=4, bessel_count=10)
    assert not verdict.admissible
    assert (0, 1, 0.0) in verdict.bessel_conflicts


def test_two_radii_check_monotone_in_search_depth():
    # enlarging the search never flips an inadmissible verdict back
    r1, r2 = inadmissible_radius_pair(degree_i=3, index_i=0, index_j=2)
    for k_max in (4, 8, 16):
        assert not two_radii_check(r1, r2, k_max=k_max).admissible


def test_two_radii_check_anisotropic_best_effort():
    verdict = two_radii_check(1.0, 2.0, n=2, lambda_prime=[1.0, 2.0], k_max=3,
                              bessel_count=20)
    assert verdict.anisotropic_best_effort
    # isotropic twist does not trigger the flag
    v2 = two_radii_check(1.0, 2.0, n=2, lambda_prime=[1.5, 1.5], k_max=3,
                         bessel_count=20)
    assert not v2.anisotropic_best_effort


def _double_loop_conflicts(zeros, target, tol=1e-9, squared=False):
    hits = []
    for i, zi in enumerate(zeros):
        for j, zj in enumerate(zeros):
            ratio = (zi / zj) ** 2 if squared else zi / zj
            err = abs(ratio - target) / target
            if err < tol:
                hits.append((i, j, float(err)))
    return hits


def test_two_radii_conflicts_match_double_loop():
    r1, r2 = inadmissible_radius_pair(degree_i=5, index_i=1, index_j=3)
    verdict = two_radii_check(r1, r2, k_max=12, bessel_count=30)
    pool = [(k, i, z) for k in range(1, 13) for i, z in enumerate(laguerre_zeros(k, 0).zeros)]
    want = [pool[i][:2] + pool[j][:2] + (err,)
            for i, j, err in _double_loop_conflicts([z for *_, z in pool], (r1 / r2) ** 2)]
    assert want and verdict.laguerre_conflicts == tuple(want)
    bz = bessel_zeros(0, 30).zeros
    verdict = two_radii_check(bz[2], bz[5], k_max=4, bessel_count=30)
    want = _double_loop_conflicts(bz, bz[2] / bz[5])
    assert want and verdict.bessel_conflicts == tuple(want)


def test_two_radii_anisotropic_conflicts_match_double_loop():
    from metivier.injectivity import _anisotropic_block_zeros

    lam = np.array([1.0, 2.0])
    r_scan = float(np.sqrt(2 * laguerre_zeros(2, 1).zeros[-1] / lam.min())) * 1.05
    pool = [(k, i, z) for k in (1, 2) for i, z in enumerate(_anisotropic_block_zeros(k, lam, r_scan))]
    r1, r2 = pool[0][2], pool[-1][2]
    verdict = two_radii_check(r1, r2, n=2, lambda_prime=lam, k_max=2, bessel_count=10)
    want = [pool[i][:2] + pool[j][:2] + (err,) for i, j, err in
            _double_loop_conflicts([z for *_, z in pool], (r1 / r2) ** 2, squared=True)]
    assert want and verdict.laguerre_conflicts == tuple(want)


def _matrix_conflicts(zeros, target, tol, squared=False):
    """The brute-force scan: every ratio of the full matrix against target."""
    zeros = np.asarray(zeros, dtype=float)
    ratios = zeros[:, None] / zeros[None, :]
    if squared:
        ratios = np.float_power(ratios, 2)
    err = np.abs(ratios - target) / target
    return [(int(i), int(j), float(err[i, j])) for i, j in np.argwhere(err < tol)]


def _conflict_pools():
    from metivier.injectivity import _anisotropic_block_zeros

    isotropic = np.concatenate([laguerre_zeros(k, 0).zeros for k in range(1, 41)])
    r1, r2 = inadmissible_radius_pair(degree_i=7, index_i=2, index_j=5)
    yield isotropic, (r1 / r2) ** 2, False
    lam = np.array([1.0, 2.0])
    r_scan = float(np.sqrt(2 * laguerre_zeros(4, 1).zeros[-1] / lam.min())) * 1.05
    anisotropic = np.concatenate([_anisotropic_block_zeros(k, lam, r_scan) for k in range(1, 5)])
    yield anisotropic, (anisotropic[1] / anisotropic[-2]) ** 2, True


@pytest.mark.parametrize("tol", [1e-9, 1e-3])
@pytest.mark.parametrize("offset", [0.0, 0.5, -0.5, 2.0, -2.0])
def test_ratio_conflicts_match_the_full_matrix(tol, offset):
    from metivier.injectivity import _ratio_conflicts

    for zeros, exact, squared in _conflict_pools():
        # an exact hit, and targets at relative distance 0.5 tol and 2 tol from it
        target = exact * (1 + offset * tol)
        got = _ratio_conflicts(zeros, target, tol, squared=squared)
        want = _matrix_conflicts(zeros, target, tol, squared=squared)
        assert got == want
        assert want or abs(offset) > 1


@pytest.mark.parametrize("lam", [(1.0, 2.0), (0.7, 1.9)])
def test_sphere_average_profile_equals_full_sphere_rule(lam):
    from metivier.grids import build_sphere_rule
    from metivier.injectivity import _sphere_average_profile

    lam = np.array(lam)
    rs = np.linspace(0.1, 6.0, 20)
    for k in range(5):
        full = []
        for r in rs:
            rule = build_sphere_rule(2, r, 16)
            full.append(np.real(np.sum(rule.weights * theta_k(k, lam, rule.nodes))))
        got = _sphere_average_profile(k, lam)(rs)
        assert np.max(np.abs(got - full)) < 1e-14


@pytest.mark.parametrize("lam", [(1.0, 2.0), (0.7, 1.9)])
def test_anisotropic_block_zeros_match_simplex_integral(lam):
    # on |w| = r in C^2, t = |w_1|^2 / r^2 is uniform on [0, 1], so the sphere
    # average of theta_k is a 1-D integral of L_k^1(s) e^{-s/2} in t
    from scipy.optimize import brentq
    from scipy.special import eval_genlaguerre

    from metivier.injectivity import _anisotropic_block_zeros

    lam = np.array(lam)
    x, w = np.polynomial.legendre.leggauss(100)
    t, w = (x + 1) / 2, w / 2
    r_scan = float(np.sqrt(2 * laguerre_zeros(4, 1).zeros[-1] / lam.min())) * 1.05
    rr = np.linspace(r_scan / 2000, r_scan, 2000)
    for k in range(1, 5):
        def average(r):
            s = np.multiply.outer(np.square(r), lam[0] * t + lam[1] * (1 - t)) / 2
            return (eval_genlaguerre(k, 1, s) * np.exp(-s / 2)) @ w

        v = average(rr)
        want = [brentq(average, rr[i], rr[i + 1], xtol=1e-15)
                for i in np.flatnonzero(v[:-1] * v[1:] < 0)]
        got = _anisotropic_block_zeros(k, lam, r_scan)
        assert len(got) == len(want) == k
        np.testing.assert_allclose(got, want, rtol=1e-10, atol=0)


@pytest.mark.parametrize("n, l, lam, grid", [
    (1, 2, [1.2], default_grid(1)),
    (2, 1, [1.05, 1.05], polar_grid(2, 20, 16, 7.0)),
])
def test_one_radius_counterexample_field_is_sampled_theta(n, l, lam, grid):
    from metivier.transforms import reduced_mean_at

    ce = one_radius_counterexample(l, lam, n=n, grid=grid)
    want = sample(lambda z: theta_k(l, lam, z), grid)
    assert np.max(np.abs(ce.field.values - want.values)) < 1e-14 * want.max_abs()
    assert ce.radius == np.sqrt(2 * laguerre_zeros(l, n - 1).zeros[0] / lam[0])
    # the residual is the sphere-rule mean of the sampled field at the
    # function's seeded probe points
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.5 * grid.r_max, (6, n)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (6, n)))
    mean = reduced_mean_at(want, lam, ce.radius, pts)
    assert abs(ce.mean_residual - np.max(np.abs(mean)) / want.max_abs()) < 1e-15


def test_witness_residual_on_four_angles_matches_the_full_grid():
    # the residual is taken on a 4-angle copy of the grid; on the default
    # n = 2 grid it equals the sphere-rule mean of the full-grid field
    from metivier.transforms import reduced_mean_at

    lam = [1.03, 1.03]
    ce = one_radius_counterexample(1, lam, n=2)
    assert ce.field.grid == default_grid(2)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.5 * ce.field.grid.r_max, (6, 2)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (6, 2)))
    mean = reduced_mean_at(ce.field, lam, ce.radius, pts)
    assert abs(ce.mean_residual - np.max(np.abs(mean)) / ce.field.max_abs()) <= 1e-15


def test_witness_makes_no_full_grid_copy():
    # the n = 2 field is a broadcast of one profile per last angle, so
    # building it and taking its maximum stay far below the field's size
    import tracemalloc

    tracemalloc.start()
    try:
        ce = one_radius_counterexample(1, [1.03, 1.03], n=2)
        peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        ce.field.max_abs()
        max_abs_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    size = ce.field.values.nbytes
    assert ce.field.values.shape == default_grid(2).shape
    assert peak < 0.2 * size
    assert max_abs_peak < 0.02 * size


@pytest.mark.parametrize("n, lam, grid", [
    (2, [1.05, 1.05], polar_grid(2, 10, 8, 6.0)),
    (1, [1.2], default_grid(1)),
])
def test_witness_field_file_matches_its_contiguous_copy(tmp_path, n, lam, grid):
    from metivier.fieldio import write_field

    ce = one_radius_counterexample(1, lam, n=n, grid=grid)
    copy = ce.field.with_values(np.array(ce.field.values))
    for dtype in ("complex128", "complex64"):
        write_field(ce.field, tmp_path / "witness.field", dtype)
        write_field(copy, tmp_path / "copy.field", dtype)
        assert (tmp_path / "witness.field").read_bytes() == (tmp_path / "copy.field").read_bytes()


def test_radii_verdict_csv(tmp_path):
    r1, r2 = inadmissible_radius_pair()
    verdict = two_radii_check(r1, r2, k_max=4)
    path = tmp_path / "verdict.csv"
    verdict.to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "family,degree_i,index_i,degree_j,index_j,relative_error"
    assert any(line.startswith("laguerre,2,") for line in lines[1:])


# ---------------------------------------------------------------------------
# Euclidean (untwisted) central mode
# ---------------------------------------------------------------------------


def test_euclidean_mean_of_harmonic_gaussian(g1):
    # the circle mean of e^{-|z|^2} at radius r, centred at z, is
    # e^{-r^2} e^{-|z|^2} I_0(2 r |z|); check at the origin
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    mean = euclidean_mean(f, 1.0)
    assert mean.values[0, 0] == pytest.approx(np.exp(-1.0), rel=1e-8)


def test_euclidean_mean_of_harmonic_gaussian_at_every_node(g1):
    # e^{-r^2} e^{-|z|^2} I_0(2 r |z|) at every grid node, not only the origin
    from scipy.special import i0

    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    rz = np.abs(np.broadcast_to(g1.coordinate_axes()[0], g1.shape))
    for r in (0.8, 1.3, 3.0):
        want = np.exp(-r**2) * np.exp(-rz**2) * i0(2 * r * rz)
        assert np.max(np.abs(euclidean_mean(f, r).values - want)) < 1e-12


def test_euclidean_two_radii_inversion(g1):
    fn = lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0])
    f = sample(fn, g1)
    m1 = euclidean_mean(f, 0.8)
    m2 = euclidean_mean(f, 1.3)
    recon = euclidean_two_radii_invert(m1, m2, 0.8, 1.3)
    err = recon.with_values(recon.values - f.values).norm2()
    assert err < 1e-6 * f.norm2()


# ---------------------------------------------------------------------------
# Full two-radii verification on the periodized group
# ---------------------------------------------------------------------------


def test_two_radii_reconstruct(g1):
    pf = sample_periodic(
        lambda z, t: np.exp(-np.abs(z[..., 0]) ** 2)
        + theta_k(2, LAM1, z) * np.cos(t[0]),
        g1, [8],
    )
    report = two_radii_reconstruct(pf, 1.0, 2.0, k_max=8, ell_max=1)
    assert report.overall_error < 1e-3
    assert set(report.mode_errors) == {-1, 0, 1}
    for ell in (-1, 1):
        assert report.mode_errors[ell] < 1e-6
        detail = report.mode_details[ell]
        assert detail["unrecoverable"] == ()
        assert all(c >= 1.0 or c > 0 for c in detail["condition_numbers"].values())
    d = report.to_json_dict()
    assert d["admissible"] is True
    assert d["r1"] == 1.0 and d["r2"] == 2.0


def test_two_radii_reconstruct_rejects_inadmissible():
    g = polar_grid(1, 8, 8, 4.0)
    pf = sample_periodic(lambda z, t: np.exp(-np.abs(z[..., 0]) ** 2), g, [8])
    r1, r2 = inadmissible_radius_pair()
    with pytest.raises(InadmissibleRadii):
        two_radii_reconstruct(pf, r1, r2, k_max=4)


@pytest.mark.parametrize("mean", [
    lambda f: reduced_mean(f, [1.0, 1.0], 1.0),
    lambda f: twisted_mean(f, builtin_structure("heisenberg:2"), [1.0], 1.0),
    lambda f: measure_mean(f, RadialMeasure([1.0], [1.0]), [1.0, 1.0]),
    lambda f: euclidean_mean(f, 1.0),
], ids=["reduced", "twisted", "measure", "euclidean"])
def test_full_grid_means_reject_n2_fields(mean):
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)), polar_grid(2, 8, 8, 4.0))
    with pytest.raises(UnsupportedDimension):
        mean(f)


def test_measure_mean_is_the_weighted_sum_of_reduced_means(g1):
    # one evaluator and one contraction over every atom's circle nodes
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 3)
               * (1 + z[..., 0] - 0.3 * np.conj(z[..., 0]) ** 2), g1)
    mu = RadialMeasure([0.7, 1.3, 2.9], [0.2, 0.5, 0.3])
    for lam in (LAM1, np.array([-1.4])):
        want = sum(w * reduced_mean(f, lam, r).values for r, w in mu.atoms)
        got = measure_mean(f, mu, lam).values
        assert np.max(np.abs(got - want)) < 1e-14 * f.max_abs()
    # nine atoms take three passes of the barycentric matrix
    mu = RadialMeasure(np.linspace(0.5, 4.5, 9), np.full(9, 1 / 9))
    want = sum(w * reduced_mean(f, LAM1, r).values for r, w in mu.atoms)
    assert np.max(np.abs(measure_mean(f, mu, LAM1).values - want)) < 1e-14 * f.max_abs()


@pytest.mark.parametrize("make, bad", [
    (lambda f: RadialMeasure([np.nan], [1.0]), "nan"),
    (lambda f: RadialMeasure([np.inf], [1.0]), "inf"),
    (lambda f: RadialMeasure([1.0], [np.nan]), "nan"),
    (lambda f: RadialMeasure([1.0, 2.0], [0.5, np.inf], normalized=False), "inf"),
    (lambda f: reconstruct_from_means({np.nan: f}, [1.0], 4), "nan"),
    (lambda f: reconstruct_from_means([(1.0, f), (np.inf, f)], [1.0], 4), "inf"),
    (lambda f: build_sphere_rule(1, np.nan, 8), "nan"),
    (lambda f: build_sphere_rule(1, np.inf, 8), "inf"),
    (lambda f: build_sphere_rule(2, np.nan, 16), "nan"),
    (lambda f: RadialMeasure([], [], normalized=False), "nonempty"),
], ids=["measure-radius-nan", "measure-radius-inf", "measure-weight-nan",
        "measure-weight-inf", "means-radius-nan", "means-radius-inf", "rule-nan",
        "rule-inf", "rule-n2-nan", "measure-empty"])
def test_bad_radii_and_weights_are_rejected_by_value(g1, make, bad):
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g1)
    with pytest.raises(DimensionMismatch, match=bad):
        make(f)
