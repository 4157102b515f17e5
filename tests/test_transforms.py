"""Twisted means, twisted convolution, spectral projections and series,
radialization, homogeneous expansions, the twisted Laplacian, center Fourier."""

import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from metivier import grids, transforms
from metivier.errors import (
    DimensionMismatch,
    GridMismatch,
    GridTooCoarse,
    MalformedFile,
    NonFiniteValue,
    NyquistViolation,
    RangeExceeded,
    TruncationDominates,
    VersionMismatch,
)
from metivier.grids import (
    FieldEvaluator,
    SampledField,
    angular_mode_coefficients,
    build_sphere_rule,
    default_grid,
    inner_product,
    polar_grid,
    sample,
    sample_periodic,
)
from metivier.special import mean_factor, psi_alpha_beta, special_hermite_1d, theta_k, theta_radial
from metivier.structures import (
    MetivierStructure,
    builtin_structure,
    complex_from_real,
    normal_form_matrix,
    real_from_complex,
    rotate_field,
    symplectic_spectrum,
    v_lambda,
)
from metivier.transforms import (
    DEFAULT_SPHERE_ORDER,
    MAX_TRUNCATION,
    HermiteCoefficients,
    _analyse,
    _block_pairs,
    _coefficient_matrix,
    _gram_defect,
    _matrix_coefficients,
    _radial_profiles,
    _synthesize_values,
    apply_twisted_laplacian,
    decompose,
    fourier_coefficient_center,
    matrix_coefficient,
    mean_eigenvalue,
    modified_twisted_mean_at,
    read_spectrum,
    reduced_mean,
    reduced_mean_at,
    spectral_projection,
    synthesize,
    twisted_convolution,
    twisted_convolution_at,
    twisted_mean,
    twisted_mean_at,
    write_spectrum,
)

LAM1 = np.array([1.0])


def _theta_field(k, lam, grid):
    return sample(lambda z: theta_k(k, np.atleast_1d(lam), z), grid)


def _gauss_field(grid):
    return sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)), grid)


@pytest.fixture(scope="module")
def g1():
    return default_grid(1)


# ---------------------------------------------------------------------------
# Means
# ---------------------------------------------------------------------------


def test_mean_factors_through_laguerre_kernel(g1):
    # the reduced-twist mean multiplies theta_k by c_k theta_k(r)
    pts = np.array([[0.6 + 0.2j], [0.25 - 1.1j], [1.4 + 0.9j]])
    for lam in (np.array([1.0]), np.array([2.0])):
        for k in (0, 1, 3):
            f = _theta_field(k, lam, g1)
            for r in (0.5, 1.0, 2.0):
                got = reduced_mean_at(f, lam, r, pts)
                want = (mean_factor(k, 1) * float(theta_radial(k, lam, np.array(r)))
                        * theta_k(k, lam, pts).ravel())
                assert np.max(np.abs(got - want)) < 1e-10 * f.max_abs()


def test_full_grid_mean_matches_pointwise(g1):
    f = _gauss_field(g1)
    mean = reduced_mean(f, LAM1, 1.2)
    axes = g1.coordinate_axes()
    pts = np.broadcast_to(axes[0], g1.shape).reshape(-1, 1)[:: 617]
    at = reduced_mean_at(f, LAM1, 1.2, pts)
    assert np.max(np.abs(mean.values.reshape(-1)[::617] - at)) < 1e-10


def _psi_sum_field(grid, lam=1.0, index_max=8, seed=3):
    """Seeded sum of Psi_{a,b}, a, b <= index_max: 2 index_max + 1 live angular modes."""
    rng = np.random.default_rng(seed)
    vals = np.zeros(grid.shape, dtype=complex)
    for a in range(index_max + 1):
        for b in range(index_max + 1):
            prof = special_hermite_1d(a, b, lam, grid.radial_nodes[0].astype(complex))
            c = complex(rng.normal(), rng.normal())
            vals += c * np.outer(prof, np.exp(1j * (b - a) * grid.angles(0)))
    return SampledField(grid, vals)


def _seeded_nodes(grid, count, seed, angle_step=1):
    """`count` distinct grid nodes as (flat index, complex point); angle indices
    are multiples of angle_step."""
    rng = np.random.default_rng(seed)
    nr, na = grid.shape
    flat = rng.choice(nr * (na // angle_step), count, replace=False)
    i, j = np.divmod(flat, na // angle_step)
    j = j * angle_step
    pts = grid.radial_nodes[0][i] * np.exp(1j * grid.angles(0)[j])
    return i * na + j, pts[:, None]


def test_full_grid_mean_matches_high_order_oracle(g1):
    # the equivariant full-grid mean against order-1024 pointwise quadrature,
    # on a field with all 17 angular modes of a, b <= 8 live
    f = _psi_sum_field(g1)
    assert FieldEvaluator(f).modes[0].size == 17
    idx, pts = _seeded_nodes(g1, 40, seed=11)
    for r in (1.0, 1.7, 3.3):
        for lam in (np.array([1.0]), np.array([-1.3])):
            got = reduced_mean(f, lam, r).values.ravel()[idx]
            want = reduced_mean_at(f, lam, r, pts, order=1024)
            assert np.max(np.abs(got - want)) < 1e-8 * f.max_abs()


def test_full_grid_mean_of_a_high_angular_mode_matches_the_oracle(g1):
    # live modes +-40: the phases are the 40th powers of u / |u| and their
    # conjugates, whose rounding error builds up with the power
    f = sample(lambda z: (z[..., 0] ** 40 + np.conj(z[..., 0]) ** 40)
               * np.exp(-np.abs(z[..., 0]) ** 2 / 2), g1)
    assert set(FieldEvaluator(f).modes[0]) == {-40, 40}
    idx, pts = _seeded_nodes(g1, 40, seed=13)
    for r in (0.6, 1.7):
        got = reduced_mean(f, LAM1, r).values.ravel()[idx]
        want = reduced_mean_at(f, LAM1, r, pts, order=1024)
        assert np.max(np.abs(got - want)) < 1e-10 * f.max_abs()


def test_full_grid_mean_peak_memory_stays_below_two_interpolation_matrices(g1):
    # the (S K, N_r) real interpolation matrix is the largest array of the
    # mean: the real product on the coefficients' float view makes no complex
    # copy of it, and it is freed before the mode phases are formed
    f = _psi_sum_field(g1)
    nodes = DEFAULT_SPHERE_ORDER[1] + 1  # the default circle rule's node count
    matrix_bytes = len(g1.radial_nodes[0]) * nodes * len(g1.radial_nodes[0]) * 8
    reduced_mean(f, LAM1, 1.7)
    tracemalloc.start()
    try:
        reduced_mean(f, LAM1, 1.7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * matrix_bytes


def test_full_grid_mean_zero_fill_near_r_max(g1):
    # a field still large at r_max, means over circles that leave the grid:
    # beyond r_max both paths treat the field as zero.  At grid angles that
    # are multiples of 2 pi / 64 the default 64-node circle rule maps onto
    # itself under the rotation, so the two paths sum the same terms.
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 50) * (1 + np.conj(z[..., 0]) / 4), g1)
    assert np.max(np.abs(f.values[-1])) > 0.05 * f.max_abs()
    step = g1.angular_counts[0] // 64
    idx, pts = _seeded_nodes(g1, 40, seed=12, angle_step=step)
    for r in (10.5, 11.9):
        assert np.count_nonzero(np.abs(pts[:, 0]) + r > g1.r_max) > 20
        got = reduced_mean(f, LAM1, r).values.ravel()[idx]
        want = reduced_mean_at(f, LAM1, r, pts, order=DEFAULT_SPHERE_ORDER[1])
        assert np.max(np.abs(got - want)) < 1e-12 * f.max_abs()


def test_full_grid_mean_is_rotation_equivariant(g1):
    # rotating the input by a grid angle (a roll of the angular axis) rotates
    # the mean by the same angle, also for angles off the sphere rule
    f = _psi_sum_field(g1)
    for shift in (4, 37):
        rotated = f.with_values(np.roll(f.values, shift, axis=1))
        for lam in (np.array([1.0]), np.array([-1.3])):
            mean = reduced_mean(f, lam, 1.7)
            got = reduced_mean(rotated, lam, 1.7)
            want = np.roll(mean.values, shift, axis=1)
            assert np.max(np.abs(got.values - want)) < 1e-12 * f.max_abs()


def test_full_grid_twisted_mean_matches_pointwise(g1):
    # n = 1 structures V_lambda = [[0, a], [-a, 0]] of either sign
    f = _psi_sum_field(g1)
    step = g1.angular_counts[0] // 64
    idx_rule, pts_rule = _seeded_nodes(g1, 40, seed=13, angle_step=step)
    idx, pts = _seeded_nodes(g1, 40, seed=14)
    scaled = MetivierStructure(1, 1, np.array([[[0.0, 2.5], [-2.5, 0.0]]]), "scaled")
    for st, lam in ((builtin_structure("heisenberg:1"), np.array([0.8])),
                    (builtin_structure("heisenberg:1"), np.array([-1.3])),
                    (scaled, np.array([0.6]))):
        mean = twisted_mean(f, st, lam, 0.9).values.ravel()
        rule_nodes = twisted_mean_at(f, st, lam, 0.9, pts_rule, order=DEFAULT_SPHERE_ORDER[1])
        assert np.max(np.abs(mean[idx_rule] - rule_nodes)) < 1e-12 * f.max_abs()
        high_order = twisted_mean_at(f, st, lam, 0.9, pts, order=1024)
        assert np.max(np.abs(mean[idx] - high_order)) < 1e-8 * f.max_abs()


def test_mean_eigenvalue_matches_direct(g1):
    assert mean_eigenvalue(2, LAM1, 1.5) == pytest.approx(
        mean_factor(2, 1) * float(theta_radial(2, LAM1, np.array(1.5))), rel=1e-13
    )
    # vectorised in r: an array of radii gives the scalar at each radius
    r = np.array([0.4, 1.5, 2.2])
    lam2 = np.array([1.3, 1.3])
    assert mean_eigenvalue(3, lam2, r).tolist() == [mean_eigenvalue(3, lam2, x) for x in r]
    with pytest.raises(RangeExceeded):
        mean_eigenvalue(2, [1.0, 2.0], 1.0)


def test_twisted_mean_equals_modified_mean_after_rotation(g1):
    # heisenberg n = 1: the normal-form rotation carries the general twisted
    # mean to the reduced-twist mean of the rotated field
    st = builtin_structure("heisenberg:1")
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * (1 + z[..., 0]), g1)
    pts = np.array([[0.5 + 0.1j], [1.1 - 0.7j]])
    for lam in (np.array([0.8]), np.array([-1.3])):
        spec = symplectic_spectrum(st, lam)
        tm = twisted_mean_at(f, st, lam, 0.9, pts)
        rot = rotate_field(f, spec, direction="forward")
        rpts = complex_from_real(real_from_complex(pts) @ spec.a)
        mm = modified_twisted_mean_at(rot, spec, 0.9, rpts)
        assert np.max(np.abs(tm - mm)) < 1e-8 * np.max(np.abs(tm))


# Every multi-index in N^2 of total degree <= 4, and a grid that resolves the
# special Hermite functions with those indices.  On polar_grid(2, 24, 16, 7.0)
# the radial interpolation alone misses the mean identity by up to 3.5e-7 at
# twist 2, and the round trip loses up to 1.3e-4 to the window at twist 1.2.
INDICES_2 = [a for a in np.ndindex(5, 5) if sum(a) <= 4]
GRID_2 = polar_grid(2, 32, 16, 7.0)


@seed(2024)
@settings(max_examples=10, deadline=None, database=None)
@given(c=st.floats(1.2, 2.0), r=st.floats(0.5, 2.0), alpha=st.sampled_from(INDICES_2),
       beta=st.sampled_from(INDICES_2), point_seed=st.integers(0, 2**16))
def test_reduced_mean_of_psi_is_the_isotropic_eigenvalue(c, r, alpha, beta, point_seed):
    # the pointwise mean kernel against the special-function oracle
    lam = np.array([c, c])
    f = sample(lambda z: psi_alpha_beta(alpha, beta, lam, z), GRID_2)
    rng = np.random.default_rng(point_seed)
    pts = rng.uniform(0.2, 1.0, (3, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 2)))
    want = mean_eigenvalue(sum(beta), lam, r) * psi_alpha_beta(alpha, beta, lam, pts)
    assert np.max(np.abs(reduced_mean_at(f, lam, r, pts) - want)) < 1e-8


def _flat_rule_mean(field, v, r, points, order):
    """The pointwise sphere mean written out over the flat rule: the field
    evaluated at every node x - xi, times the phase e^{(i/2) x^T v xi}, summed
    with the node weights."""
    rule = build_sphere_rule(field.grid.n, r, order)
    x, xi = real_from_complex(points), rule.nodes_real()
    phase = np.exp(0.5j * ((x @ v) @ xi.T))
    shifted = complex_from_real(x[:, None, :] - xi[None, :, :]).reshape(-1, field.grid.n)
    return (FieldEvaluator(field)(shifted).reshape(len(x), -1) * phase) @ rule.weights


_MEAN_FIELDS = {
    # modes 0 on every axis, a single mode m != 0 per axis, several modes;
    # all still large at r_max = 5, so the zero fill past it shows
    "radial": lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 8),
    "one-mode": lambda z: (z[..., 0] ** 3 * np.conj(z[..., -1]) ** (2 * (z.shape[-1] - 1))
                           * np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 8)),
    "multi-mode": lambda z: ((1 + z[..., 0] - 0.4j * np.conj(z[..., -1]) ** 2
                              + 0.1 * z[..., 0] * z[..., -1] ** 3)
                             * np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 8)),
}
_MEAN_TWISTS = {1: ["isotropic", "negative", "heisenberg"],
                2: ["isotropic", "anisotropic", "negative", "quaternionic"]}


@pytest.fixture(scope="module")
def mean_fields():
    grids_by_n = {1: polar_grid(1, 24, 32, 5.0), 2: polar_grid(2, 20, 16, 5.0)}
    return {(n, kind): sample(expr, g) for n, g in grids_by_n.items()
            for kind, expr in _MEAN_FIELDS.items()}


@pytest.mark.parametrize("kind", sorted(_MEAN_FIELDS))
@pytest.mark.parametrize("n, twist", [(n, t) for n in (1, 2) for t in _MEAN_TWISTS[n]])
@seed(23)
@settings(max_examples=4, deadline=None, database=None)
@given(r=st.floats(0.3, 2.5), order=st.sampled_from([None, 5, 8]),
       ell=st.sampled_from([(1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (1.0, 1.0, 0.0)]),
       point_seed=st.integers(0, 2**16))
def test_factored_sphere_mean_is_the_flat_rule_sum(mean_fields, kind, n, twist, r, order, ell,
                                                   point_seed):
    f = mean_fields[(n, kind)]
    rng = np.random.default_rng(point_seed)
    moduli = rng.uniform(0.2, 3.0, (3, n))
    # the first probe's sphere crosses r_max, the last lies past r_max + r
    moduli[0, 0] = f.grid.r_max - r / 2
    moduli[2, -1] = f.grid.r_max + 1.1 * r
    pts = moduli * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, n)))
    if twist in ("heisenberg", "quaternionic"):
        structure = builtin_structure("heisenberg:1" if n == 1 else twist)
        lam = np.array([-0.8]) if n == 1 else np.array(ell)
        got = twisted_mean_at(f, structure, lam, r, pts, order=order)
        v = v_lambda(structure, lam)
    else:
        lam = {"isotropic": [1.5] * n, "anisotropic": [1.0, 2.0],
               "negative": [-1.3, 0.7][:n]}[twist]
        got = reduced_mean_at(f, lam, r, pts, order=order)
        v = normal_form_matrix(np.array(lam))
    want = _flat_rule_mean(f, v, r, pts, DEFAULT_SPHERE_ORDER[n] if order is None else order)
    assert np.max(np.abs(got - want)) <= 1e-14 * f.max_abs()
    assert got[2] == 0


@pytest.mark.parametrize("mean", [
    lambda f, pts, order: reduced_mean_at(f, [1.0] * f.grid.n, 1.0, pts, order=order),
    lambda f, pts, order: twisted_mean_at(f, builtin_structure(f"heisenberg:{f.grid.n}"), [1.0],
                                          1.0, pts, order=order),
], ids=["reduced", "twisted"])
@pytest.mark.parametrize("n, order, bad, error", [
    (2, 0, "order", DimensionMismatch),
    (1, 0, "order", DimensionMismatch),
    (2, 16.0, "integer", DimensionMismatch),
    (2, -3, "order", DimensionMismatch),
    (2, 4097, "order", DimensionMismatch),
    (3, 0, "order", DimensionMismatch),
    (2, None, "point 2 ", DimensionMismatch),
], ids=["order-0", "order-0-n1", "float-order", "negative-order", "large-order", "n3-order-0",
        "nonfinite-point"])
def test_pointwise_mean_rejects_bad_input_before_any_work(monkeypatch, mean, n, order, bad,
                                                          error):
    # a typed error, raised before an evaluator is built: order 0 is not the
    # default order
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)), polar_grid(n, 6, 4, 4.0))
    pts = np.full((4, n), 0.3 + 0.2j)
    if bad.startswith("point"):
        pts[2, -1] = np.nan
    monkeypatch.setattr(transforms, "FieldEvaluator", None)
    with pytest.raises(error, match=bad):
        mean(f, pts, order)


@pytest.mark.parametrize("twisted", [False, True], ids=["reduced", "twisted"])
def test_pointwise_mean_evaluates_at_n3(twisted):
    # n = 3 has a sphere rule: at order 4 the factored mean is the flat rule
    # sum, and the default order evaluates
    f = sample(lambda z: (1 + z[..., 0] * np.conj(z[..., 2]) - 0.5j * z[..., 1])
               * np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 4), polar_grid(3, 10, 8, 5.0))
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 1.5, (3, 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (3, 3)))
    if twisted:
        structure, lam = builtin_structure("heisenberg:3"), np.array([-0.8])
        v = v_lambda(structure, lam)
        mean = lambda order: twisted_mean_at(f, structure, lam, 1.2, pts, order=order)
    else:
        lam = np.array([1.0, 2.0, 3.0])
        v = normal_form_matrix(lam)
        mean = lambda order: reduced_mean_at(f, lam, 1.2, pts, order=order)
    want = _flat_rule_mean(f, v, 1.2, pts, 4)
    assert np.max(np.abs(mean(4) - want)) <= 1e-14 * f.max_abs()
    default = mean(None)
    assert np.all(np.isfinite(default)) and np.max(np.abs(default)) > 0.01 * f.max_abs()


# The n = 3 oracles of the pointwise mean, on a grid whose 16 radial nodes
# resolve theta_k, k <= 2, to about 1e-7 of its peak.
GRID_3 = polar_grid(3, 16, 8, 6.0)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_reduced_mean_at_n3_is_the_isotropic_eigenvalue(k):
    lam = np.array([1.0, 1.0, 1.0])
    f = sample(lambda z: theta_k(k, lam, z), GRID_3)
    rng = np.random.default_rng(30 + k)
    pts = rng.uniform(0.2, 1.2, (4, 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (4, 3)))
    for r in (0.7, 1.5):
        want = mean_eigenvalue(k, lam, r) * theta_k(k, lam, pts)
        assert np.max(np.abs(reduced_mean_at(f, lam, r, pts) - want)) < 1e-6 * f.max_abs()


def test_reduced_mean_at_n3_scales_each_psi_by_one_constant():
    # at anisotropic twist the mean of Psi_{a,b} is m_b(r) Psi_{a,b}, one
    # multiplier per multi-index b, so the ratio does not depend on the point
    lam = np.array([1.0, 2.0, 3.0])
    alpha, beta = (1, 0, 0), (0, 1, 1)
    f = sample(lambda z: psi_alpha_beta(alpha, beta, lam, z), GRID_3)
    rng = np.random.default_rng(33)
    pts = rng.uniform(0.3, 1.0, (5, 3)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (5, 3)))
    psi = psi_alpha_beta(alpha, beta, lam, pts)
    for r in (0.8, 1.4):
        mean = reduced_mean_at(f, lam, r, pts)
        ratio = mean[0] / psi[0]
        assert abs(ratio) > 0.01
        assert np.max(np.abs(mean - ratio * psi)) < 1e-5 * f.max_abs()


def test_a_high_order_pointwise_mean_never_writes_its_rule_out():
    # the order-128 n = 2 rule has 65 x 129 x 129 product nodes, 69.5 MB of
    # flat nodes and weights; the mean reads its 65 x 129 nodes per
    # coordinate, and its evaluator takes about 2.5 MB
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)), polar_grid(2, 20, 16, 6.0))
    _, peak = _peak_bytes(lambda: reduced_mean_at(f, [1.0, 2.0], 1.1, [[0.3 + 0.2j, -0.1j]],
                                                  order=128))
    assert peak < 10e6


# ---------------------------------------------------------------------------
# Twisted convolution
# ---------------------------------------------------------------------------


def test_laguerre_kernels_are_twisted_idempotents(g1):
    # theta_j x theta_k = delta_jk (2 pi / lam) theta_k
    fields = {k: _theta_field(k, LAM1, g1) for k in range(4)}
    for j in range(4):
        for k in range(4):
            conv = twisted_convolution(fields[j], fields[k], LAM1)
            if j == k:
                want = 2 * np.pi * fields[k].values
                err = np.max(np.abs(conv.values - want)) / np.max(np.abs(want))
                assert err < 1e-6
            else:
                assert conv.norm2() < 1e-7 * fields[k].norm2()


def test_convolution_eigenspace_selectivity(g1):
    psi = sample(lambda z: psi_alpha_beta((1,), (4,), LAM1, z), g1)
    th4 = _theta_field(4, LAM1, g1)
    th2 = _theta_field(2, LAM1, g1)
    hit = twisted_convolution(psi, th4, LAM1)
    miss = twisted_convolution(psi, th2, LAM1)
    assert hit.with_values(hit.values - 2 * np.pi * psi.values).norm2() < 1e-7 * psi.norm2()
    assert miss.norm2() < 1e-7 * psi.norm2()


def test_convolution_grid_path_matches_direct_quadrature(g1):
    f = _theta_field(3, LAM1, g1)
    conv = twisted_convolution(f, f, LAM1)
    from metivier.grids import FieldEvaluator

    pts = np.array([[0.7 + 0.3j], [1.5 - 0.2j], [0.1 + 2.0j]])
    direct = np.array([twisted_convolution_at(f, f, LAM1, p) for p in pts]).ravel()
    assert np.max(np.abs(FieldEvaluator(conv)(pts) - direct)) < 1e-8


def test_convolution_sides_filter_different_indices(g1):
    # right convolution with theta_k selects |beta| = k; left selects |alpha| = k
    psi = sample(lambda z: psi_alpha_beta((1,), (3,), LAM1, z), g1)
    right = twisted_convolution(psi, _theta_field(3, LAM1, g1), LAM1)
    left = twisted_convolution(_theta_field(1, LAM1, g1), psi, LAM1)
    wrong = twisted_convolution(_theta_field(3, LAM1, g1), psi, LAM1)
    want = 2 * np.pi * psi.values
    assert right.with_values(right.values - want).norm2() < 1e-7 * psi.norm2()
    assert left.with_values(left.values - want).norm2() < 1e-7 * psi.norm2()
    assert wrong.norm2() < 1e-7 * psi.norm2()


def test_convolution_truncation_guard():
    # a kernel that has not decayed at r_max makes the windowed integral lie
    g = polar_grid(1, 32, 32, 3.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    slow = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 40), g)
    with pytest.raises(TruncationDominates):
        twisted_convolution(f, slow, LAM1)


def _grid_nodes(grid, indices):
    """Complex points (P, n) of the grid nodes (radial, angular, ...) in indices."""
    return np.array([[grid.radial_nodes[j][i[2 * j]] * np.exp(1j * grid.angles(j)[i[2 * j + 1]])
                      for j in range(grid.n)] for i in indices])


@pytest.mark.parametrize("grid, lam, alpha, beta, delta, nodes", [
    (default_grid(1), [1.3], (1,), (3,), (0,), [(5, 17), (20, 100), (33, 250), (47, 3)]),
    (polar_grid(2, 32, 32, 7.0), [2.0, 1.6], (1, 0), (2, 1), (0, 2),
     [(3, 5, 7, 30), (10, 20, 2, 9)]),
], ids=["n1", "n2"])
def test_convolution_composes_special_hermite_functions(grid, lam, alpha, beta, delta, nodes):
    # Psi_{alpha,beta} x Psi_{beta,delta} = prod_j sqrt(2 pi / lam_j) Psi_{alpha,delta},
    # checked on the grid and against grid quadrature at a few nodes
    f = _psi_sum(grid, lam, [(alpha, beta, 1.0)])
    g = _psi_sum(grid, lam, [(beta, delta, 1.0)])
    conv = twisted_convolution(f, g, lam)
    want = float(np.prod(np.sqrt(2 * np.pi / np.asarray(lam)))) * _psi_sum(grid, lam, [(alpha, delta, 1.0)]).values
    assert np.max(np.abs(conv.values - want)) < 1e-11 * np.max(np.abs(want))
    direct = twisted_convolution_at(f, g, lam, _grid_nodes(grid, nodes))
    assert np.max(np.abs(np.array([conv.values[i] for i in nodes]) - direct)) < 1e-12
    # Psi_{alpha,beta} x Psi_{beta',delta} = 0 for beta' != beta
    other = _psi_sum(grid, lam, [(delta, beta, 1.0)])
    assert twisted_convolution(f, other, lam).norm2() < 1e-11


def test_convolution_at_negative_twist_matches_quadrature(g1):
    lam = [-1.3]
    f = _psi_sum(g1, [1.3], [((1,), (3,), 1.0), ((2,), (0,), 0.5j)])
    g = _psi_sum(g1, [1.3], [((3,), (2,), 1.0), ((0,), (1,), -0.3)])
    conv = twisted_convolution(f, g, lam)
    nodes = [(5, 17), (20, 100), (33, 250), (47, 3)]
    direct = twisted_convolution_at(f, g, lam, _grid_nodes(g1, nodes))
    got = np.array([conv.values[i] for i in nodes])
    assert np.max(np.abs(got - direct)) < 1e-12 * f.norm2() * g.norm2()


def test_laguerre_kernels_are_twisted_idempotents_n2_anisotropic():
    # theta_j x theta_k = delta_jk prod_j (2 pi / lam_j) theta_k at twist (2, 1.6)
    grid = polar_grid(2, 32, 8, 8.0)
    lam = np.array([2.0, 1.6])
    fields = {k: _theta_field(k, lam, grid) for k in range(3)}
    scale = float(np.prod(2 * np.pi / lam))
    for j in range(3):
        for k in range(3):
            conv = twisted_convolution(fields[j], fields[k], lam)
            want = scale * fields[k].values if j == k else 0.0
            assert conv.with_values(conv.values - want).norm2() < 1e-10 * fields[k].norm2()


def test_convolution_nyquist_guard():
    # live modes 4 and 4 give output mode 8, outside the band |m| <= 7 of 16 angles
    g = polar_grid(1, 48, 16, 10.0)
    psi = _psi_sum(g, LAM1, [((0,), (4,), 1.0)])
    with pytest.raises(NyquistViolation):
        twisted_convolution(psi, psi, LAM1)


def test_convolution_aliasing_guard():
    # at twist (2, 1.6) 24 radial nodes on [0, 8] alias the profiles with
    # indices <= 20 that the analysis uses, and 32 resolve them
    lam = np.array([2.0, 1.6])
    theta = _theta_field(2, lam, polar_grid(2, 24, 8, 8.0))
    with pytest.raises(GridTooCoarse, match="radial rule"):
        twisted_convolution(theta, theta, lam)
    theta = _theta_field(2, lam, polar_grid(2, 32, 8, 8.0))
    conv = twisted_convolution(theta, theta, lam)
    want = float(np.prod(2 * np.pi / lam)) * theta.values
    assert conv.with_values(conv.values - want).norm2() < 1e-10 * theta.norm2()


def test_convolution_energy_guard(g1):
    # e^{-4|z|^2} is too narrow for the special Hermite functions at lam = 1
    # with indices <= 46: the expansion misses about 7.8e-6 of its squared norm
    f = sample(lambda z: np.exp(-4 * np.abs(z[..., 0]) ** 2), g1)
    with pytest.raises(TruncationDominates, match="expansion"):
        twisted_convolution(f, f, LAM1)


# ---------------------------------------------------------------------------
# Spectral decomposition
# ---------------------------------------------------------------------------


def test_matrix_coefficients_orthonormal(g1):
    pairs = [((0,), (0,)), ((1,), (3,)), ((2,), (2,)), ((4,), (1,))]
    for lam in (np.array([1.0]), np.array([1.7])):
        sampled = {p: sample(lambda z, p=p: psi_alpha_beta(p[0], p[1], lam, z), g1)
                   for p in pairs}
        for p in pairs:
            for q in pairs:
                got = inner_product(sampled[p], sampled[q])
                want = 1.0 if p == q else 0.0
                assert abs(got - want) < 1e-10


def _psi_sum(grid, lam, terms):
    """sum c Psi_{alpha,beta} sampled on the grid.  Psi_{alpha,beta} is the
    product over the coordinates of the n = 1 functions, so each factor is
    evaluated on its coordinate's (radial, angular) plane only."""
    values = np.zeros(grid.shape, dtype=complex)
    for a, b, c in terms:
        term = c
        for j, zj in enumerate(grid.coordinate_axes()):
            term = term * psi_alpha_beta((a[j],), (b[j],), [lam[j]], zj[..., None])
        values += term
    return SampledField(grid, values)


@pytest.mark.parametrize("grid, lam, pairs", [
    (default_grid(1), [1.3], [((0,), (0,)), ((2,), (1,)), ((1,), (4,)), ((3,), (3,))]),
    (polar_grid(2, 16, 8, 5.0), [1.3, 0.8],
     [((0, 1), (1, 0)), ((2, 0), (1, 2)), ((1, 1), (0, 3)), ((0, 0), (0, 0))]),
], ids=["n1", "n2"])
def test_matrix_coefficient_matches_grid_quadrature(grid, lam, pairs):
    # oracle: plain quadrature of f conj(Psi) on the grid, no FFT, no profile table
    rng = np.random.default_rng(5)
    coef = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
    f = _psi_sum(grid, lam, [(a, b, c) for (a, b), c in zip(pairs[:3], coef)])
    for a, b in pairs:
        want = inner_product(f, _psi_sum(grid, lam, [(a, b, 1.0)]))
        assert abs(matrix_coefficient(f, a, b, lam) - want) < 1e-12 * np.linalg.norm(coef)


def _shuffled_pairs(n, index_max, mode_max, count, seed):
    """`count` distinct pairs (alpha, beta) with indices <= index_max and
    |beta_j - alpha_j| <= mode_max, in seeded random order: keys (alpha_j,
    beta_j) recur across joint modes and pairs share a key on one axis only."""
    ab = np.indices((index_max + 1,) * 2 * n).reshape(2 * n, -1).T
    ab = ab[np.all(np.abs(ab[:, n:] - ab[:, :n]) <= mode_max, axis=1)]
    pick = np.random.default_rng(seed).permutation(len(ab))[:count]
    return [(tuple(int(v) for v in row[:n]), tuple(int(v) for v in row[n:])) for row in ab[pick]]


BAND_CASES = pytest.mark.parametrize("grid, lam, pairs", [
    (polar_grid(1, 32, 16, 8.0), [1.3], [((0,), (7,)), ((7,), (0,)), ((2,), (1,)), ((3,), (3,))]),
    (polar_grid(2, 12, 8, 6.0), [1.3, 0.8],
     [((0, 3), (3, 0)), ((3, 1), (0, 4)), ((2, 0), (1, 2)), ((0, 0), (0, 0))]),
    (polar_grid(2, 12, 8, 6.0), [1.3, 0.8], _shuffled_pairs(2, 4, 3, 60, seed=4)),
    (polar_grid(3, 10, 16, 6.0), [1.3, 0.8, 1.1], _shuffled_pairs(3, 3, 3, 12, seed=5)),
    (polar_grid(2, [12, 10], [16, 8], 6.0), [1.3, 0.8], _shuffled_pairs(2, 4, 3, 40, seed=6)),
], ids=["n1", "n2", "n2-shuffled", "n3", "n2-unequal"])


@BAND_CASES
def test_band_analysis_matches_the_full_angular_fft(grid, lam, pairs):
    # the modes +-(n_a/2 - 1) are the edge of the band; any values will do
    rng = np.random.default_rng(11)
    f = SampledField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    fhat = angular_mode_coefficients(f)
    want = []
    for a, b in pairs:
        c = fhat[tuple(i for j in range(grid.n)
                       for i in (slice(None), (b[j] - a[j]) % grid.angular_counts[j]))]
        for j in range(grid.n):
            w = 2 * np.pi * grid.radial_weights[j] * grid.radial_nodes[j]
            c = np.tensordot(w * np.conj(special_hermite_1d(a[j], b[j], lam[j],
                                                            grid.radial_nodes[j])), c, axes=1)
        want.append(c)
    assert np.max(np.abs(_matrix_coefficients(f, pairs, lam)[0] - want)) < 1e-14 * f.norm2()


@BAND_CASES
def test_band_synthesis_matches_the_sampled_psi_sum(grid, lam, pairs):
    rng = np.random.default_rng(12)
    terms = [(a, b, complex(rng.normal(), rng.normal())) for a, b in pairs]
    want = _psi_sum(grid, lam, terms).values
    got = _synthesize_values(grid, np.array(lam), terms)
    assert np.max(np.abs(got - want)) < 1e-14 * np.linalg.norm([c for *_, c in terms])


@pytest.mark.parametrize("lam", [0.8, 2.0])
def test_radial_profile_table_matches_special_hermite_1d(lam):
    s = default_grid(1).radial_nodes[0]
    a, b = np.indices((47, 47)).reshape(2, -1)
    want = np.stack([special_hermite_1d(i, k, lam, s) for i, k in zip(a, b)], axis=1)
    assert np.max(np.abs(_radial_profiles(a, b, lam, s) - want)) < 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("grid, pair", [
    (polar_grid(1, 16, 16, 6.0), ((0,), (8,))),
    (polar_grid(2, 8, 8, 6.0), ((1, 4), (1, 0))),
], ids=["n1", "n2"])
def test_band_at_the_nyquist_mode_is_rejected(grid, pair):
    lam = [1.0] * grid.n
    f = _gauss_field(grid)
    with pytest.raises(NyquistViolation):
        matrix_coefficient(f, *pair, lam)
    spectrum = HermiteCoefficients(grid, np.array(lam), (pair,), np.array([1.0 + 0j]), 1.0, "")
    with pytest.raises(NyquistViolation):
        synthesize(spectrum)


@pytest.mark.parametrize("grid", [polar_grid(1, 16, 16, 6.0), polar_grid(2, 8, 8, 6.0),
                                  polar_grid(3, 10, 16, 6.0), polar_grid(2, [12, 10], [16, 8], 6.0)],
                         ids=["n1", "n2", "n3", "n2-unequal"])
def test_synthesis_of_no_terms_is_zero(grid):
    spectrum = HermiteCoefficients(grid, np.ones(grid.n), (), np.zeros(0, dtype=complex), 0.0, "")
    values = synthesize(spectrum).values
    assert values.shape == grid.shape and not np.any(values)


@BAND_CASES
def test_band_analysis_of_no_pairs_or_a_zero_field(grid, lam, pairs):
    rng = np.random.default_rng(14)
    f = SampledField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    assert _matrix_coefficients(f, [], lam)[0].shape == (0,)
    zero = f.with_values(np.zeros(grid.shape, dtype=complex))
    got = _matrix_coefficients(zero, pairs, lam)[0]
    assert got.shape == (len(pairs),) and not np.any(got)


@BAND_CASES
def test_band_synthesis_adds_the_terms_of_a_repeated_pair(grid, lam, pairs):
    (a, b), rest = pairs[0], [(p, q, 1.0 - 0.5j) for p, q in pairs[1:4]]
    split = _synthesize_values(grid, np.array(lam), [(a, b, 0.25 + 1j)] + rest + [(a, b, 0.5 - 2j)])
    whole = _synthesize_values(grid, np.array(lam), [(a, b, 0.75 - 1j)] + rest)
    assert np.max(np.abs(split - whole)) < 1e-14 * np.max(np.abs(whole))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _band_transform_peaks():
    """Peak traced bytes of the analysis over the field's bytes and of the
    synthesis over its output's, for a seeded n = 2 field and K = 4 blocks."""
    grid = polar_grid(2, 24, 64, 8.0)
    rng = np.random.default_rng(15)
    f = SampledField(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    lam = np.array([1.8, 2.1])
    pairs = _block_pairs(2, range(5))
    (coeffs, _), analysis_peak = _peak_bytes(lambda: _matrix_coefficients(f, pairs, lam))
    terms = [(a, b, c) for (a, b), c in zip(pairs, coeffs)]
    values, synthesis_peak = _peak_bytes(lambda: _synthesize_values(grid, lam, terms))
    return analysis_peak / f.values.nbytes, synthesis_peak / values.nbytes


def test_band_transforms_hold_no_field_sized_intermediate():
    # the DFT products write the band mode-major, so the analysis holds the
    # band (17 of 64 modes here) and the synthesis its output plus the band;
    # a field-sized transpose or copy would break either bound
    analysis, synthesis = _band_transform_peaks()
    assert analysis < 0.5
    assert synthesis < 1.5


def test_gram_defect_builds_one_resolving_rule_per_axis(monkeypatch):
    # twisted_convolution checks F and G in one call: one Gauss-Legendre rule
    # per axis, and the defect is the larger of the two matrices' defects;
    # the rule is memoized, so a second convolution solves no rule again
    grid, lam, bound = default_grid(1), np.array([1.05]), MAX_TRUNCATION[1] + 6
    f, g = (_psi_sum(grid, lam, terms) for terms in ([((0,), (2,), 1.0), ((3,), (1,), 0.5j)],
                                                     [((1,), (1,), 0.7), ((2,), (0,), 0.2)]))
    alphas = np.indices((bound + 1,)).reshape(1, -1).T
    F, G = (_coefficient_matrix(field, lam, alphas, 1e-6)[0] for field in (f, g))
    assert _gram_defect(grid, lam, (F, G), bound) == max(_gram_defect(grid, lam, (M,), bound)
                                                         for M in (F, G))
    calls = []
    leggauss = grids.leggauss
    grids._gauss_legendre.cache_clear()
    monkeypatch.setattr(grids, "leggauss", lambda deg: calls.append(deg) or leggauss(deg))
    for _ in range(2):
        twisted_convolution(f, g, lam)
    assert calls == [2 * len(grid.radial_nodes[0]) + 2 * bound]


def test_round_trip_peak_memory_stays_near_one_field():
    # the band transforms hold no full-grid array of modes: the round trip's
    # peak is the synthesized field plus band-sized intermediates
    grid = polar_grid(2, 24, 64, 8.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)) * (1 + z[..., 0]), grid)
    tracemalloc.start()
    try:
        synthesize(decompose(f, [1.8, 2.1], k_max=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * f.values.nbytes


def test_band_transforms_hold_no_field_sized_band():
    # the first analysis pass and the last synthesis pass run slab by slab
    # over the first radial axis, so the analysis holds a slab's band and
    # the synthesis little beyond its output
    analysis, synthesis = _band_transform_peaks()
    assert analysis < 0.1
    assert synthesis < 1.1


@pytest.mark.parametrize("field, broadcast", [
    (_gauss_field(polar_grid(1, 40, 32, 6.0)), False),
    (sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 3) * (z[..., 0] + 2j * z[..., 1] ** 2),
            polar_grid(2, 25, 64, 8.0)), False),
    # a read-only broadcast over the first angle and the second radius
    (sample(lambda z: (np.exp(-np.abs(z[..., 0]) ** 2 / 2) * np.exp(1j * np.angle(z[..., 1])))
            [:, :1, :1, :], polar_grid(2, 25, 64, 8.0)), True),
], ids=["n1", "n2", "n2-broadcast"])
def test_analysis_energy_is_the_squared_grid_norm(field, broadcast):
    assert (0 in field.values.strides) == broadcast
    spectrum = _analyse(field, np.full(field.grid.n, 1.5), _block_pairs(field.grid.n, range(3)))
    assert spectrum.total_energy == pytest.approx(field.norm2() ** 2, rel=1e-14)


def test_round_trip_over_a_partial_last_slab():
    # 31 leading radial rows do not divide into slabs of _BAND_SLAB entries
    import metivier.transforms as transforms

    grid, lam = polar_grid(2, 31, 64, 8.0), [1.9, 2.1]
    rows = transforms._BAND_SLAB // (grid.shape[1] * grid.shape[2] * grid.shape[3])
    assert 1 < rows < 31 and 31 % rows
    f = _psi_sum(grid, lam, [((1, 3), (2, 0), 0.7 - 0.2j), ((0, 2), (4, 0), 1j),
                             ((2, 2), (1, 1), -0.4)])
    back = synthesize(decompose(f, lam, 4))
    assert back.with_values(back.values - f.values).norm2() <= 1e-10 * f.norm2()


def test_synthesize_rejects_values_that_are_not_finite(g1):
    pairs = (((0,), (0,)), ((1,), (0,)))
    with pytest.raises(NonFiniteValue):
        synthesize(HermiteCoefficients(g1, LAM1, pairs, np.array([np.inf, 1.0]), 1.0, ""))
    # finite coefficients whose sum overflows: the bound fails and the full
    # check decides, on values that overflow and on values that cancel
    repeated = (((0,), (0,)), ((0,), (0,)))
    with pytest.raises(NonFiniteValue):
        synthesize(HermiteCoefficients(g1, LAM1, repeated, np.array([1e308, 1e308]), 1.0, ""))
    cancelled = synthesize(HermiteCoefficients(g1, LAM1, repeated, np.array([1e308, -1e308]),
                                               1.0, ""))
    assert not np.any(cancelled.values)


@pytest.mark.parametrize("grid, lam, k_max", [
    (default_grid(1), [1.0], 6),
    (polar_grid(2, 16, 32, 6.0), [1.8, 2.1], 2),
], ids=["n1", "n2"])
def test_decompose_blocks_are_scaled_spectral_projections(grid, lam, k_max):
    # a Psi sum with one term in every block |beta| = k <= k_max
    n = grid.n
    terms = [((k % 3,) + (1,) * (n - 1), (k,) + (0,) * (n - 1), 1.0 + 0.5j * k)
             for k in range(k_max + 1)]
    f = _psi_sum(grid, lam, terms)
    scale = float(np.prod(2 * np.pi / np.asarray(lam)))
    spec = decompose(f, lam, k_max)
    for k in range(k_max + 1):
        p = spec.projection(k)
        want = spectral_projection(f, lam, k)
        err = p.with_values(p.values - scale * want.values).norm2()
        assert err < 1e-13 * scale * want.norm2()


@seed(2026)
@settings(max_examples=25, deadline=None, database=None)
@given(n=st.integers(1, 3), degrees=st.lists(st.integers(0, 6), max_size=5),
       alpha_max=st.one_of(st.none(), st.integers(0, 5)))
def test_block_pairs_lists_each_block_alpha_major(n, degrees, alpha_max):
    # the reference: block after block, every alpha with |alpha| <= the
    # block's bound against every beta with |beta| = k, each ordered by
    # (total, tuple)
    def indices(total):
        return sorted((a for a in itertools.product(range(total + 1), repeat=n)
                       if sum(a) <= total), key=lambda a: (sum(a), a))

    want = [(a, b) for k in degrees
            for a in indices(k + 2 * n + 4 if alpha_max is None else alpha_max)
            for b in indices(k) if sum(b) == k]
    assert _block_pairs(n, degrees, alpha_max) == want


def test_projection_is_convolution_eigenvalue(g1):
    # f x theta_k = (2 pi / lam) P_k f where P_k projects onto |beta| = k
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * (1 + z[..., 0] + np.conj(z[..., 0]) ** 2), g1)
    for k in (0, 2):
        conv = twisted_convolution(f, _theta_field(k, LAM1, g1), LAM1)
        proj = spectral_projection(f, LAM1, k)
        err = conv.with_values(conv.values - 2 * np.pi * proj.values).norm2()
        assert err < 1e-8 * max(proj.norm2() * 2 * np.pi, f.norm2() * 1e-3)


def test_projection_commutes_with_mean(g1):
    f = _gauss_field(g1)
    r = 1.1
    k = 2
    proj_then_mean = reduced_mean(spectral_projection(f, LAM1, k), LAM1, r)
    mean_then_proj = spectral_projection(reduced_mean(f, LAM1, r), LAM1, k)
    err = proj_then_mean.with_values(proj_then_mean.values - mean_then_proj.values).norm2()
    assert err < 1e-8 * f.norm2()


def test_decompose_synthesize_theta3(g1):
    f = _theta_field(3, LAM1, g1)
    spec = decompose(f, LAM1, 6)
    # spectrum concentrated at degree 3
    norms = [spec.projection(k).norm2() for k in range(spec.k_max + 1)]
    assert norms[3] > 1e-6
    assert max(n for i, n in enumerate(norms) if i != 3) < 1e-9 * norms[3]
    recon = synthesize(spec)
    assert recon.with_values(recon.values - f.values).norm2() < 1e-6 * f.norm2()


def test_decompose_synthesize_gaussian(g1):
    f = _gauss_field(g1)
    for lam in (np.array([1.0]), np.array([2.0])):
        recon = synthesize(decompose(f, lam, 30))
        assert recon.with_values(recon.values - f.values).norm2() < 1e-4 * f.norm2()


def test_decompose_zero_field(g1):
    f = sample(lambda z: np.zeros(z.shape[:-1]), g1)
    spec = decompose(f, LAM1, 4)
    assert all(spec.projection(k).norm2() == 0.0 for k in range(spec.k_max + 1))


def test_decompose_guards(g1):
    f = _gauss_field(g1)
    with pytest.raises(RangeExceeded):
        decompose(f, LAM1, 41)
    with pytest.raises(TruncationDominates):
        decompose(f, LAM1, 2, tail_tol=1e-8)


def test_degrees_that_are_not_nonnegative_integers_are_range_errors(g1):
    f = _gauss_field(g1)
    with pytest.raises(RangeExceeded):
        decompose(f, LAM1, 2.5)
    with pytest.raises(RangeExceeded):
        spectral_projection(f, LAM1, -1)


def test_decompose_tail_guard_sees_energy_outside_the_alpha_bound(g1):
    # Psi_{(8),(0)} lies in block 0 but past its bound |alpha| <= 6, so every
    # block misses it: the last block is empty and captured / total ~ 1e-31
    f = sample(lambda z: psi_alpha_beta((8,), (0,), LAM1, z), g1)
    spectrum = decompose(f, LAM1, 4)
    assert spectrum.captured_energy < 1e-20 * spectrum.total_energy
    with pytest.raises(TruncationDominates):
        decompose(f, LAM1, 4, tail_tol=1e-6)
    # a field the blocks capture passes the same guard
    decompose(sample(lambda z: psi_alpha_beta((3,), (2,), LAM1, z), g1), LAM1, 4, tail_tol=1e-6)


def test_spectrum_serialization(tmp_path, g1):
    spec = decompose(_theta_field(2, LAM1, g1), LAM1, 4)
    write_spectrum(spec, tmp_path / "spec")
    back = read_spectrum(tmp_path / "spec")
    assert back.grid == spec.grid and back.pairs == spec.pairs
    assert np.array_equal(back.coefficients, spec.coefficients)
    assert np.array_equal(back.lambda_prime, spec.lambda_prime)
    assert (back.total_energy, back.metadata) == (spec.total_energy, spec.metadata)
    assert back.k_max == spec.k_max
    assert all(np.array_equal(spec.projection(k).values, back.projection(k).values)
               for k in range(spec.k_max + 1))


def test_twisted_convolution_rejects_mismatched_grids():
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), polar_grid(1, 16, 16, 6.0))
    g = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), polar_grid(1, 16, 16, 8.0))
    with pytest.raises(GridMismatch):
        twisted_convolution(f, g, LAM1)


def _spectrum_dir(tmp_path):
    g = polar_grid(1, 16, 16, 6.0)
    spec = decompose(_theta_field(1, LAM1, g), LAM1, 2)
    write_spectrum(spec, tmp_path / "spec")
    return tmp_path / "spec"


def _rewrite_manifest(directory, edit):
    import json

    path = directory / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest = edit(manifest)
    path.write_text(json.dumps(manifest))


@pytest.mark.parametrize("key", ["grid", "pairs", "coefficients", "lambda_prime",
                                 "total_energy", "metadata"])
def test_read_spectrum_missing_key_is_malformed(tmp_path, key):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, lambda m: {k: v for k, v in m.items() if k != key})
    with pytest.raises(MalformedFile):
        read_spectrum(directory)


@pytest.mark.parametrize("key, value", [
    ("pairs", {"alpha": [0], "beta": [1]}),
    ("pairs", [1, 2, 3]),
    ("pairs", [[["0"], [1]]]),
    ("pairs", [[[0.0], [1]]]),
    ("pairs", [[[0]]]),
    ("pairs", [[[True], [1]]]),
    ("coefficients", [["1.0", 0.0]]),
    ("coefficients", [[1.0]]),
    ("lambda_prime", 1.0),
    ("lambda_prime", ["1.0"]),
    ("lambda_prime", [True]),
    ("coefficients", [[True, 0.0]]),
    ("total_energy", "2.0"),
    ("total_energy", False),
    ("metadata", 0),
])
def test_read_spectrum_ill_typed_key_is_malformed(tmp_path, key, value):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, lambda m: {**m, key: value})
    with pytest.raises(MalformedFile):
        read_spectrum(directory)


def _edit_first(key, value):
    def edit(m):
        m[key][0] = value
        return m
    return edit


@pytest.mark.parametrize("edit", [
    _edit_first("pairs", [[-1], [1]]),
    _edit_first("pairs", [[0, 0], [1, 0]]),
    _edit_first("pairs", [[], []]),
    lambda m: {**m, "pairs": m["pairs"][:1] * 2 + m["pairs"][2:]},
    _edit_first("pairs", [[0], [40]]),
    lambda m: {**m, "coefficients": m["coefficients"][:-1]},
    _edit_first("coefficients", [float("nan"), 0.0]),
    _edit_first("coefficients", [0.0, float("inf")]),
    _edit_first("coefficients", [10**400, 0.0]),
    lambda m: {**m, "total_energy": float("nan")},
    lambda m: {**m, "total_energy": -1.0},
], ids=["negative-index", "index-length", "empty-index", "repeated-pair", "mode-beyond-band",
        "short-coefficients",
        "nan-coefficient", "inf-coefficient", "overflowing-coefficient", "nan-energy",
        "negative-energy"])
def test_read_spectrum_rejects_inconsistent_pairs_and_values(tmp_path, edit):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, edit)
    with pytest.raises(MalformedFile):
        read_spectrum(directory)


@pytest.mark.parametrize("lam", [[], [1.0, 2.0], [0.0], [-1.0], [float("nan")],
                                 [float("inf")], [10**400]])
def test_read_spectrum_rejects_twist_inconsistent_with_projections(tmp_path, lam):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, lambda m: {**m, "lambda_prime": lam})
    with pytest.raises(MalformedFile):
        read_spectrum(directory)


@pytest.mark.parametrize("key, value", [
    ("radial_nodes", [[]]),
    ("radial_weights", [[1.0]]),
    ("n", 1e400),
    ("angular_counts", [6]),
    ("r_max", "wide"),
])
def test_read_spectrum_rejects_bad_grid_header(tmp_path, key, value):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, lambda m: {**m, "grid": {**m["grid"], key: value}})
    with pytest.raises(MalformedFile, match="invalid grid header"):
        read_spectrum(directory)


def test_read_spectrum_version_1_manifest_is_version_mismatch(tmp_path):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, lambda m: {
        "version": 1, "kind": "laguerre-spectrum", "lambda_prime": [1.0], "k_max": 0,
        "normalized": False, "projections": [{"k": 0, "file": "projection_000.field"}],
    })
    with pytest.raises(VersionMismatch):
        read_spectrum(directory)


@pytest.fixture(scope="module")
def small_manifest(tmp_path_factory):
    directory = tmp_path_factory.mktemp("spec")
    write_spectrum(decompose(_theta_field(1, LAM1, polar_grid(1, 8, 16, 6.0)), LAM1, 1),
                   directory)
    return (directory / "manifest.json").read_bytes()


def test_read_spectrum_every_truncation_is_malformed(tmp_path, small_manifest):
    directory = tmp_path / "spec"
    directory.mkdir()
    # every cut before the final newline loses the closing brace
    for k in range(len(small_manifest) - 1):
        (directory / "manifest.json").write_bytes(small_manifest[:k])
        with pytest.raises(MalformedFile):
            read_spectrum(directory)


@settings(derandomize=True, max_examples=50, deadline=None)
@given(data=st.data())
def test_read_spectrum_corruption_gives_a_typed_error(tmp_path_factory, small_manifest, data):
    raw = small_manifest
    at = data.draw(st.integers(0, len(raw) - 1))
    if data.draw(st.booleans()):
        corrupt = raw[:at]
    else:
        corrupt = raw[:at] + bytes([data.draw(st.integers(0, 255))]) + raw[at + 1:]
    directory = tmp_path_factory.mktemp("corrupt")
    (directory / "manifest.json").write_bytes(corrupt)
    try:
        read_spectrum(directory)
    except (MalformedFile, VersionMismatch):
        pass


def test_read_spectrum_rejects_non_object_manifest(tmp_path):
    directory = _spectrum_dir(tmp_path)
    _rewrite_manifest(directory, lambda m: [m])
    with pytest.raises(MalformedFile):
        read_spectrum(directory)
    (directory / "manifest.json").write_bytes(b'{"kind": "laguerre-spectrum\xff"}')
    with pytest.raises(MalformedFile):
        read_spectrum(directory)


@seed(2025)
@settings(max_examples=10, deadline=None, database=None)
@given(lam=st.lists(st.floats(2.0, 2.6), min_size=2, max_size=2),
       pairs=st.lists(st.tuples(st.sampled_from(INDICES_2), st.sampled_from(INDICES_2)),
                      min_size=1, max_size=12, unique=True),
       coefficient_seed=st.integers(0, 2**16))
def test_analysis_inverts_synthesis(lam, pairs, coefficient_seed):
    rng = np.random.default_rng(coefficient_seed)
    coefficients = rng.normal(size=len(pairs)) + 1j * rng.normal(size=len(pairs))
    spectrum = HermiteCoefficients(GRID_2, np.array(lam), tuple(pairs), coefficients, 0.0, "")
    back = _analyse(synthesize(spectrum), lam, pairs)
    assert np.max(np.abs(back.coefficients - coefficients)) < 1e-10


def test_hermite_expansion_round_trip(g1):
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * z[..., 0], g1)
    exp = decompose(f, LAM1, 8)
    recon = synthesize(exp)
    # the tail beyond degree 8 decays geometrically (ratio 1/3 per degree)
    assert recon.with_values(recon.values - f.values).norm2() < 1e-3 * f.norm2()
    assert exp.captured_energy == pytest.approx(exp.total_energy, rel=1e-6)


# ---------------------------------------------------------------------------
# Homogeneity
# ---------------------------------------------------------------------------


def test_projection_preserves_homogeneity(g1):
    # f is 1-homogeneous, so its projection keeps angular mode 1 alone
    f = sample(lambda z: z[..., 0] * np.exp(-np.abs(z[..., 0]) ** 2 / 2), g1)
    proj = spectral_projection(f, LAM1, 2)
    fhat = angular_mode_coefficients(proj)  # mode m = 1 at index 1
    assert np.max(np.abs(np.delete(fhat, 1, axis=1))) < 1e-10 * np.max(np.abs(fhat[:, 1]))


# ---------------------------------------------------------------------------
# Twisted Laplacian
# ---------------------------------------------------------------------------


def test_special_hermite_eigenfunctions(g1):
    rng = np.random.default_rng(2)
    pts = rng.uniform(0.2, 2.0, (16, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (16, 1)))
    for lam in (np.array([1.0]), np.array([2.0])):
        for a in range(4):
            for b in range(4):
                f = sample(lambda z: psi_alpha_beta((a,), (b,), lam, z), g1)
                got = apply_twisted_laplacian(f, lam, points=pts)
                want = (2 * a + 1) * lam[0] * psi_alpha_beta((a,), (b,), lam, pts)
                scale = max(np.max(np.abs(want)), f.max_abs())
                assert np.max(np.abs(got - want)) < 1e-3 * scale


def test_laplacian_on_constant(g1):
    f = sample(lambda z: np.ones(z.shape[:-1]), g1)
    pts = np.array([[0.5 + 0.5j], [1.0 - 0.3j]])
    got = apply_twisted_laplacian(f, LAM1, points=pts)
    want = 0.25 * np.abs(pts[:, 0]) ** 2
    assert np.max(np.abs(got - want)) < 1e-3


# ---------------------------------------------------------------------------
# Center Fourier coefficient
# ---------------------------------------------------------------------------


def test_fourier_coefficient_center_exactness(g1):
    pf = sample_periodic(
        lambda z, t: np.exp(-np.abs(z[..., 0]) ** 2) * np.exp(-1j * t[0])
        + 0.5 * np.exp(-np.abs(z[..., 0]) ** 2 / 2) * np.exp(2j * t[0]),
        g1, [16],
    )
    c1 = fourier_coefficient_center(pf, [1])
    want = sample(lambda z: 2 * np.pi * np.exp(-np.abs(z[..., 0]) ** 2), g1)
    assert c1.with_values(c1.values - want.values).norm2() < 1e-12 * want.norm2()
    c0 = fourier_coefficient_center(pf, [0])
    assert c0.norm2() < 1e-12
    with pytest.raises(NyquistViolation):
        fourier_coefficient_center(pf, [8])


def _unfolded_circle_mean(field, twist, r, idx):
    """The mean at the grid nodes idx as the plain K-node circle sum: by
    rotation equivariance, at s e^{i phi} it is
    (1/K) sum_k f(e^{i phi} (s - w_k)) e^{(i/2) twist Im(s conj w_k)} over every
    node w_k of the order-K rule, f evaluated pointwise (zero past r_max)."""
    g = field.grid
    K = DEFAULT_SPHERE_ORDER[1] + 1  # the default circle rule's node count
    w = r * np.exp(2j * np.pi * np.arange(K) / K)
    i, j = np.divmod(idx, g.angular_counts[0])
    s, phi = g.radial_nodes[0][i], g.angles(0)[j]
    pts = np.exp(1j * phi)[:, None] * (s[:, None] - w[None, :])
    values = FieldEvaluator(field)(pts.reshape(-1, 1)).reshape(pts.shape)
    phase = np.exp(0.5j * twist * np.imag(s[:, None] * np.conj(w)[None, :]))
    return (values * phase).sum(axis=1) / K


def test_folded_full_grid_means_match_the_unfolded_circle_sum(g1):
    # the fold sums nodes k = 0..K/2 alone; the plain sum over all K nodes is
    # the same quadrature.  r = 11.5 puts most circles across r_max = 12,
    # where the second field is still large.
    from metivier.injectivity import euclidean_mean

    heisenberg = builtin_structure("heisenberg:1")
    wide = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 50) * (1 + np.conj(z[..., 0]) / 4), g1)
    idx, pts = _seeded_nodes(g1, 40, seed=21)
    for f in (_psi_sum_field(g1), wide):
        for r in (0.6, 1.7, 11.5):
            means = [(reduced_mean(f, [lam], r), lam) for lam in (1.0, -1.3)]
            # at n = 1 the structure phase is the reduced one at twist -V_lambda[0, 1]
            means += [(twisted_mean(f, heisenberg, np.array([lam]), r),
                       -v_lambda(heisenberg, np.array([lam]))[0, 1]) for lam in (0.8, -1.3)]
            means.append((euclidean_mean(f, r), 0.0))
            for mean, twist in means:
                want = _unfolded_circle_mean(f, twist, r, idx)
                assert np.max(np.abs(mean.values.ravel()[idx] - want)) < 1e-14 * f.max_abs()
    # and the pointwise oracle still agrees at high order
    f = _psi_sum_field(g1)
    for lam in (1.0, -1.3):
        got = reduced_mean(f, [lam], 1.7).values.ravel()[idx]
        assert np.max(np.abs(got - reduced_mean_at(f, [lam], 1.7, pts, order=1024))) < 1e-8 * f.max_abs()
    got = twisted_mean(f, heisenberg, np.array([-1.3]), 1.7).values.ravel()[idx]
    want = twisted_mean_at(f, heisenberg, np.array([-1.3]), 1.7, pts, order=1024)
    assert np.max(np.abs(got - want)) < 1e-8 * f.max_abs()


def test_mean_eigenvalue_over_an_array_of_degrees_is_the_scalar_calls():
    degrees = np.arange(31)
    for lam, r in ((LAM1, np.array([0.3, 1.0, 1.7, 4.2])), (np.array([1.3, 1.3]), 2.05),
                   (np.array([0.7]), np.linspace(0.1, 9.0, 7))):
        table = mean_eigenvalue(degrees, lam, r)
        assert table.shape == degrees.shape + np.shape(r)
        for k in degrees:
            assert np.array_equal(table[k], mean_eigenvalue(int(k), lam, r))
    assert mean_eigenvalue([[0, 2], [5, 1]], LAM1, [1.0, 2.0]).shape == (2, 2, 2)
    with pytest.raises(RangeExceeded):
        mean_eigenvalue(degrees, [1.0, 2.0], 1.0)
    with pytest.raises(RangeExceeded):
        mean_eigenvalue([2, -1], LAM1, 1.0)


def test_synthesis_reuses_the_analysis_tables_only_for_the_analysed_pairs(g1, monkeypatch):
    import dataclasses

    import metivier.transforms as transforms
    from metivier.injectivity import RadialMeasure, measure_mean, reconstruct_from_measure_mean

    built = []
    tabulate = transforms._axis_tables
    monkeypatch.setattr(transforms, "_axis_tables", lambda *a: built.append(1) or tabulate(*a))
    f = _psi_sum_field(g1)
    mu = RadialMeasure([0.9, 1.7], [0.4, 0.6])
    result = reconstruct_from_measure_mean(measure_mean(f, mu, LAM1), mu, LAM1, 12)
    assert len(built) == 1
    spectrum = decompose(f, LAM1, 6)
    assert len(built) == 2
    reused = synthesize(spectrum)
    assert len(built) == 2
    # a spectrum from replace(pairs=...) or built anew tabulates its own
    rebuilt = synthesize(dataclasses.replace(spectrum, pairs=tuple(list(spectrum.pairs))))
    assert len(built) == 3
    assert np.array_equal(reused.values, rebuilt.values)
    synthesize(HermiteCoefficients(g1, LAM1, spectrum.pairs, spectrum.coefficients, 1.0, ""))
    assert len(built) == 4
    # pairs passed as an array, as twisted_convolution passes them
    pairs = np.array(spectrum.pairs)
    array_spectrum = _analyse(f, LAM1, pairs)
    assert np.array_equal(synthesize(array_spectrum).values, reused.values)
    assert len(built) == 5
    err = result.field.with_values(result.field.values - f.values).norm2()
    assert err < 1e-6 * f.norm2()
