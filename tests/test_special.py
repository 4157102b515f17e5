"""Special-function layer: closed forms against independent quadrature oracles,
orthonormality, zero tables."""

import math

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss

from metivier.errors import NonConvergence, RangeExceeded
from metivier.special import (
    _laguerre_zero_tables,
    bessel_j,
    bessel_zeros,
    hermite_h,
    laguerre_L,
    laguerre_sequence,
    laguerre_zeros,
    mean_factor,
    phi_k,
    psi_alpha,
    psi_alpha_beta,
    special_hermite_1d,
    theta_k,
    theta_radial,
)


def test_hermite_orthonormality():
    # 96-node Gauss-Hermite integrates h_j h_k exactly for j + k <= 191
    x, w = hermgauss(96)
    wexp = w * np.exp(x**2)
    H = np.stack([hermite_h(k, x) for k in range(16)])
    gram = (H * wexp) @ H.T
    assert np.max(np.abs(gram - np.eye(16))) < 1e-10


def test_hermite_range_guard():
    with pytest.raises(RangeExceeded):
        hermite_h(201, 0.0)
    with pytest.raises(RangeExceeded):
        hermite_h(-1, 0.0)


def test_laguerre_value_at_zero():
    # L_k^a(0) = binom(k + a, k), exact small-integer arithmetic
    for a in (0, 1, 2):
        for k in range(21):
            want = math.comb(k + a, k)
            assert laguerre_L(k, a, np.array(0.0)) == pytest.approx(want, rel=1e-13)


def test_laguerre_sequence_matches_single_degree():
    x = np.linspace(0.0, 30.0, 7)
    seq = laguerre_sequence(12, 1, x)
    for k in range(13):
        assert np.allclose(seq[k], laguerre_L(k, 1, x), rtol=1e-12, atol=1e-12)


def _special_hermite_oracle(j, k, lam, z, half_width=12.0, nodes=400):
    """Defining integral sqrt(lam/2pi) (pi_lam(z) phi_j, phi_k) with
    pi_lam(z) phi(xi) = e^{i lam (x xi + x y / 2)} phi(xi + y) and
    phi_m(xi) = lam^{1/4} h_m(sqrt(lam) xi)."""
    x, y = z.real, z.imag
    t, w = leggauss(nodes)
    xi = t * half_width
    wq = w * half_width

    def phi(m, s):
        return lam**0.25 * hermite_h(m, np.sqrt(lam) * s)

    integrand = (np.exp(1j * lam * (x * xi + x * y / 2))
                 * phi(j, xi + y) * np.conj(phi(k, xi)))
    return np.sqrt(lam / (2 * np.pi)) * np.sum(wq * integrand)


def test_special_hermite_closed_form_vs_quadrature():
    points = [0.7 + 0.3j, -1.1 + 0.4j, 0.2 - 1.6j]
    for lam in (0.5, 1.0, 2.0):
        for j in range(4):
            for k in range(4):
                for z in points:
                    got = complex(special_hermite_1d(j, k, lam, z))
                    want = _special_hermite_oracle(j, k, lam, z)
                    assert abs(got - want) < 1e-8


def test_special_hermite_conjugation_symmetry():
    z = np.array([0.9 - 0.4j, 1.3 + 1.1j])
    for j, k in [(0, 3), (2, 5), (4, 1)]:
        a = special_hermite_1d(j, k, 1.3, z)
        b = special_hermite_1d(k, j, 1.3, z)
        assert np.max(np.abs(a - (-1.0) ** (k - j) * np.conj(b))) < 1e-14


def test_diagonal_sum_reproduces_laguerre_kernel():
    # sum_{|alpha| = k} Psi_alpha,alpha = (prod sqrt(lam_j)) (2 pi)^{-n/2} theta_k
    rng = np.random.default_rng(3)
    z1 = rng.uniform(-2, 2, (30, 1)) + 1j * rng.uniform(-2, 2, (30, 1))
    for lam in (np.array([1.0]), np.array([2.0]), np.array([0.7])):
        for k in range(7):
            diag = psi_alpha_beta((k,), (k,), lam, z1)
            want = np.sqrt(lam[0]) * (2 * np.pi) ** -0.5 * theta_k(k, lam, z1)
            assert np.max(np.abs(diag - want)) < 1e-9
    z2 = rng.uniform(-1.5, 1.5, (20, 2)) + 1j * rng.uniform(-1.5, 1.5, (20, 2))
    lam = np.array([1.0, 2.0])
    for k in range(5):
        diag = sum(
            psi_alpha_beta((a, k - a), (a, k - a), lam, z2) for a in range(k + 1)
        )
        want = np.sqrt(lam.prod()) * (2 * np.pi) ** -1.0 * theta_k(k, lam, z2)
        assert np.max(np.abs(diag - want)) < 1e-9


def test_psi_alpha_normalized():
    # scaled Hermite eigenfunctions stay L2-normalized for any positive twist
    x, w = hermgauss(96)
    for lam in (0.5, 2.0):
        vals = psi_alpha((3,), [lam], (x / np.sqrt(lam))[:, None])
        total = np.sum(w * np.exp(x**2) * vals**2) / np.sqrt(lam)
        assert total == pytest.approx(1.0, abs=1e-10)


def test_theta_scaling_and_value_at_origin():
    z0 = np.zeros((1, 2), dtype=complex)
    for k in range(6):
        assert phi_k(k, 2, z0)[0] == pytest.approx(math.comb(k + 1, k), rel=1e-13)
    # theta at sqrt(lam)-scaled argument equals phi
    z = np.array([[0.8 + 0.2j]])
    assert theta_k(2, [2.0], z)[0] == pytest.approx(
        complex(phi_k(2, 1, np.sqrt(2.0) * z)[0]), rel=1e-13
    )


def test_theta_radial_requires_isotropic():
    with pytest.raises(RangeExceeded):
        theta_radial(2, [1.0, 2.0], np.array(1.0))


def test_mean_factor_values():
    assert mean_factor(2, 2) == pytest.approx(1.0 / 3.0, rel=1e-14)
    assert mean_factor(0, 5) == pytest.approx(1.0, rel=1e-14)
    assert mean_factor(3, 1) == pytest.approx(1.0, rel=1e-14)


def test_laguerre_zero_tables():
    for k, a in [(1, 0), (2, 0), (5, 1), (25, 0), (50, 0)]:
        table = laguerre_zeros(k, a)
        assert table.zeros.size == k
        assert np.all(np.diff(table.zeros) > 0)
        assert np.all(table.residuals < 1e-10 * np.maximum(table.zeros, 1.0))
        # sign changes straddle each root
        probes = np.concatenate([[table.zeros[0] / 2],
                                 (table.zeros[:-1] + table.zeros[1:]) / 2,
                                 [table.zeros[-1] + 1.0]])
        signs = np.sign(laguerre_L(k, a, probes))
        assert np.all(signs[:-1] * signs[1:] < 0)
    # closed forms: L_1 root at 1 + a, L_2^0 roots 2 -+ sqrt(2)
    assert laguerre_zeros(1, 0).zeros[0] == pytest.approx(1.0, abs=1e-12)
    assert laguerre_zeros(2, 0).zeros == pytest.approx(
        [2 - np.sqrt(2), 2 + np.sqrt(2)], abs=1e-12
    )


def _laguerre_zeros_one_degree(k, a):
    """Zeros of L_k^a by the Jacobi matrix and two Newton steps through
    laguerre_L, one degree at a time: the reference the batched tables keep."""
    from scipy.linalg import eigvalsh_tridiagonal

    x = eigvalsh_tridiagonal(2.0 * np.arange(k) + a + 1,
                             np.sqrt(np.arange(1, k) * (np.arange(1, k) + a)))
    for _ in range(2):
        x = x + laguerre_L(k, a, x) / laguerre_L(k - 1, a + 1, x)
    x = np.sort(x)
    return x, np.abs(laguerre_L(k, a, x) / laguerre_L(k - 1, a + 1, x))


@pytest.mark.parametrize("a", [0, 1, 2])
def test_pooled_laguerre_zeros_equal_the_per_degree_tables(a):
    pooled = _laguerre_zero_tables(range(1, 61), a)
    assert [t.degree for t in pooled] == list(range(1, 61))
    for k, table in enumerate(pooled, start=1):
        single = laguerre_zeros(k, a)
        zeros, residuals = _laguerre_zeros_one_degree(k, a)
        assert table.type == single.type == a
        for got in (table.zeros, single.zeros):
            assert np.array_equal(got, zeros)
        for got in (table.residuals, single.residuals):
            assert np.array_equal(got, residuals)


def test_laguerre_zero_table_csv(tmp_path):
    path = tmp_path / "zeros.csv"
    laguerre_zeros(3, 0).to_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "index,zero,residual"
    assert len(lines) == 4


def test_bessel_zeros_against_reference():
    # leading zeros of J_0 (Abramowitz & Stegun 9.5)
    table = bessel_zeros(0, 3)
    assert table.zeros == pytest.approx(
        [2.404825557695773, 5.520078110286311, 8.653727912911013], abs=1e-10
    )
    assert np.all(table.residuals < 1e-10)
    # interlacing: zeros of J_1 separate zeros of J_0
    z1 = bessel_zeros(1, 3).zeros
    z0 = bessel_zeros(0, 4).zeros
    assert np.all((z0[:3] < z1) & (z1 < z0[1:]))


def _bessel_zeros_stepwise(nu, count):
    """The bracketing scan one pi/8 step and one J_nu call at a time, with
    the same Brent polish: the reference the vectorised scan keeps."""
    from scipy.optimize import brentq

    zeros, lo = [], max(float(nu), 1e-8)
    flo = bessel_j(nu, lo)
    while len(zeros) < count:
        hi = lo + np.pi / 8
        fhi = bessel_j(nu, hi)
        if flo == 0.0:
            zeros.append(lo)
        elif flo * fhi < 0:
            zeros.append(brentq(lambda t: bessel_j(nu, t), lo, hi, xtol=1e-14, rtol=1e-15))
        lo, flo = hi, fhi
    return np.array(zeros)


@pytest.mark.parametrize("nu", [0, 1, 2, 3])
def test_bessel_zeros_match_scipy(nu):
    from scipy.special import jn_zeros

    table = bessel_zeros(nu, 100)
    np.testing.assert_allclose(table.zeros, jn_zeros(nu, 100), rtol=0, atol=1e-13)
    assert np.all(table.residuals < 1e-10)
    assert np.array_equal(table.zeros, _bessel_zeros_stepwise(nu, 100))
    assert np.array_equal(table.residuals, np.abs(bessel_j(nu, table.zeros)))


def test_bessel_guards():
    with pytest.raises(RangeExceeded):
        bessel_j(0, np.array([-1.0]))
    with pytest.raises(RangeExceeded):
        bessel_j(0, np.array([2e4]))
    with pytest.raises(RangeExceeded):
        bessel_zeros(0, 0)
    with pytest.raises(RangeExceeded):
        bessel_zeros(-1, 3)
    # the scan would have to pass the largest argument J_nu is evaluated at
    with pytest.raises(RangeExceeded):
        bessel_zeros(9990, 5)
    with pytest.raises(RangeExceeded):
        bessel_zeros(20000, 1)


def test_range_guards():
    with pytest.raises(RangeExceeded):
        laguerre_L(501, 0, np.array(1.0))
    with pytest.raises(RangeExceeded):
        special_hermite_1d(0, 101, 1.0, 0.1 + 0.1j)
    with pytest.raises(RangeExceeded):
        special_hermite_1d(0, 1, -1.0, 0.1)
    with pytest.raises(RangeExceeded):
        theta_k(2, [0.0], np.zeros((1, 1), complex))
