"""Special functions: normalized Hermite functions, Laguerre polynomials and
Laguerre functions, scaled special Hermite matrix coefficients, Bessel J, and
zero finders for Laguerre and Bessel.

Hermite functions use the physicists' convention normalized in L2(R),
h_k = (2^k k! sqrt(pi))^{-1/2} H_k(x) e^{-x^2/2}, evaluated by the stable
normalized three-term recurrence.  Laguerre polynomials are always evaluated
by the recurrence in the degree; coefficient expansion cancels catastrophically
above degree ~20.
"""

from dataclasses import dataclass
from math import lgamma

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv

from .errors import NonConvergence, RangeExceeded

MAX_HERMITE_DEGREE = 200
MAX_LAGUERRE_DEGREE = 500
MAX_MATRIX_INDEX = 100
MAX_BESSEL_ARG = 1e4


def hermite_h(k, x):
    """L2-normalized Hermite function h_k(x); vectorized in x."""
    if k < 0 or k > MAX_HERMITE_DEGREE:
        raise RangeExceeded(f"hermite degree {k} outside [0, {MAX_HERMITE_DEGREE}]")
    x = np.asarray(x, dtype=float)
    h0 = np.pi ** -0.25 * np.exp(-0.5 * x**2)
    if k == 0:
        return h0
    prev, cur = h0, np.sqrt(2.0) * x * h0
    for j in range(1, k):
        prev, cur = cur, np.sqrt(2.0 / (j + 1)) * x * cur - np.sqrt(j / (j + 1.0)) * prev
    return cur


def psi_alpha(alpha, lambda_prime, x):
    """Scaled Hermite eigenfunction: prod_j lam_j^{1/4} h_{alpha_j}(sqrt(lam_j) x_j).

    L2(R^n)-normalized for every positive lambda_prime.  x has shape (..., n);
    the result has shape (...).
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=int))
    lam = _check_lambda_prime(lambda_prime)
    if alpha.shape != lam.shape:
        raise RangeExceeded("alpha and lambda_prime must have equal length")
    x = np.asarray(x, dtype=float)
    if x.shape[-1:] != (lam.size,):
        raise RangeExceeded("x must have trailing dimension n")
    out = np.ones(x.shape[:-1])
    for j, (a, l) in enumerate(zip(alpha, lam)):
        out = out * l**0.25 * hermite_h(int(a), np.sqrt(l) * x[..., j])
    return out


def laguerre_L(k, a, x):
    """Laguerre polynomial L_k^a(x) by the three-term recurrence in k."""
    if k < 0 or k > MAX_LAGUERRE_DEGREE:
        raise RangeExceeded(f"laguerre degree {k} outside [0, {MAX_LAGUERRE_DEGREE}]")
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if k == 0:
        return prev
    cur = 1.0 + a - x
    for j in range(1, k):
        prev, cur = cur, ((2 * j + a + 1 - x) * cur - (j + a) * prev) / (j + 1)
    return cur


def laguerre_sequence(kmax, a, x):
    """All L_k^a(x) for k = 0..kmax, stacked along a new leading axis."""
    if kmax < 0 or kmax > MAX_LAGUERRE_DEGREE:
        raise RangeExceeded(f"laguerre degree {kmax} outside [0, {MAX_LAGUERRE_DEGREE}]")
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + x.shape)
    out[0] = 1.0
    if kmax >= 1:
        out[1] = 1.0 + a - x
    for j in range(1, kmax):
        out[j + 1] = ((2 * j + a + 1 - x) * out[j] - (j + a) * out[j - 1]) / (j + 1)
    return out


def phi_k(k, n, z):
    """Laguerre function on C^n: L_k^{n-1}(|z|^2 / 2) e^{-|z|^2 / 4}.

    z has shape (..., n) complex.
    """
    z = np.asarray(z, dtype=complex)
    s2 = np.sum(np.abs(z) ** 2, axis=-1)
    return laguerre_L(k, n - 1, s2 / 2) * np.exp(-s2 / 4)


def phi_radial(k, n, s):
    """Radial profile of phi_k^{n-1} at |z| = s."""
    s = np.asarray(s, dtype=float)
    return laguerre_L(k, n - 1, s**2 / 2) * np.exp(-(s**2) / 4)


def _check_lambda_prime(lambda_prime):
    lam = np.atleast_1d(np.asarray(lambda_prime, dtype=float))
    if np.any(lam <= 0):
        raise RangeExceeded("lambda_prime components must be strictly positive")
    return lam


def theta_k(k, lambda_prime, z):
    """Scaled Laguerre function: phi_k^{n-1} at (sqrt(lam_1) z_1, ..., sqrt(lam_n) z_n).

    z has shape (..., n) complex.
    """
    lam = _check_lambda_prime(lambda_prime)
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (lam.size,):
        raise RangeExceeded("z must have trailing dimension n")
    return phi_k(k, lam.size, np.sqrt(lam) * z)


def theta_radial(k, lambda_prime, r):
    """theta_{k,lam} on the sphere |z| = r for isotropic lambda_prime.

    Only meaningful when all components of lambda_prime are equal; theta is
    not constant on Euclidean spheres otherwise.
    """
    lam = _check_lambda_prime(lambda_prime)
    if not np.allclose(lam, lam[0], rtol=0, atol=1e-14):
        raise RangeExceeded("theta_radial requires isotropic lambda_prime")
    n = lam.size
    r = np.asarray(r, dtype=float)
    return phi_radial(k, n, np.sqrt(lam[0]) * r)


def _sqrt_fact_ratio(small, big):
    """sqrt(small! / big!) for big >= small, via log-gamma."""
    return np.exp(0.5 * (lgamma(small + 1) - lgamma(big + 1)))


def special_hermite_1d(j, k, lam, z):
    """1-D special Hermite matrix coefficient sqrt(lam/2pi) * (pi_lam(z) Psi_j, Psi_k).

    Closed Laguerre form, validated against the defining Gauss-Hermite
    quadrature in the test suite.  Vectorized in z.
    """
    if j < 0 or k < 0 or j > MAX_MATRIX_INDEX or k > MAX_MATRIX_INDEX:
        raise RangeExceeded(f"special hermite indices ({j}, {k}) outside [0, {MAX_MATRIX_INDEX}]")
    lam = float(lam)
    if lam <= 0:
        raise RangeExceeded("lam must be strictly positive")
    w = np.sqrt(lam) * np.asarray(z, dtype=complex)
    r2 = np.abs(w) ** 2
    if k >= j:
        p = k - j
        poly = _sqrt_fact_ratio(j, k) * (1j * w / np.sqrt(2)) ** p * laguerre_L(j, p, r2 / 2)
    else:
        p = j - k
        poly = _sqrt_fact_ratio(k, j) * (1j * np.conj(w) / np.sqrt(2)) ** p * laguerre_L(k, p, r2 / 2)
    return np.sqrt(lam / (2 * np.pi)) * poly * np.exp(-r2 / 4)


def psi_alpha_beta(alpha, beta, lambda_prime, z):
    """Special Hermite function on C^n: product of 1-D matrix coefficients.

    These form a complete orthonormal system in L2(C^n); the function is
    (beta - alpha)-homogeneous in the angular variables.
    """
    alpha = np.atleast_1d(np.asarray(alpha, dtype=int))
    beta = np.atleast_1d(np.asarray(beta, dtype=int))
    lam = _check_lambda_prime(lambda_prime)
    z = np.asarray(z, dtype=complex)
    if not (alpha.shape == beta.shape == lam.shape):
        raise RangeExceeded("alpha, beta, lambda_prime must have equal length")
    if z.shape[-1:] != (lam.size,):
        raise RangeExceeded("z must have trailing dimension n")
    out = np.ones(z.shape[:-1], dtype=complex)
    for i in range(lam.size):
        out = out * special_hermite_1d(int(alpha[i]), int(beta[i]), lam[i], z[..., i])
    return out


def mean_factor(k, n):
    """Factor k!(n-1)!/(k+n-1)! in the twisted spherical mean of theta_k."""
    return np.exp(lgamma(k + 1) + lgamma(n) - lgamma(k + n))


@dataclass(frozen=True)
class LaguerreZeroTable:
    """Zeros of L_k^a, ascending, with evaluation residuals."""

    degree: int
    type: int
    zeros: np.ndarray
    residuals: np.ndarray

    def to_csv(self, path):
        _zeros_to_csv(path, self.zeros, self.residuals)


@dataclass(frozen=True)
class BesselZeroTable:
    """First positive zeros of J_nu, ascending, with evaluation residuals."""

    order: int
    zeros: np.ndarray
    residuals: np.ndarray

    def to_csv(self, path):
        _zeros_to_csv(path, self.zeros, self.residuals)


def _zeros_to_csv(path, zeros, residuals):
    with open(path, "w") as fh:
        fh.write("index,zero,residual\n")
        for i, (z, r) in enumerate(zip(zeros, residuals)):
            fh.write(f"{i},{z!r},{r!r}\n")


def _laguerre_zero_tables(degrees, a):
    """Zero tables of L_k^a for every k >= 1 in degrees, in that order.

    The roots of each degree are the eigenvalues of its symmetric Jacobi
    matrix (Golub & Welsch), polished by two Newton steps taken for the roots
    of all degrees at once: d/dx L_k^a = -L_{k-1}^{a+1}, both read off
    laguerre_sequence, whose recurrence performs the operations of
    laguerre_L.  The recorded residual is the size of a third Newton step,
    i.e. the estimated root error; the raw polynomial value is meaningless at
    high degree where |dL/dx| is astronomically large.
    """
    degrees = [int(k) for k in degrees]
    if not degrees:
        return []
    try:
        x = np.concatenate([
            eigvalsh_tridiagonal(2.0 * np.arange(k) + a + 1,
                                 np.sqrt(np.arange(1, k) * (np.arange(1, k) + a)))
            for k in degrees])
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NonConvergence("tridiagonal eigen-solver failed") from exc
    degree = np.repeat(degrees, degrees)  # of each root
    root = np.arange(x.size)
    kmax = max(degrees)

    def newton_step(x):
        return (laguerre_sequence(kmax, a, x)[degree, root]
                / laguerre_sequence(kmax - 1, a + 1, x)[degree - 1, root])

    for _ in range(2):
        x = x + newton_step(x)
    res = np.abs(newton_step(x))
    if np.any(res > 1e-12 * np.maximum(x, 1.0)):
        raise NonConvergence("laguerre zero newton steps did not converge")
    order = np.lexsort((x, degree))  # ascending within each degree
    ends = np.cumsum(degrees)[:-1]
    return [LaguerreZeroTable(d, a, xs, rs) for d, xs, rs
            in zip(degrees, np.split(x[order], ends), np.split(res[order], ends))]


def laguerre_zeros(k, a):
    """All k roots of L_k^a, ascending, via the symmetric Jacobi matrix,
    Newton-polished (see _laguerre_zero_tables)."""
    if k < 0 or k > 200:
        raise RangeExceeded(f"laguerre zero degree {k} outside [0, 200]")
    if a < 0:
        raise RangeExceeded("laguerre type must be non-negative")
    if k == 0:
        return LaguerreZeroTable(0, a, np.empty(0), np.empty(0))
    return _laguerre_zero_tables([k], a)[0]


def bessel_j(nu, x):
    """Bessel function J_nu(x) for integer nu >= 0, 0 <= x <= 1e4."""
    if nu < 0:
        raise RangeExceeded("bessel order must be non-negative")
    x = np.asarray(x, dtype=float)
    if np.any(x < 0) or np.any(x > MAX_BESSEL_ARG):
        raise RangeExceeded(f"bessel argument outside [0, {MAX_BESSEL_ARG:g}]")
    return jv(nu, x)


def bessel_zeros(nu, count):
    """First `count` positive zeros of J_nu by bracketing scan plus Brent polish.

    The scan steps by pi/8 from max(nu, 1e-8), accumulating the left ends one
    step at a time, and evaluates J_nu at all of them in one call.  It runs to
    2 nu + 4 count, past the count-th zero: by Sturm comparison of
    sqrt(x) J_nu(x) with a sine, every interval of length pi (nu = 0), or of
    length 2 pi / sqrt(3) beyond x = 2 nu (nu >= 1), holds a zero.
    """
    if count < 1 or count > 100:
        raise RangeExceeded("bessel zero count outside [1, 100]")
    if nu < 0:
        raise RangeExceeded("bessel order must be non-negative")
    step = np.pi / 8
    lo = max(float(nu), 1e-8)
    end = 2.0 * nu + 4.0 * count
    steps = max(int(np.ceil((min(end, MAX_BESSEL_ARG) - lo) / step)) + 1, 0)
    ends = np.add.accumulate(np.concatenate([[lo], np.full(steps, step)]))
    ends = ends[ends <= MAX_BESSEL_ARG]
    f = bessel_j(nu, ends)
    # a left end where J_nu vanishes is a zero; otherwise a sign change brackets one
    hits = np.flatnonzero((f[:-1] == 0.0) | (f[:-1] * f[1:] < 0))[:count]
    if hits.size < count:
        if end > MAX_BESSEL_ARG:
            raise RangeExceeded(f"bessel argument outside [0, {MAX_BESSEL_ARG:g}]")
        raise NonConvergence("bessel zero scan exhausted")
    z = np.array([ends[i] if f[i] == 0.0 else
                  brentq(lambda t: jv(nu, t), ends[i], ends[i + 1], xtol=1e-14, rtol=1e-15)
                  for i in hits])
    res = np.abs(bessel_j(nu, z))
    if np.any(res > 1e-10):
        raise NonConvergence("bessel zero residuals did not converge")
    return BesselZeroTable(nu, z, res)
