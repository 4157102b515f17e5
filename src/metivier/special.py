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
from functools import lru_cache
from math import lgamma

import numpy as np
from scipy.linalg import eigvalsh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv

from .errors import DimensionMismatch, NonConvergence, RangeExceeded

MAX_HERMITE_DEGREE = 200
MAX_LAGUERRE_DEGREE = 500
MAX_MATRIX_INDEX = 100
MAX_BESSEL_ARG = 1e4
# zero tables kept per finder; every Laguerre entry has degrees <= MAX_LAGUERRE_DEGREE
_ZERO_TABLE_MEMO = 32


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
    """All L_k^a(x) for k = 0..kmax, stacked along a new leading axis.

    a may be an array that broadcasts against x: one recurrence then runs
    for every order at once, with the arithmetic of one call per order."""
    if kmax < 0 or kmax > MAX_LAGUERRE_DEGREE:
        raise RangeExceeded(f"laguerre degree {kmax} outside [0, {MAX_LAGUERRE_DEGREE}]")
    x = np.asarray(x, dtype=float)
    out = np.empty((kmax + 1,) + np.broadcast_shapes(np.shape(a), x.shape))
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


def _twist(lambda_prime, n, operation, error):
    """lambda_prime as a float array of n components, or of at least one
    when n is None (DimensionMismatch otherwise), each finite and nonzero
    (error otherwise).  Messages name the operation.

    The reduced-twist means, twisted convolution, the twisted Laplacian and
    reconstruction accept a negative component: it conjugates that
    coordinate.  The special Hermite basis, theta_k, the zero scans and the
    tempered-growth weight need a positive twist (_positive_twist)."""
    lam = np.atleast_1d(np.asarray(lambda_prime, dtype=float))
    if lam.ndim != 1 or lam.size == 0 or n is not None and lam.size != n:
        raise DimensionMismatch(f"{operation} needs a reduced twist of "
                                f"{n or 'one or more'} components, got shape {lam.shape}")
    if not np.all(np.isfinite(lam) & (lam != 0)):
        raise error(f"{operation} needs finite nonzero reduced twist components, "
                    f"got {lam.tolist()}")
    return lam


def _positive_twist(lambda_prime, n, operation, error):
    """_twist with every component positive (error otherwise)."""
    lam = _twist(lambda_prime, n, operation, error)
    if np.any(lam < 0):
        raise error(f"{operation} needs positive reduced twist components, got {lam.tolist()}")
    return lam


def _is_isotropic(lam):
    """Whether the components of a twist are equal, to 1e-14."""
    return np.allclose(lam, lam[0], rtol=0, atol=1e-14)


def theta_k(k, lambda_prime, z):
    """Scaled Laguerre function: phi_k^{n-1} at (sqrt(lam_1) z_1, ..., sqrt(lam_n) z_n).

    z has shape (..., n) complex.
    """
    lam = _positive_twist(lambda_prime, None, "theta_k", RangeExceeded)
    z = np.asarray(z, dtype=complex)
    if z.shape[-1:] != (lam.size,):
        raise RangeExceeded("z must have trailing dimension n")
    return phi_k(k, lam.size, np.sqrt(lam) * z)


def theta_radial(k, lambda_prime, r):
    """theta_{k,lam} on the sphere |z| = r for isotropic lambda_prime:
    L_k^{n-1}(s^2 / 2) e^{-s^2 / 4} at s = sqrt(lam) r.

    Only meaningful when all components of lambda_prime are equal; theta is
    not constant on Euclidean spheres otherwise (RangeExceeded).
    """
    lam = _positive_twist(lambda_prime, None, "theta_radial", RangeExceeded)
    if not _is_isotropic(lam):
        raise RangeExceeded("theta_radial requires isotropic lambda_prime")
    # an array even when r is a scalar, as in mean_eigenvalue
    s = np.asarray(np.sqrt(lam[0]) * np.asarray(r, dtype=float))
    return laguerre_L(k, lam.size - 1, s**2 / 2) * np.exp(-(s**2) / 4)


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
    if not 0 < lam < np.inf:
        raise RangeExceeded(f"special_hermite_1d needs finite positive lam, got {lam}")
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
    lam = _positive_twist(lambda_prime, None, "psi_alpha_beta", RangeExceeded)
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


@dataclass(frozen=True)
class BesselZeroTable:
    """First positive zeros of J_nu, ascending, with evaluation residuals."""

    order: int
    zeros: np.ndarray
    residuals: np.ndarray


def _laguerre_zero_tables(degrees, a):
    """Zero tables of L_k^a for every k >= 1 in degrees, in that order.

    The roots of each degree are the eigenvalues of its symmetric Jacobi
    matrix (Golub & Welsch), polished by two Newton steps taken for the roots
    of all degrees at once: d/dx L_k^a = -L_{k-1}^{a+1}, both evaluated by
    _laguerre_at_degree, whose recurrence performs the operations of
    laguerre_L and holds two rows over the roots, not a table over every
    degree up to the largest.  The recorded residual is the size of a third
    Newton step, i.e. the estimated root error; the raw polynomial value is
    meaningless at high degree where |dL/dx| is astronomically large.

    A degree above MAX_LAGUERRE_DEGREE raises RangeExceeded before any
    solve.  The tables are memoized per (degrees, a), the type of a
    included, _ZERO_TABLE_MEMO entries deep: a repeat call returns the same
    tables, whose arrays are read-only.
    """
    degrees = tuple(int(k) for k in degrees)
    if degrees and max(degrees) > MAX_LAGUERRE_DEGREE:
        raise RangeExceeded(f"laguerre degree {max(degrees)} outside [0, {MAX_LAGUERRE_DEGREE}]")
    return _solve_laguerre_zero_tables(degrees, a)


@lru_cache(maxsize=_ZERO_TABLE_MEMO, typed=True)
def _solve_laguerre_zero_tables(degrees, a):
    if not degrees:
        return ()
    try:
        x = np.concatenate([
            eigvalsh_tridiagonal(2.0 * np.arange(k) + a + 1,
                                 np.sqrt(np.arange(1, k) * (np.arange(1, k) + a)))
            for k in degrees])
    except Exception as exc:  # pragma: no cover - LAPACK failure is exotic
        raise NonConvergence("tridiagonal eigen-solver failed") from exc
    degree = np.repeat(degrees, degrees)  # of each root

    def newton_step(x):
        return _laguerre_at_degree(degree, a, x) / _laguerre_at_degree(degree - 1, a + 1, x)

    for _ in range(2):
        x = x + newton_step(x)
    res = np.abs(newton_step(x))
    if np.any(res > 1e-12 * np.maximum(x, 1.0)):
        raise NonConvergence("laguerre zero newton steps did not converge")
    order = np.lexsort((x, degree))  # ascending within each degree
    x, res = _read_only(x[order]), _read_only(res[order])
    ends = np.cumsum(degrees)[:-1]
    return tuple(LaguerreZeroTable(d, a, xs, rs) for d, xs, rs
                 in zip(degrees, np.split(x, ends), np.split(res, ends)))


def _laguerre_at_degree(degree, a, x):
    """L_{degree[i]}^a(x[i]) for each i: the recurrence of laguerre_sequence,
    with its arithmetic, keeping only its last two rows and reading each
    entry's value off at its own degree, so memory stays linear in x.size."""
    prev, cur = np.ones_like(x), 1.0 + a - x
    value = np.where(degree == 0, prev, cur)
    for j in range(1, degree.max(initial=0)):
        prev, cur = cur, ((2 * j + a + 1 - x) * cur - (j + a) * prev) / (j + 1)
        value[degree == j + 1] = cur[degree == j + 1]
    return value


def _read_only(v):
    v.flags.writeable = False
    return v


def laguerre_zeros(k, a):
    """All k roots of L_k^a, ascending, via the symmetric Jacobi matrix,
    Newton-polished (see _laguerre_zero_tables).  For k >= 1 the table is
    memoized per (k, a) and its arrays are read-only."""
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


def _check_bessel_count(count):
    if count < 1 or count > 100:
        raise RangeExceeded("bessel zero count outside [1, 100]")


def bessel_zeros(nu, count):
    """First `count` positive zeros of J_nu by bracketing scan plus Brent polish.

    The scan steps by pi/8 from max(nu, 1e-8), accumulating the left ends one
    step at a time, and evaluates J_nu at all of them in one call.  It runs to
    2 nu + 4 count, past the count-th zero: by Sturm comparison of
    sqrt(x) J_nu(x) with a sine, every interval of length pi (nu = 0), or of
    length 2 pi / sqrt(3) beyond x = 2 nu (nu >= 1), holds a zero.

    The table is memoized per (nu, count), their types included,
    _ZERO_TABLE_MEMO entries deep: a repeat call returns the same table, whose
    arrays are read-only.  A call that raises is not memoized.
    """
    _check_bessel_count(count)
    if nu < 0:
        raise RangeExceeded("bessel order must be non-negative")
    return _solve_bessel_zeros(nu, count)


@lru_cache(maxsize=_ZERO_TABLE_MEMO, typed=True)
def _solve_bessel_zeros(nu, count):
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
    return BesselZeroTable(nu, _read_only(z), _read_only(res))
