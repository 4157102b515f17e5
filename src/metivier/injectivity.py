"""Injectivity of spherical means: reconstruction, counterexamples, two radii.

The reduced-twist spherical mean acts on the |beta| = k special Hermite block
as multiplication by c_k theta_k(r), c_k = k!(n-1)!/(k+n-1)!, at positive
twist.  Reconstruction inverts that scalar blockwise at any nonzero twist,
conjugating the coordinates whose twist is negative; a degree is
unrecoverable from a radius set exactly when every theta_k(r_i) vanishes
(numerically: falls below a threshold).  A single radius therefore never
determines f: picking r so that lam r^2 / 2 is a zero of L_k^{n-1} makes
theta_k itself invisible to the mean (the one-radius counterexample).  Two
radii determine every f of tempered growth iff r1^2/r2^2 avoids all ratios
of Laguerre zeros (twisted part) and r1/r2 avoids all ratios of Bessel
J_{n-1} zeros (the untwisted central mode).
"""

from collections.abc import Mapping
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.optimize import brentq
from scipy.special import logsumexp

from .errors import (
    DimensionMismatch,
    InadmissibleRadii,
    NoUsableRadius,
    RangeExceeded,
    UnsupportedDimension,
)
from .grids import SampledField, build_sphere_rule, default_grid
from .special import (
    _check_lambda_prime,
    _laguerre_zero_tables,
    bessel_j,
    bessel_zeros,
    laguerre_zeros,
    theta_k,
    theta_radial,
)
from .transforms import (
    _analyse,
    _block_pairs,
    _check_twist,
    _conjugate_coordinates,
    _full_grid_mean,
    _replace_spectrum,
    angular_mode_coefficients,
    fourier_coefficient_center,
    mean_eigenvalue,
    reduced_mean,
    reduced_mean_at,
    synthesize,
    values_from_mode_coefficients,
)

USABLE_RADIUS_THRESHOLD = 1e-8


@dataclass(frozen=True)
class RadialMeasure:
    """Finitely supported radial measure: sum_i weights[i] * (sphere of radius
    radii[i]).  With normalized=True the weights must be a probability vector
    (sum 1 to 1e-12); radii and weights are finite, radii strictly positive
    (no mass at the centre) and distinct, weights nonnegative.
    DimensionMismatch otherwise, naming the first bad value."""

    radii: np.ndarray
    weights: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        r = np.asarray(self.radii, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if r.ndim != 1 or r.shape != w.shape or r.size == 0:
            raise DimensionMismatch("radii and weights must be matching nonempty 1-D arrays")
        for name, v in (("radii", r), ("weights", w)):
            if not np.all(np.isfinite(v)):
                raise DimensionMismatch(f"{name} must be finite, got {v[~np.isfinite(v)][0]}")
        if np.any(r <= 0):
            raise DimensionMismatch("radii must be positive")
        if np.unique(r).size != r.size:
            raise DimensionMismatch("radii must be distinct")
        if np.any(w < 0):
            raise DimensionMismatch("weights must be nonnegative")
        if self.normalized and abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise DimensionMismatch("normalized measure weights must sum to 1")
        object.__setattr__(self, "radii", r)
        object.__setattr__(self, "weights", w)

    @property
    def atoms(self):
        return tuple((float(r), float(w)) for r, w in zip(self.radii, self.weights))


def measure_mean_at(field, mu, lambda_prime, points):
    """Aggregated reduced-twist mean sum_i w_i (f x mu_{r_i}) at points."""
    out = 0.0
    for r, w in zip(mu.radii, mu.weights):
        out = out + w * reduced_mean_at(field, lambda_prime, r, points)
    return out


def measure_mean(field, mu, lambda_prime):
    """Aggregated reduced-twist mean sum_i w_i (f x mu_{r_i}) as a field (n = 1).

    One full-grid mean over all the atoms (transforms._full_grid_mean): one
    FieldEvaluator and one angular FFT, one barycentric matrix over the
    folded circle nodes of every atom, one contraction in which each atom's
    weight multiplies its node weights, and one inverse FFT.
    measure_mean_at is the pointwise oracle.  UnsupportedDimension for
    n != 1."""
    return _full_grid_mean(field, _check_twist(lambda_prime, field.grid.n)[0], mu.atoms)


@dataclass(frozen=True)
class ReconstructionResult:
    """Blockwise inversion of spherical means.

    divisor[k] is the scalar c_k theta_k(r) divided out on the degree-k block;
    its reciprocal is the condition number of that degree's recovery.
    recovered_norm[k] is the L2 norm of the recovered degree-k projection.
    """

    field: SampledField
    k_max: int
    used_radius: dict  # k -> radius chosen (None for aggregated measures)
    divisor: dict  # k -> the scalar divided out on block k
    recovered_norm: dict  # k -> L2 norm of the recovered block
    unrecoverable: tuple  # degrees whose divisors all fell below threshold
    threshold: float

    def condition_number(self, k):
        return 1.0 / abs(self.divisor[k]) if k in self.divisor else float("inf")


def _reconstruct(means, lambda_prime, k_max, scalars):
    """Blockwise inversion shared by both reconstructions.

    means is a nonempty list of (label, mean field) on one grid, and
    scalars(degrees, lam) gives, for each degree k of the array degrees =
    0..k_max, the row of scalars by which each mean acts on the degree-k
    block at the positive twist lam, in the same order.  Each degree is
    inverted from the mean with the largest |scalar| and recorded under that
    mean's label; degrees whose scalars all fall below
    USABLE_RADIUS_THRESHOLD are unrecoverable (NoUsableRadius if that is all
    of them).

    The pairs of every usable block, |alpha| <= k_max + 2n + 4, are listed
    by one _block_pairs call.  Each mean that serves a degree is analysed
    over the pairs of its degrees, each coefficient is divided by its
    block's scalar, and the quotients are synthesized once.  When one mean
    serves every degree, the inverse keeps its analysis's pairs object, so
    the synthesis reuses the analysis's basis tables.

    Conjugating z_j flips the sign of lam_j in the mean, as in
    twisted_convolution, so a twist with lam_j < 0 is inverted at |lam| on
    the means with z_j conjugated, and the result is conjugated back.
    """
    template = means[0][1]
    n = template.grid.n
    lam = np.atleast_1d(np.asarray(lambda_prime, dtype=float))
    if lam.shape != (n,):
        raise DimensionMismatch(f"reduced twist must have {n} components")
    flipped = np.flatnonzero(lam < 0)
    lam = np.abs(lam)
    table = np.asarray(scalars(np.arange(k_max + 1), lam))
    best = np.argmax(np.abs(table), axis=1)
    divisors = table[np.arange(k_max + 1), best]
    usable = np.abs(divisors) >= USABLE_RADIUS_THRESHOLD
    degrees = np.flatnonzero(usable).tolist()
    if not degrees:
        raise NoUsableRadius(
            f"every degree up to {k_max} has |c_k theta_k| < {USABLE_RADIUS_THRESHOLD:g} "
            f"in every supplied mean"
        )
    pairs = tuple(_block_pairs(n, degrees, k_max + 2 * n + 4))
    degree = np.array([sum(b) for _, b in pairs])
    analysed = np.empty(len(pairs), dtype=complex)
    spectra = []
    for i in np.unique(best[degrees]):
        serves = np.flatnonzero(best[degree] == i)
        mean = means[i][1]
        spectrum = _analyse(mean.with_values(_conjugate_coordinates(mean.values, flipped)),
                            lam, [pairs[j] for j in serves])
        analysed[serves] = spectrum.coefficients
        spectra.append(spectrum)
    recovered = [float(np.linalg.norm(analysed[degree == k]) / abs(divisors[k]))
                 for k in degrees]
    first, *others = spectra
    inverse = _replace_spectrum(first, pairs=pairs if others else first.pairs,
                                coefficients=analysed / divisors[degree],
                                total_energy=sum(v**2 for v in recovered),
                                metadata=template.metadata)
    field = synthesize(inverse)
    field = field.with_values(_conjugate_coordinates(field.values, flipped))
    return ReconstructionResult(field, k_max, {k: means[best[k]][0] for k in degrees},
                                {k: float(divisors[k]) for k in degrees},
                                dict(zip(degrees, recovered)),
                                tuple(np.flatnonzero(~usable).tolist()), USABLE_RADIUS_THRESHOLD)


def reconstruct_from_means(means, lambda_prime, k_max):
    """Recover f from its reduced-twist spherical means at several radii.

    `means` is a {radius: field} mapping or a sequence of (radius, field)
    pairs with distinct radii; anything else raises DimensionMismatch.  For
    each degree k the radius with the largest |c_k theta_k(r)|
    (mean_eigenvalue) is used and recorded in used_radius.
    """
    items = means.items() if isinstance(means, Mapping) else means
    try:
        pairs = sorted(((float(r), f) for r, f in items), key=lambda p: p[0])
    except (TypeError, ValueError) as exc:
        raise DimensionMismatch(
            "means must be a {radius: field} mapping or (radius, field) pairs"
        ) from exc
    radii = np.array([r for r, _ in pairs])
    if not np.all(np.isfinite(radii)):
        raise DimensionMismatch(f"radii must be finite, got {radii[~np.isfinite(radii)][0]}")
    if radii.size == 0 or np.unique(radii).size != radii.size:
        raise DimensionMismatch("need at least one mean and distinct radii")
    return _reconstruct(pairs, lambda_prime, k_max,
                        lambda degrees, lam: mean_eigenvalue(degrees, lam, radii))


def reconstruct_from_measure_mean(mean_field, mu, lambda_prime, k_max):
    """Recover f from a single aggregated mean over a radial measure: block k
    is divided by sum_i w_i c_k theta_k(r_i); used_radius records None."""
    # each degree's row dotted with the weights alone, as a scalar call's
    # mean_eigenvalue(k, lam, radii) @ weights rounds
    return _reconstruct([(None, mean_field)], lambda_prime, k_max,
                        lambda degrees, lam: [[row @ mu.weights] for row
                                              in mean_eigenvalue(degrees, lam, mu.radii)])


@dataclass(frozen=True)
class OneRadiusCounterexample:
    """A nonzero field annihilated by the reduced-twist mean at one radius."""

    field: SampledField
    radius: float
    degree: int
    lambda_prime: np.ndarray
    mean_residual: float  # max |mean| at probe points, relative to max |field|


def one_radius_counterexample(l, lambda_prime, n=1, zero_index=0, grid=None):
    """theta_l with r chosen so lam r^2 / 2 is a zero of L_l^{n-1}.

    The mean at that radius multiplies the whole block by c_l theta_l(r) = 0,
    so the returned nonzero field has identically vanishing mean; its residual
    is measured at 6 probe points drawn with seed 7, by sphere-rule
    quadrature of the sampled values, relative to max |field|.  Requires
    l >= 1 (theta_0 has no radial zero) and positive isotropic lambda_prime
    (RangeExceeded otherwise, before any work), where theta_l depends on |z|
    alone: the field is sampled on the radial nodes (|z|^2 summed over the
    coordinates' nodes) and broadcast over the angles.
    The field is a read-only broadcast that holds one profile per angle of
    the last coordinate, so no full-grid copy is made (2.4 MB, not 151 MB,
    on the default n = 2 grid); write_field writes it out in full.

    The residual is computed on a copy of the grid with 4 angles per
    coordinate, carrying the same radial profile.  This is exact, not an
    approximation: the angular FFT of a field that is constant in the angles
    holds the profile in mode 0 and exact zeros elsewhere, at any power-of-two
    angle count, so the evaluator keeps mode 0 alone and the sphere rule sees
    the same values as on the full grid.
    """
    if l < 1:
        raise RangeExceeded("counterexample degree must be at least 1")
    # the twist is checked before r = sqrt(2 x0 / lam) is formed
    lam = _check_lambda_prime(lambda_prime)
    if lam.shape != (n,):
        raise DimensionMismatch(f"lambda_prime must have {n} components")
    if not np.allclose(lam, lam[0], rtol=0, atol=1e-14):
        raise RangeExceeded("one-radius counterexamples require isotropic twist")
    table = laguerre_zeros(l, n - 1)
    if zero_index < 0 or zero_index >= table.zeros.size:
        raise RangeExceeded(f"zero_index outside [0, {table.zeros.size - 1}]")
    x0 = table.zeros[zero_index]
    r = float(np.sqrt(2 * x0 / lam[0]))
    grid = grid or default_grid(n)
    radius2 = reduce(np.add.outer, [nodes**2 for nodes in grid.radial_nodes])
    profile = theta_radial(l, lam, np.sqrt(radius2))
    # one angular axis of length 1 after each radial axis, broadcast to a grid
    profile = profile.reshape(tuple(x for s in profile.shape for x in (s, 1)))
    # the last angular axis written out, as the field's float view needs it
    # contiguous; the other angular axes stay broadcast
    row = np.repeat(profile.astype(complex), grid.shape[-1], axis=-1)
    field = SampledField(grid, np.broadcast_to(row, grid.shape),
                         metadata=f"laguerre block {l}")
    few_angles = replace(grid, angular_counts=(4,) * n)
    rng = np.random.default_rng(7)
    pts = rng.uniform(0.2, 0.5 * grid.r_max, (6, n)) * np.exp(
        1j * rng.uniform(0, 2 * np.pi, (6, n))
    )
    mean = reduced_mean_at(SampledField(few_angles, np.broadcast_to(profile, few_angles.shape)),
                           lam, r, pts)
    residual = float(np.max(np.abs(mean)) / np.max(np.abs(profile)))
    return OneRadiusCounterexample(field, r, int(l), lam, residual)


@dataclass(frozen=True)
class WeightedNorm:
    """Gaussian-weighted L^p norm of f(z) exp((1/4) sum lam_j |z_j|^2)."""

    value: float
    log_value: float
    p: float
    boundary_dominated: bool
    boundary_fraction: float


def weighted_norm(field, spec_or_lambda, p=2):
    """||f(z) e^{(1/4) sum mu_j |z_j|^2}||_p over the grid, p in [1, inf].

    spec_or_lambda is a SymplecticSpectrum (its diagonal mu is used; the field
    is taken in the rotated normal-form coordinates) or a positive n-vector.
    The weight exactly undoes the Gaussian factor of the Laguerre kernels, so
    finiteness of this norm is the tempered-growth condition under which a
    single admissible radius already determines the field.  Accumulation is
    log-domain (no overflow); the boundary_dominated flag reports when the
    outermost radial shell (the last radial node of any coordinate) carries
    more than 1e-8 of the total, i.e. the grid truncates a non-negligible
    tail and the value is a lower bound.
    """
    g = field.grid
    lam = getattr(spec_or_lambda, "mu", spec_or_lambda)
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    if lam.shape != (g.n,) or np.any(lam <= 0):
        raise DimensionMismatch(f"need {g.n} positive weight components")
    p = float(p)
    if not (p >= 1):
        raise DimensionMismatch("p must be in [1, inf]")
    axes = g.coordinate_axes()
    expo = np.zeros(g.shape)
    for j in range(g.n):
        expo = expo + 0.25 * lam[j] * np.broadcast_to(np.abs(axes[j]) ** 2, g.shape)
    absf = np.abs(field.values)
    with np.errstate(divide="ignore"):
        logf = np.where(absf > 0, np.log(np.where(absf > 0, absf, 1.0)), -np.inf) + expo

    edge_mask = np.zeros(g.shape, dtype=bool)
    for j in range(g.n):
        np.moveaxis(edge_mask, 2 * j, 0)[-1] = True  # last radial node of coordinate j

    if np.isinf(p):
        total = float(np.max(logf))
        edge = float(np.max(logf[edge_mask])) if np.isfinite(total) else -np.inf
        frac = float(np.exp(edge - total)) if np.isfinite(total) else 0.0
        log_value = total
        value = float(np.exp(log_value))
        # the sup is boundary-dominated when it is (nearly) attained on the
        # outermost shell — the grid then truncates a growing profile
        return WeightedNorm(value, log_value, p, bool(frac > 0.999), frac)
    else:
        w = g.quadrature_weights()
        logterm = p * logf + np.log(w)
        total = logsumexp(logterm)
        edge = logsumexp(logterm[edge_mask])
        frac = float(np.exp(edge - total)) if np.isfinite(total) else 0.0
        log_value = float(total / p)
    value = float(np.exp(log_value))
    return WeightedNorm(value, log_value, p, bool(frac > 1e-8), frac)


@dataclass(frozen=True)
class RadiiVerdict:
    """Admissibility of a radius pair for the two-radii theorem, searched to
    finite depth: admissible_within_bounds is NOT a certificate for all k."""

    r1: float
    r2: float
    admissible_within_bounds: bool
    laguerre_conflicts: tuple  # ((k_i, i, k_j, j, relative error), ...)
    bessel_conflicts: tuple  # ((i, j, relative error), ...)
    search_bounds: tuple  # (k_max, bessel_count, tol)
    anisotropic_best_effort: bool = False

    @property
    def admissible(self):
        return self.admissible_within_bounds

    @property
    def tolerance(self):
        return self.search_bounds[2]

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("family,degree_i,index_i,degree_j,index_j,relative_error\n")
            for ki, i, kj, j, err in self.laguerre_conflicts:
                fh.write(f"laguerre,{ki},{i},{kj},{j},{err!r}\n")
            for i, j, err in self.bessel_conflicts:
                fh.write(f"bessel,,{i},,{j},{err!r}\n")


def _sphere_average_profile(k, lam):
    """r -> the order-16 sphere-rule average of theta_k over |w| = r,
    vectorised in r.

    theta_k depends on w only through the moduli |w_j|, so the unit rule is
    reduced to its T^n orbits: one node per distinct moduli tuple, carrying
    the summed weight of the orbit (9 nodes at n = 2, order 16).  Moduli are
    matched after rounding to 12 decimals, as the nodes of one orbit agree
    only to rounding.  Scaling the moduli by r gives the same quadrature as
    the rule built at radius r.
    """
    rule = build_sphere_rule(lam.size, 1.0, 16)
    moduli = np.abs(rule.nodes)
    _, first, orbit = np.unique(np.round(moduli, 12), axis=0, return_index=True,
                                return_inverse=True)
    weights = np.bincount(orbit.ravel(), weights=rule.weights)
    moduli = moduli[first]

    def profile(r):
        r = np.asarray(r, dtype=float)
        return theta_k(k, lam, r[..., None, None] * moduli) @ weights

    return profile


def _anisotropic_block_zeros(k, lam, r_max):
    """Radial sign changes of the sphere average of theta_k for anisotropic
    reduced twist, by bracketing on 600 equispaced radii and bisection.

    The average is the T^n-orbit reduction of the sphere rule
    (`_sphere_average_profile`): the same quadrature as the full rule, built
    once per call.  It is still the averaged-kernel criterion described in
    `two_radii_check`, not the per-multi-index one."""
    profile = _sphere_average_profile(k, lam)
    rs = np.linspace(r_max / 600, r_max, 600)
    vals = profile(rs)
    zeros = []
    for i in range(len(rs) - 1):
        if vals[i] == 0.0:
            zeros.append(float(rs[i]))
        elif vals[i] * vals[i + 1] < 0:
            zeros.append(float(brentq(lambda r: float(profile(r)), rs[i], rs[i + 1],
                                      xtol=1e-12)))
    return zeros


def _ratio_conflicts(zeros, target, tol, squared=False):
    """(i, j, relative error) for every ratio zeros[i] / zeros[j] of the
    positive zeros (its float_power square when squared) within relative tol
    of target, in row-major order.

    The zeros are sorted once, and for each i a binary search brackets the
    zeros[j] whose ratio can come near target, in a window widened by 1e-9
    of its bounds against rounding; only those candidates take the exact
    test, with the same arithmetic as the full ratio matrix."""
    zeros = np.asarray(zeros, dtype=float)
    order = np.argsort(zeros)
    ranked = zeros[order]
    # the ratio's range (target (1 - tol), target (1 + tol)), as a root when squared
    low, high = np.array([max(1 - tol, 0.0), 1 + tol]) * target
    if squared:
        low, high = np.sqrt(low), np.sqrt(high)
    with np.errstate(divide="ignore"):
        lo = zeros / high * (1 - 1e-9)
        hi = zeros / low * (1 + 1e-9)
    start = np.searchsorted(ranked, lo, side="left")
    count = np.searchsorted(ranked, hi, side="right") - start
    rows = np.repeat(np.arange(zeros.size), count)
    offsets = np.arange(rows.size) - np.repeat(np.cumsum(count) - count, count)
    cols = order[np.repeat(start, count) + offsets]
    ratios = zeros[rows] / zeros[cols]
    if squared:
        # float_power rounds as a Python float's ** does (C pow), where an
        # array's ** 2 multiplies
        ratios = np.float_power(ratios, 2)
    err = np.abs(ratios - target) / target
    keep = np.flatnonzero(err < tol)
    keep = keep[np.lexsort((cols[keep], rows[keep]))]
    return [(int(rows[k]), int(cols[k]), float(err[k])) for k in keep]


def two_radii_check(r1, r2, n=1, lambda_prime=None, k_max=30, bessel_count=60,
                    tol=1e-9):
    """Check the two-radii admissibility conditions to finite search depth.

    Condition (i): r1^2/r2^2 must avoid every ratio x_i/x_j of zeros of the
    Laguerre polynomials L_k^{n-1} (k <= k_max, zeros pooled across degrees) —
    for isotropic reduced twist the zero radii scale identically with the
    twist, so the ratios are twist-independent.  Condition (ii): r1/r2 must
    avoid every ratio of positive zeros of J_{n-1}.  Ratios are compared
    within relative tolerance tol.

    For genuinely anisotropic lambda_prime the Laguerre scan is replaced by
    a scan over radial sign changes of the sphere-averaged block kernel, and
    the verdict is flagged anisotropic_best_effort.  That scan is not the
    blindness criterion: each Psi_{alpha,beta} has its own radial multiplier
    m_beta(r), the averaged kernel of block k is the sum of m_beta over
    |beta| = k, and the block is blind only where a single m_beta vanishes.
    Anisotropic verdicts can therefore be wrong in either direction.

    Raises DimensionMismatch unless r1, r2 and tol are finite and positive
    and n and k_max are at least 1.
    """
    if not (0 < r1 < np.inf and 0 < r2 < np.inf and 0 < tol < np.inf):
        raise DimensionMismatch("radii and tol must be finite and positive")
    if n < 1 or k_max < 1:
        raise DimensionMismatch("n and k_max must be at least 1")
    anisotropic = False
    if lambda_prime is not None:
        lam = np.atleast_1d(np.asarray(lambda_prime, dtype=float))
        if lam.shape != (n,) or np.any(lam <= 0):
            raise DimensionMismatch(f"lambda_prime must be {n} positive components")
        anisotropic = not np.allclose(lam, lam[0], rtol=0, atol=1e-14)
    target = (r1 / r2) ** 2
    if not anisotropic:
        pool = [(t.degree, i, z) for t in _laguerre_zero_tables(range(1, k_max + 1), n - 1)
                for i, z in enumerate(t.zeros)]
    else:
        # scan radii out to where the largest-degree kernel has all its
        # sign changes under the smallest twist component
        r_scan = float(np.sqrt(2 * laguerre_zeros(k_max, n - 1).zeros[-1] / lam.min())) * 1.05
        pool = [(k, i, z) for k in range(1, k_max + 1)
                for i, z in enumerate(_anisotropic_block_zeros(k, lam, r_scan))]
    zeros = np.array([z for *_, z in pool], dtype=float)
    # anisotropic zeros are radii, so their ratio is squared
    lag_hits = [pool[i][:2] + pool[j][:2] + (err,)
                for i, j, err in _ratio_conflicts(zeros, target, tol, squared=anisotropic)]
    bz = bessel_zeros(n - 1, bessel_count).zeros
    bes_hits = _ratio_conflicts(bz, r1 / r2, tol)
    return RadiiVerdict(float(r1), float(r2), not (lag_hits or bes_hits),
                        tuple(lag_hits), tuple(bes_hits),
                        (k_max, bessel_count, tol), anisotropic)


def inadmissible_radius_pair(n=1, degree_i=2, index_i=0, index_j=1, r2=1.0):
    """A radius pair that defeats the two-radii theorem: r1/r2 = sqrt(x_i/x_j)
    for two zeros of the same L_k^{n-1}, so theta_k can vanish at both radii."""
    t = laguerre_zeros(degree_i, n - 1)
    return float(r2 * np.sqrt(t.zeros[index_i] / t.zeros[index_j])), float(r2)


# ---------------------------------------------------------------------------
# Euclidean (untwisted) two-radii inversion for the central Fourier mode 0
# ---------------------------------------------------------------------------


def euclidean_mean(field, r):
    """Ordinary spherical mean over |xi| = r (zero twist) as a field (n = 1):
    the full-grid mean kernel of reduced_mean at twist 0."""
    return _full_grid_mean(field, 0.0, [(r, 1.0)])


def euclidean_two_radii_invert(mean1, mean2, r1, r2):
    """Invert a pair of Euclidean circle means (n = 1) by Hankel division.

    Per angular mode m, the circle mean multiplies the order-m Hankel
    transform by J_0(r rho); at each frequency the radius with the larger
    |J_0(r_i rho)| is divided out.  The frequencies rho are Gauss-Legendre
    nodes on (0, r_max], twice as many as the grid's radial nodes.  The radii must pass the Bessel part of
    the admissibility check or a frequency can be invisible to both means.
    """
    g = mean1.grid
    if g.n != 1 or mean2.grid != g:
        raise DimensionMismatch("need two n = 1 means on a common grid")
    x, wq = leggauss(2 * len(g.radial_nodes[0]))
    rho = (x + 1) * (g.r_max / 2)
    wrho = wq * (g.r_max / 2)
    s = g.radial_nodes[0]
    ws = g.radial_weights[0] * s
    f1 = angular_mode_coefficients(mean1)
    f2 = angular_mode_coefficients(mean2)
    na = g.angular_counts[0]
    mnum = np.fft.fftfreq(na, 1.0 / na).astype(int)
    j1 = bessel_j(0, r1 * rho)
    j2 = bessel_j(0, r2 * rho)
    pick1 = np.abs(j1) >= np.abs(j2)
    div = np.where(pick1, j1, j2)
    out_hat = np.zeros_like(f1)
    amax = max(np.max(np.abs(f1)), np.max(np.abs(f2)), 1e-300)
    for idx, m in enumerate(mnum):
        if max(np.max(np.abs(f1[:, idx])), np.max(np.abs(f2[:, idx]))) < 1e-14 * amax:
            continue
        J = bessel_j(abs(m), np.outer(s, rho))  # J_{|m|}(s rho)
        G1 = (ws * f1[:, idx]) @ J  # Hankel transform of mean 1 at rho
        G2 = (ws * f2[:, idx]) @ J
        G = np.where(pick1, G1, G2) / div
        out_hat[:, idx] = J @ (wrho * rho * G)
    vals = values_from_mode_coefficients(g, out_hat)
    return mean1.with_values(vals)


# ---------------------------------------------------------------------------
# Full two-radii verification on the periodized group
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TwoRadiiReport:
    """Per-central-mode reconstruction diagnostics for a pair of radii.

    mode_details[ell] holds, for the twisted modes, the per-degree condition
    numbers 1/|c_k theta_k(r)|, recovered block norms, and the unrecoverable
    degree list; the ell = 0 (Euclidean Fourier-Bessel) path reports only its
    residual.
    """

    r1: float
    r2: float
    verdict: RadiiVerdict
    mode_errors: dict  # ell -> relative L2 reconstruction error
    mode_details: dict  # ell -> {unrecoverable, condition_numbers, recovered_norms}
    overall_error: float

    def to_json_dict(self):
        details = {}
        for ell, d in sorted(self.mode_details.items()):
            details[str(ell)] = {
                "unrecoverable": list(d["unrecoverable"]),
                "condition_numbers": {str(k): v for k, v in sorted(d["condition_numbers"].items())},
                "recovered_norms": {str(k): v for k, v in sorted(d["recovered_norms"].items())},
            }
        return {
            "r1": self.r1,
            "r2": self.r2,
            "admissible": self.verdict.admissible_within_bounds,
            "tolerance": self.verdict.tolerance,
            "mode_errors": {str(k): v for k, v in sorted(self.mode_errors.items())},
            "mode_details": details,
            "overall_error": self.overall_error,
        }


def two_radii_reconstruct(pfield, r1, r2, k_max=20, ell_max=2):
    """Reconstruct every central Fourier mode of a periodized field (n = 1,
    m = 1) from its spherical means at two radii, and report the residuals.

    Mode ell != 0 uses reduced-twist means with twist ell, of either sign;
    mode 0 uses the Euclidean Hankel inversion.  Raises InadmissibleRadii
    when the pair fails the admissibility conditions.
    """
    if pfield.grid.n != 1 or pfield.m != 1:
        raise UnsupportedDimension("two-radii verification is implemented for n = m = 1")
    verdict = two_radii_check(r1, r2, n=1, k_max=k_max)
    if not verdict.admissible_within_bounds:
        raise InadmissibleRadii(
            f"radius pair ({r1}, {r2}) collides with zero ratios; "
            f"{len(verdict.laguerre_conflicts)} laguerre and "
            f"{len(verdict.bessel_conflicts)} bessel conflicts"
        )
    mode_errors, mode_details = {}, {}
    sq_err, sq_tot = 0.0, 0.0
    for ell in range(-ell_max, ell_max + 1):
        comp = fourier_coefficient_center(pfield, [ell])
        nrm = comp.norm2()
        if nrm < 1e-13:
            continue
        result = None
        if ell == 0:
            m1 = euclidean_mean(comp, r1)
            m2 = euclidean_mean(comp, r2)
            recon = euclidean_two_radii_invert(m1, m2, r1, r2)
        else:
            m1 = reduced_mean(comp, [float(ell)], r1)
            m2 = reduced_mean(comp, [float(ell)], r2)
            result = reconstruct_from_means([(r1, m1), (r2, m2)], [float(ell)], k_max)
            recon = result.field
        err_field = comp.with_values(recon.values - comp.values)
        err = err_field.norm2()
        mode_errors[ell] = float(err / nrm)
        if result is not None:
            mode_details[ell] = {
                "unrecoverable": result.unrecoverable,
                "condition_numbers": {k: 1.0 / abs(v) for k, v in result.divisor.items()},
                "recovered_norms": dict(result.recovered_norm),
            }
        else:
            mode_details[ell] = {
                "unrecoverable": (),
                "condition_numbers": {},
                "recovered_norms": {},
            }
        sq_err += err**2
        sq_tot += nrm**2
    overall = float(np.sqrt(sq_err / sq_tot)) if sq_tot > 0 else 0.0
    return TwoRadiiReport(float(r1), float(r2), verdict, mode_errors, mode_details,
                          overall)
