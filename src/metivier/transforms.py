"""Twisted spherical means, twisted convolution, and Laguerre spectral analysis.

Phase conventions.  For a structure with pencil V_lambda, the twisted
spherical mean of f over the sphere of radius r is

    (f x mu_r)(x) = int_{|xi|=r} f(x - xi) exp((i/2) x^T V_lambda xi) dmu_r(xi)

with dmu_r the normalized surface measure.  After rotating coordinates into
the symplectic normal form the phase becomes the reduced form
(i/2) sum_j lam_j Im(z_j conj(w_j)) = (i/2) x^T U xi, with lam the twist
eigenvalues and U = normal_form_matrix(lam): the reduced mean is the twisted
mean of the normal-form pencil.  Means and convolutions with that phase are
the "reduced-twist" operations below, and they accept any nonzero real lam
(positivity is only needed by the special functions).

Spectral analysis uses the scaled special Hermite functions Psi_{alpha,beta},
an orthonormal basis of L2(C^n) for each positive reduced twist.  Because
Psi_{alpha,beta} is a pure angular mode (beta_j - alpha_j in each coordinate)
times one radial profile per coordinate, analysis and synthesis work one axis
at a time on the band of modes their pairs use: one angular DFT matrix
product that keeps the band modes first (mode-major), then one batched
radial matmul of every mode's slab with the profiles of that mode's
distinct keys (alpha_j, beta_j), tabulated once per call from Laguerre
sequences.  No loop runs over the band modes or the pairs.  The passes that
read or write the whole field (the analysis's first, the synthesis's last)
run slab by slab over the first radial axis into preallocated results, so
each slab and its band stay in cache; the analysis sums the field's grid
norm over the same slabs, and the synthesis skips the finiteness read of
its output when a bound from the coefficients and the profiles proves it
finite.  Each field is thus read or written once.  _analyse is the
one analysis and synthesize the one synthesis; projections, convolution and
reconstruction transform the HermiteCoefficients between them.

Twisted convolution, for any n, is coefficient algebra on that basis:
Psi_{alpha,beta} x_lam Psi_{beta,delta} = prod_j sqrt(2 pi / lam_j) Psi_{alpha,delta},
so the coefficient matrix of f x_lam g is prod_j sqrt(2 pi / lam_j) F @ G.
It raises TruncationDominates when either expansion misses more than
(1e-6)^2 of its field's squared grid norm.  twisted_convolution_at is the
independent grid-quadrature oracle.
"""

from dataclasses import dataclass, replace
from itertools import product as iter_product
from math import comb
from numbers import Integral

import numpy as np
from scipy.special import gammaln

from .errors import (
    DimensionMismatch,
    GridMismatch,
    GridTooCoarse,
    NyquistViolation,
    RangeExceeded,
    TruncationDominates,
    UnsupportedDimension,
)
from .grids import (
    FieldEvaluator,
    PolarGrid,
    SampledField,
    _gauss_legendre,
    _real_matmul,
    _rule_energy,
    angular_mode_coefficients,
    build_sphere_rule,
    values_from_mode_coefficients,
)
from .special import (
    MAX_MATRIX_INDEX,
    _is_isotropic,
    _positive_twist,
    _twist,
    laguerre_sequence,
    mean_factor,
)
from .structures import complex_from_real, normal_form_matrix, real_from_complex, v_lambda

# the default sphere rule order per n (build_sphere_rule: X = order + 1
# phases per coordinate); a dimension without an entry takes the n = 2 order
DEFAULT_SPHERE_ORDER = {1: 63, 2: 16}


def _check_degree(k, upper, label):
    """k as an int; RangeExceeded unless it is an integer in [0, upper]."""
    if not isinstance(k, Integral) or not 0 <= k <= upper:
        raise RangeExceeded(f"{label} must be an integer in [0, {upper}], got {k!r}")
    return int(k)


def _mean_at(field, v, atoms, points, order):
    """Sphere-rule mean at complex points (P, n) over the radial measure
    sum_i w_i (sphere of radius r_i), atoms the pairs (r_i, w_i), with the
    phase (i/2) x^T v xi, x and xi the real forms of the point and the node.

    The sphere rule is a product over the coordinates (SphereRule), and so
    is the rest of the summand: the phase is linear in xi, so it is
    prod_j e^{(i/2) (c_j Re xi_j + c_{n+j} Im xi_j)} with c = x^T v, and
    coordinate j of x - xi depends on xi_j alone.  Each point's mean is
    therefore one FieldEvaluator._product_sums row per outer node of each
    atom's rule, weighted by that atom's weight times the outer weights:
    the rule's quadrature with the same nodes, weights and interpolant,
    summed one coordinate at a time.  All atoms share one evaluator.

    Any n >= 1: build_sphere_rule has one construction for every n.
    DimensionMismatch, before any work, for a non-finite point, naming its
    index, and (from build_sphere_rule) for an order that is not an integer
    in [1, 4096] or too low to be exact at n (None takes
    DEFAULT_SPHERE_ORDER, the n = 2 order where n has no entry).
    """
    g = field.grid
    if order is None:
        order = DEFAULT_SPHERE_ORDER.get(g.n, DEFAULT_SPHERE_ORDER[2])
    z = np.asarray(points, dtype=complex).reshape(-1, g.n)
    finite = np.isfinite(z).all(axis=1)
    if not finite.all():
        first = int(np.argmin(finite))
        raise DimensionMismatch(f"point {first} is not finite: {tuple(z[first])}")
    rules = [build_sphere_rule(g.n, r, order) for r, _ in atoms]
    outer = np.concatenate([mass * rule.outer for (_, mass), rule in zip(atoms, rules)])
    c = real_from_complex(z) @ v  # (P, 2n)
    points, weights = [], []
    for j in range(g.n):
        xi = np.concatenate([rule.coordinates[j] for rule in rules])  # (A Q, X_j)
        shape = (-1, xi.shape[1])
        points.append((z[:, j, None, None] - xi).reshape(shape))
        phase = np.exp(0.5j * (c[:, j, None, None] * xi.real + c[:, g.n + j, None, None] * xi.imag))
        weights.append((phase / xi.shape[1]).reshape(shape))
    return FieldEvaluator(field)._product_sums(points, weights).reshape(len(z), -1) @ outer


def twisted_mean_at(field, structure, lam, r, points, order=None):
    """Twisted spherical mean (full structure phase) at complex points (P, n)."""
    if structure.n != field.grid.n:
        raise DimensionMismatch("structure and field dimensions differ")
    return _mean_at(field, v_lambda(structure, lam), [(r, 1.0)], points, order)


def reduced_mean_at(field, lambda_prime, r, points, order=None):
    """Reduced-twist spherical mean at complex points (P, n): the twisted
    mean of the normal-form pencil, whose phase (i/2) x^T U xi is
    (i/2) sum_j lam_j Im(z_j conj(w_j))."""
    lam = _twist(lambda_prime, field.grid.n, "reduced_mean_at", DimensionMismatch)
    return _mean_at(field, normal_form_matrix(lam), [(r, 1.0)], points, order)


def _grid_points(grid):
    axes = grid.coordinate_axes()
    return np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, grid.n)


def _full_grid_mean(field, twist, atoms):
    """Full-grid n = 1 mean over the radial measure sum_i w_i (circle of
    radius r_i), atoms the pairs (r_i, w_i), with phase (i/2) twist Im(z conj(w)).

    The mean commutes with the rotations z -> e^{i phi} z, so angular mode m
    of the result at s e^{i phi} is e^{i m phi} times the mean of the field's
    mode m at the base point s.  The field's live modes are therefore
    evaluated only on the circles around each radial node, and one inverse
    angular FFT returns the result to the grid.  The radial interpolation
    (FieldEvaluator's barycentric matrix, whose rows at a node are exact
    unit rows) is one real matrix product on the float view of the kept
    coefficients, and the mode phases e^{i m arg u} are the powers of
    u / |u| up to the largest |m|, conjugated for m < 0.  twist = 0 is the
    Euclidean mean.  Beyond r_max the field is zero, as in FieldEvaluator.

    The fold: the circle rule's nodes are r e^{2 pi i k / K} and the base
    points s are real and positive, so node K - k is the conjugate of node
    k.  It has the same |s - w|, and its phase e^{i m arg(s - w)}
    e^{(i/2) twist Im(s conj w)} is the conjugate of node k's.  The sum
    therefore runs over k = 0..K/2 alone, of weight f_m(|s - w|) 2 Re(phase);
    the self-conjugate nodes k = 0 and K/2 keep weight 1.  That halves the
    barycentric rows and makes the phases real.  It is still the quadrature
    of reduced_mean_at, with the same nodes and weights, and it shares no
    code with the special Hermite analysis, so the full-grid mean remains
    an oracle independent of the spectral inversion it feeds.

    All atoms share one FieldEvaluator (one angular FFT), one barycentric
    matrix over their folded nodes, one contraction in which each atom's
    weight multiplies its node weights, and one inverse FFT.  The matrix is
    built in passes of the folded nodes of at most four atoms, so a measure
    with many atoms does not grow it past four times the 2.4 MB of one atom
    on the default grid.  UnsupportedDimension for n != 1, before any work.
    """
    g = field.grid
    if g.n != 1:
        raise UnsupportedDimension("full-grid means are implemented for n = 1")
    ev = FieldEvaluator(field)
    s = g.radial_nodes[0]
    nodes, weights = [], []
    for r, mass in atoms:
        circle = build_sphere_rule(1, r, DEFAULT_SPHERE_ORDER[1]).coordinates[0][0]
        k = np.arange(circle.size // 2 + 1)
        nodes.append(circle[k])
        weights.append(mass * np.where((k == 0) | (2 * k == circle.size), 1.0, 2.0)
                       / circle.size)
    per_pass = 4 * k.size  # the folded nodes of four atoms
    nodes, weights = np.concatenate(nodes), np.concatenate(weights)
    m = ev.modes[0]
    sums = 0.0
    for start in range(0, nodes.size, per_pass):
        w = nodes[start:start + per_pass]
        u = (s[:, None] - w[None, :]).ravel()  # z - w at the base points z = s, (S K,)
        rho = np.abs(u)
        fm = _real_matmul(ev._radial_matrix(0, rho), ev.fhat)  # (S K, M)
        fm[rho > g.r_max] = 0.0
        powers = np.empty((np.abs(m).max() + 1, u.size), dtype=complex)
        powers[0] = 1.0
        powers[1:] = np.divide(u, rho, out=np.ones_like(u), where=rho > 0)  # e^{i arg u}
        np.cumprod(powers, axis=0, out=powers)
        phases = powers[np.abs(m)]
        np.conjugate(phases, out=phases, where=(m < 0)[:, None])
        phases *= np.exp(0.5j * twist * np.imag(s[:, None] * np.conj(w)[None, :])).ravel()
        real = phases.real.reshape(len(m), len(s), len(w)) * weights[start:start + len(w)]
        sums = sums + np.einsum("skm,msk->sm", fm.reshape(len(s), len(w), len(m)), real)
    na = g.angular_counts[0]
    fhat = np.zeros((len(s), na), dtype=complex)
    fhat[:, m % na] = sums
    return field.with_values(values_from_mode_coefficients(g, fhat))


def reduced_mean(field, lambda_prime, r):
    """Reduced-twist spherical mean as a field on the same grid (n = 1).

    Computed by rotation equivariance: the field is evaluated once per radial
    node and angular mode, not at every grid angle.  reduced_mean_at is the
    independent pointwise quadrature oracle.  The n = 2 full-grid mean is
    unsupported; use reduced_mean_at or the eigenfunction identity instead.
    """
    lam = _twist(lambda_prime, field.grid.n, "reduced_mean", DimensionMismatch)
    return _full_grid_mean(field, lam[0], [(r, 1.0)])


def twisted_mean(field, structure, lam, r):
    """Twisted spherical mean (full structure phase) as a field (n = 1).

    For n = 1, V_lambda is the skew matrix [[0, a], [-a, 0]] and the phase
    (i/2) x^T V_lambda xi is the reduced one at twist -a.
    """
    if structure.n != field.grid.n:
        raise DimensionMismatch("structure and field dimensions differ")
    return _full_grid_mean(field, -v_lambda(structure, lam)[0, 1], [(r, 1.0)])


def modified_twisted_mean_at(field, spec, r, points):
    """Modified twisted mean at points: the reduced-twist mean at lambda' = mu(spec)."""
    return reduced_mean_at(field, spec.mu, r, points)


def twisted_convolution_at(f, gfield, lambda_prime, points):
    """Reference twisted convolution (f x_lam g)(z) at complex points (P, n).

    Quadrature over the grid of gfield; f is evaluated by interpolation at
    z - w.  Quadratic cost: intended for verification at a few points.
    """
    grid = gfield.grid
    lam = _twist(lambda_prime, grid.n, "twisted_convolution_at", DimensionMismatch)
    z = np.asarray(points, dtype=complex).reshape(-1, grid.n)
    w = _grid_points(grid)
    qw = grid.quadrature_weights().ravel()
    gv = gfield.values.ravel()
    ev = FieldEvaluator(f)
    out = np.empty(z.shape[0], dtype=complex)
    for p in range(z.shape[0]):
        phase = 0.5 * np.imag(z[p][None, :] * np.conj(w)) @ lam
        out[p] = np.sum(qw * ev(z[p][None, :] - w) * gv * np.exp(1j * phase))
    return out


def _live_modes(g, fhat):
    """Joint angular modes m of a field on grid g, from its angular mode
    coefficients fhat, whose largest amplitude over the radial nodes is at
    least 1e-13 of the largest over all modes."""
    amp = np.abs(fhat).max(axis=tuple(range(0, 2 * g.n, 2)))
    freqs = [np.fft.fftfreq(c, 1.0 / c).astype(int) for c in g.angular_counts]
    live = np.argwhere(amp >= 1e-13 * (amp.max() or 1.0))
    return [tuple(int(freqs[j][i[j]]) for j in range(g.n)) for i in live]


def _conjugate_coordinates(field, coords):
    """The field f(z) with z_j replaced by conj(z_j) for each j in coords:
    angle index i becomes -i modulo the angle count.  With no coords it is
    the field itself, so no copy and no finiteness read is made."""
    if len(coords) == 0:
        return field
    values = field.values
    for j in coords:
        values = np.roll(np.flip(values, axis=2 * j + 1), 1, axis=2 * j + 1)
    return field.with_values(values)


def twisted_convolution(f, g, lambda_prime):
    """Full-grid twisted convolution (f x_lam g) on the shared grid, any n.

    Coefficient algebra on the special Hermite basis: with F, G the matrices
    of (f, Psi_{alpha,beta}) and (g, Psi_{alpha,beta}), the rule
    Psi_{alpha,beta} x_lam Psi_{beta,delta} = prod_j sqrt(2 pi / lam_j) Psi_{alpha,delta}
    gives f x_lam g = sum H_{alpha,delta} Psi_{alpha,delta} with
    H = prod_j sqrt(2 pi / lam_j) F @ G.  Each field is analysed once
    (_analyse) over the pairs (alpha, alpha + m), m one of its joint angular
    modes above 1e-13 of its largest (from one angular FFT), every index at
    most MAX_TRUNCATION[n] + 2n + 4, and H is synthesized once (synthesize).
    A negative lam_j conjugates coordinate j of both fields and of the
    result.
    twisted_convolution_at is the independent quadrature oracle.

    Raises GridMismatch for fields on different grids, TruncationDominates
    when g carries more than 1e-6 of its peak on the outer radial node or
    when either expansion misses more than (1e-6)^2 of the field's squared
    grid norm (by Bessel's inequality that deficit bounds the error),
    NyquistViolation when a sum of live modes of f and g leaves the band,
    and GridTooCoarse when the radial rule aliases either analysis by more
    than 1e-5 (_gram_defect).  On the default n = 1 grid at lam = 0.8 a Psi
    sum with indices <= 8 is off by 1.7e-7 of its peak against
    twisted_convolution_at: TruncationDominates flags that window loss (Gram
    defect 1.2e-4 against the identity, 5e-16 against a resolving rule).
    """
    truncation_tol, gram_tol = 1e-6, 1e-5
    grid = f.grid
    if g.grid != grid:
        raise GridMismatch("fields live on different grids")
    lam = _twist(lambda_prime, grid.n, "twisted_convolution", DimensionMismatch)
    gmax = g.max_abs()
    edge = max(float(np.max(np.abs(np.take(g.values, -1, axis=2 * j)))) for j in range(grid.n))
    if gmax > 0 and edge > truncation_tol * gmax:
        raise TruncationDominates(
            f"kernel carries {edge / gmax:.3e} of its peak at r_max; "
            f"the grid truncates the convolution integrand"
        )
    flipped = np.flatnonzero(lam < 0)
    f, g = (_conjugate_coordinates(field, flipped) for field in (f, g))
    lam = np.abs(lam)
    # one row and column per multi-index alpha, every index <= bound
    bound = MAX_TRUNCATION.get(grid.n, 0) + 2 * grid.n + 4
    alphas = np.indices((bound + 1,) * grid.n).reshape(grid.n, -1).T
    (F, f_modes), (G, g_modes) = (_coefficient_matrix(field, lam, alphas, truncation_tol)
                                  for field in (f, g))
    band = np.array(grid.angular_counts) // 2 - 1
    for mf, mg in iter_product(f_modes, g_modes):
        if np.any(np.abs(np.add(mf, mg)) > band):
            raise NyquistViolation(
                f"output mode {tuple(np.add(mf, mg))} exceeds the angular band of the grid"
            )
    defect = _gram_defect(grid, lam, (F, G), bound)
    if defect > gram_tol:
        raise GridTooCoarse(
            f"the radial rule aliases the special Hermite analysis with indices <= {bound} "
            f"by {defect:.3e} of the field's norm; add radial nodes"
        )
    H = float(np.prod(np.sqrt(2 * np.pi / lam))) * (F @ G)
    rows, cols = np.nonzero(H)
    pairs = tuple((tuple(alphas[i]), tuple(alphas[k])) for i, k in zip(rows, cols))
    h = synthesize(HermiteCoefficients(grid, lam, pairs, H[rows, cols],
                                       float(np.sum(np.abs(H) ** 2)), f.metadata))
    return _conjugate_coordinates(h, flipped)


def _coefficient_matrix(field, lam, alphas, truncation_tol):
    """(matrix, modes): the matrix of (f, Psi_{alpha,alpha+m}) over the rows
    and columns alphas, m each live joint mode of the field (from one
    angular FFT); TruncationDominates when the coefficients miss more than
    truncation_tol^2 of the field's squared norm."""
    modes = _live_modes(field.grid, angular_mode_coefficients(field))
    bound = int(alphas.max())
    betas = alphas + np.array(modes, dtype=int).reshape(-1, 1, field.grid.n)
    inside = np.all((betas >= 0) & (betas <= bound), axis=2)
    pairs = np.stack([np.broadcast_to(alphas, betas.shape)[inside], betas[inside]], axis=1)
    spectrum = _analyse(field, lam, pairs)
    missed = spectrum.total_energy - spectrum.captured_energy
    if missed > truncation_tol**2 * spectrum.total_energy:
        raise TruncationDominates(
            f"the special Hermite expansion with indices <= {bound} misses "
            f"{missed / spectrum.total_energy:.3e} of the field's squared norm"
        )
    size = (bound + 1,) * field.grid.n
    matrix = np.zeros((len(alphas), len(alphas)), dtype=complex)
    matrix[tuple(np.ravel_multi_index(pairs[:, i].T, size) for i in (0, 1))] = spectrum.coefficients
    return matrix, modes


def _gram_defect(grid, lam, matrices, bound):
    """How far the radial rule aliases the analyses behind the coefficient
    matrices: the largest max |P^H W P - Q^H V Q|_{rc} a_c over the matrices,
    the axes and the keys r, c <= bound of one mode, with P, W the keys'
    radial profiles and measure 2 pi s ds on the grid's nodes, Q, V the same
    on a resolving Gauss-Legendre rule (window truncation cancels), and a_c
    key c's share of the matrix's coefficient norm.  The resolving rule is
    built once per axis for all the matrices."""
    n = grid.n
    energies = [(np.abs(matrix) ** 2).reshape((bound + 1,) * 2 * n) for matrix in matrices]
    defect = 0.0
    for j in range(n):
        # the grid rule minus the resolving rule, as one rule on both node sets
        x, w = _gauss_legendre(2 * len(grid.radial_nodes[j]) + 2 * bound)
        s = np.concatenate([grid.radial_nodes[j], (x + 1) * grid.r_max / 2])
        ws = np.concatenate([grid.radial_weights[j], -w * grid.r_max / 2])
        for energy in energies:
            share = np.sqrt(energy.sum(axis=tuple(i for i in range(2 * n) if i not in (j, n + j)))
                            .ravel() / (energy.sum() or 1.0))
            a, b = np.indices((bound + 1, bound + 1)).reshape(2, -1)
            rows = np.isin(b - a, (b - a)[share > 0])  # the keys of the field's modes
            a, b, share = a[rows], b[rows], share[rows]
            live = np.flatnonzero(share)
            radial = _radial_profiles(a, b, lam[j], s)
            gram = (np.conj(radial) * (2 * np.pi * ws * s)[:, None]).T @ radial[:, live]
            same = (b - a)[:, None] == (b - a)[live]
            defect = max(defect, float(np.max(np.abs(gram * share[live])[same], initial=0.0)))
    return defect


# ---------------------------------------------------------------------------
# Laguerre / special Hermite spectral analysis
# ---------------------------------------------------------------------------


def _mode_index(m, na):
    """FFT index of angular mode m; NyquistViolation beyond the band."""
    if abs(m) > na // 2 - 1:
        raise NyquistViolation(f"angular mode {m} exceeds band of {na}-point axis")
    return m % na


def _radial_profiles(a, b, lam, s):
    """special_hermite_1d(a[i], b[i], lam, s) at the nodes s > 0 as the columns
    of one matrix.  There the profile depends only on min(a, b) and p = |b - a|,
    so one laguerre_sequence call serves every order p, and the factor
    (i sqrt(x))^p e^{-x/2} is taken once per order."""
    if a.size and max(a.max(), b.max()) > MAX_MATRIX_INDEX:
        raise RangeExceeded(f"special hermite indices outside [0, {MAX_MATRIX_INDEX}]")
    x, low, p = lam * s**2 / 2, np.minimum(a, b), np.abs(b - a)
    orders, order_of = np.unique(p, return_inverse=True)
    laguerre = laguerre_sequence(int(low.max(initial=0)), orders[:, None], x)
    # sqrt(k! / (k + p)!) L_k^p(x) (i sqrt(x))^p e^{-x/2}
    scale = np.exp(0.5 * (gammaln(low + 1) - gammaln(low + p + 1)))
    factor = (1j * np.sqrt(x)) ** orders[:, None] * np.exp(-x / 2)
    out = (laguerre[low, order_of] * scale[:, None] * factor[order_of]).T
    return np.sqrt(lam / (2 * np.pi)) * out


def _axis_tables(grid, lam, index_pairs):
    """Psi_{alpha,beta}(z) = prod_j R_j(|z_j|) e^{i (beta_j - alpha_j) arg z_j}
    over the distinct keys (alpha_j, beta_j) of the pairs, per axis j: (band,
    stack, mode, slot, pair_key).  band holds the sorted modes beta_j - alpha_j
    (NyquistViolation past the angular band); stack is the zero-padded
    (len(band), N_r, most keys of one mode) array of profiles, key i's at
    stack[mode[i], :, slot[i]]; pair_key is the key of each pair.  lam must
    hold one component per coordinate (DimensionMismatch), each finite and
    positive (RangeExceeded)."""
    lam = _positive_twist(lam, grid.n, "special Hermite analysis", RangeExceeded)
    ab = np.array(index_pairs, dtype=int).reshape(len(index_pairs), 2, grid.n)
    tables = []
    for j in range(grid.n):
        # keys as rows (beta_j - alpha_j, alpha_j): sorted by mode, then by alpha_j
        keys, pair_key = np.unique(np.stack([ab[:, 1, j] - ab[:, 0, j], ab[:, 0, j]], axis=1),
                                   axis=0, return_inverse=True)
        band, first, mode = np.unique(keys[:, 0], return_index=True, return_inverse=True)
        for m in band:
            _mode_index(int(m), grid.angular_counts[j])
        slot = np.arange(len(keys)) - first[mode]
        s = grid.radial_nodes[j]
        stack = np.zeros((len(band), len(s), slot.max(initial=-1) + 1), dtype=complex)
        stack[mode, :, slot] = _radial_profiles(keys[:, 1], keys.sum(axis=1), lam[j], s).T
        tables.append((band, stack, mode, slot, pair_key.ravel()))
    return tables


def _angular_phases(na, modes, sign):
    """The (na, len(modes)) matrix e^{sign 2 pi i t m / na} over the angle
    indices t and the modes m, read from the na roots of unity at t m mod na."""
    return np.exp(sign * 2j * np.pi * np.arange(na) / na)[np.outer(np.arange(na), modes) % na]


def matrix_coefficient(field, alpha, beta, lambda_prime):
    """(f, Psi_{alpha,beta}) via angular-mode contraction on the grid rule."""
    pair = (tuple(np.atleast_1d(alpha)), tuple(np.atleast_1d(beta)))
    return _analyse(field, lambda_prime, [pair]).coefficients[0]


# complex entries of the field in one slab of the analysis's first axis pass
# and of the synthesis's last, the passes over the whole field: 4 MB, so
# that a slab and its band of modes stay in cache
_BAND_SLAB = 1 << 18


def _slab_rows(lead, nr, na):
    """(count, width, rows) for a pass over an array of shape lead + (nr, na):
    the length of lead's leading axis (1 when lead is empty), the product of
    lead's other axes, and how many leading indices one slab of at most
    _BAND_SLAB entries takes (at least one, at most count)."""
    count, width = int(np.prod(lead[:1])), int(np.prod(lead[1:]))
    return count, width, max(1, min(count, _BAND_SLAB // max(width * nr * na, 1)))


def _matrix_coefficients(field, index_pairs, lambda_prime, tables=None):
    """Analysis: (coefficients, energy), the (f, Psi_{alpha,beta}) of each
    pair and the grid rule's sum of |f|^2 (grids._rule_energy), from tables,
    the _axis_tables of the pairs at lambda_prime (tabulated here when the
    caller has none).

    Per axis, last first, on the axis's (radial, angular) pair, which ends
    the array: one angular DFT product writes the band of modes
    beta_j - alpha_j mode-major, so that each mode's radial slab is
    contiguous; one batched matmul contracts every slab with the conjugate
    profiles of its mode's keys, and one gather puts the keys first into the
    preallocated result.  Each pass runs slab by slab over the leading axis
    of the array it reads (_slab_rows; one slab when that axis is the one
    contracted, as at n = 1), so on the first pass, which reads the whole
    field, a slab of _BAND_SLAB entries and its band stay in cache, and the
    field's energy is summed over the same slab then.  One gather over the
    keys of each pair ends it."""
    g = field.grid
    if tables is None:
        tables = _axis_tables(g, lambda_prime, index_pairs)
    coeffs, energy = field.values, 0.0
    for j in reversed(range(g.n)):
        band, stack, mode, slot, _ = tables[j]
        lead, (nr, na) = coeffs.shape[:-2], coeffs.shape[-2:]
        count, width, rows = _slab_rows(lead, nr, na)
        blocks = coeffs.reshape((count, width, nr, na))
        phases = (_angular_phases(na, band, -1) / na).T
        # radial measure s ds times the 2 pi of the angular integral
        weighted = (np.conj(stack) * (2 * np.pi * g.radial_weights[j] * g.radial_nodes[j])[:, None]
                    ).transpose(0, 2, 1)
        keyed = np.empty((len(mode), count, width), dtype=complex)
        buffer = np.empty(len(band) * rows * width * nr, dtype=complex)  # one slab's band
        for i in range(0, count, rows):
            slab = blocks[i:i + rows]
            h = len(slab)
            cols = h * width * nr
            # a transposed view, which BLAS reads without a copy
            bands = np.matmul(phases, slab.reshape(cols, na).T,
                              out=buffer[:len(band) * cols].reshape(len(band), cols))
            slabs = bands.reshape(len(band), h * width, nr).transpose(0, 2, 1)
            keyed[:, i:i + h] = np.matmul(weighted, slabs)[mode, slot].reshape(len(mode), h, width)
            if j == g.n - 1:  # the first pass reads the field: the energy of the slab's rows
                per = len(coeffs) // count  # rows of the field per leading index
                energy += _rule_energy(g, coeffs, slice(i * per, (i + h) * per))
        coeffs = keyed.reshape(mode.shape + lead)
    return coeffs[tuple(pair_key for *_, pair_key in tables)], energy


def _synthesize_values(grid, lam, terms, tables=None):
    """Synthesis: the values of sum c Psi_{alpha,beta} over terms (alpha, beta,
    c), the transpose of the analysis, from tables, the _axis_tables of the
    terms' pairs (tabulated here when the caller has none).

    One scatter onto the keys, then per axis, first first: one scatter of
    the keys into the padded stack, one batched matmul with the profiles
    that writes each band mode's radial slab, and one angular DFT product
    from the transposed mode-major slabs that appends the axis's (radial,
    angular) pair.  Each pass runs slab by slab over the leading axis of the
    array it writes (_slab_rows; one slab at n = 1), so the last pass, which
    writes the whole field, writes each slab of _BAND_SLAB entries in place
    (np.matmul(..., out=...)) from a band that stays in cache."""
    if tables is None:
        tables = _axis_tables(grid, lam, [(a, b) for a, b, _ in terms])
    values = np.zeros(tuple(len(mode) for _, _, mode, *_ in tables), dtype=complex)
    np.add.at(values, tuple(pair_key for *_, pair_key in tables), [c for *_, c in terms])
    for j, (band, stack, mode, slot, _) in enumerate(tables):
        lead, nr, na = values.shape[1:], stack.shape[1], grid.angular_counts[j]
        count, width, rows = _slab_rows(lead, nr, na)
        keys = values.reshape(len(mode), count * width)
        out = np.empty(lead + (nr, na), dtype=complex)
        written = out.reshape(count * width * nr, na)
        profiles = stack.transpose(0, 2, 1)
        phases = _angular_phases(na, band, 1).T
        # the slab's keys scattered into the padded stack: entries off (mode, slot) stay zero
        padded = np.zeros((len(band), stack.shape[2], rows * width), dtype=complex)
        buffer = np.empty(len(band) * rows * width * nr, dtype=complex)  # one slab's band
        for i in range(0, count, rows):
            h = min(rows, count - i)
            cols = h * width * nr
            padded[mode, slot, :h * width] = keys[:, i * width:(i + h) * width]
            slabs = np.matmul(padded[:, :, :h * width].transpose(0, 2, 1), profiles,
                              out=buffer[:len(band) * cols].reshape(len(band), h * width, nr))
            start = i * width * nr
            np.matmul(slabs.reshape(len(band), cols).T, phases, out=written[start:start + cols])
        values = out
    return values


def _multi_indices(n, total_max):
    """All multi-indices in N^n with |alpha| <= total_max."""
    out = [a for a in iter_product(range(total_max + 1), repeat=n) if sum(a) <= total_max]
    return sorted(out, key=lambda a: (sum(a), a))


def _block_pairs(n, degrees, alpha_max=None):
    """(alpha, beta) over the blocks |beta| = k, k in degrees, block after
    block in the order of degrees: each block, on which the reduced mean acts
    as one scalar, lists alpha-major the pairs with |alpha| <= alpha_max
    (default k + 2n + 4), alpha and beta each in _multi_indices order.

    The alphas and the betas are each listed by one _multi_indices call; the
    multi-indices with |a| <= t are the first C(t + n, n) of that list."""
    degrees = list(degrees)
    bounds = [k + 2 * n + 4 if alpha_max is None else alpha_max for k in degrees]
    alphas = _multi_indices(n, max(bounds, default=-1))
    betas = _multi_indices(n, max(degrees, default=-1))
    return [(a, b) for k, bound in zip(degrees, bounds)
            for a in alphas[:comb(bound + n, n)]
            for b in betas[comb(k + n - 1, n):comb(k + n, n)]]


@dataclass(frozen=True)
class HermiteCoefficients:
    """Special Hermite coefficients (f, Psi_{alpha,beta}) of a field over a
    list of index pairs, with the grid, twist and metadata of the field.

    The spectral degree of a pair is |beta|: twisted convolution on the right,
    and in particular the reduced spherical mean, acts by one scalar on each
    block of fixed |beta|.  degrees holds each pair's |beta|, and k_max,
    projection(k) and decompose's tail check select blocks from it.
    total_energy is the squared grid norm of the analysed field; by Bessel's
    inequality captured_energy does not exceed it up to the grid rule's error.
    """

    grid: PolarGrid
    lambda_prime: np.ndarray
    pairs: tuple  # ((alpha, beta), ...), alpha and beta tuples of n indices
    coefficients: np.ndarray  # complex, one per pair
    total_energy: float
    metadata: str

    @property
    def captured_energy(self):
        return float(np.sum(np.abs(self.coefficients) ** 2))

    @property
    def degrees(self):
        """The degree |beta| of each pair, as an integer array."""
        return np.array([sum(b) for _, b in self.pairs], dtype=int)

    @property
    def k_max(self):
        """The largest degree |beta| among the pairs, -1 when there are none."""
        return int(self.degrees.max(initial=-1))

    def projection(self, k):
        """The Laguerre projection f x_lam theta_k, synthesized on the grid:
        prod_j (2 pi / lam_j) times the sum of block k."""
        if not 0 <= k <= self.k_max:
            raise RangeExceeded(f"degree {k} outside [0, {self.k_max}]")
        block = np.flatnonzero(self.degrees == k)
        prefactor = float(np.prod(2 * np.pi / self.lambda_prime))
        return synthesize(replace(self, pairs=tuple(self.pairs[i] for i in block),
                                  coefficients=prefactor * self.coefficients[block]))


def _analyse(field, lam, pairs):
    """HermiteCoefficients of the field over pairs, from one analysis call,
    whose slab loop also takes total_energy: the field is read once.

    The spectrum carries the basis tables of the analysis, with the grid,
    twist and pairs objects they were tabulated for; synthesize reuses them
    (see _analysis_tables)."""
    lam = np.atleast_1d(np.asarray(lam, dtype=float))
    pairs = tuple(pairs)
    tables = _axis_tables(field.grid, lam, pairs)
    coefficients, energy = _matrix_coefficients(field, pairs, lam, tables)
    spectrum = HermiteCoefficients(field.grid, lam, pairs, coefficients, energy, field.metadata)
    object.__setattr__(spectrum, "_analysis", (field.grid, lam, pairs, tables))
    return spectrum


def _replace_spectrum(spectrum, **changes):
    """dataclasses.replace that carries the basis tables of the spectrum's
    analysis along; they serve the result only while its grid, twist and
    pairs are still the objects they were tabulated for."""
    out = replace(spectrum, **changes)
    object.__setattr__(out, "_analysis", getattr(spectrum, "_analysis", None))
    return out


def _analysis_tables(spectrum):
    """The basis tables of the analysis the spectrum came from, when its
    grid, twist and pairs are the very objects they were tabulated for;
    None otherwise (a spectrum built anew or by dataclasses.replace)."""
    analysis = getattr(spectrum, "_analysis", None)
    if analysis is None or any(a is not b for a, b in zip(
            analysis, (spectrum.grid, spectrum.lambda_prime, spectrum.pairs))):
        return None
    return analysis[3]


MAX_TRUNCATION = {1: 40, 2: 12}


def decompose(field, lambda_prime, k_max, tail_tol=None):
    """Special Hermite coefficients of the blocks |beta| = k <= k_max, with
    |alpha| <= k + 2n + 4 in block k, from one analysis.

    The Laguerre projections f x_lam theta_k = prod_j (2 pi / lam_j) times
    the block |beta| = k are synthesized on demand by projection(k), and
    synthesize sums the series.  RangeExceeded unless k_max is an integer
    in [0, MAX_TRUNCATION[n]].  When tail_tol is given, raises
    TruncationDominates when the last block still carries more than tail_tol
    of the field's norm, or when the coefficients miss more than tail_tol^2
    of its squared norm (total_energy - captured_energy), as they do for a
    field with energy outside the blocks' alpha bound.
    """
    g = field.grid
    k_max = _check_degree(k_max, MAX_TRUNCATION.get(g.n, 0), f"truncation for n={g.n}")
    spectrum = _analyse(field, lambda_prime, _block_pairs(g.n, range(k_max + 1)))
    if tail_tol is not None:
        fn = np.sqrt(spectrum.total_energy)
        tail = float(np.linalg.norm(spectrum.coefficients[spectrum.degrees == k_max]))
        if fn > 0 and tail > tail_tol * fn:
            raise TruncationDominates(
                f"last block carries {tail / fn:.3e} of the field norm; "
                f"raise k_max or loosen tail_tol"
            )
        missed = spectrum.total_energy - spectrum.captured_energy
        if missed > tail_tol**2 * spectrum.total_energy:
            raise TruncationDominates(
                f"the blocks |beta| <= {k_max}, |alpha| <= |beta| + {2 * g.n + 4} miss "
                f"{missed / spectrum.total_energy:.3e} of the field's squared norm"
            )
    return spectrum


SPECTRUM_VERSION = 2


def write_spectrum(spectrum, directory):
    """Serialize HermiteCoefficients as directory/manifest.json: the grid,
    lambda_prime, the index pairs, [re, im] of each coefficient,
    total_energy and metadata.  Floats are written exactly."""
    import json
    import os

    from .fieldio import _grid_header

    os.makedirs(directory, exist_ok=True)
    manifest = {
        "version": SPECTRUM_VERSION,
        "kind": "laguerre-spectrum",
        "grid": _grid_header(spectrum.grid),
        "lambda_prime": [float(v) for v in spectrum.lambda_prime],
        "pairs": [[[int(v) for v in a], [int(v) for v in b]] for a, b in spectrum.pairs],
        "coefficients": [[float(c.real), float(c.imag)] for c in spectrum.coefficients],
        "total_energy": float(spectrum.total_energy),
        "metadata": spectrum.metadata,
    }
    with open(os.path.join(directory, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True)
        fh.write("\n")


def read_spectrum(directory):
    """Inverse of write_spectrum.

    Raises VersionMismatch for a manifest version other than 2 and
    MalformedFile for any other departure from the layout: a manifest that
    is not a JSON object, a missing or ill-typed key (pairs a list of
    [alpha, beta] integer lists, coefficients a list of [re, im] numbers,
    lambda_prime a list of numbers, total_energy a number, metadata a
    string), a grid the header cannot describe, an index list that is not n
    non-negative integers, a repeated pair, a pair whose angular mode
    beta_j - alpha_j lies outside the grid's band, a coefficient count
    other than the pair count, a coefficient or total_energy that is not
    finite (or a negative total_energy), or a lambda_prime that is not one
    finite positive component per complex coordinate of the grid.
    """
    import json
    import os
    import sys

    from .errors import MalformedFile, VersionMismatch
    from .fieldio import _grid_from_header

    path = os.path.join(directory, "manifest.json")
    try:
        with open(path, "rb") as fh:
            manifest = json.loads(fh.read().decode("utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise MalformedFile(f"cannot read spectrum manifest {path}: {exc}") from exc
    if not isinstance(manifest, dict) or manifest.get("kind") != "laguerre-spectrum":
        raise MalformedFile(f"{path} is not a spectrum manifest")
    if manifest.get("version") != SPECTRUM_VERSION:
        raise VersionMismatch(f"unsupported spectrum manifest version in {path}")
    pairs, coeffs, lam, energy = (manifest.get(key) for key in
                                  ("pairs", "coefficients", "lambda_prime", "total_energy"))

    def is_number(v):  # type() rather than isinstance(): a JSON true is not a number here
        return type(v) in (int, float)

    checks = {
        "pairs": isinstance(pairs, list) and all(
            isinstance(p, list) and len(p) == 2
            and all(isinstance(i, list) and all(type(v) is int for v in i) for i in p)
            for p in pairs
        ),
        "coefficients": isinstance(coeffs, list) and all(
            isinstance(c, list) and len(c) == 2 and all(is_number(v) for v in c) for c in coeffs
        ),
        "lambda_prime": isinstance(lam, list) and all(is_number(v) for v in lam),
        "total_energy": is_number(energy),
        "metadata": isinstance(manifest.get("metadata"), str),
    }
    bad = [key for key, ok in checks.items() if not ok]
    if bad:
        raise MalformedFile(f"{path} has missing or ill-typed keys: {', '.join(bad)}")
    grid = _grid_from_header(manifest.get("grid"))
    pairs = tuple((tuple(a), tuple(b)) for a, b in pairs)
    if not all(len(i) == grid.n and min(i) >= 0 for p in pairs for i in p):
        raise MalformedFile(f"{path} has pairs that are not {grid.n} non-negative indices each")
    if len(set(pairs)) != len(pairs):
        raise MalformedFile(f"{path} repeats an index pair")
    if any(abs(bj - aj) > na // 2 - 1
           for a, b in pairs for aj, bj, na in zip(a, b, grid.angular_counts)):
        raise MalformedFile(f"{path} has a pair whose angular mode exceeds the grid's band")
    if len(coeffs) != len(pairs):
        raise MalformedFile(f"{path} has {len(coeffs)} coefficients for {len(pairs)} pairs")
    big = sys.float_info.max
    if not (all(-big <= v <= big for c in coeffs for v in c) and 0 <= energy <= big):
        raise MalformedFile(f"{path} has a non-finite coefficient or total_energy")
    if len(lam) != grid.n or not all(0 < v <= big for v in lam):
        raise MalformedFile(
            f"{path} has lambda_prime {lam}; need {grid.n} finite positive components"
        )
    return HermiteCoefficients(grid, np.asarray(lam, dtype=float), pairs,
                               np.array([complex(re, im) for re, im in coeffs], dtype=complex),
                               float(energy), manifest["metadata"])


# below half the largest float: rounding cannot carry a value bounded by
# this past overflow
_FINITE_BOUND = np.finfo(float).max / 2


def synthesize(spectrum):
    """Sum the Laguerre series: the field sum c Psi_{alpha,beta} over every
    pair of the spectrum, from one synthesis.

    The basis tables of the analysis the spectrum came from are reused when
    the spectrum still holds the grid, twist and pairs objects they were
    tabulated for: a spectrum straight from _analyse (decompose, for one),
    or one made from it by _replace_spectrum with its pairs kept, as the
    inversion of a single mean does.  Any other spectrum, built anew or by
    dataclasses.replace, tabulates its own.

    The field's values are finite when sum |c| prod_j max |R_j| stays below
    overflow, the R_j the profiles of the tables' axis j: every value and
    every partial sum of the synthesis is bounded by it (the angular phases
    have modulus 1), and a coefficient that is not finite makes it not
    finite.  Then the field is built without SampledField's second read of
    the values; otherwise that full finiteness check runs."""
    grid = spectrum.grid
    tables = _analysis_tables(spectrum) or _axis_tables(grid, spectrum.lambda_prime, spectrum.pairs)
    terms = [(a, b, c) for (a, b), c in zip(spectrum.pairs, spectrum.coefficients)]
    # overflow and inf - inf are reported as NonFiniteValue by the check
    with np.errstate(over="ignore", invalid="ignore"):
        bound = float(np.sum(np.abs(spectrum.coefficients))) * float(np.prod(
            [np.max(np.abs(stack), initial=0.0) for _, stack, *_ in tables]))
        values = _synthesize_values(grid, spectrum.lambda_prime, terms, tables)
    if bound < _FINITE_BOUND:
        return SampledField._proven_finite(grid, values, spectrum.metadata)
    return SampledField(grid, values, spectrum.metadata)


def spectral_projection(field, lambda_prime, k):
    """Projection of the field onto the k-th Laguerre block (|beta| = k).

    Equals (prod lam_j / 2 pi) f x_lam theta_k; computed as the orthonormal
    expansion over Psi_{alpha,beta} with |beta| = k, |alpha| <= k + 2n + 4.
    RangeExceeded unless k is an integer in [0, MAX_MATRIX_INDEX].
    """
    k = _check_degree(k, MAX_MATRIX_INDEX, "projection degree")
    return synthesize(_analyse(field, lambda_prime, _block_pairs(field.grid.n, [k])))


def mean_eigenvalue(k, lambda_prime, r):
    """The scalar c_k theta_k(r) by which the reduced-twist mean over |w| = r
    acts on the block |beta| = k, with c_k = k!(n-1)!/(k+n-1)! and n the
    number of twist components.

    k is a degree or an array of degrees and r a radius or an array of
    radii; the result has shape k.shape + r.shape.  Every degree is read off
    one laguerre_sequence, whose recurrence performs the operations of
    laguerre_L, and c_k is mean_factor's, so each entry is bit for bit the
    scalar call's.  The mean acts on a block as one scalar only at isotropic
    positive twist; RangeExceeded otherwise, and for a degree outside
    [0, MAX_LAGUERRE_DEGREE]."""
    lam = _positive_twist(lambda_prime, None, "mean_eigenvalue", RangeExceeded)
    if not _is_isotropic(lam):
        raise RangeExceeded("mean_eigenvalue requires isotropic lambda_prime")
    degrees = np.asarray(k, dtype=int)
    if np.any(degrees < 0):
        raise RangeExceeded(f"mean degree {degrees.min()} is negative")
    # theta_k(r) = L_k^{n-1}(s^2 / 2) e^{-s^2 / 4} at s = sqrt(lam) r, as in
    # theta_radial; s stays an array when r is a scalar, so that s**2 squares
    # as it does for an array of radii
    s = np.asarray(np.sqrt(lam[0]) * np.asarray(r, dtype=float))
    theta = laguerre_sequence(int(degrees.max(initial=0)), lam.size - 1, s**2 / 2)[degrees]
    theta = theta * np.exp(-(s**2) / 4)
    factor = [mean_factor(int(d), lam.size) for d in degrees.ravel()]
    return np.reshape(factor, degrees.shape + (1,) * s.ndim) * theta


LAPLACIAN_STEP = 1.0 / 64
LAPLACIAN_CHECK_TOL = 1e-3


def apply_twisted_laplacian(field, lambda_prime, points=None):
    """Apply L = -Delta + (1/4) sum lam_j^2 |z_j|^2 + i sum lam_j (x_j d_{y_j} - y_j d_{x_j}).

    Finite differences of step LAPLACIAN_STEP on the interpolated field,
    with a Richardson consistency check at half the step (GridTooCoarse when
    the two differ by more than LAPLACIAN_CHECK_TOL of the result).  Psi_{alpha,beta}
    is an eigenfunction with eigenvalue sum_j (2 alpha_j + 1) lam_j.

    With points=None (n = 1 only) returns a field on the grid; otherwise
    returns values at the given complex points (P, n).
    """
    g = field.grid
    lam = _twist(lambda_prime, g.n, "apply_twisted_laplacian", DimensionMismatch)
    ev = FieldEvaluator(field)
    if points is None:
        if g.n != 1:
            raise UnsupportedDimension("full-grid Laplacian is implemented for n = 1; pass points")
        pts = _grid_points(g)
    else:
        pts = np.asarray(points, dtype=complex).reshape(-1, g.n)
    x = real_from_complex(pts)  # (P, 2n)

    def apply_at(step):
        f0 = ev(pts)
        lap = np.zeros_like(f0)
        rot = np.zeros_like(f0)
        for d in range(2 * g.n):
            e = np.zeros(2 * g.n)
            e[d] = step
            fp = ev(complex_from_real(x + e))
            fm = ev(complex_from_real(x - e))
            lap += (fp - 2 * f0 + fm) / step**2
            deriv = (fp - fm) / (2 * step)
            j = d % g.n
            if d < g.n:  # d/dx_j enters the rotation term with -y_j
                rot += -lam[j] * x[:, g.n + j] * deriv
            else:  # d/dy_j enters with +x_j
                rot += lam[j] * x[:, j] * deriv
        pot = 0.25 * (np.abs(pts) ** 2 @ lam**2) * f0
        return -lap + pot + 1j * rot

    coarse = apply_at(LAPLACIAN_STEP)
    fine = apply_at(LAPLACIAN_STEP / 2)
    scale = max(np.max(np.abs(fine)), 1e-300)
    disagreement = float(np.max(np.abs(fine - coarse)) / scale)
    if disagreement > LAPLACIAN_CHECK_TOL:
        raise GridTooCoarse(
            f"finite-difference halving changed the result by {disagreement:.3e}"
        )
    # second-order stencils: Richardson extrapolation (4 fine - coarse) / 3
    result = (4 * fine - coarse) / 3
    if points is None:
        return field.with_values(result.reshape(g.shape))
    return result


def fourier_coefficient_center(pfield, ell):
    """Partial Fourier coefficient in the center variables:
    f^ell(z) = int_{[0, 2 pi]^m} f(z, t) e^{i ell . t} dt, by the exact DFT."""
    ell = np.atleast_1d(np.asarray(ell, dtype=int))
    if ell.shape != (pfield.m,):
        raise DimensionMismatch(f"ell must have {pfield.m} components")
    vals = pfield.values
    for i in range(pfield.m):
        c = pfield.center_counts[i]
        if abs(int(ell[i])) > c // 2 - 1:
            raise NyquistViolation(f"center mode {ell[i]} exceeds band of {c}-point axis")
        t = pfield.center_angles(i)
        phase = np.exp(1j * ell[i] * t) * (2 * np.pi / c)
        vals = np.tensordot(vals, phase, axes=([2 * pfield.grid.n], [0]))
    return SampledField(pfield.grid, vals, pfield.metadata)
