"""Sampled fields on polar-product grids over C^n, quadrature, and sphere rules.

A PolarGrid stores, per complex coordinate, Gauss-Legendre radial nodes mapped
to (0, r_max] and a power-of-two count of equispaced angles.  The product rule
(radial Gauss-Legendre with Jacobian r, angular trapezoid) integrates smooth
Gaussian-decay fields to near machine precision at the default resolutions.

Field evaluation off the grid goes through FieldEvaluator: global barycentric
Lagrange interpolation on the radial Gauss-Legendre nodes combined with the
exact angular Fourier modes (adaptively truncated to the field's band).  For
the analytic Gaussian-type fields this toolkit works with, that is spectrally
accurate, far below the quadrature error budget.
"""

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatch,
    GridMismatch,
    NonFiniteValue,
    OutOfDomain,
    UnsupportedDimension,
)

DEFAULT_GRID_PARAMS = {1: (96, 256, 12.0), 2: (48, 64, 8.0)}


def _is_pow2(k):
    return k >= 1 and (k & (k - 1)) == 0


@dataclass(frozen=True)
class PolarGrid:
    """Polar product grid on C^n: per-coordinate radial nodes and angle counts."""

    n: int
    r_max: float
    radial_nodes: tuple
    radial_weights: tuple
    angular_counts: tuple

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch("n must be >= 1")
        if len(self.radial_nodes) != self.n or len(self.angular_counts) != self.n:
            raise DimensionMismatch("per-coordinate arrays must have length n")
        for j in range(self.n):
            na = self.angular_counts[j]
            if na < 4 or not _is_pow2(na):
                raise DimensionMismatch(f"angular count {na} must be a power of two >= 4")
            r = self.radial_nodes[j]
            if np.any(np.diff(r) <= 0) or r[0] <= 0 or r[-1] > self.r_max + 1e-12:
                raise DimensionMismatch("radial nodes must be increasing in (0, r_max]")
            if np.any(self.radial_weights[j] <= 0):
                raise DimensionMismatch("radial weights must be positive")

    @property
    def shape(self):
        out = []
        for j in range(self.n):
            out += [len(self.radial_nodes[j]), self.angular_counts[j]]
        return tuple(out)

    def angles(self, j):
        na = self.angular_counts[j]
        return 2 * np.pi * np.arange(na) / na

    def coordinate_axes(self):
        """Per-coordinate complex node arrays, shaped for broadcasting over self.shape."""
        axes = []
        ndim = 2 * self.n
        for j in range(self.n):
            r = self.radial_nodes[j]
            a = self.angles(j)
            zj = r[:, None] * np.exp(1j * a[None, :])
            shape = [1] * ndim
            shape[2 * j] = len(r)
            shape[2 * j + 1] = len(a)
            axes.append(zj.reshape(shape))
        return axes

    def quadrature_weights(self):
        """Full product quadrature weight array (broadcastable over self.shape)."""
        w = np.array(1.0)
        ndim = 2 * self.n
        for j in range(self.n):
            rw = self.radial_weights[j] * self.radial_nodes[j]
            aw = np.full(self.angular_counts[j], 2 * np.pi / self.angular_counts[j])
            shape = [1] * ndim
            shape[2 * j] = len(rw)
            wj = rw.reshape(shape)
            shape = [1] * ndim
            shape[2 * j + 1] = len(aw)
            wj = wj * aw.reshape(shape)
            w = w * wj
        return w

    def __eq__(self, other):
        if not isinstance(other, PolarGrid):
            return NotImplemented
        return (
            self.n == other.n
            and self.r_max == other.r_max
            and self.angular_counts == other.angular_counts
            and all(np.array_equal(a, b) for a, b in zip(self.radial_nodes, other.radial_nodes))
            and all(np.array_equal(a, b) for a, b in zip(self.radial_weights, other.radial_weights))
        )


def polar_grid(n, radial, angular, r_max):
    """Build a PolarGrid with `radial` Gauss-Legendre nodes on (0, r_max] and
    `angular` equispaced angles per coordinate (scalars or per-coordinate lists)."""
    radial = [radial] * n if np.isscalar(radial) else list(radial)
    angular = [angular] * n if np.isscalar(angular) else list(angular)
    nodes, weights = [], []
    for j in range(n):
        x, w = leggauss(int(radial[j]))
        nodes.append((x + 1) * (r_max / 2))
        weights.append(w * (r_max / 2))
    return PolarGrid(n, float(r_max), tuple(nodes), tuple(weights), tuple(int(a) for a in angular))


def default_grid(n):
    if n not in DEFAULT_GRID_PARAMS:
        raise UnsupportedDimension(f"no default grid for n={n}")
    nr, na, rmax = DEFAULT_GRID_PARAMS[n]
    return polar_grid(n, nr, na, rmax)


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on C^n over a PolarGrid."""

    grid: PolarGrid
    values: np.ndarray
    metadata: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise DimensionMismatch(
                f"values shape {v.shape} != grid shape {self.grid.shape}"
            )
        if not np.all(np.isfinite(v.view(float))):
            raise NonFiniteValue("<field values>")
        object.__setattr__(self, "values", v)

    def with_values(self, values):
        """The same grid and metadata with new values."""
        return SampledField(self.grid, values, self.metadata)

    def norm2(self):
        """L2 norm by the grid rule, contracting |f|^2 one axis at a time
        (last axis first) with that axis's weights."""
        g = self.grid
        e = np.abs(self.values)
        np.square(e, out=e)
        for j in reversed(range(g.n)):
            e = e @ np.full(g.angular_counts[j], 2 * np.pi / g.angular_counts[j])
            e = e @ (g.radial_weights[j] * g.radial_nodes[j])
        return float(np.sqrt(e))

    def max_abs(self):
        return float(np.max(np.abs(self.values)))


@dataclass(frozen=True)
class PeriodicField:
    """Field on C^n x T^m: polar-product samples extended with equispaced
    2*pi-periodic samples in each center coordinate."""

    grid: PolarGrid
    m: int
    center_counts: tuple
    values: np.ndarray
    metadata: str = ""

    def __post_init__(self):
        if self.m < 1 or len(self.center_counts) != self.m:
            raise DimensionMismatch("center_counts must have length m >= 1")
        for c in self.center_counts:
            if c < 4 or not _is_pow2(c):
                raise DimensionMismatch(f"center count {c} must be a power of two >= 4")
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape + tuple(self.center_counts):
            raise DimensionMismatch("values shape does not match grid x center shape")
        if not np.all(np.isfinite(v.view(float))):
            raise NonFiniteValue("<periodic field values>")
        object.__setattr__(self, "values", v)

    def center_angles(self, i):
        c = self.center_counts[i]
        return 2 * np.pi * np.arange(c) / c


def sample(expr, grid, metadata=""):
    """Evaluate a vectorized pointwise function on every grid node.

    `expr` receives a complex array of shape (..., n) and must return (...).
    """
    axes = grid.coordinate_axes()
    z = np.stack(np.broadcast_arrays(*axes), axis=-1)
    vals = np.asarray(expr(z), dtype=complex)
    if vals.shape != grid.shape:
        vals = np.broadcast_to(vals, grid.shape).copy()
    bad = ~np.isfinite(vals.view(float).reshape(vals.shape + (2,))).all(axis=-1)
    if np.any(bad):
        idx = tuple(int(i) for i in np.argwhere(bad)[0])
        node = tuple(z[idx + (slice(None),)])
        raise NonFiniteValue(node)
    return SampledField(grid, vals, metadata)


def sample_periodic(expr, grid, center_counts):
    """Sample f(z, t) on grid x center nodes; expr(z, t) with z (..., n), t (..., m)."""
    center_counts = tuple(int(c) for c in center_counts)
    m = len(center_counts)
    axes = grid.coordinate_axes()
    z = np.stack(np.broadcast_arrays(*axes), axis=-1)  # shape grid.shape + (n,)
    shape = grid.shape + center_counts
    vals = np.empty(shape, dtype=complex)
    t_axes = [2 * np.pi * np.arange(c) / c for c in center_counts]
    for idx in np.ndindex(*center_counts):
        t = np.array([t_axes[i][idx[i]] for i in range(m)])
        vals[(Ellipsis,) + idx] = expr(z, t)
    return PeriodicField(grid, m, center_counts, vals)


def inner_product(f, g):
    """L2(C^n) inner product (f, g) = integral of f * conj(g) by the grid rule."""
    if f.grid != g.grid:
        raise GridMismatch("fields live on different grids")
    w = f.grid.quadrature_weights()
    return complex(np.sum(w * f.values * np.conj(g.values)))


class FieldEvaluator:
    """Off-grid evaluation of a SampledField on a grid of any dimension n.

    Angular direction: exact discrete Fourier modes, truncated adaptively to
    the field's band (relative amplitude >= 1e-13).  Radial direction:
    global barycentric Lagrange interpolation on the Gauss-Legendre nodes.

    fill="zero" returns 0 beyond r_max + extrap_slack (appropriate for the
    Gaussian-decay fields this package integrates); fill="raise" raises
    OutOfDomain instead.
    """

    def __init__(self, field, fill="zero", extrap_slack=0.0):
        self.field = field
        self.grid = field.grid
        self.fill = fill
        self.extrap_slack = float(extrap_slack)
        n = self.grid.n
        fhat = angular_mode_coefficients(field)
        # |fhat| maximised over the radial axes, once: a mode is kept where it
        # reaches 1e-13 of the largest coefficient.  Every entry of a dropped
        # mode is below that threshold, so the amplitude of a later axis's
        # mode reaches it among the kept entries of earlier axes exactly when
        # it does among all entries: cutting the axes one after another keeps
        # the same modes.
        amp = np.max(np.abs(fhat), axis=tuple(range(0, fhat.ndim, 2)))
        gmax = np.max(amp) or 1.0
        self.modes = []
        for j in range(n):
            na = self.grid.angular_counts[j]
            axis_amp = np.max(amp, axis=tuple(a for a in range(n) if a != j))
            keep = np.flatnonzero(axis_amp >= 1e-13 * gmax)
            if keep.size == 0:
                keep = np.array([0])
            mnum = np.fft.fftfreq(na, d=1.0 / na).astype(int)
            self.modes.append(mnum[keep])
            fhat = np.take(fhat, keep, axis=2 * j + 1)
        self.fhat = fhat
        # log-space barycentric weights per coordinate
        self.bary = []
        for j in range(n):
            r = self.grid.radial_nodes[j]
            x = r / self.grid.r_max
            diff = x[:, None] - x[None, :]
            np.fill_diagonal(diff, 1.0)
            logw = -np.sum(np.log(np.abs(diff)), axis=1)
            sign = np.prod(np.sign(diff), axis=1)
            logw -= np.max(logw)
            self.bary.append(sign * np.exp(logw))

    def _radial_matrix(self, j, t):
        """Barycentric evaluation matrix (P x Nr) for radii t at coordinate j."""
        r = self.grid.radial_nodes[j]
        w = self.bary[j]
        diff = t[:, None] - r[None, :]
        exact = np.isclose(diff, 0.0, rtol=0, atol=1e-15 * self.grid.r_max)
        with np.errstate(divide="ignore", invalid="ignore"):
            B = w[None, :] / diff
        B[~np.isfinite(B)] = 0.0
        rows_exact = exact.any(axis=1)
        B[rows_exact] = 0.0
        B[exact] = 1.0
        s = B.sum(axis=1, keepdims=True)
        s[s == 0] = 1.0
        return B / s

    def __call__(self, zpts):
        """Evaluate at complex points of shape (P, n) (or (P,) when n == 1)."""
        z = np.asarray(zpts, dtype=complex)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2 or z.shape[1] != self.grid.n:
            raise DimensionMismatch("points must have shape (P, n)")
        t = np.abs(z)
        beta = np.angle(z)
        limit = self.grid.r_max + self.extrap_slack
        outside = (t > limit).any(axis=1)
        if np.any(outside) and self.fill == "raise":
            bad = z[np.argmax(outside)]
            raise OutOfDomain(f"point {bad} beyond r_max={self.grid.r_max}")
        out = np.zeros(z.shape[0], dtype=complex)
        inside = ~outside
        idx = np.flatnonzero(inside)
        # keep the per-chunk contraction workspace near 2e7 complex entries
        per_point = max(int(self.fhat.size / self.grid.radial_nodes[0].size), 1)
        chunk = max(8, min(4096, int(2e7) // per_point))
        for start in range(0, idx.size, chunk):
            sel = idx[start : start + chunk]
            out[sel] = self._eval_inside(t[sel], beta[sel])
        return out

    def _eval_inside(self, t, beta):
        """Contract the kept coefficients one coordinate at a time: the radial
        interpolation matrix, then each kept mode's phase summed over the
        coordinate's modes."""
        out = None
        for j in range(self.grid.n):
            B = self._radial_matrix(j, t[:, j])
            if out is None:  # the coefficients have no points axis yet
                out = np.tensordot(B, self.fhat, axes=1)
            else:
                out = np.einsum("pi...,pi->p...", out, B)
            out = np.einsum("pm...,pm->p...", out, np.exp(1j * beta[:, [j]] * self.modes[j]))
        return out


def angular_mode_coefficients(field):
    """Discrete angular Fourier coefficients along every angular axis.

    Returns an array of the same shape as field.values, with angular axes
    holding mode coefficients in numpy FFT order.
    """
    fhat = field.values
    for j in range(field.grid.n):
        fhat = np.fft.fft(fhat, axis=2 * j + 1)
        fhat /= field.grid.angular_counts[j]  # in place: the FFT returned a new array
    return fhat


def values_from_mode_coefficients(grid, fhat):
    """Inverse of angular_mode_coefficients."""
    v = fhat
    for j in range(grid.n):
        v = np.fft.ifft(v, axis=2 * j + 1)
        v *= grid.angular_counts[j]  # in place: the inverse FFT returned a new array
    return v


@dataclass(frozen=True)
class SphereRule:
    """Quadrature rule for the normalized surface measure on |w| = r in C^n."""

    n: int
    r: float
    nodes: np.ndarray  # (K, n) complex
    weights: np.ndarray  # (K,), sums to 1
    order: int

    def __post_init__(self):
        if abs(self.weights.sum() - 1.0) > 1e-13:
            raise DimensionMismatch("sphere rule weights must sum to 1")
        rad = np.sqrt(np.sum(np.abs(self.nodes) ** 2, axis=1))
        if np.max(np.abs(rad - self.r)) > 1e-11 * max(1.0, self.r):
            raise DimensionMismatch("sphere rule nodes must lie on |w| = r")

    def nodes_real(self):
        """Real form (K, 2n): (Re w_1..Re w_n, Im w_1..Im w_n)."""
        return np.concatenate([self.nodes.real, self.nodes.imag], axis=1)


def build_sphere_rule(n, r, order):
    """Quadrature for the normalized sphere measure.

    n=1: equispaced circle rule with `order` points (exact for trigonometric
    polynomials of degree < order).  n=2: Hopf-coordinate product rule,
    Gauss-Legendre in cos(2*eta) x trapezoid in both phases, exact for
    polynomials in (w, conj w) of total degree <= order.
    """
    if order < 1 or order > 4096:
        raise DimensionMismatch("sphere rule order must be in [1, 4096]")
    if r <= 0:
        raise DimensionMismatch("sphere radius must be positive")
    if n == 1:
        ang = 2 * np.pi * np.arange(order) / order
        nodes = (r * np.exp(1j * ang))[:, None]
        weights = np.full(order, 1.0 / order)
        return SphereRule(1, float(r), nodes, weights, order)
    if n == 2:
        nu = order // 2 + 1
        nxi = order + 1
        u, wu = leggauss(nu)
        eta = np.arccos(u) / 2  # u = cos(2 eta)
        xi = 2 * np.pi * np.arange(nxi) / nxi
        c, s = np.cos(eta), np.sin(eta)
        e1 = np.exp(1j * xi)
        w1 = (c[:, None, None] * e1[None, :, None]) * np.ones((1, 1, nxi))
        w2 = (s[:, None, None] * e1[None, None, :]) * np.ones((1, nxi, 1))
        nodes = r * np.stack([w1.ravel(), w2.ravel()], axis=1)
        weights = np.repeat(wu / wu.sum(), nxi * nxi) / (nxi * nxi)
        return SphereRule(2, float(r), nodes, weights, order)
    raise UnsupportedDimension("sphere rules implemented for n in {1, 2}")
