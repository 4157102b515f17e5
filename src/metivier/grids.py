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
from functools import lru_cache
from numbers import Integral

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    DimensionMismatch,
    GridMismatch,
    NonFiniteValue,
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
        """Full product quadrature weight array, of shape self.shape."""
        w = np.array(1.0)
        for j in range(self.n):
            aw = np.full(self.angular_counts[j], 2 * np.pi / self.angular_counts[j])
            w = np.multiply.outer(w, np.outer(self.radial_weights[j] * self.radial_nodes[j], aw))
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


@lru_cache(maxsize=64, typed=True)
def _gauss_legendre(count):
    """The count-point Gauss-Legendre rule on [-1, 1] (leggauss), as
    (nodes, weights), memoized per count: every caller shares one read-only
    pair, so a default grid or a sphere rule built again does not solve the
    same eigenproblem again.  A call that raises is not memoized, and the
    memo is typed, so a float count that leggauss rejects is rejected on
    every call, not only before an int call of the same value."""
    x, w = leggauss(count)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def polar_grid(n, radial, angular, r_max):
    """Build a PolarGrid with `radial` Gauss-Legendre nodes on (0, r_max] and
    `angular` equispaced angles per coordinate (scalars or per-coordinate lists).
    A radial count that is not a positive integer raises DimensionMismatch."""
    radial = [radial] * n if np.isscalar(radial) else list(radial)
    angular = [angular] * n if np.isscalar(angular) else list(angular)
    if any(int(c) != c or c < 1 for c in radial):
        raise DimensionMismatch(f"radial node counts {radial} must be positive integers")
    nodes, weights = [], []
    for j in range(n):
        x, w = _gauss_legendre(int(radial[j]))
        nodes.append((x + 1) * (r_max / 2))
        weights.append(w * (r_max / 2))
    return PolarGrid(n, float(r_max), tuple(nodes), tuple(weights), tuple(int(a) for a in angular))


def default_grid(n):
    if n not in DEFAULT_GRID_PARAMS:
        raise UnsupportedDimension(f"no default grid for n={n}")
    nr, na, rmax = DEFAULT_GRID_PARAMS[n]
    return polar_grid(n, nr, na, rmax)


_FINITE_SLAB = 1 << 16  # complex entries per slab of the finiteness check


def _distinct_entries(v):
    """View of v with each stride-0 (broadcast) axis read at index 0 alone."""
    return v[tuple(0 if s == 0 else slice(None) for s in v.strides)]


def _checked_values(v, label):
    """v with its last axis contiguous, after checking that it is finite.

    The float view that norm2 and the check read needs the last axis
    contiguous, so a flipped or broadcast last axis is copied; a broadcast
    over the other axes is kept, and its repeated entries are checked once.
    The check runs in slabs along the first distinct axis, so it makes no
    field-sized temporary.
    """
    if v.strides[-1] != v.itemsize:
        v = np.ascontiguousarray(v)
    d = _distinct_entries(v)
    rows = max(1, _FINITE_SLAB * d.shape[0] // d.size)
    if not all(np.isfinite(d[i:i + rows].view(float)).all() for i in range(0, len(d), rows)):
        raise NonFiniteValue(label)
    return v


def _rule_energy(grid, values, rows=slice(None)):
    """The grid rule's sum of |f|^2 over the rows `rows` of the first radial
    axis of values (of the grid's shape, last axis contiguous): one einsum of
    the real view with itself sums |f|^2 over the angles, with no full-size
    temporary, then each radial axis is contracted with its weights, last
    axis first.  The energies of disjoint rows add up to the whole's."""
    v = values[rows].view(float)
    axes = list(range(v.ndim))
    e = np.einsum(v, axes, v, axes, axes[::2])
    weights = [2 * np.pi / grid.angular_counts[j] * grid.radial_weights[j] * grid.radial_nodes[j]
               for j in range(grid.n)]
    weights[0] = weights[0][rows]
    for w in reversed(weights):
        e = e @ w
    return float(e)


@dataclass(frozen=True)
class SampledField:
    """Complex samples of a function on C^n over a PolarGrid.

    `values` may be a read-only broadcast (e.g. np.broadcast_to of a profile
    that is constant along some axes): it is kept without a copy, and the
    finiteness check and max_abs read each repeated entry once.  Only a last
    axis that is not contiguous is copied.
    """

    grid: PolarGrid
    values: np.ndarray
    metadata: str = ""

    def __post_init__(self):
        v = np.asarray(self.values, dtype=complex)
        if v.shape != self.grid.shape:
            raise DimensionMismatch(
                f"values shape {v.shape} != grid shape {self.grid.shape}"
            )
        object.__setattr__(self, "values", _checked_values(v, "<field values>"))

    def with_values(self, values):
        """The same grid and metadata with new values."""
        return SampledField(self.grid, values, self.metadata)

    @classmethod
    def _proven_finite(cls, grid, values, metadata):
        """The field of values, a C-contiguous complex array of the grid's
        shape whose finiteness the caller has proven, built without the
        finiteness read of the constructor."""
        field = object.__new__(cls)
        for name, value in (("grid", grid), ("values", values), ("metadata", metadata)):
            object.__setattr__(field, name, value)
        return field

    def norm2(self):
        """L2 norm by the grid rule (_rule_energy)."""
        return float(np.sqrt(_rule_energy(self.grid, self.values)))

    def max_abs(self):
        return float(np.max(np.abs(_distinct_entries(self.values))))


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
        object.__setattr__(self, "values", _checked_values(v, "<periodic field values>"))

    def center_angles(self, i):
        c = self.center_counts[i]
        return 2 * np.pi * np.arange(c) / c


def sample(expr, grid, metadata=""):
    """Evaluate a vectorized pointwise function on every grid node.

    `expr` receives a complex array of shape (..., n) and must return (...);
    a result that broadcasts to the grid is kept as a read-only broadcast,
    and any other shape raises DimensionMismatch.  A non-finite value raises
    NonFiniteValue naming its first node.
    """
    axes = grid.coordinate_axes()
    z = np.stack(np.broadcast_arrays(*axes), axis=-1)
    vals = np.asarray(expr(z), dtype=complex)
    if vals.shape != grid.shape:
        try:
            vals = np.broadcast_to(vals, grid.shape)
        except ValueError:
            raise DimensionMismatch(
                f"expression returned shape {vals.shape}, which does not broadcast "
                f"to the grid shape {grid.shape}"
            ) from None
    try:
        return SampledField(grid, vals, metadata)
    except NonFiniteValue:
        first = np.unravel_index(np.argmin(np.isfinite(vals)), grid.shape)
        raise NonFiniteValue(tuple(z[first])) from None


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
    global barycentric Lagrange interpolation on the Gauss-Legendre nodes;
    a radius within 1e-15 r_max of a node (found by bisection) takes that
    node's sample exactly.  The real matrix of the first coordinate meets
    the complex coefficients as one real matrix product on their float
    view.

    The field is zero beyond r_max (appropriate for the Gaussian-decay
    fields this package integrates): the barycentric formula does not
    extrapolate accurately past the last node.  A point with a non-finite
    coordinate raises DimensionMismatch naming its index, as
    build_sphere_rule does for a non-finite radius.

    A weighted sum of the field over a product of points, such as a sphere
    rule's nodes around a point, is not evaluated point by point:
    _product_sums sums each coordinate over its own points and then
    contracts the coefficients, with the same rows, modes and zero fill.
    """

    def __init__(self, field):
        self.field = field
        self.grid = field.grid
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

    @property
    def extrap_slack(self):
        """0.0: the zero fill starts at r_max itself."""
        return 0.0

    def _radial_matrix(self, j, t):
        """Barycentric evaluation matrix (P x Nr) for radii t at coordinate j.
        A radius within 1e-15 r_max of its nearest node (found by bisection)
        gets that node's unit row."""
        r = self.grid.radial_nodes[j]
        B = t[:, None] - r[None, :]
        rows = np.arange(t.size)
        hi = np.minimum(np.searchsorted(r, t), r.size - 1)
        lo = np.maximum(hi - 1, 0)
        near = np.where(np.abs(B[rows, lo]) < np.abs(B[rows, hi]), lo, hi)
        exact = np.abs(B[rows, near]) <= 1e-15 * self.grid.r_max
        with np.errstate(divide="ignore"):
            np.divide(self.bary[j], B, out=B)
        B[exact] = 0.0
        B[exact, near[exact]] = 1.0
        s = B.sum(axis=1, keepdims=True)
        s[s == 0] = 1.0
        B /= s
        return B

    def __call__(self, zpts):
        """Evaluate at complex points of shape (P, n) (or (P,) when n == 1).
        A point with a non-finite coordinate raises DimensionMismatch naming
        the first such point, before any evaluation."""
        z = np.asarray(zpts, dtype=complex)
        if z.ndim == 1:
            z = z[:, None]
        if z.ndim != 2 or z.shape[1] != self.grid.n:
            raise DimensionMismatch("points must have shape (P, n)")
        finite = np.isfinite(z).all(axis=1)
        if not finite.all():
            first = int(np.argmin(finite))
            raise DimensionMismatch(f"point {first} is not finite: {tuple(z[first])}")
        t = np.abs(z)
        beta = np.angle(z)
        out = np.zeros(z.shape[0], dtype=complex)
        idx = np.flatnonzero(~(t > self.grid.r_max).any(axis=1))
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
                out = _real_matmul(B, self.fhat)
            else:
                out = np.einsum("pi...,pi->p...", out, B)
            out = np.einsum("pm...,pm->p...", out, np.exp(1j * beta[:, [j]] * self.modes[j]))
        return out

    def _product_sums(self, points, weights):
        """For each row r, the field summed over a product of points, one
        coordinate at a time:

            sum over x_1..x_n of  prod_j weights[j][r, x_j]
                                  * f(points[0][r, x_1], ..., points[n-1][r, x_n])

        with points[j] and weights[j] of shape (R, X_j) and the points finite.
        Coordinate j is summed over its own points first, into
        a_j[r, i, m] = sum_x weights[j][r, x] B_j(|z|)[i] e^{i m arg z}, with
        the barycentric rows B_j of _radial_matrix (exact node rows) and the
        kept modes m; the row of a point past r_max is zero, so a product
        point with any coordinate past r_max adds nothing, as in __call__.
        The kept coefficients then meet a_1, ..., a_n in turn.  That is the
        weighted sum of __call__'s values over the X_1 ... X_n product
        points, summed in another order from X_1 + ... + X_n barycentric
        rows per row.  Rows are taken in chunks that keep the workspace near
        2e7 complex entries.
        """
        rows = len(points[0])
        out = np.empty(rows, dtype=complex)
        per_row = max([self.fhat.size // (self.fhat.shape[0] * self.fhat.shape[1])]
                      + [p.shape[1] * (self.grid.radial_nodes[j].size + self.modes[j].size)
                         for j, p in enumerate(points)])
        chunk = max(1, int(2e7) // per_row)
        for start in range(0, rows, chunk):
            acc = None
            for j in range(self.grid.n):
                z, w = points[j][start:start + chunk], weights[j][start:start + chunk]
                t = np.abs(z).ravel()
                B = self._radial_matrix(j, t)
                B[t > self.grid.r_max] = 0.0
                phased = w[..., None] * np.exp(1j * np.angle(z)[..., None] * self.modes[j])
                # sum over the coordinate's points: one real product per row on
                # the float view of the phased weights
                a = B.reshape(z.shape + (-1,)).transpose(0, 2, 1) @ phased.view(float)
                a = a.view(complex).reshape(len(z), -1)
                if acc is None:  # the coefficients have no row axis yet
                    acc = a @ self.fhat.reshape(a.shape[1], -1)
                else:
                    acc = np.einsum("rks,rk->rs", acc.reshape(len(z), a.shape[1], -1), a)
            out[start:start + chunk] = acc[:, 0]
        return out


def _real_matmul(B, c):
    """B @ c over c's first axis for a real matrix B and complex c, as one
    real product on c's float view; c is C-contiguous."""
    out = B @ c.reshape(c.shape[0], -1).view(float)
    return out.view(complex).reshape(B.shape[:1] + c.shape[1:])


def angular_mode_coefficients(field):
    """Discrete angular Fourier coefficients along every angular axis.

    Returns an array of the same shape as field.values, with angular axes
    holding mode coefficients in numpy FFT order.
    """
    fhat = None  # the first FFT allocates the result; the others transform it in place
    for j in range(field.grid.n):
        # the 1 / (angle count) scaling inside the transform, with no pass of
        # its own (bit-identical for the power-of-two counts a grid has)
        fhat = np.fft.fft(field.values if fhat is None else fhat, axis=2 * j + 1, out=fhat,
                          norm="forward")
    return fhat


def values_from_mode_coefficients(grid, fhat):
    """Inverse of angular_mode_coefficients."""
    v = None  # the first inverse FFT allocates the result; the others transform it in place
    for j in range(grid.n):
        v = np.fft.ifft(fhat if v is None else v, axis=2 * j + 1, out=v, norm="forward")
    return v


@dataclass(frozen=True)
class SphereRule:
    """Quadrature rule for the normalized surface measure on |w| = r in C^n,
    kept as its product factors: outer weights (Q,) and per-coordinate nodes
    coordinates[j] (Q, X_j).  Node (q, x_1, ..., x_n) is
    (w_1[q, x_1], ..., w_n[q, x_n]) with weight outer[q] / (X_1 ... X_n).

    `nodes` and `weights` write that product out, in the order of
    (q, x_1, ..., x_n), each time they are read; the pointwise means read
    the factors alone.  Raises DimensionMismatch unless n >= 1, there are n
    coordinate arrays, each 2-D with Q rows, the outer weights sum to 1 and
    every product node lies on |w| = r.
    """

    n: int
    r: float
    outer: np.ndarray  # (Q,), sums to 1
    coordinates: tuple  # n arrays (Q, X_j) complex
    order: int

    def __post_init__(self):
        if self.n < 1:
            raise DimensionMismatch(f"a sphere rule needs n >= 1, got {self.n}")
        if len(self.coordinates) != self.n or any(
                np.ndim(w) != 2 or len(w) != self.outer.size for w in self.coordinates):
            raise DimensionMismatch(f"a sphere rule on C^{self.n} needs {self.n} coordinate "
                                    f"arrays of {self.outer.size} rows each")
        if abs(self.outer.sum() - 1.0) > 1e-13:
            raise DimensionMismatch("sphere rule weights must sum to 1")
        # |w|^2 of a product node is a sum of one |w_j|^2 per coordinate,
        # so each orbit's extreme radii come from its per-coordinate extremes
        sq = [np.abs(w) ** 2 for w in self.coordinates]
        rad = np.sqrt([sum(m.min(axis=1) for m in sq), sum(m.max(axis=1) for m in sq)])
        if np.max(np.abs(rad - self.r)) > 1e-11 * max(1.0, self.r):
            raise DimensionMismatch("sphere rule nodes must lie on |w| = r")

    @property
    def nodes(self):
        """The product nodes (K, n), K = Q X_1 ... X_n."""
        shape = (self.outer.size,) + tuple(w.shape[1] for w in self.coordinates)
        # coordinate j's nodes along axes 0 and j + 1 of the product
        return np.stack([np.broadcast_to(
            np.expand_dims(w, tuple(1 + i for i in range(self.n) if i != j)), shape).ravel()
            for j, w in enumerate(self.coordinates)], axis=1)

    @property
    def weights(self):
        """The product weights (K,), outer[q] / (X_1 ... X_n) at node (q, ...)."""
        size = int(np.prod([w.shape[1] for w in self.coordinates]))
        return np.repeat(self.outer, size) / size

    def nodes_real(self):
        """Real form (K, 2n): (Re w_1..Re w_n, Im w_1..Im w_n)."""
        nodes = self.nodes
        return np.concatenate([nodes.real, nodes.imag], axis=1)


def build_sphere_rule(n, r, order):
    """Quadrature for the normalized sphere measure on |w| = r in C^n, any
    n >= 1, built as a product over the coordinates (SphereRule).

    Under that measure the shares t_j = |w_j|^2 / r^2 are uniform on the
    simplex t_1 + ... + t_n = 1 and the phases of the w_j are uniform and
    independent of them.  The outer rule is a collapsed (conical) product
    over the simplex (Stroud 1971): factor i = 0, ..., n - 2 splits the
    share left after t_1, ..., t_i into s and 1 - s, at the
    order // 2 + 1 Gauss-Legendre nodes s in [0, 1] with weights times
    (1 - s)^(n - 2 - i), normalized; at n = 1 it is one node of weight 1.
    Coordinate j of outer node q is r sqrt(t_j) e^{2 pi i k / (order + 1)},
    k = 0..order.  The rule is exact for polynomials in (w, conj w) of total
    degree <= order; at n = 2 the nodes are the Hopf coordinates
    (r cos eta e^{i xi_1}, r sin eta e^{i xi_2}).

    Raises DimensionMismatch unless n and order are integers, order is in
    [1, 4096], n >= 1, r is finite and positive, and n <= order // 2 + 3:
    past that bound a factor's weighted integrand exceeds the Gauss-Legendre
    degree and the rule is not exact (the default order 16 serves n <= 11).
    """
    if not (isinstance(n, Integral) and isinstance(order, Integral)):
        raise DimensionMismatch(f"sphere rule n and order must be integers, "
                                f"got {n!r} and {order!r}")
    if order < 1 or order > 4096:
        raise DimensionMismatch("sphere rule order must be in [1, 4096]")
    if n > order // 2 + 3:
        raise DimensionMismatch(f"a sphere rule of order {order} is exact only for n <= "
                                f"{order // 2 + 3}, got n = {n}")
    if not 0 < r < np.inf:
        raise DimensionMismatch(f"sphere radius must be finite and positive, got {r}")
    x, wx = _gauss_legendre(order // 2 + 1)
    s = (1 + x) / 2
    # t: the shares at each outer node, the last column the share not yet split
    t, outer = np.ones((1, 1)), np.ones(1)
    for i in range(n - 1):
        w = wx * (1 - s) ** (n - 2 - i)
        split = np.multiply.outer(t[:, -1], np.stack([s, 1 - s], axis=1))  # (Q, m, 2)
        t = np.concatenate([np.repeat(t[:, :-1], s.size, axis=0), split.reshape(-1, 2)], axis=1)
        outer = np.multiply.outer(outer, w / w.sum()).ravel()
    phases = np.exp(1j * (2 * np.pi * np.arange(order + 1) / (order + 1)))
    return SphereRule(n, float(r), outer,
                      tuple(r * (np.sqrt(t[:, [j]]) * phases) for j in range(n)), order)
