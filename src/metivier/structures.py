"""Step-two group structure matrices and the symplectic normal form.

A structure is a list of m skew-symmetric 2n x 2n real matrices U^(1..m).
For a direction lambda in R^m, V_lambda = sum_j lambda_j U^(j).  The group is
of Metivier type when V_lambda is nonsingular for every lambda != 0; this is
probed numerically over seeded random and coordinate directions.

For a fixed nonzero lambda, the symplectic normal form produces an orthogonal
A with V_lambda A = A U_lambda, where U_lambda = [[0, -J], [J, 0]] and
J = diag(mu_1 >= ... >= mu_n > 0).  The mu vector is the reduced twist
parameter used by the twisted transforms.  Real coordinates x in R^{2n} are
identified with z in C^n via z_j = x_j + i x_{n+j}.
"""

import json
from dataclasses import dataclass

import numpy as np
from scipy.linalg import schur

from .errors import (
    DependentStructureMatrices,
    DimensionMismatch,
    MalformedFile,
    NotSkewSymmetric,
    OutOfDomain,
    SingularPencil,
)
from .grids import FieldEvaluator, SampledField

SKEW_TOL = 1e-12
METIVIER_THRESHOLD = 1e-10


@dataclass(frozen=True)
class MetivierStructure:
    """m skew-symmetric structure matrices on R^{2n}."""

    n: int
    m: int
    u: np.ndarray  # (m, 2n, 2n)
    name: str = ""

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=float))
        validate_structure(self.n, self.m, self.u)


def validate_structure(n, m, u):
    """Check shapes, skew-symmetry, and linear independence of the matrices."""
    u = np.asarray(u, dtype=float)
    if n < 1 or m < 1:
        raise DimensionMismatch("need n >= 1 and m >= 1")
    if u.shape != (m, 2 * n, 2 * n):
        raise DimensionMismatch(f"structure array shape {u.shape} != {(m, 2 * n, 2 * n)}")
    for j in range(m):
        scale = max(1.0, np.max(np.abs(u[j])))
        defect = np.max(np.abs(u[j] + u[j].T))
        if defect > SKEW_TOL * scale:
            raise NotSkewSymmetric(j, defect)
    stacked = u.reshape(m, -1)
    if np.linalg.matrix_rank(stacked, tol=1e-10 * max(1.0, np.max(np.abs(stacked)))) < m:
        raise DependentStructureMatrices("structure matrices are linearly dependent")


def normal_form_matrix(mu):
    """The normal-form matrix [[0, -diag mu], [diag mu, 0]] on R^{2n}: for
    z = x + i y in C^n, (x, y)^T U (u, v) = sum_j mu_j Im(z_j conj(w_j))."""
    mu = np.atleast_1d(np.asarray(mu, dtype=float))
    n = mu.size
    u = np.zeros((2 * n, 2 * n))
    u[:n, n:] = -np.diag(mu)
    u[n:, :n] = np.diag(mu)
    return u


def builtin_structure(name):
    """Named example structures.

    heisenberg:<n>  - m = 1, the standard symplectic form on R^{2n}.
    quaternionic    - n = 2, m = 3, left multiplication by i, j, k on H.
    anisotropic     - n = 2, m = 1, twist eigenvalues mu = (2, 1).
    product-counterexample - n = 2, m = 2, two commuting rank-2 blocks;
                             V_lambda is singular along the axes, so the
                             Metivier condition fails.
    """
    if name.startswith("heisenberg:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise MalformedFile(f"bad builtin name {name!r}")
        if n < 1:
            raise DimensionMismatch("heisenberg:<n> needs n >= 1")
        return MetivierStructure(n, 1, normal_form_matrix(np.ones(n))[None, :, :], name)
    if name == "quaternionic":
        # left multiplication by i, j, k on H = R^4 with basis (1, i, j, k),
        # expressed in the coordinates (x1, x2, y1, y2) <-> z = (x1+iy1, x2+iy2)
        li = np.array([[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]], float)
        lj = np.array([[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]], float)
        lk = np.array([[0, 0, 0, -1], [0, 0, 1, 0], [0, -1, 0, 0], [1, 0, 0, 0]], float)
        return MetivierStructure(2, 3, np.stack([li, lj, lk]), name)
    if name == "anisotropic":
        u = np.zeros((1, 4, 4))
        u[0, 0, 2], u[0, 2, 0] = -2.0, 2.0
        u[0, 1, 3], u[0, 3, 1] = -1.0, 1.0
        return MetivierStructure(2, 1, u, name)
    if name == "product-counterexample":
        u = np.zeros((2, 4, 4))
        u[0, 0, 2], u[0, 2, 0] = -1.0, 1.0
        u[1, 1, 3], u[1, 3, 1] = -1.0, 1.0
        return MetivierStructure(2, 2, u, name)
    raise MalformedFile(f"unknown builtin structure {name!r}")


def write_structure(structure, path):
    doc = {
        "n": structure.n,
        "m": structure.m,
        "u": [m.tolist() for m in structure.u],
    }
    if structure.name:
        doc["name"] = structure.name
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def read_structure(path):
    """Read a structure file written by write_structure.

    Raises MalformedFile when the file is not a UTF-8 JSON object with
    integer-convertible n and m and a numeric u; the structure's own
    validation errors (DimensionMismatch, NotSkewSymmetric,
    DependentStructureMatrices) pass through.
    """
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        doc = json.loads(raw.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"structure file is not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"structure file is not valid JSON at char {exc.pos}") from exc
    except RecursionError as exc:
        raise MalformedFile("structure file nests too deeply") from exc
    if not isinstance(doc, dict):
        raise MalformedFile("structure file must hold a JSON object")
    try:
        n, m = int(doc["n"]), int(doc["m"])
        u = np.array(doc["u"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedFile(f"structure file missing or malformed fields: {exc}") from exc
    return MetivierStructure(n, m, u, str(doc.get("name", "")))


def v_lambda(structure, lam):
    """The pencil V_lambda = sum_j lambda_j U^(j)."""
    lam = np.asarray(lam, dtype=float)
    if lam.shape != (structure.m,) or not np.all(np.isfinite(lam)):
        raise DimensionMismatch(f"lambda must be {structure.m} finite components, got {lam}")
    return np.einsum("j,jab->ab", lam, structure.u)


@dataclass(frozen=True)
class MetivierReport:
    """Result of the numerical Metivier-condition probe (a certificate over
    the probe set, not a proof)."""

    is_metivier_on_probes: bool
    probes: int
    min_abs_det: float
    worst_lambda: np.ndarray
    threshold: float


def metivier_check(structure):
    """Probe nonsingularity of V_lambda over the unit sphere of directions.

    Directions: all coordinate axes, all two-axis sums/differences, then
    Gaussian directions drawn with seed 20240901, 2000 directions in all.
    For each, |det| of V_lambda normalized to unit max entry is recorded; the
    structure passes when the minimum over all probes exceeds
    METIVIER_THRESHOLD.
    """
    m = structure.m
    dirs = [np.eye(m)[i] for i in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            e = np.eye(m)
            dirs.append((e[i] + e[j]) / np.sqrt(2))
            dirs.append((e[i] - e[j]) / np.sqrt(2))
    rng = np.random.default_rng(20240901)
    while len(dirs) < 2000:
        g = rng.standard_normal(m)
        norm = np.linalg.norm(g)
        if norm > 1e-6:
            dirs.append(g / norm)
    worst = None
    worst_d = np.inf
    for lam in dirs:
        v = v_lambda(structure, lam)
        scale = np.max(np.abs(v))
        d = abs(np.linalg.det(v / scale)) if scale > 0 else 0.0
        if d < worst_d:
            worst_d, worst = d, lam
    return MetivierReport(bool(worst_d > METIVIER_THRESHOLD), len(dirs), float(worst_d),
                          np.asarray(worst), METIVIER_THRESHOLD)


@dataclass(frozen=True)
class SymplecticSpectrum:
    """Orthogonal normal form of V_lambda: V A = A U with U = [[0,-J],[J,0]]."""

    lam: np.ndarray
    mu: np.ndarray  # descending positive twist eigenvalues (length n)
    a: np.ndarray  # orthogonal (2n, 2n)
    orthogonality_defect: float
    conjugation_defect: float

    @property
    def u_normal(self):
        return normal_form_matrix(self.mu)


def symplectic_spectrum(structure, lam):
    """Compute the symplectic normal form of V_lambda via the real Schur form.

    Raises SingularPencil when V_lambda has a numerically zero eigenvalue.
    The column signs are fixed deterministically: in each (u_i, v_i) pair the
    first component of v_i exceeding 1e-8 in magnitude is made positive.
    """
    v = v_lambda(structure, lam)
    n = structure.n
    scale = np.max(np.abs(v))
    if scale == 0:
        raise SingularPencil("V_lambda is zero")
    t, q = schur(v, output="real")
    pairs = []
    i = 0
    while i < 2 * n:
        if i + 1 < 2 * n and abs(t[i + 1, i]) > 1e-10 * scale:
            b = t[i, i + 1]
            q1, q2 = q[:, i], q[:, i + 1]
            # V q1 = -b q2, V q2 = b q1
            if b > 0:
                pairs.append((b, q2, q1))
            else:
                pairs.append((-b, q1, q2))
            i += 2
        else:
            raise SingularPencil(
                f"V_lambda has a numerically zero eigenvalue at lambda={np.asarray(lam)}"
            )
    pairs.sort(key=lambda p: -p[0])
    mu = np.array([p[0] for p in pairs])
    a = np.empty((2 * n, 2 * n))
    for i, (_, u_i, v_i) in enumerate(pairs):
        lead = np.flatnonzero(np.abs(v_i) > 1e-8)
        if lead.size and v_i[lead[0]] < 0:
            u_i, v_i = -u_i, -v_i
        a[:, i] = u_i
        a[:, n + i] = v_i
    ortho = float(np.max(np.abs(a.T @ a - np.eye(2 * n))))
    conj = float(np.max(np.abs(v @ a - a @ normal_form_matrix(mu))) / scale)
    if ortho > 1e-10:
        raise SingularPencil(f"normal-form basis lost orthogonality ({ortho:.3e})")
    if conj > 1e-8:
        raise SingularPencil(f"normal form does not conjugate the pencil ({conj:.3e})")
    return SymplecticSpectrum(np.asarray(lam, dtype=float), mu, a, ortho, conj)


def real_from_complex(z):
    """(..., n) complex -> (..., 2n) real with z_j = x_j + i x_{n+j}."""
    z = np.asarray(z, dtype=complex)
    return np.concatenate([z.real, z.imag], axis=-1)


def complex_from_real(x):
    """(..., 2n) real -> (..., n) complex."""
    x = np.asarray(x, dtype=float)
    n = x.shape[-1] // 2
    if x.shape[-1] != 2 * n:
        raise DimensionMismatch("real coordinates must have even trailing dimension")
    return x[..., :n] + 1j * x[..., n:]


def rotate_field(field, spec, direction="forward"):
    """Pull a field back through the normal-form rotation: (R f)(x) = f(A x).

    `spec` is a SymplecticSpectrum or a plain orthogonal matrix; direction
    "inverse" applies A^T instead.  The rotation preserves the total radius
    but can push individual coordinate radii past r_max on product grids,
    where the field is taken as 0 (appropriate for Gaussian decay).
    """
    if direction not in ("forward", "inverse"):
        raise DimensionMismatch("direction must be 'forward' or 'inverse'")
    a = np.asarray(spec.a if isinstance(spec, SymplecticSpectrum) else spec, dtype=float)
    inverse = direction == "inverse"
    g = field.grid
    if a.shape != (2 * g.n, 2 * g.n):
        raise DimensionMismatch(f"rotation must be {2 * g.n}x{2 * g.n}")
    if np.max(np.abs(a.T @ a - np.eye(2 * g.n))) > 1e-10:
        raise OutOfDomain("rotation matrix is not orthogonal")
    mat = a.T if inverse else a
    axes = g.coordinate_axes()
    z = np.stack(np.broadcast_arrays(*axes), axis=-1).reshape(-1, g.n)
    zr = real_from_complex(z) @ mat.T
    ev = FieldEvaluator(field)
    vals = ev(complex_from_real(zr)).reshape(g.shape)
    return SampledField(g, vals, field.metadata)
