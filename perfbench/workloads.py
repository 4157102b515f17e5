"""Seeded inputs, jobs and oracles of the benchmark's three workloads.

Each workload is built from a seed at set-up, hands out jobs from a fixed
pool (cycled when a run outlasts it), solves one job through metivier's
public modules, and checks the result against an oracle that does not share
the code path under test.  Library calls go through module attributes
(`injectivity.measure_mean`, not a name bound at import), so the tracer's
wrappers see them.

Oracles:
- reconstruct: the known seeded input field.
- spectral: the input of the decompose/synthesize round trip (exact, since
  every |beta| <= k_max), and `twisted_convolution_at` quadrature at seeded
  grid nodes, scaled by ||f|| ||g|| (|f x g| <= ||f|| ||g|| pointwise).
- admissibility: the verdict implied by how each radius pair was built,
  with zeros recomputed by scipy (Laguerre roots, Bessel zeros, and a 1-D
  integral for the anisotropic sphere average), plus the witness's
  `mean_residual` and its radius against scipy's Laguerre roots.
"""

import json
import os
from dataclasses import dataclass

import numpy as np
from scipy import special as sps
from scipy.optimize import brentq

from metivier import fieldio, grids, injectivity, transforms

ERR_FLOOR = 1e-16  # digits are capped at 16


def digits(err):
    """Correct decimal digits, -log10 of a relative error."""
    return float(-np.log10(max(float(err), ERR_FLOOR)))


@dataclass
class Check:
    ok: bool
    digits: float
    detail: str


def psi_sum(grid, lam, terms):
    """sum c Psi_{alpha,beta} sampled on a polar grid.

    Psi_{alpha,beta} is a product over coordinates of 1-D special Hermite
    functions, each a radial profile times exp(i (beta_j - alpha_j) angle_j), so
    the samples are outer products of per-coordinate (radius x angle) tables.
    """
    from metivier import special

    out = np.zeros(grid.shape, dtype=complex)
    for alpha, beta, c in terms:
        v = np.array(c, dtype=complex)
        for j in range(grid.n):
            profile = special.special_hermite_1d(alpha[j], beta[j], lam[j],
                                                 grid.radial_nodes[j].astype(complex))
            phase = np.exp(1j * (beta[j] - alpha[j]) * grid.angles(j))
            v = np.multiply.outer(v, np.outer(profile, phase))
        out += v
    return out


def _coef(rng):
    return complex(rng.normal(), rng.normal())


# ---------------------------------------------------------------------------
# reconstruct: the body of the CLI `reconstruct` command, n = 1
# ---------------------------------------------------------------------------

class Reconstruct:
    """Read a field file, take the mean over a two-atom radial measure, invert it
    blockwise at K = 25, write the field and the JSON report."""

    name = "reconstruct"
    stream = 1
    pool_size = 6
    lam = 1.0  # the CLI default reduced twist
    k_max = 25
    index_max = 8  # every Psi_{a,b} with a, b <= 8 gets a seeded coefficient
    atoms = ((1.0, 0.5), (1.7, 0.5))  # the CLI default measure ...
    jitter = 0.02  # ... with radii and weights moved by up to 2%
    # K = 25 divides the mean's quadrature noise (1e-8 to 1e-7 in blocks
    # k >= 9) by divisors near 1e-2; observed errors are 3e-8 to 3e-6
    gate = 1e-4  # relative L2 error against the seeded input
    min_divisor = 5e-3  # |sum_i w_i theta_k(r_i)| for every degree k <= k_max

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, self.stream])
        self.grid = grids.default_grid(1)
        self.workdir = workdir
        self.jobs = [self._make(rng, i) for i in range(self.pool_size)]

    def _make(self, rng, i):
        m = self.index_max + 1
        terms = [((a,), (b,), _coef(rng)) for a in range(m) for b in range(m)]
        while True:
            radii = np.array([r for r, _ in self.atoms]) * (1 + rng.uniform(-1, 1, 2) * self.jitter)
            w = self.atoms[0][1] * (1 + rng.uniform(-1, 1) * self.jitter)
            weights = np.array([w, 1 - w])
            # theta_k(r) = L_k(lam r^2/2) exp(-lam r^2/4) for n = 1, from scipy
            x = self.lam * radii**2 / 2
            mu_hat = [abs(np.sum(weights * sps.eval_laguerre(k, x) * np.exp(-x / 2)))
                      for k in range(self.k_max + 1)]
            if min(mu_hat) >= self.min_divisor:
                break
        values = psi_sum(self.grid, [self.lam], terms)
        path = os.path.join(self.workdir, f"input_{i}.field")
        fieldio.write_field(grids.SampledField(self.grid, values, f"seeded psi sum {i}"), path)
        outdir = os.path.join(self.workdir, f"out_{i}")
        os.makedirs(outdir, exist_ok=True)
        return {"path": path, "outdir": outdir, "radii": radii, "weights": weights,
                "expected": values}

    def prepare(self, i):
        return self.jobs[i % len(self.jobs)]

    def solve(self, job):
        field = fieldio.read_field(job["path"])
        lam = [self.lam]
        mu = injectivity.RadialMeasure(job["radii"], job["weights"])
        mean = injectivity.measure_mean(field, mu, lam)
        result = injectivity.reconstruct_from_measure_mean(mean, mu, lam, self.k_max)
        diff = result.field.with_values(result.field.values - field.values)
        residual = float(diff.norm2() / field.norm2())
        fieldio.write_field(result.field, os.path.join(job["outdir"], "reconstruction.field"))
        report = {
            "command": "reconstruct",
            "input": job["path"],
            "lam": lam,
            "atoms": [[float(r), float(w)] for r, w in zip(job["radii"], job["weights"])],
            "k": self.k_max,
            "relative_l2_residual": residual,
            "unrecoverable_degrees": list(result.unrecoverable),
            "divisors": {str(k): v for k, v in sorted(result.divisor.items())},
            "recovered_norms": {str(k): v for k, v in sorted(result.recovered_norm.items())},
            "field_file": "reconstruction.field",
        }
        with open(os.path.join(job["outdir"], "reconstruct.json"), "w") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return result.field.values

    def check(self, job, out):
        expected = job["expected"]
        err = np.linalg.norm(out - expected) / np.linalg.norm(expected)
        return Check(bool(err <= self.gate), digits(err), f"relative L2 error {err:.3e}")


# ---------------------------------------------------------------------------
# spectral: n = 1 twisted convolution and an n = 2 decompose/synthesize round trip
# ---------------------------------------------------------------------------

class Spectral:
    """Full-grid n = 1 twisted convolution of two seeded Psi sums, then an
    n = 2 decompose(K = 4) / synthesize round trip of a seeded Psi sum."""

    name = "spectral"
    stream = 2
    pool_size = 4
    conv_index_max = 3
    conv_points = 4
    conv_radius = 5.0  # oracle nodes lie where the convolution is not negligible
    k_max = 4
    alpha_max = 4
    round_terms = 3
    conv_gate = 1e-9  # max error at the oracle nodes over ||f|| ||g||
    round_gate = 1e-9  # relative L2 error of the round trip

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, self.stream])
        self.grid1 = grids.default_grid(1)
        self.grid2 = grids.default_grid(2)
        self.jobs = [self._make(rng) for _ in range(self.pool_size)]

    def _psi_terms(self, rng, count):
        """`count` terms Psi_{a,b}, a, b <= conv_index_max, with distinct angular
        modes b - a: the convolution's cost grows with the number of modes."""
        m = self.conv_index_max + 1
        while True:
            ab = rng.integers(0, m, (count, 2))
            if len(set(ab[:, 1] - ab[:, 0])) == count:
                return [((int(a),), (int(b),), _coef(rng)) for a, b in ab]

    def _multi_index(self, rng, total_max):
        a = int(rng.integers(0, total_max + 1))
        b = int(rng.integers(0, total_max - a + 1))
        return (a, b) if rng.random() < 0.5 else (b, a)

    def _make(self, rng):
        lam1 = float(rng.uniform(0.8, 1.25))
        f_terms, g_terms = self._psi_terms(rng, 2), self._psi_terms(rng, 2)
        r = self.grid1.radial_nodes[0]
        near = int(np.searchsorted(r, self.conv_radius))
        nodes = [(int(rng.integers(0, near)), int(rng.integers(0, self.grid1.angular_counts[0])))
                 for _ in range(self.conv_points)]
        # lam >= 1.8 keeps every Psi inside the default n = 2 window (r_max = 8): at
        # lam = 1 truncation alone costs a round trip 1e-5 for |alpha| = 4
        lam2 = [float(rng.uniform(1.8, 2.2)) for _ in range(2)]
        round_terms = [(self._multi_index(rng, self.alpha_max), self._multi_index(rng, self.k_max),
                        _coef(rng)) for _ in range(self.round_terms)]
        return {
            "lam1": lam1,
            "f": grids.SampledField(self.grid1, psi_sum(self.grid1, [lam1], f_terms)),
            "g": grids.SampledField(self.grid1, psi_sum(self.grid1, [lam1], g_terms)),
            # Psi_{alpha,beta} are orthonormal, so the L2 norms are the coefficient norms
            "fg_norm": float(np.sqrt(sum(abs(c) ** 2 for *_, c in f_terms)
                                     * sum(abs(c) ** 2 for *_, c in g_terms))),
            "nodes": nodes,
            "lam2": lam2,
            "round_terms": round_terms,
        }

    def prepare(self, i):
        job = dict(self.jobs[i % len(self.jobs)])
        # n = 2 fields are 151 MB: materialize one per job, outside the timed part
        job["F"] = grids.SampledField(self.grid2, psi_sum(self.grid2, job["lam2"], job["round_terms"]))
        return job

    def solve(self, job):
        conv = transforms.twisted_convolution(job["f"], job["g"], [job["lam1"]])
        spectrum = transforms.decompose(job["F"], job["lam2"], k_max=self.k_max)
        back = transforms.synthesize(spectrum)
        return conv.values, back.values

    def check(self, job, out):
        conv, back = out
        pts = np.array([self.grid1.radial_nodes[0][i] * np.exp(1j * self.grid1.angles(0)[k])
                        for i, k in job["nodes"]])
        ref = transforms.twisted_convolution_at(job["f"], job["g"], [job["lam1"]], pts)
        got = np.array([conv[i, k] for i, k in job["nodes"]])
        conv_err = float(np.max(np.abs(got - ref)) / job["fg_norm"])
        expected = job["F"].values
        round_err = float(np.linalg.norm(back - expected) / np.linalg.norm(expected))
        ok = conv_err <= self.conv_gate and round_err <= self.round_gate
        return Check(bool(ok), min(digits(conv_err), digits(round_err)),
                     f"convolution error {conv_err:.3e}, round-trip error {round_err:.3e}")


# ---------------------------------------------------------------------------
# admissibility: two-radii verdicts (isotropic n = 1, anisotropic n = 2) and
# an n = 2 one-radius counterexample
# ---------------------------------------------------------------------------

def _ratio_distance(x, ratios):
    return float(np.min(np.abs(ratios - x)) / x)


def _aniso_profile(k, lam, r, t, w):
    """Normalized sphere average of theta_k over |w| = r in C^2, vectorized in r:
    |w_1|^2 / r^2 is uniform on [0, 1], so it is a 1-D Gauss-Legendre integral."""
    r = np.asarray(r, dtype=float)
    s = (r * r)[..., None] * (lam[0] * t + lam[1] * (1 - t)) / 2
    return np.sum(w * sps.eval_genlaguerre(k, 1, s) * np.exp(-s / 2), axis=-1)


def aniso_zero_pool(lam, k_max, scan=4000):
    """Radial zeros of the sphere-averaged theta_k, k <= k_max, on the radii
    `two_radii_check` scans; {k: ascending zeros}."""
    x, w = np.polynomial.legendre.leggauss(200)
    t, w = (x + 1) / 2, w / 2
    x_top = sps.roots_genlaguerre(k_max, 1)[0].max()
    r_scan = float(np.sqrt(2 * x_top / min(lam))) * 1.05
    rs = np.linspace(r_scan / scan, r_scan, scan)
    pool = {}
    for k in range(1, k_max + 1):
        vals = _aniso_profile(k, lam, rs, t, w)
        idx = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
        pool[k] = [brentq(lambda r: float(_aniso_profile(k, lam, r, t, w)), rs[i], rs[i + 1],
                          xtol=1e-15)
                   for i in idx]
    return pool


class Admissibility:
    """Per job: an isotropic n = 1 two-radii check on each of four seeded pairs
    (k = 40, 40 Bessel zeros), one anisotropic n = 2 check at lam' = (1, 2)
    (k = 6), and one n = 2 one-radius counterexample at degree 1."""

    name = "admissibility"
    stream = 3
    pool_size = 8
    iso_pairs = 4
    iso_k = 40
    bessel_count = 40
    aniso_lam = (1.0, 2.0)
    aniso_k = 6
    margin = 1e-6  # an admissible pair keeps this relative distance from every zero ratio
    residual_gate = 1e-6  # witness mean, relative to max |field|
    radius_gate = 1e-10  # witness radius against scipy's Laguerre root

    def __init__(self, seed, workdir):
        rng = np.random.default_rng([seed, self.stream])
        lag = np.concatenate([sps.roots_genlaguerre(k, 0)[0] for k in range(1, self.iso_k + 1)])
        self.iso_lag_ratios = (lag[:, None] / lag[None, :]).ravel()
        jz = sps.jn_zeros(0, self.bessel_count)
        self.iso_bessel_zeros = jz
        self.iso_bessel_ratios = (jz[:, None] / jz[None, :]).ravel()
        self.aniso_pool = aniso_zero_pool(self.aniso_lam, self.aniso_k)
        az = np.concatenate(list(self.aniso_pool.values()))
        self.aniso_lag_ratios = ((az[:, None] / az[None, :]) ** 2).ravel()
        jz1 = sps.jn_zeros(1, self.bessel_count)
        self.aniso_bessel_ratios = (jz1[:, None] / jz1[None, :]).ravel()
        self.jobs = [self._make(rng) for _ in range(self.pool_size)]

    def _admissible_pair(self, rng, lag_ratios, bessel_ratios):
        while True:
            r2 = float(rng.uniform(0.5, 3.0))
            rho = float(rng.uniform(1.05, 2.5))
            if (_ratio_distance(rho**2, lag_ratios) > self.margin
                    and _ratio_distance(rho, bessel_ratios) > self.margin):
                return {"r1": rho * r2, "r2": r2, "kind": "admissible"}

    def _iso_pair(self, rng):
        kind = rng.choice(["admissible", "admissible", "laguerre", "bessel"])
        r2 = float(rng.uniform(0.5, 3.0))
        if kind == "laguerre":
            d = int(rng.integers(2, self.iso_k + 1))
            i, j = (int(v) for v in rng.choice(d, 2, replace=False))
            r1, r2 = injectivity.inadmissible_radius_pair(1, d, i, j, r2)
            return {"r1": r1, "r2": r2, "kind": "laguerre", "conflict": (d, i, d, j)}
        if kind == "bessel":
            i, j = (int(v) for v in rng.choice(self.bessel_count, 2, replace=False))
            r1 = r2 * float(self.iso_bessel_zeros[i] / self.iso_bessel_zeros[j])
            return {"r1": r1, "r2": r2, "kind": "bessel", "conflict": (i, j)}
        return self._admissible_pair(rng, self.iso_lag_ratios, self.iso_bessel_ratios)

    def _aniso_pair(self, rng):
        if rng.random() < 0.5:
            return self._admissible_pair(rng, self.aniso_lag_ratios, self.aniso_bessel_ratios)
        d = int(rng.integers(2, self.aniso_k + 1))
        i, j = (int(v) for v in rng.choice(len(self.aniso_pool[d]), 2, replace=False))
        r2 = float(rng.uniform(0.5, 3.0))
        return {"r1": r2 * self.aniso_pool[d][i] / self.aniso_pool[d][j], "r2": r2,
                "kind": "laguerre"}

    def _make(self, rng):
        return {
            "iso": [self._iso_pair(rng) for _ in range(self.iso_pairs)],
            "aniso": self._aniso_pair(rng),
            # the CLI defaults: degree 1, zero_index 0 (the smallest annihilating
            # radius); the residual grows with both under the n = 2 sphere rule
            "witness": {"l": 1, "lam": float(rng.uniform(0.9, 1.1))},
        }

    def prepare(self, i):
        return self.jobs[i % len(self.jobs)]

    def solve(self, job):
        iso = [injectivity.two_radii_check(p["r1"], p["r2"], n=1, k_max=self.iso_k,
                                           bessel_count=self.bessel_count)
               for p in job["iso"]]
        p = job["aniso"]
        aniso = injectivity.two_radii_check(p["r1"], p["r2"], n=2, lambda_prime=self.aniso_lam,
                                            k_max=self.aniso_k, bessel_count=self.bessel_count)
        w = job["witness"]
        # probe points as the CLI draws them (the function's default seed)
        cx = injectivity.one_radius_counterexample(w["l"], [w["lam"], w["lam"]], n=2)
        return iso, aniso, cx

    def check(self, job, out):
        iso, aniso, cx = out
        problems = []
        for p, v in zip(job["iso"], iso):
            if v.admissible != (p["kind"] == "admissible"):
                problems.append(f"{p['kind']} pair ({p['r1']:.6g}, {p['r2']:.6g}) judged "
                                f"{'admissible' if v.admissible else 'inadmissible'}")
            elif p["kind"] == "laguerre" and p["conflict"] not in [c[:4] for c in v.laguerre_conflicts]:
                problems.append(f"Laguerre conflict {p['conflict']} not reported")
            elif p["kind"] == "bessel" and p["conflict"] not in [c[:2] for c in v.bessel_conflicts]:
                problems.append(f"Bessel conflict {p['conflict']} not reported")
        p = job["aniso"]
        if aniso.admissible != (p["kind"] == "admissible") or not aniso.anisotropic_best_effort:
            problems.append(f"anisotropic {p['kind']} pair judged "
                            f"{'admissible' if aniso.admissible else 'inadmissible'}")
        w = job["witness"]
        x0 = sps.roots_genlaguerre(w["l"], 1)[0].min()
        radius_err = abs(cx.radius - np.sqrt(2 * x0 / w["lam"])) / cx.radius
        if radius_err > self.radius_gate:
            problems.append(f"witness radius off by {radius_err:.3e}")
        if not cx.mean_residual <= self.residual_gate:
            problems.append(f"witness mean residual {cx.mean_residual:.3e}")
        if not cx.field.max_abs() > 0:
            problems.append("witness field is zero")
        return Check(not problems, min(digits(cx.mean_residual), digits(radius_err)),
                     "; ".join(problems) or
                     f"verdicts as built; witness residual {cx.mean_residual:.3e}")


WORKLOADS = {w.name: w for w in (Reconstruct, Spectral, Admissibility)}
