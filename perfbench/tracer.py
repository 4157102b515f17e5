"""Spans and counters recorded around calls that cross metivier's module boundaries.

Nothing inside the package is changed: `install` replaces, in every loaded
`metivier` module, each attribute that refers to a wrapped function with a
recording wrapper, and patches the two `FieldEvaluator` methods on the class.
`uninstall` puts every original back.  Calls made while no job is open run
the original code with one extra attribute test.

A span is (id, label, start, end, parent id, job).  A call whose label equals
the label of the innermost open span (`reduced_mean` calling
`reduced_mean_at`, `matrix_coefficient` calling `_matrix_coefficients`)
merges into that span, so a label's call count is its outermost calls.
"""

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

import numpy as np

from spans import summarize

PACKAGE = "metivier"
_SIGNATURES = {}


def _bound(fn, args, kwargs):
    sig = _SIGNATURES.get(fn)
    if sig is None:
        sig = _SIGNATURES[fn] = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Counter hooks: (recorder, fn, args, kwargs, result) -> None.

def _evaluator_points(rec, fn, args, kwargs, out):
    ev = args[0]
    z = np.asarray(_bound(fn, args, kwargs)["zpts"], dtype=complex)
    if ev.grid.n == 1 and z.ndim == 1:
        z = z[:, None]
    rec.add("grids.FieldEvaluator.points", z.shape[0])
    limit = ev.grid.r_max + ev.extrap_slack
    past = np.count_nonzero((np.abs(z) > limit).any(axis=1))
    rec.add("grids.FieldEvaluator.points_past_rmax", int(past))


def _fft_bytes_of_field(rec, fn, args, kwargs, out):
    # computed, not measured: one read and one write of the array per angular axis
    field = args[0]
    rec.add("grids.angular_fft.bytes", 2 * field.grid.n * out.nbytes)


def _fft_bytes_of_modes(rec, fn, args, kwargs, out):
    grid = args[0]
    rec.add("grids.angular_fft.bytes", 2 * grid.n * out.nbytes)


def _analysis_size(rec, fn, args, kwargs, out):
    rec.add("transforms.analysis.coefficients", len(_bound(fn, args, kwargs)["index_pairs"]))


def _synthesis_size(rec, fn, args, kwargs, out):
    rec.add("transforms.synthesis.terms", len(_bound(fn, args, kwargs)["terms"]))


def _hermite_key(rec, fn, args, kwargs, out):
    a = _bound(fn, args, kwargs)
    z = np.ascontiguousarray(a["z"])
    rec.distinct["special.special_hermite_1d"].add(
        (int(a["j"]), int(a["k"]), float(a["lam"]), z.shape, hash(z.tobytes())))


def _theta_points(rec, fn, args, kwargs, out):
    rec.add("special.theta_k.points", int(np.prod(np.shape(_bound(fn, args, kwargs)["z"])[:-1])))


def _aniso_pool(rec, fn, args, kwargs, out):
    rec.add("injectivity.anisotropic_pool", len(out))


def _radii_pairs(rec, fn, args, kwargs, out):
    # computed: the check compares every ordered pair of pooled zero ratios
    a = _bound(fn, args, kwargs)
    if out.anisotropic_best_effort:
        pool = rec.counters.pop("injectivity.anisotropic_pool", 0)
    else:
        pool = a["k_max"] * (a["k_max"] + 1) // 2  # L_k^{n-1} has k zeros
    rec.add("injectivity.two_radii_check.pairs", pool**2 + a["bessel_count"] ** 2)


def _bytes_read(rec, fn, args, kwargs, out):
    rec.add("fieldio.bytes_read", os.path.getsize(_bound(fn, args, kwargs)["path"]))


def _bytes_written(rec, fn, args, kwargs, out):
    rec.add("fieldio.bytes_written", os.path.getsize(_bound(fn, args, kwargs)["path"]))


# (home module, attribute, span label or None for a counter-only hook, counter hook)
FUNCTIONS = [
    ("grids", "sample", "grids.sample", None),
    ("grids", "build_sphere_rule", "grids.build_sphere_rule", None),
    ("grids", "angular_mode_coefficients", "grids.angular_fft", _fft_bytes_of_field),
    ("grids", "values_from_mode_coefficients", "grids.angular_fft", _fft_bytes_of_modes),
    ("transforms", "reduced_mean", "transforms.reduced_mean", None),
    ("transforms", "reduced_mean_at", "transforms.reduced_mean", None),
    ("transforms", "twisted_convolution", "transforms.twisted_convolution", None),
    ("transforms", "decompose", "transforms.decompose", None),
    ("transforms", "spectral_projection", "transforms.spectral_projection", None),
    ("transforms", "synthesize", "transforms.synthesize", None),
    ("transforms", "_matrix_coefficients", "transforms.analysis", _analysis_size),
    ("transforms", "_synthesize_values", "transforms.synthesis", _synthesis_size),
    ("special", "special_hermite_1d", "special.special_hermite_1d", _hermite_key),
    ("special", "theta_k", "special.theta_k", _theta_points),
    ("special", "laguerre_zeros", "special.laguerre_zeros", None),
    ("special", "bessel_zeros", "special.bessel_zeros", None),
    ("injectivity", "measure_mean", "injectivity.measure_mean", None),
    ("injectivity", "measure_mean_at", "injectivity.measure_mean", None),
    ("injectivity", "reconstruct_from_measure_mean", "injectivity.reconstruct", None),
    ("injectivity", "reconstruct_from_means", "injectivity.reconstruct", None),
    ("injectivity", "two_radii_check", "injectivity.two_radii_check", _radii_pairs),
    ("injectivity", "_anisotropic_block_zeros", None, _aniso_pool),
    ("injectivity", "one_radius_counterexample", "injectivity.one_radius_counterexample", None),
    ("fieldio", "read_field", "fieldio.read", _bytes_read),
    ("fieldio", "write_field", "fieldio.write", _bytes_written),
]

# (home module, class, method, span label, counter hook)
METHODS = [
    ("grids", "FieldEvaluator", "__init__", "grids.FieldEvaluator.build", None),
    ("grids", "FieldEvaluator", "__call__", "grids.FieldEvaluator.eval", _evaluator_points),
]


class Recorder:
    """In-memory spans and counters of the jobs run while it is installed."""

    def __init__(self):
        self.spans = []  # [id, label, start, end, parent, job]
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        self.jobs = []  # per-job summaries, see job_summary
        self._stack = []
        self._job = None
        self._patched = []

    # -- spans ------------------------------------------------------------
    def open(self, label):
        span = [len(self.spans), label, time.perf_counter(), None,
                self._stack[-1][0] if self._stack else None, self._job]
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span[3] = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span[1]} closed out of order")

    def add(self, name, amount):
        self.counters[name] += amount

    def wrap(self, fn, label, hook):
        module = label.split(".")[0] if label else None
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec._job is None:
                return fn(*args, **kwargs)
            if label is None or (rec._stack and rec._stack[-1][1] == label):
                out = fn(*args, **kwargs)
            else:
                span = rec.open(label)
                rec.add(label + ".calls", 1)
                try:
                    out = fn(*args, **kwargs)
                except Exception:
                    rec.add(module + ".errors", 1)
                    raise
                finally:
                    rec.close(span)
            if hook is not None:
                hook(rec, fn, args, kwargs, out)
            return out

        return wrapper

    # -- installation -----------------------------------------------------
    def install(self):
        mods = {name: m for name, m in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        for home, attr, label, hook in FUNCTIONS:
            orig = getattr(mods[f"{PACKAGE}.{home}"], attr)
            wrapper = self.wrap(orig, label, hook)
            for mod in mods.values():
                for name, value in list(vars(mod).items()):
                    if value is orig:
                        self._patched.append((mod, name, orig))
                        setattr(mod, name, wrapper)
        for home, cls_name, meth, label, hook in METHODS:
            cls = getattr(mods[f"{PACKAGE}.{home}"], cls_name)
            orig = cls.__dict__[meth]
            self._patched.append((cls, meth, orig))
            setattr(cls, meth, self.wrap(orig, label, hook))
        return self

    def uninstall(self):
        for owner, name, orig in reversed(self._patched):
            setattr(owner, name, orig)
        self._patched.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- jobs -------------------------------------------------------------
    def run_job(self, job_id, fn, *args):
        """Run fn(*args) as one traced job under a root span labelled "job"."""
        self._job = job_id
        self.counters = defaultdict(float)
        self.distinct = defaultdict(set)
        first = len(self.spans)
        root = self.open("job")
        try:
            return fn(*args)
        finally:
            self.close(root)
            self._job = None
            self.jobs.append(self.job_summary(first))

    def job_summary(self, first):
        """Self seconds per label, plus counters, of the spans from `first` (one job)."""
        spans = self.spans[first:]
        counters = dict(self.counters)
        for label, keys in self.distinct.items():
            calls = counters.get(label + ".calls", 0)
            counters[label + ".distinct_ratio"] = len(keys) / calls if calls else 1.0
        return {"job_s": spans[0][3] - spans[0][2],
                "self_s": {label: r["self_s"] for label, r in summarize(spans).items()},
                "counters": counters}
