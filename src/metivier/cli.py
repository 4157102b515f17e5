"""Batch command-line front end.

One command per process: spectrum, verify, reconstruct, radii, counterexample.
Every flag mirrors a key of the JSON config file given by --config; explicit
flags override file values.  Reports are JSON with sorted keys and no
timestamps, so identical configs produce byte-identical output.  Exit codes:
0 success, 1 usage/validation error, 2 mathematical precondition failure,
3 identity-verification failure.

The environment variable METIVIER_THREADS caps the numeric libraries' thread
pools.  Importing the metivier package applies it, before numpy and scipy
load; a value that is not a positive integer is a usage error here.
"""

import argparse
import json
import math
import os
import sys

from ._threads import apply_thread_cap

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IDENTITY = 3


class UsageError(Exception):
    """Bad flags, bad config values, missing or malformed input files."""

    exit_code = EXIT_USAGE


class IdentityFailure(Exception):
    """A verification identity exceeded its tolerance."""

    exit_code = EXIT_IDENTITY


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; here usage errors are exit 1
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _apply_thread_cap():
    try:
        apply_thread_cap()
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _load_config(path):
    if path is None:
        return {}
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except ValueError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    return cfg


def _merged(args, config, key, default=None):
    """Flag value if given on the command line, else config value, else default."""
    val = getattr(args, key.replace("-", "_"), None)
    if val is not None:
        return val
    if key in config:
        return config[key]
    return default


def _merged_number(args, config, key, kind, default=None):
    """_merged converted by kind (float or int).  A missing value, one that
    does not convert, a float that is not finite, or an int that would drop
    a fraction is a UsageError."""
    val = _merged(args, config, key, default)
    if val is None:
        raise UsageError(f"missing required value: {key}")
    try:
        out = kind(val)
        ok = math.isfinite(out) and float(val) == out
    except (TypeError, ValueError, OverflowError):
        ok = False
    if not ok:
        word = "an integer" if kind is int else "a finite number"
        raise UsageError(f"{key} must be {word}, got {val!r}")
    return out


def _parse_vector(value, name):
    """Accept a JSON list, a comma-separated string, or a scalar, of finite numbers."""
    if value is None:
        raise UsageError(f"missing required value: {name}")
    items = value.replace(",", " ").split() if isinstance(value, str) else value
    if not isinstance(items, (list, tuple)):
        items = [items]
    try:
        out = [float(v) for v in items]
    except (TypeError, ValueError):
        raise UsageError(f"{name} must be numeric, got {value!r}") from None
    if not all(math.isfinite(v) for v in out):
        raise UsageError(f"{name} must be finite, got {value!r}")
    return out


def _parse_atoms(value):
    """Accept [[r, w], ...] (JSON list or string) of finite numbers."""
    if isinstance(value, str):
        try:
            value = json.loads(value)
        except ValueError:
            raise UsageError(f"atoms must be JSON [[r, w], ...], got {value!r}")
    if not isinstance(value, (list, tuple)) or not value:
        raise UsageError("atoms must be a nonempty list of [radius, weight] pairs")
    atoms = []
    for entry in value:
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise UsageError("each atom must be a [radius, weight] pair")
        atoms.append(tuple(_parse_vector(entry, "atom")))
    return atoms


def _write_report(report, outdir, name):
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _structure_from_ref(ref):
    from .structures import builtin_structure, read_structure

    if ref is None:
        raise UsageError("missing required value: structure")
    if os.path.exists(ref):
        return read_structure(ref)
    try:
        return builtin_structure(ref)
    except Exception:
        raise UsageError(
            f"structure {ref!r} is neither a readable file nor a built-in name"
        )


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


def cmd_spectrum(args, config):
    import numpy as np

    from .structures import metivier_check, symplectic_spectrum, v_lambda

    structure = _structure_from_ref(_merged(args, config, "structure"))
    lam = np.array(_parse_vector(_merged(args, config, "lam"), "lam"))
    if lam.shape != (structure.m,):
        raise UsageError(f"lam must have {structure.m} components")
    check = metivier_check(structure)
    spec = symplectic_spectrum(structure, lam)
    v = v_lambda(structure, lam)
    intertwine = float(np.max(np.abs(v @ spec.a - spec.a @ spec.u_normal)))
    report = {
        "command": "spectrum",
        "structure": {"n": structure.n, "m": structure.m},
        "lam": [float(x) for x in lam],
        "mu": [float(x) for x in spec.mu],
        "a": [[float(x) for x in row] for row in spec.a],
        "orthogonality_residual": spec.orthogonality_defect,
        "intertwining_residual": intertwine,
        "is_metivier_on_probes": check.is_metivier_on_probes,
        "min_abs_det": check.min_abs_det,
    }
    outdir = _merged(args, config, "output", ".")
    path = _write_report(report, outdir, "spectrum.json")
    print(f"spectrum: mu = {report['mu']}, orthogonality residual "
          f"{spec.orthogonality_defect:.3e}, intertwining residual {intertwine:.3e}")
    print(f"report written to {path}")
    return EXIT_OK


def _verify_identities(tolerance, eigen_tolerance):
    """The identity suites; returns a list of (name, max_error, tolerance)."""
    import numpy as np

    from .grids import default_grid, sample
    from .special import psi_alpha_beta, theta_k
    from .structures import (
        builtin_structure,
        complex_from_real,
        real_from_complex,
        rotate_field,
        symplectic_spectrum,
    )
    from .transforms import (
        apply_twisted_laplacian,
        mean_eigenvalue,
        modified_twisted_mean_at,
        reduced_mean_at,
        twisted_mean_at,
    )

    results = []
    g = default_grid(1)
    lam1 = np.array([1.0])
    probes = np.array([[0.6 + 0.2j], [0.25 - 1.1j], [1.4 + 0.9j]])

    # the mean factors through the Laguerre kernel on each spectral block
    err = 0.0
    for k in (0, 2, 4):
        fk = sample(lambda z: theta_k(k, lam1, z), g)
        for r in (0.5, 1.3):
            got = reduced_mean_at(fk, lam1, r, probes)
            want = mean_eigenvalue(k, lam1, r) * theta_k(k, lam1, probes).ravel()
            scale = max(np.max(np.abs(fk.values)), 1e-300)
            err = max(err, float(np.max(np.abs(got - want)) / scale))
    results.append(("laguerre-factorization", err, tolerance))

    # rotating to normal form turns the twisted mean into the modified mean
    st = builtin_structure("heisenberg:1")
    gauss = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * (1 + z[..., 0]), g)
    err = 0.0
    for lam in (np.array([0.8]), np.array([-0.6])):
        spec = symplectic_spectrum(st, lam)
        tm = twisted_mean_at(gauss, st, lam, 0.9, probes)
        rot = rotate_field(gauss, spec, direction="forward")
        rpts = complex_from_real(real_from_complex(probes) @ spec.a)
        mm = modified_twisted_mean_at(rot, spec, 0.9, rpts)
        scale = max(np.max(np.abs(tm)), 1e-300)
        err = max(err, float(np.max(np.abs(tm - mm)) / scale))
    results.append(("rotation-identity", err, tolerance))

    # diagonal sum of special Hermite functions reproduces the Laguerre kernel
    rng = np.random.default_rng(0)
    zpts = rng.uniform(0.1, 2.5, (24, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (24, 1)))
    err = 0.0
    for k in range(7):
        diag = psi_alpha_beta((k,), (k,), lam1, zpts)
        want = np.sqrt(lam1[0]) * (2 * np.pi) ** -0.5 * theta_k(k, lam1, zpts)
        err = max(err, float(np.max(np.abs(diag - want))))
    results.append(("diagonal-sum", err, tolerance))

    # truncated Laguerre series reproduces a Gaussian (floor set by truncation)
    from .transforms import decompose, synthesize

    gauss2 = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    recon = synthesize(decompose(gauss2, lam1, 30))
    err = float(recon.with_values(recon.values - gauss2.values).norm2()
                / gauss2.norm2())
    results.append(("series-round-trip", err, tolerance))

    # special Hermite functions are eigenfunctions of the twisted Laplacian
    psi = sample(lambda z: psi_alpha_beta((1,), (2,), lam1, z), g)
    lap = apply_twisted_laplacian(psi, lam1, points=zpts)
    want = 3.0 * psi_alpha_beta((1,), (2,), lam1, zpts)
    err = float(np.max(np.abs(lap - want)) / np.max(np.abs(want)))
    results.append(("eigenfunction-residual", err, eigen_tolerance))
    return results


def cmd_verify(args, config):
    tolerance = _merged_number(args, config, "tolerance", float, 1e-6)
    eigen_tolerance = _merged_number(args, config, "eigen-tolerance", float, 1e-3)
    if tolerance <= 0 or eigen_tolerance <= 0:
        raise UsageError("tolerances must be positive")
    results = _verify_identities(tolerance, eigen_tolerance)
    identities = [
        {"name": name, "max_error": err, "tolerance": tol, "pass": bool(err <= tol)}
        for name, err, tol in results
    ]
    report = {
        "command": "verify",
        "tolerance": tolerance,
        "eigen_tolerance": eigen_tolerance,
        "identities": identities,
        "all_pass": all(e["pass"] for e in identities),
    }
    outdir = _merged(args, config, "output", ".")
    path = _write_report(report, outdir, "verify.json")
    for entry in identities:
        status = "pass" if entry["pass"] else "FAIL"
        print(f"{status}  {entry['name']}: max error {entry['max_error']:.3e} "
              f"(tolerance {entry['tolerance']:.1e})")
    print(f"report written to {path}")
    if not report["all_pass"]:
        first = next(e for e in identities if not e["pass"])
        raise IdentityFailure(
            f"identity {first['name']} exceeded tolerance: "
            f"max error {first['max_error']:.3e} > {first['tolerance']:.1e}"
        )
    return EXIT_OK


def cmd_reconstruct(args, config):
    import numpy as np

    from .fieldio import read_field, write_field
    from .injectivity import (
        RadialMeasure,
        measure_mean,
        reconstruct_from_measure_mean,
    )

    input_path = _merged(args, config, "input")
    if input_path is None:
        raise UsageError("missing required value: input")
    if not os.path.exists(input_path):
        raise UsageError(f"input field file not found: {input_path}")
    field = read_field(input_path)
    lam = _parse_vector(_merged(args, config, "lam", [1.0]), "lam")
    atoms = _parse_atoms(_merged(args, config, "atoms", [[1.0, 0.5], [1.7, 0.5]]))
    k_max = _merged_number(args, config, "k", int, 25)
    if k_max < 0:
        raise UsageError("k must be nonnegative")
    mu = RadialMeasure([r for r, _ in atoms], [w for _, w in atoms],
                       normalized=abs(sum(w for _, w in atoms) - 1.0) <= 1e-12)
    mean = measure_mean(field, mu, lam)
    result = reconstruct_from_measure_mean(mean, mu, lam, k_max)
    diff = result.field.with_values(result.field.values - field.values)
    fnorm = field.norm2()
    residual = float(diff.norm2() / fnorm) if fnorm > 0 else 0.0
    outdir = _merged(args, config, "output", ".")
    os.makedirs(outdir, exist_ok=True)
    field_path = os.path.join(outdir, "reconstruction.field")
    write_field(result.field, field_path)
    report = {
        "command": "reconstruct",
        "input": input_path,
        "lam": lam,
        "atoms": [[r, w] for r, w in atoms],
        "k": k_max,
        "relative_l2_residual": residual,
        "unrecoverable_degrees": list(result.unrecoverable),
        "divisors": {str(k): v for k, v in sorted(result.divisor.items())},
        "recovered_norms": {str(k): v for k, v in sorted(result.recovered_norm.items())},
        "field_file": "reconstruction.field",
    }
    path = _write_report(report, outdir, "reconstruct.json")
    print(f"reconstruction relative L2 residual {residual:.3e}; "
          f"unrecoverable degrees {list(result.unrecoverable)}")
    print(f"field written to {field_path}, report to {path}")
    return EXIT_OK


def cmd_radii(args, config):
    from .errors import RangeExceeded
    from .injectivity import two_radii_check

    r1 = _merged_number(args, config, "r1", float)
    r2 = _merged_number(args, config, "r2", float)
    n = _merged_number(args, config, "n", int, 1)
    k_max = _merged_number(args, config, "k", int, 40)
    bessel_count = _merged_number(args, config, "bessel-count", int, 40)
    tol = _merged_number(args, config, "tol", float, 1e-9)
    lam_raw = _merged(args, config, "lam")
    lam = _parse_vector(lam_raw, "lam") if lam_raw is not None else None
    try:  # the degree and count bounds depend on the path, so special checks them
        verdict = two_radii_check(r1, r2, n=n, lambda_prime=lam, k_max=k_max,
                                  bessel_count=bessel_count, tol=tol)
    except RangeExceeded as exc:
        raise UsageError(str(exc)) from None
    outdir = _merged(args, config, "output", ".")
    os.makedirs(outdir, exist_ok=True)
    csv_path = os.path.join(outdir, "radii.csv")
    verdict.to_csv(csv_path)
    report = {
        "command": "radii",
        "r1": verdict.r1,
        "r2": verdict.r2,
        "admissible_within_bounds": verdict.admissible_within_bounds,
        "laguerre_conflicts": [list(c) for c in verdict.laguerre_conflicts],
        "bessel_conflicts": [list(c) for c in verdict.bessel_conflicts],
        "search_bounds": {"k_max": k_max, "bessel_count": bessel_count, "tol": tol},
        "anisotropic_best_effort": verdict.anisotropic_best_effort,
        "csv_file": "radii.csv",
    }
    path = _write_report(report, outdir, "radii.json")
    word = "admissible" if verdict.admissible_within_bounds else "INADMISSIBLE"
    print(f"pair ({r1}, {r2}) is {word} within bounds "
          f"(k <= {k_max}, {bessel_count} Bessel zeros, tol {tol:g}); "
          f"{len(verdict.laguerre_conflicts)} Laguerre and "
          f"{len(verdict.bessel_conflicts)} Bessel conflicts")
    print(f"report written to {path}, conflict table to {csv_path}")
    return EXIT_OK


def cmd_counterexample(args, config):
    import numpy as np

    from .fieldio import write_field
    from .injectivity import one_radius_counterexample
    from .special import laguerre_zeros

    l = _merged_number(args, config, "l", int, 1)
    if l < 1:
        raise UsageError("l must be at least 1 (degree 0 has no radial zero)")
    lam = _parse_vector(_merged(args, config, "lam", [1.0]), "lam")
    n = _merged_number(args, config, "n", int, 1)
    zero_index = _merged_number(args, config, "zero-index", int, 0)
    cx = one_radius_counterexample(l, lam, n, zero_index=zero_index)
    all_radii = [float(np.sqrt(2 * x / lam[0])) for x in laguerre_zeros(l, n - 1).zeros]
    outdir = _merged(args, config, "output", ".")
    os.makedirs(outdir, exist_ok=True)
    field_path = os.path.join(outdir, "counterexample.field")
    write_field(cx.field, field_path)
    report = {
        "command": "counterexample",
        "l": l,
        "lam": lam,
        "radius": cx.radius,
        "annihilating_radii": all_radii,
        "mean_residual": cx.mean_residual,
        "field_file": "counterexample.field",
    }
    path = _write_report(report, outdir, "counterexample.json")
    print(f"degree {l} kernel is annihilated by the mean at r = {cx.radius!r} "
          f"(residual {cx.mean_residual:.3e}); all such radii: {all_radii}")
    print(f"field written to {field_path}, report to {path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _build_parser():
    parser = _Parser(prog="metivier",
                     description="Harmonic analysis on Metivier groups: "
                                 "normal forms, twisted means, reconstruction.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    def common(p):
        p.add_argument("--config", help="JSON config file; flags override its keys")
        p.add_argument("--output", help="output directory for reports (default .)")

    p = sub.add_parser("spectrum", help="symplectic normal form of a structure")
    common(p)
    p.add_argument("--structure", help="built-in name or structure file")
    p.add_argument("--lam", help="central frequency, comma separated")

    p = sub.add_parser("verify", help="run the identity suites")
    common(p)
    p.add_argument("--tolerance", type=float, help="tolerance for exact identities")
    p.add_argument("--eigen-tolerance", type=float,
                   help="tolerance for the finite-difference eigenfunction residual")

    p = sub.add_parser("reconstruct", help="forward means and blockwise inversion")
    common(p)
    p.add_argument("--input", help="input field file")
    p.add_argument("--lam", help="reduced twist, comma separated")
    p.add_argument("--atoms", help='measure atoms as JSON [[r, w], ...]')
    p.add_argument("--k", type=int, help="truncation degree")

    p = sub.add_parser("radii", help="two-radii admissibility verdict")
    common(p)
    p.add_argument("--r1", type=float)
    p.add_argument("--r2", type=float)
    p.add_argument("--n", type=int, help="complex dimension (default 1)")
    p.add_argument("--k", type=int, help="Laguerre degree bound")
    p.add_argument("--bessel-count", type=int, help="number of Bessel zeros scanned")
    p.add_argument("--tol", type=float, help="relative ratio tolerance")
    p.add_argument("--lam", help="reduced twist (anisotropic scans are best-effort)")

    p = sub.add_parser("counterexample", help="one-radius injectivity failure witness")
    common(p)
    p.add_argument("--l", type=int, help="spectral degree (>= 1)")
    p.add_argument("--lam", help="reduced twist, comma separated")
    p.add_argument("--n", type=int, help="complex dimension (default 1)")
    p.add_argument("--zero-index", type=int, help="which Laguerre zero picks the radius")
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "verify": cmd_verify,
    "reconstruct": cmd_reconstruct,
    "radii": cmd_radii,
    "counterexample": cmd_counterexample,
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        _apply_thread_cap()
        config = _load_config(args.config)
        return _COMMANDS[args.command](args, config)
    except Exception as exc:  # noqa: BLE001 - every metivier error carries its exit code
        code = getattr(exc, "exit_code", None)
        if code is None:
            raise
        print(f"metivier {args.command}: {exc}", file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
