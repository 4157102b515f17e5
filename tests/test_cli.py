"""Command-line interface: exit codes, report determinism, config handling."""

import json
import os
import subprocess
import sys

import pytest

CLI = [sys.executable, "-c", "import sys; from metivier.cli import main; sys.exit(main())"]


def run_cli(*argv, env_extra=None, cwd=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(CLI + list(argv), capture_output=True, text=True,
                          env=env, cwd=cwd)


def test_no_command_is_usage_error():
    proc = run_cli()
    assert proc.returncode == 1


def test_unknown_flag_is_usage_error(tmp_path):
    proc = run_cli("radii", "--no-such-flag", "1", cwd=tmp_path)
    assert proc.returncode == 1


def test_spectrum_builtin(tmp_path):
    proc = run_cli("spectrum", "--structure", "heisenberg:1", "--lam", "2.0",
                   "--output", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "spectrum.json").read_text())
    assert report["mu"] == pytest.approx([2.0])
    assert report["is_metivier_on_probes"] is True
    assert report["orthogonality_residual"] < 1e-10


def test_spectrum_singular_pencil_is_precondition(tmp_path):
    proc = run_cli("spectrum", "--structure", "product-counterexample",
                   "--lam", "1,0", "--output", str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr.strip() != ""


def test_spectrum_bad_lam_length_is_usage(tmp_path):
    proc = run_cli("spectrum", "--structure", "heisenberg:1", "--lam", "1,2",
                   "--output", str(tmp_path))
    assert proc.returncode == 1


def test_verify_default_passes_and_is_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    p1 = run_cli("verify", "--output", str(out1))
    p2 = run_cli("verify", "--output", str(out2))
    assert p1.returncode == 0, p1.stdout + p1.stderr
    assert p2.returncode == 0
    b1 = (out1 / "verify.json").read_bytes()
    b2 = (out2 / "verify.json").read_bytes()
    assert b1 == b2
    report = json.loads(b1)
    assert report["all_pass"] is True
    names = {e["name"] for e in report["identities"]}
    assert "laguerre-factorization" in names
    assert "eigenfunction-residual" in names


def test_verify_strict_tolerance_fails_with_exit_3(tmp_path):
    proc = run_cli("verify", "--tolerance", "1e-14", "--output", str(tmp_path))
    assert proc.returncode == 3
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_pass"] is False
    # the truncated-series identity carries a genuine truncation floor
    failing = [e["name"] for e in report["identities"] if not e["pass"]]
    assert "series-round-trip" in failing


def test_verify_rejects_nonpositive_tolerance(tmp_path):
    proc = run_cli("verify", "--tolerance", "-1", "--output", str(tmp_path))
    assert proc.returncode == 1


def test_radii_reports_and_csv(tmp_path):
    proc = run_cli("radii", "--r1", "1.0", "--r2", "2.0", "--k", "10",
                   "--bessel-count", "20", "--output", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "radii.json").read_text())
    assert report["admissible_within_bounds"] is True
    assert (tmp_path / "radii.csv").read_text().startswith("family,")


def test_radii_inadmissible_pair_still_exits_zero(tmp_path):
    # an inadmissible verdict is a successful computation, not an error
    from metivier.injectivity import inadmissible_radius_pair

    r1, r2 = inadmissible_radius_pair()
    proc = run_cli("radii", "--r1", str(r1), "--r2", str(r2), "--k", "6",
                   "--output", str(tmp_path))
    assert proc.returncode == 0
    report = json.loads((tmp_path / "radii.json").read_text())
    assert report["admissible_within_bounds"] is False
    assert report["laguerre_conflicts"]


def test_radii_nonpositive_radius_is_usage(tmp_path):
    proc = run_cli("radii", "--r1", "1.0", "--r2", "0.0", "--output", str(tmp_path))
    assert proc.returncode == 1


def test_counterexample(tmp_path):
    proc = run_cli("counterexample", "--l", "2", "--output", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "counterexample.json").read_text())
    assert report["mean_residual"] < 1e-8
    assert len(report["annihilating_radii"]) == 2
    assert report["radius"] == pytest.approx(report["annihilating_radii"][0])
    assert (tmp_path / "counterexample.field").exists()


def test_counterexample_degree_zero_is_usage(tmp_path):
    proc = run_cli("counterexample", "--l", "0", "--output", str(tmp_path))
    assert proc.returncode == 1


def test_reconstruct_round_trip(tmp_path):
    import numpy as np

    from metivier.fieldio import write_field
    from metivier.grids import default_grid, sample

    g = default_grid(1)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    input_path = tmp_path / "input.field"
    write_field(f, input_path)
    proc = run_cli("reconstruct", "--input", str(input_path), "--k", "20",
                   "--output", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "reconstruct.json").read_text())
    assert report["relative_l2_residual"] < 1e-3
    assert report["unrecoverable_degrees"] == []
    assert (tmp_path / "reconstruction.field").exists()


def test_reconstruct_at_negative_twist(tmp_path):
    import numpy as np

    from metivier.fieldio import write_field
    from metivier.grids import default_grid, sample

    f = sample(lambda z: np.exp(-0.4 * np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]),
               default_grid(1))
    input_path = tmp_path / "input.field"
    write_field(f, input_path)
    proc = run_cli("reconstruct", "--input", str(input_path), "--lam=-1",
                   "--output", str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "reconstruct.json").read_text())
    assert report["relative_l2_residual"] < 1e-6


@pytest.mark.parametrize("lam", ["-1", "0"])
def test_counterexample_nonpositive_twist_is_typed_without_warnings(tmp_path, lam):
    proc = run_cli("counterexample", f"--lam={lam}", "--output", str(tmp_path))
    assert proc.returncode == 2
    assert "Warning" not in proc.stderr


def test_reconstruct_missing_input_is_usage(tmp_path):
    proc = run_cli("reconstruct", "--input", str(tmp_path / "absent.field"),
                   "--output", str(tmp_path))
    assert proc.returncode == 1


def test_reconstruct_truncated_input_is_usage(tmp_path):
    import numpy as np

    from metivier.fieldio import write_field
    from metivier.grids import polar_grid, sample

    f = sample(lambda z: np.abs(z[..., 0]), polar_grid(1, 8, 8, 4.0))
    whole = tmp_path / "whole.field"
    write_field(f, whole)
    raw = whole.read_bytes()
    truncated = tmp_path / "truncated.field"
    # dropping the last base64 quartet leaves valid base64 whose byte count
    # is not a whole number of complex128 values
    truncated.write_bytes(raw[: len(raw) - 5])
    proc = run_cli("reconstruct", "--input", str(truncated), "--output", str(tmp_path))
    assert proc.returncode == 1
    assert proc.stderr.startswith("metivier reconstruct:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("argv, config", [
    (["reconstruct", "--input", "{input}", "--atoms", '[["a", 1]]'], None),
    (["reconstruct", "--input", "{input}", "--atoms", "[[null, 1]]"], None),
    (["reconstruct", "--input", "{input}", "--atoms", "[[NaN, 1]]"], None),
    (["radii", "--r1", "1", "--r2", "2", "--tol", "-1"], None),
    (["radii", "--r1", "1", "--r2", "2", "--tol", "nan"], None),
    (["radii", "--r1", "nan", "--r2", "1"], None),
    (["radii", "--r1", "1", "--r2", "2", "--k", "-2"], None),
    (["radii", "--r1", "1", "--r2", "2", "--lam", "1,2", "--n", "2", "--k", "0"], None),
    (["radii", "--r1", "1.3", "--r2", "1", "--k", "501"], None),
    (["radii", "--r1", "1", "--r2", "2", "--lam", "1,2", "--n", "2", "--k", "300"], None),
    (["spectrum", "--structure", "quaternionic", "--lam", "nan,0,0"], None),
    (["radii"], {"r1": 1, "r2": 2, "k": "x"}),
    (["radii"], {"r1": "abc", "r2": 2}),
    (["radii"], {"r1": 1, "r2": 2, "k": 2.5}),
    (["radii"], {"r1": 1, "r2": 2, "tol": None}),
    (["reconstruct", "--input", "{input}"], {"k": "x"}),
    (["counterexample"], {"l": "one"}),
    (["verify"], {"eigen-tolerance": "Infinity"}),
], ids=["atom-text", "atom-null", "atom-nan", "tol-negative", "tol-nan", "radius-nan",
        "k-negative", "k-zero-anisotropic", "k-past-bound", "k-past-bound-anisotropic", "lam-nan",
        "config-k-text", "config-radius-text", "config-k-fraction", "config-tol-null",
        "config-reconstruct-k-text", "config-l-text", "config-eigen-tolerance-infinite"])
def test_bad_numeric_input_is_a_usage_error(tmp_path, argv, config):
    import numpy as np

    from metivier.fieldio import write_field
    from metivier.grids import polar_grid, sample

    input_path = tmp_path / "input.field"
    write_field(sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), polar_grid(1, 8, 8, 4.0)),
                input_path)
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv = argv + ["--config", str(cfg)]
    proc = run_cli(*[a.replace("{input}", str(input_path)) for a in argv],
                   "--output", str(tmp_path))
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert proc.stderr.startswith(f"metivier {argv[0]}:")
    assert "Traceback" not in proc.stderr


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"structure": "heisenberg:1", "lam": [1.0],
                               "output": str(tmp_path / "from_config")}))
    proc = run_cli("spectrum", "--config", str(cfg))
    assert proc.returncode == 0, proc.stderr
    report = json.loads((tmp_path / "from_config" / "spectrum.json").read_text())
    assert report["lam"] == [1.0]
    # an explicit flag overrides the config value
    proc2 = run_cli("spectrum", "--config", str(cfg), "--lam", "3.0",
                    "--output", str(tmp_path / "flagged"))
    assert proc2.returncode == 0, proc2.stderr
    report2 = json.loads((tmp_path / "flagged" / "spectrum.json").read_text())
    assert report2["lam"] == [3.0]
    assert report2["mu"] == pytest.approx([3.0])


def test_malformed_config_is_usage(tmp_path):
    cfg = tmp_path / "bad.json"
    cfg.write_text("{not json")
    proc = run_cli("radii", "--config", str(cfg), "--r1", "1", "--r2", "2",
                   "--output", str(tmp_path))
    assert proc.returncode == 1


def test_thread_cap_env_validation(tmp_path):
    proc = run_cli("radii", "--r1", "1.0", "--r2", "2.0", "--k", "4",
                   "--output", str(tmp_path), env_extra={"METIVIER_THREADS": "bogus"})
    assert proc.returncode == 1
    assert "METIVIER_THREADS" in proc.stderr
    proc2 = run_cli("radii", "--r1", "1.0", "--r2", "2.0", "--k", "4",
                    "--output", str(tmp_path), env_extra={"METIVIER_THREADS": "1"})
    assert proc2.returncode == 0


def test_thread_cap_is_set_before_numpy_loads():
    # OpenBLAS reads OPENBLAS_NUM_THREADS once, when numpy is first imported
    probe = "\n".join([
        "import os, sys",
        "seen = []",
        "class Probe:",
        "    def find_spec(self, name, path=None, target=None):",
        "        if name == 'numpy' and not seen:",
        "            seen.append(os.environ.get('OPENBLAS_NUM_THREADS'))",
        "sys.meta_path.insert(0, Probe())",
        "import metivier.cli",
        "print(seen)",
    ])
    env = {k: v for k, v in os.environ.items() if not k.endswith("_THREADS")}
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env={**env, "METIVIER_THREADS": "3"})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "['3']"
    # a bad value is left for the command line to report
    proc = subprocess.run([sys.executable, "-c", "import metivier"], capture_output=True,
                          text=True, env={**env, "METIVIER_THREADS": "bogus"})
    assert proc.returncode == 0, proc.stderr


USAGE_ERRORS = {"DimensionMismatch", "NotSkewSymmetric", "DependentStructureMatrices",
                "MalformedFile", "VersionMismatch", "UnsupportedDimension", "OutOfDomain"}
PRECONDITION_ERRORS = {"SingularPencil", "NonConvergence", "NoUsableRadius",
                       "InadmissibleRadii", "GridTooCoarse", "TruncationDominates",
                       "NotHomogeneous", "NyquistViolation", "RangeExceeded",
                       "NonFiniteValue", "GridMismatch"}


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def _raising(exc):
    def command(args, config):
        raise exc
    return command


def test_every_error_class_carries_its_exit_code(monkeypatch):
    from metivier import cli, errors

    classes = list(_subclasses(errors.MetivierError))
    assert {cls.__name__ for cls in classes} == USAGE_ERRORS | PRECONDITION_ERRORS
    want = {**{name: 1 for name in USAGE_ERRORS}, **{name: 2 for name in PRECONDITION_ERRORS},
            "UsageError": 1, "IdentityFailure": 3}
    for cls in classes + [cli.UsageError, cli.IdentityFailure]:
        assert cls.exit_code == want[cls.__name__]
        monkeypatch.setitem(cli._COMMANDS, "radii", _raising(cls.__new__(cls)))
        assert cli.main(["radii"]) == want[cls.__name__]
    # an exception without exit_code propagates
    for exc in (ZeroDivisionError(), errors.MetivierError()):
        monkeypatch.setitem(cli._COMMANDS, "radii", _raising(exc))
        with pytest.raises(type(exc)):
            cli.main(["radii"])
