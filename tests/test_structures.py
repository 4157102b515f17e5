"""Structure validation, Metivier probing, symplectic normal forms, rotations."""

import numpy as np
import pytest

from metivier.errors import (
    DependentStructureMatrices,
    DimensionMismatch,
    MalformedFile,
    NotSkewSymmetric,
    SingularPencil,
)
from metivier.grids import polar_grid, sample
from metivier.structures import (
    MetivierStructure,
    builtin_structure,
    complex_from_real,
    metivier_check,
    read_structure,
    real_from_complex,
    rotate_field,
    symplectic_spectrum,
    v_lambda,
    validate_structure,
    write_structure,
)

STRUCTURES = ["heisenberg:2", "quaternionic", "anisotropic"]


def test_validation_rejects_non_skew():
    u = np.zeros((1, 2, 2))
    u[0, 0, 1] = 1.0  # not skew: missing the -1
    with pytest.raises(NotSkewSymmetric):
        validate_structure(1, 1, u)


def test_validation_rejects_dependent_matrices():
    j = builtin_structure("heisenberg:1").u[0]
    with pytest.raises(DependentStructureMatrices):
        validate_structure(1, 2, np.stack([j, 2 * j]))


def test_builtin_names():
    with pytest.raises(MalformedFile):
        builtin_structure("no-such-structure")
    st = builtin_structure("heisenberg:3")
    assert (st.n, st.m) == (3, 1)


def test_structure_io_round_trip(tmp_path):
    st = builtin_structure("quaternionic")
    path = tmp_path / "structure.json"
    write_structure(st, path)
    back = read_structure(path)
    assert (back.n, back.m) == (st.n, st.m)
    assert np.array_equal(back.u, st.u)


def test_structure_io_any_0xff_byte_is_malformed(tmp_path):
    # 0xff is never valid UTF-8, wherever it lands
    path = tmp_path / "structure.json"
    write_structure(builtin_structure("heisenberg:1"), path)
    data = path.read_bytes()
    for i in range(len(data)):
        path.write_bytes(data[:i] + b"\xff" + data[i + 1:])
        with pytest.raises(MalformedFile):
            read_structure(path)


@pytest.mark.parametrize("text", ["[1, 2]", "7", '"n"', "null", '{"n": 1e400, "m": 1, "u": []}',
                                  "[" * 100000])
def test_structure_io_non_object_or_overflow_is_malformed(tmp_path, text):
    path = tmp_path / "structure.json"
    path.write_text(text)
    with pytest.raises(MalformedFile):
        read_structure(path)


def test_metivier_check_accepts_and_rejects():
    for name in STRUCTURES:
        report = metivier_check(builtin_structure(name))
        assert report.is_metivier_on_probes
        assert report.min_abs_det > 1e-10
    report = metivier_check(builtin_structure("product-counterexample"))
    assert not report.is_metivier_on_probes
    # the probe that kills it is an axis direction where one block vanishes
    assert report.min_abs_det < 1e-10


def test_normal_form_invariants_seeded():
    rng = np.random.default_rng(17)
    for name in STRUCTURES:
        st = builtin_structure(name)
        for _ in range(100):
            lam = rng.standard_normal(st.m)
            if np.linalg.norm(lam) < 1e-3:
                continue
            spec = symplectic_spectrum(st, lam)
            a = spec.a
            assert np.max(np.abs(a.T @ a - np.eye(2 * st.n))) <= 1e-10
            v = v_lambda(st, lam)
            assert np.max(np.abs(v @ a - a @ spec.u_normal)) <= 1e-8
            assert np.all(np.diff(spec.mu) <= 1e-12)  # descending
            assert np.all(spec.mu > 0)


def test_quaternionic_spectrum_is_isotropic():
    rng = np.random.default_rng(4)
    for _ in range(20):
        lam = rng.standard_normal(3)
        spec = symplectic_spectrum(builtin_structure("quaternionic"), lam)
        assert np.max(np.abs(spec.mu - np.linalg.norm(lam))) < 1e-10


def test_spectrum_scaling():
    st = builtin_structure("anisotropic")
    lam = np.array([0.9])
    assert symplectic_spectrum(st, [1.0]).mu == pytest.approx([2.0, 1.0], abs=1e-12)
    mu = symplectic_spectrum(st, lam).mu
    for c in (2.0, -3.5, 0.25):
        mu_c = symplectic_spectrum(st, c * lam).mu
        assert np.max(np.abs(mu_c - abs(c) * mu)) < 1e-8


def test_singular_pencil():
    st = builtin_structure("product-counterexample")
    with pytest.raises(SingularPencil):
        symplectic_spectrum(st, [1.0, 0.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_pencil_of_a_non_finite_lambda_is_rejected(bad):
    st = builtin_structure("product-counterexample")
    for call in (v_lambda, symplectic_spectrum):
        with pytest.raises(DimensionMismatch, match="finite"):
            call(st, [1.0, bad])


def test_complexification_round_trip():
    rng = np.random.default_rng(0)
    x = rng.standard_normal((7, 4))
    assert np.allclose(real_from_complex(complex_from_real(x)), x)


def test_rotate_field_forward_pointwise():
    # the forward rotation samples f along A: check it against direct
    # evaluation of the analytic expression at off-grid points
    st = builtin_structure("quaternionic")
    spec = symplectic_spectrum(st, [0.4, -0.2, 0.6])
    g = polar_grid(2, 32, 32, 6.0)
    fn = lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)) * z[..., 0]
    f = sample(fn, g)
    fr = rotate_field(f, spec, direction="forward")
    from metivier.grids import FieldEvaluator

    rng = np.random.default_rng(9)
    pts = rng.uniform(0.2, 2.0, (20, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (20, 2)))
    rotated = complex_from_real(real_from_complex(pts) @ spec.a.T)
    got = FieldEvaluator(fr)(pts)
    assert np.max(np.abs(got - fn(rotated))) < 1e-8


def test_rotate_field_round_trip():
    # round trip through an in-plane rotation (n = 1 keeps the grid small)
    st = builtin_structure("heisenberg:1")
    spec = symplectic_spectrum(st, [-0.7])
    g = polar_grid(1, 48, 64, 8.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + z[..., 0]), g)
    fr = rotate_field(f, spec, direction="forward")
    fb = rotate_field(fr, spec, direction="inverse")
    assert fb.with_values(fb.values - f.values).norm2() < 1e-9 * f.norm2()


def test_rotate_field_rejects_non_orthogonal():
    g = polar_grid(1, 8, 8, 4.0)
    f = sample(lambda z: np.abs(z[..., 0]), g)
    with pytest.raises(Exception):
        rotate_field(f, 2.0 * np.eye(2))


def test_structure_dataclass_validates():
    with pytest.raises(DimensionMismatch):
        MetivierStructure(1, 1, np.zeros((1, 3, 3)))
