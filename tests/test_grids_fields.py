"""Grids, quadrature, sampling, off-grid evaluation, sphere rules, field IO."""

import json

import numpy as np
import pytest

from metivier.errors import (
    DimensionMismatch,
    GridMismatch,
    MalformedFile,
    NonFiniteValue,
    OutOfDomain,
    VersionMismatch,
)
from metivier.fieldio import export_radial_slice_csv, read_field, write_field
from metivier.grids import (
    FieldEvaluator,
    angular_mode_coefficients,
    build_sphere_rule,
    default_grid,
    inner_product,
    polar_grid,
    sample,
    sample_periodic,
    values_from_mode_coefficients,
)
from metivier.special import phi_k


def test_gaussian_integral_n1():
    g = polar_grid(1, 48, 64, 8.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    total = np.sum(g.quadrature_weights() * f.values).real
    assert total == pytest.approx(np.pi, abs=1e-8)


def test_gaussian_integral_n2():
    g = polar_grid(2, 32, 8, 7.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)), g)
    total = np.sum(g.quadrature_weights() * f.values).real
    assert total == pytest.approx(np.pi**2, rel=1e-8)


def test_phi0_inner_product():
    # (phi_0, phi_0) = integral of e^{-|z|^2/2} over C = 2 pi
    g = default_grid(1)
    f = sample(lambda z: phi_k(0, 1, z), g)
    assert inner_product(f, f).real == pytest.approx(2 * np.pi, rel=1e-10)


def test_grid_validation():
    with pytest.raises(DimensionMismatch):
        polar_grid(1, 16, 48, 6.0)  # 48 not a power of two
    with pytest.raises(DimensionMismatch):
        polar_grid(1, 16, 2, 6.0)  # below the minimum angular count
    with pytest.raises(DimensionMismatch):
        polar_grid(0, 16, 16, 6.0)


def test_grid_equality_and_mismatch():
    a = polar_grid(1, 16, 16, 6.0)
    b = polar_grid(1, 16, 16, 6.0)
    c = polar_grid(1, 16, 16, 7.0)
    assert a == b
    f = sample(lambda z: np.abs(z[..., 0]), a)
    h = sample(lambda z: np.abs(z[..., 0]), c)
    with pytest.raises(GridMismatch):
        inner_product(f, h)


def test_sample_rejects_nonfinite():
    g = polar_grid(1, 8, 8, 4.0)
    with pytest.raises(NonFiniteValue), np.errstate(divide="ignore"):
        sample(lambda z: 1.0 / (np.abs(z[..., 0]) - np.abs(z[..., 0])), g)


def test_evaluator_reproduces_grid_nodes_exactly():
    g = polar_grid(1, 24, 32, 6.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * z[..., 0] ** 2, g)
    ev = FieldEvaluator(f)
    pts = (g.radial_nodes[0][:, None] * np.exp(1j * g.angles(0))[None, :]).reshape(-1, 1)
    got = ev(pts).reshape(f.values.shape)
    assert np.max(np.abs(got - f.values)) < 1e-13 * f.max_abs()


def test_evaluator_off_grid_accuracy():
    g = default_grid(1)
    fn = lambda z: np.exp(-np.abs(z[..., 0]) ** 2 / 2) * (1 + z[..., 0])
    f = sample(fn, g)
    ev = FieldEvaluator(f)
    rng = np.random.default_rng(11)
    pts = rng.uniform(0.1, 5.0, (50, 1)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (50, 1)))
    assert np.max(np.abs(ev(pts) - fn(pts))) < 1e-10


def test_evaluator_fill_modes():
    g = polar_grid(1, 16, 16, 3.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    outside = np.array([[4.0 + 0.0j]])
    assert FieldEvaluator(f, fill="zero")(outside)[0] == 0.0
    with pytest.raises(OutOfDomain):
        FieldEvaluator(f, fill="raise")(outside)


def test_evaluator_n2():
    g = polar_grid(2, 24, 16, 6.0)
    fn = lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 2) * z[..., 0] * np.conj(z[..., 1])
    f = sample(fn, g)
    ev = FieldEvaluator(f)
    rng = np.random.default_rng(5)
    pts = rng.uniform(0.2, 3.0, (20, 2)) * np.exp(1j * rng.uniform(0, 2 * np.pi, (20, 2)))
    assert np.max(np.abs(ev(pts) - fn(pts))) < 1e-9


def test_evaluator_n3_reproduces_grid_samples():
    g = polar_grid(3, 6, 4, 4.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 2)
               * (1 + z[..., 0] * np.conj(z[..., 1]) + z[..., 2]), g)
    z = np.stack(np.broadcast_arrays(*g.coordinate_axes()), axis=-1).reshape(-1, 3)
    got = FieldEvaluator(f)(z).reshape(g.shape)
    assert np.max(np.abs(got - f.values)) < 1e-13 * f.max_abs()


def test_angular_transforms_leave_their_input_unchanged():
    g = polar_grid(2, 6, 8, 4.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1)) * (1 + z[..., 0]), g)
    values = f.values.copy()
    fhat = angular_mode_coefficients(f)
    assert np.array_equal(f.values, values)
    modes = fhat.copy()
    back = values_from_mode_coefficients(g, fhat)
    assert np.array_equal(fhat, modes)
    assert np.max(np.abs(back - values)) < 1e-14 * f.max_abs()


def test_evaluator_band_is_relative_to_the_field_peak():
    # the kept angular modes are those above 1e-13 of the largest mode
    # amplitude, so scaling the field keeps the same band
    g = polar_grid(2, 12, 16, 6.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 2)
               * (1 + z[..., 0] ** 3 + 1e-6 * np.conj(z[..., 1]) ** 2), g)
    want = [m.tolist() for m in FieldEvaluator(f).modes]
    assert want == [[0, 3], [0, -2]]
    for scale in (1e-9, 1e9):
        assert [m.tolist() for m in FieldEvaluator(f.with_values(scale * f.values)).modes] == want


def test_evaluator_band_matches_the_per_axis_cut():
    # non-separable n = 2 field: the band of each angle depends on the other
    g = polar_grid(2, 12, 16, 6.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1))
               * (1 + z[..., 0] ** 3 * np.conj(z[..., 1]) + 1e-9 * z[..., 1] ** 2
                  + 1e-15 * np.conj(z[..., 0]) ** 5 * z[..., 1] ** 3), g)
    # the band cut one angular axis after another, each on what the earlier
    # axes kept
    fhat = angular_mode_coefficients(f)
    gmax = np.max(np.abs(fhat))
    modes = []
    for j in range(2):
        axis = 2 * j + 1
        amp = np.max(np.abs(fhat), axis=tuple(a for a in range(4) if a != axis))
        keep = np.flatnonzero(amp >= 1e-13 * gmax)
        modes.append(np.fft.fftfreq(16, d=1.0 / 16).astype(int)[keep])
        fhat = np.take(fhat, keep, axis=axis)
    ev = FieldEvaluator(f)
    assert [m.tolist() for m in ev.modes] == [m.tolist() for m in modes]
    # mode 3 of the second angle lives only under the dropped mode -5 of the first
    assert [sorted(m.tolist()) for m in modes] == [[0, 3], [-1, 0, 2]]
    assert np.array_equal(ev.fhat, fhat)


def test_norm2_matches_the_product_rule():
    g = polar_grid(2, 10, 8, 5.0)
    f = sample(lambda z: np.exp(-np.sum(np.abs(z) ** 2, axis=-1) / 3) * (z[..., 0] + 2j * z[..., 1] ** 2), g)
    want = np.sqrt(np.sum(g.quadrature_weights() * np.abs(f.values) ** 2))
    assert f.norm2() == pytest.approx(want, rel=1e-14)
    assert f.norm2() == pytest.approx(np.sqrt(inner_product(f, f).real), rel=1e-14)


def test_sphere_rule_circle_moments():
    # n = 1: the rule is the uniform circle measure; angular monomials average
    # to zero and |w|^2 is constant
    rule = build_sphere_rule(1, 1.3, 64)
    assert rule.weights.sum() == pytest.approx(1.0, abs=1e-14)
    w = rule.nodes[:, 0]
    for m in range(1, 5):
        assert abs(np.sum(rule.weights * w**m)) < 1e-13
    assert np.sum(rule.weights * np.abs(w) ** 2) == pytest.approx(1.3**2, rel=1e-13)


def test_sphere_rule_n2_consistency():
    # doubling the order does not change smooth integrals (exactness check)
    fn = lambda w: np.exp(w[:, 0].real) * (1 + np.abs(w[:, 1]) ** 2) + (w[:, 0] * np.conj(w[:, 1])).real
    r = 1.1
    lo = build_sphere_rule(2, r, 16)
    hi = build_sphere_rule(2, r, 32)
    a = np.sum(lo.weights * fn(lo.nodes))
    b = np.sum(hi.weights * fn(hi.nodes))
    assert abs(a - b) < 1e-10 * max(1.0, abs(b))
    assert np.all(np.abs(np.abs(lo.nodes[:, 0]) ** 2 + np.abs(lo.nodes[:, 1]) ** 2 - r**2) < 1e-12)


def test_field_io_bit_identical_round_trip(tmp_path):
    g = default_grid(1)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2) * (1 + 1j * z[..., 0]), g,
               metadata="round trip")
    path = tmp_path / "f.field"
    write_field(f, path)
    back = read_field(path)
    assert back.grid == f.grid
    assert back.metadata == f.metadata
    assert np.array_equal(back.values, f.values)
    # a second write is byte-identical
    path2 = tmp_path / "f2.field"
    write_field(back, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_field_io_complex64(tmp_path):
    g = polar_grid(1, 8, 8, 4.0)
    f = sample(lambda z: np.exp(-np.abs(z[..., 0]) ** 2), g)
    path = tmp_path / "f32.field"
    write_field(f, path, dtype="complex64")
    back = read_field(path)
    assert np.max(np.abs(back.values - f.values)) < 1e-6


def test_field_io_malformed(tmp_path):
    g = polar_grid(1, 8, 8, 4.0)
    f = sample(lambda z: np.abs(z[..., 0]), g)
    path = tmp_path / "f.field"
    write_field(f, path)
    raw = path.read_bytes()
    truncated = tmp_path / "trunc.field"
    truncated.write_bytes(raw[: len(raw) // 2])
    with pytest.raises(MalformedFile):
        read_field(truncated)
    garbled = tmp_path / "garbled.field"
    garbled.write_bytes(b"not json\n" + raw.split(b"\n", 1)[1])
    with pytest.raises(MalformedFile):
        read_field(garbled)
    bumped = tmp_path / "versioned.field"
    head, rest = raw.split(b"\n", 1)
    bumped.write_bytes(head.replace(b'"version": 1', b'"version": 99') + b"\n" + rest)
    with pytest.raises((VersionMismatch, MalformedFile)):
        read_field(bumped)


def _small_field_bytes(tmp_path, periodic=False):
    """The 8x8 field file of test_field_io_malformed (or a periodic variant)."""
    g = polar_grid(1, 8, 8, 4.0)
    if periodic:
        f = sample_periodic(lambda z, t: np.abs(z[..., 0]) * np.cos(t[0]), g, [4])
    else:
        f = sample(lambda z: np.abs(z[..., 0]), g)
    path = tmp_path / "small.field"
    write_field(f, path)
    return path.read_bytes()


def test_field_io_every_truncation_is_malformed(tmp_path):
    raw = _small_field_bytes(tmp_path)
    cut = tmp_path / "cut.field"
    # every cut before the final newline loses header or payload bytes
    for k in range(len(raw) - 1):
        cut.write_bytes(raw[:k])
        with pytest.raises(MalformedFile):
            read_field(cut)


def test_field_io_any_0xff_byte_gives_a_typed_error(tmp_path):
    raw = _small_field_bytes(tmp_path)
    bad = tmp_path / "bad.field"
    for k in range(len(raw)):
        bad.write_bytes(raw[:k] + b"\xff" + raw[k + 1:])
        try:
            read_field(bad)
        except (MalformedFile, VersionMismatch):
            pass


@pytest.mark.parametrize("periodic, key, value, message", [
    (False, "count", None, "'count' must be a non-negative integer"),
    (False, "count", "64", "'count' must be a non-negative integer"),
    (False, "count", 63, "payload holds 1024 bytes"),
    (False, "dtype", ["complex128"], "unsupported dtype"),
    (False, "metadata", {"a": 1}, "metadata must be a string"),
    (False, "kind", "sphere", "unknown kind"),
    (True, "m", None, "'m' must be a non-negative integer"),
    (True, "center_counts", ["four"], "center_counts must be a list of integers"),
    (True, "center_counts", [2, 2], "invalid periodic file: center_counts must have length m"),
    (False, "grid.radial_nodes", [[]], "invalid grid header"),
    (False, "grid.radial_weights", [[1.0]], "invalid grid header"),
    (False, "grid.n", 1e400, "invalid grid header"),
    (False, "grid.angular_counts", [6], "invalid grid header: angular count 6"),
], ids=["count-missing", "count-string", "count-short", "dtype-list", "metadata-dict",
        "kind-unknown", "m-missing", "center-counts-string", "center-counts-length",
        "grid-nodes-empty", "grid-weights-short", "grid-n-overflow", "grid-angles-not-pow2"])
def test_field_io_ill_typed_header_is_malformed(tmp_path, periodic, key, value, message):
    head, body = _small_field_bytes(tmp_path, periodic).split(b"\n", 1)
    header = json.loads(head)
    *parents, leaf = key.split(".")
    target = header
    for name in parents:
        target = target[name]
    if value is None:
        del target[leaf]
    else:
        target[leaf] = value
    bad = tmp_path / "bad.field"
    bad.write_bytes(json.dumps(header).encode() + b"\n" + body)
    with pytest.raises(MalformedFile, match=message):
        read_field(bad)


def test_field_io_deeply_nested_header_is_malformed(tmp_path):
    bad = tmp_path / "deep.field"
    bad.write_bytes(b"[" * 100000 + b"\n")
    with pytest.raises(MalformedFile):
        read_field(bad)


def test_radial_slice_csv(tmp_path):
    g = polar_grid(1, 8, 8, 4.0)
    f = sample(lambda z: z[..., 0], g)
    path = tmp_path / "slice.csv"
    export_radial_slice_csv(f, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("r,")
    assert len(lines) == 9


def test_periodic_field_sampling():
    g = polar_grid(1, 8, 8, 4.0)
    pf = sample_periodic(lambda z, t: np.exp(-np.abs(z[..., 0]) ** 2) * np.cos(t[0]), g, [8])
    assert pf.values.shape == g.shape + (8,)
    assert pf.center_angles(0)[1] == pytest.approx(2 * np.pi / 8)
