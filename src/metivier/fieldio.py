"""Field file format: one JSON header line followed by one base64 payload line.

The header records the format version, dimensions, the full grid (radial nodes
and weights are stored explicitly, so custom grids round-trip losslessly), the
value dtype, and free-form metadata.  The payload is the raw little-endian
value buffer in row-major order, base64-encoded.  complex128 is the default
and round-trips bit-for-bit; complex64 halves the file size at reduced
precision.
"""

import base64
import binascii
import json
import math

import numpy as np

from .errors import DimensionMismatch, MalformedFile, NonFiniteValue, VersionMismatch
from .grids import PeriodicField, PolarGrid, SampledField

FORMAT_VERSION = 1
_DTYPES = {"complex128": "<c16", "complex64": "<c8"}


def _grid_header(grid):
    return {
        "n": grid.n,
        "r_max": grid.r_max,
        "radial_nodes": [list(map(float, r)) for r in grid.radial_nodes],
        "radial_weights": [list(map(float, w)) for w in grid.radial_weights],
        "angular_counts": list(grid.angular_counts),
    }


def _grid_from_header(h):
    try:
        r_max = float(h["r_max"])
        nodes = tuple(np.array(r, dtype=float) for r in h["radial_nodes"])
        weights = tuple(np.array(w, dtype=float) for w in h["radial_weights"])
        radial_ok = len(nodes) == len(weights) and all(
            r.ndim == 1 and r.size > 0 and r.shape == w.shape
            and np.all(np.isfinite(r)) and np.all(np.isfinite(w))
            for r, w in zip(nodes, weights)
        )
        if not (radial_ok and np.isfinite(r_max)):
            raise MalformedFile(
                "invalid grid header: r_max, radial nodes and radial weights must be "
                "finite, with one non-empty node list and one same-length weight list "
                "per coordinate"
            )
        return PolarGrid(
            int(h["n"]),
            r_max,
            nodes,
            weights,
            tuple(int(a) for a in h["angular_counts"]),
        )
    except (KeyError, TypeError, ValueError, OverflowError, DimensionMismatch) as exc:
        raise MalformedFile(f"invalid grid header: {exc}") from exc


def _header_int(header, key):
    value = header.get(key)
    if type(value) is not int or value < 0:
        raise MalformedFile(f"header {key!r} must be a non-negative integer, got {value!r}")
    return value


def write_field(field, path, dtype="complex128"):
    """Write a SampledField or PeriodicField to `path`."""
    if dtype not in _DTYPES:
        raise MalformedFile(f"unsupported dtype {dtype!r}; use complex128 or complex64")
    header = {
        "version": FORMAT_VERSION,
        "kind": "periodic" if isinstance(field, PeriodicField) else "field",
        "grid": _grid_header(field.grid),
        "metadata": field.metadata,
        "dtype": dtype,
        "count": int(field.values.size),
    }
    if isinstance(field, PeriodicField):
        header["m"] = field.m
        header["center_counts"] = list(field.center_counts)
    payload = np.ascontiguousarray(field.values).astype(_DTYPES[dtype]).tobytes()
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        fh.write(base64.b64encode(payload).decode("ascii") + "\n")


def read_field(path):
    """Read a field file, returning a SampledField or PeriodicField.

    Raises VersionMismatch if the header declares a format version other
    than FORMAT_VERSION, and MalformedFile for any other departure from the
    layout: a header line that is not UTF-8 JSON, a missing or ill-typed
    key, a grid the header cannot describe, a payload that is not base64 or
    whose length is not count times the dtype's item size, or values that
    do not fill the grid (times the center counts) with finite numbers.
    OSError from opening or reading the file passes through.
    """
    with open(path, "rb") as fh:
        head_line = fh.readline()
        body_line = fh.readline()
    if not head_line.strip():
        raise MalformedFile("empty file: missing header line")
    try:
        header = json.loads(head_line.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"header line is not UTF-8 at byte {exc.start}") from exc
    except json.JSONDecodeError as exc:
        raise MalformedFile(f"header line is not valid JSON at char {exc.pos}") from exc
    except RecursionError as exc:
        raise MalformedFile("header line nests too deeply") from exc
    if not isinstance(header, dict):
        raise MalformedFile("header must be a JSON object")
    version = header.get("version")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"file version {version!r}, this reader supports {FORMAT_VERSION}")
    dtype = header.get("dtype")
    if not isinstance(dtype, str) or dtype not in _DTYPES:
        raise MalformedFile(f"unsupported dtype {dtype!r}")
    grid = _grid_from_header(header.get("grid", {}))
    count = _header_int(header, "count")
    try:
        raw = base64.b64decode(body_line.strip(), validate=True)
    except binascii.Error as exc:
        raise MalformedFile(f"payload is not valid base64: {exc}") from exc
    expected = count * np.dtype(_DTYPES[dtype]).itemsize
    if len(raw) != expected:
        raise MalformedFile(
            f"payload holds {len(raw)} bytes, header declares {count} {dtype} "
            f"values ({expected} bytes)"
        )
    values = np.frombuffer(raw, dtype=_DTYPES[dtype])
    metadata = header.get("metadata", "")
    if not isinstance(metadata, str):
        raise MalformedFile(f"metadata must be a string, got {type(metadata).__name__}")
    kind = header.get("kind", "field")
    if kind == "periodic":
        m = _header_int(header, "m")
        center_counts = header.get("center_counts")
        if not isinstance(center_counts, list) or any(type(c) is not int for c in center_counts):
            raise MalformedFile(f"center_counts must be a list of integers, got {center_counts!r}")
        shape = grid.shape + tuple(center_counts)
    elif kind == "field":
        shape = grid.shape
    else:
        raise MalformedFile(f"unknown kind {kind!r}")
    if math.prod(shape) != count:
        raise MalformedFile(
            f"header declares {count} values, {kind} shape {shape} holds {math.prod(shape)}"
        )
    values = values.reshape(shape).astype(complex)
    try:
        if kind == "periodic":
            return PeriodicField(grid, m, tuple(center_counts), values, metadata)
        return SampledField(grid, values, metadata)
    except (DimensionMismatch, NonFiniteValue) as exc:
        raise MalformedFile(f"invalid {kind} file: {exc}") from exc


def export_radial_slice_csv(field, path):
    """Write a CSV of the field along the first radial axis, with every other
    axis at index 0.  Columns: r, re, im."""
    g = field.grid
    sl = field.values[(slice(None),) + (0,) * (field.values.ndim - 1)]
    with open(path, "w") as fh:
        fh.write("r,re,im\n")
        for r, v in zip(g.radial_nodes[0], sl):
            fh.write(f"{r!r},{v.real!r},{v.imag!r}\n")
