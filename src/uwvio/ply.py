"""Minimal PLY reader/writer for sparse point clouds.

Reads binary little-endian and ASCII vertex-only files with x/y/z and
optional red/green/blue, nx/ny/nz and quality properties; writes binary
little-endian files with float32 x/y/z, optional uint8 red/green/blue and
optional float32 quality.
"""

import os

import numpy as np

from .errors import InputError

_PLY_TYPES = {
    "float": "<f4", "float32": "<f4", "double": "<f8", "float64": "<f8",
    "uchar": "u1", "uint8": "u1", "char": "i1", "int8": "i1",
    "short": "<i2", "ushort": "<u2", "int": "<i4", "uint": "<u4",
    "int32": "<i4", "uint32": "<u4",
}


def write_ply(path, points, colors=None, quality=None):
    """Write a binary little-endian vertex-only PLY file; returns the vertex
    count. Points are stored as float32, colours as uint8: a colour that is
    not finite or lies outside [0, 255] is a ValueError, and nothing is
    written."""
    points = np.asarray(points).reshape(-1, 3)
    fields, props, values = [("xyz", "<f4", 3)], ["float x", "float y", "float z"], [points]
    if colors is not None:
        colors = np.asarray(colors).reshape(-1, 3)
        if colors.size and not (colors.min() >= 0 and colors.max() <= 255):  # nan fails
            raise ValueError("colours must be finite and within [0, 255]")
        fields.append(("rgb", "u1", 3))
        props += ["uchar red", "uchar green", "uchar blue"]
        values.append(colors)
    if quality is not None:
        fields.append(("quality", "<f4"))
        props.append("float quality")
        values.append(np.asarray(quality).reshape(-1))
    # each input is cast as it is stored: no converted copy, one pass per field
    rec = np.empty(len(points), dtype=fields)
    for (name, *_), value in zip(fields, values):
        rec[name] = value
    header = "\n".join(["ply", "format binary_little_endian 1.0",
                        f"element vertex {len(points)}"]
                       + [f"property {p}" for p in props] + ["end_header", ""])
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        f.write(rec.data)
    return len(points)


def _read_header(path, f):
    """Format, vertex count and vertex properties of the PLY header that
    ``f`` is at; leaves ``f`` at the first data byte."""
    fmt, n_vertices, props, in_vertex = None, None, {}, False
    for line in f:
        text = line.decode("ascii", errors="replace").strip()
        tokens = text.split()
        if not tokens:
            continue
        try:
            if tokens[0] == "end_header":
                return fmt, n_vertices, props
            if tokens[0] == "format":
                fmt = tokens[1]
            elif tokens[0] == "element":
                in_vertex = tokens[1] == "vertex"
                if in_vertex:
                    n_vertices = int(tokens[2])
                    if n_vertices < 0:
                        raise ValueError("negative count")
                elif n_vertices is None:  # its data would come first
                    raise InputError(f"{path}: element {tokens[1]} before vertex unsupported")
            elif tokens[0] == "property" and in_vertex:
                if tokens[1] == "list":
                    raise InputError(f"{path}: list properties unsupported")
                if tokens[1] not in _PLY_TYPES:
                    raise InputError(f"{path}: unknown property type {tokens[1]}")
                if tokens[2] in props:
                    raise ValueError("repeated property")
                props[tokens[2]] = _PLY_TYPES[tokens[1]]
        except (ValueError, IndexError):  # a short line, a bad count or name
            raise InputError(f"{path}: bad PLY header line {text!r}") from None
    raise InputError(f"{path}: unterminated PLY header")


def read_ply(path):
    """Read a vertex-only PLY file into a dict of named arrays.

    Always contains "points" (n, 3); may contain "colors", "normals",
    "quality". Any malformed header or vertex data, a non-finite x/y/z
    among it, is an `InputError` naming the file.
    """
    with open(path, "rb") as f:
        if f.readline().strip() != b"ply":
            raise InputError(f"{path}: not a PLY file")
        fmt, n_vertices, props = _read_header(path, f)
        if fmt not in ("ascii", "binary_little_endian"):
            raise InputError(f"{path}: unsupported format {fmt}")
        if n_vertices is None:
            raise InputError(f"{path}: no vertex element")
        if not {"x", "y", "z"} <= props.keys():
            raise InputError(f"{path}: missing x/y/z properties")
        dtype = np.dtype(list(props.items()))
        if fmt == "binary_little_endian":
            size = dtype.itemsize * n_vertices
            # checked before reading, so the header cannot size an allocation
            if size > os.fstat(f.fileno()).st_size - f.tell():
                raise InputError(f"{path}: truncated vertex data")
            rec = np.frombuffer(f.read(size), dtype=dtype, count=n_vertices)
        else:
            rows = []
            for _ in range(n_vertices):
                line = f.readline()
                if not line:
                    raise InputError(f"{path}: truncated vertex data")
                rows.append(tuple(line.split()))
            try:
                rec = np.array(rows, dtype=dtype)
            except (ValueError, OverflowError) as exc:
                raise InputError(f"{path}: bad vertex data: {exc}") from None

    out = {"points": np.column_stack([rec["x"], rec["y"], rec["z"]]).astype(float)}
    if not np.isfinite(out["points"]).all():
        raise InputError(f"{path}: non-finite vertex coordinate")
    if {"red", "green", "blue"} <= props.keys():
        out["colors"] = np.column_stack([rec["red"], rec["green"], rec["blue"]])
    if {"nx", "ny", "nz"} <= props.keys():
        out["normals"] = np.column_stack([rec["nx"], rec["ny"], rec["nz"]]).astype(float)
    if "quality" in props:
        out["quality"] = np.asarray(rec["quality"], dtype=float)
    return out
