import numpy as np
import pytest

from uwvio.errors import InputError
from uwvio.ply import read_ply, write_ply


def test_binary_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    pts = rng.normal(size=(50, 3))
    colors = rng.integers(0, 256, size=(50, 3))
    quality = rng.uniform(size=50)
    path = tmp_path / "a.ply"
    n = write_ply(path, pts, colors=colors, quality=quality)
    assert n == 50
    back = read_ply(path)
    assert np.allclose(back["points"], pts.astype(np.float32))
    assert np.array_equal(back["colors"], colors)
    assert np.allclose(back["quality"], quality.astype(np.float32))


@pytest.mark.parametrize("bad", [300, -1, np.nan, np.inf])
def test_write_rejects_colours_outside_uchar(tmp_path, bad):
    colors = np.zeros((2, 3))
    colors[1, 2] = bad
    path = tmp_path / "a.ply"
    with pytest.raises(ValueError, match=r"within \[0, 255\]"):
        write_ply(path, np.zeros((2, 3)), colors=colors)
    assert not path.exists()


def test_ascii_round_trip(tmp_path):
    path = tmp_path / "a.ply"
    path.write_text("ply\nformat ascii 1.0\nelement vertex 2\nproperty float x\n"
                    "property float y\nproperty float z\nend_header\n"
                    "1 2 3\n-4 5.5 0.25\n")
    back = read_ply(path)
    assert np.allclose(back["points"], [[1.0, 2.0, 3.0], [-4.0, 5.5, 0.25]])
    assert back.get("colors") is None


def test_normals_round_trip(tmp_path):
    rec = np.zeros(3, dtype=[(c, "<f4") for c in ("x", "y", "z", "nx", "ny", "nz")])
    rec["nz"] = 1.0
    header = "".join(f"property float {c}\n" for c in rec.dtype.names)
    path = tmp_path / "n.ply"
    path.write_bytes(f"ply\nformat binary_little_endian 1.0\nelement vertex 3\n"
                     f"{header}end_header\n".encode() + rec.tobytes())
    back = read_ply(path)
    assert np.allclose(back["normals"], np.tile([0.0, 0.0, 1.0], (3, 1)))


def test_empty_cloud(tmp_path):
    path = tmp_path / "e.ply"
    n = write_ply(path, np.empty((0, 3)))
    assert n == 0
    back = read_ply(path)
    assert back["points"].shape == (0, 3)


XYZ = "property float x\nproperty float y\nproperty float z\n"


@pytest.mark.parametrize("header, data", [
    (f"format ascii 1.0\nelement vertex 1.5\n{XYZ}", b"1 2 3\n"),
    (f"format ascii 1.0\nelement vertex 1\n{XYZ}", b"1 2 q\n"),
    (f"format ascii 1.0\nelement vertex 1\n{XYZ}", b"1 2\n"),
    (f"format\nelement vertex 1\n{XYZ}", b"1 2 3\n"),
    (f"format binary_little_endian 1.0\nelement vertex -1\n{XYZ}", b""),
    (f"format binary_little_endian 1.0\nelement vertex 1\n{XYZ}property float x\n",
     bytes(16)),
    (f"format binary_little_endian 1.0\nelement vertex {10 ** 12}\n{XYZ}", bytes(12)),
    (f"format binary_little_endian 1.0\nelement vertex 2\n{XYZ}", bytes(23)),
    (f"format ascii 1.0\nelement vertex {10 ** 12}\n{XYZ}", b"1 2 3\n"),
    (f"format binary_little_endian 1.0\nelement face 1\nproperty uchar flag\n"
     f"element vertex 1\n{XYZ}", bytes(13)),
    (f"format binary_little_endian 1.0\nelement vertex 1\n{XYZ}",
     np.array([np.nan, 0, 0], "<f4").tobytes()),
    (f"format ascii 1.0\nelement vertex 2\n{XYZ}", b"1 2 3\n0 -inf 0\n"),
], ids=["count-1.5", "field-q", "short-row", "bare-format", "count--1",
        "repeated-property", "count-1e12", "truncated", "ascii-count-1e12",
        "face-before-vertex", "binary-nan", "ascii-inf"])
def test_malformed_ply_is_input_error(tmp_path, header, data):
    path = tmp_path / "bad.ply"
    path.write_bytes(f"ply\n{header}end_header\n".encode() + data)
    with pytest.raises(InputError, match=f"^{path}: "):
        read_ply(path)
