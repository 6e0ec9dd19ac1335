"""Byte-level fuzz of the text readers: any flip or truncation of a valid
TUM trajectory, tag CSV or IMU CSV either loads or raises InputError."""

import tempfile
from pathlib import Path

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from uwvio.errors import InputError  # noqa: E402
from uwvio.sync import load_imu_csv  # noqa: E402
from uwvio.traj_eval import load_tag_csv, load_tum  # noqa: E402

VALID = {
    "tum": (load_tum, b"# t tx ty tz qx qy qz qw\n"
                      b"0.000000000 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n"
                      b"0.050000000 1.1 2.0 3.0 0.0 0.0 0.1 0.995\n"
                      b"0.100000000 1.2 2.1 2.9 0.0 0.1 0.1 0.99\n"),
    "tags": (load_tag_csv, b"t,tag_id,px,py,pz\n"
                           b"0.010000,3,0.5,-0.2,2.0\n"
                           b"0.060000,3,0.4,-0.1,2.1\n"
                           b"0.090000,7,-1.0,0.3,1.8\n"),
    "imu": (load_imu_csv, b"t,ax,ay,az,gx,gy,gz\n"
                          b"0.000000000,0.1,0.2,9.8,0.01,0.02,0.03\n"
                          b"0.005000000,0.1,0.2,9.8,0.01,0.02,0.03\n"
                          b"0.010000000,0.1,0.2,9.8,0.01,0.02,0.03\n"),
}

# an input cut down to no data rows is valid; numpy warns about it
pytestmark = pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")


@st.composite
def mutations(draw, base):
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(0, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data[:draw(st.integers(0, len(data)))])


@pytest.mark.parametrize("kind", sorted(VALID))
def test_reader_returns_or_raises_input_error(kind):
    loader, base = VALID[kind]

    @settings(max_examples=150, deadline=None, database=None)
    @given(mutations(base))
    def check(data):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "input"
            path.write_bytes(data)
            try:
                loader(path)
            except InputError:
                pass

    check()
