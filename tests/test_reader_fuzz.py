"""Byte-level fuzz of the readers: any flip or truncation of a valid TUM
trajectory, tag CSV, IMU CSV, PLY cloud, event log or fixture MP4 either
loads or raises InputError. Every draw is derandomized, so a run tests the
same inputs each time."""

import io
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from uwvio import fixtures, mp4, sync  # noqa: E402
from uwvio.errors import InputError  # noqa: E402
from uwvio.global_map import replay_log_file  # noqa: E402
from uwvio.ply import read_ply  # noqa: E402
from uwvio.sync import load_imu_csv  # noqa: E402
from uwvio.traj_eval import load_tag_csv, load_tum  # noqa: E402


def _load_imu_both(path):
    """What `allan` reads for each ``--sensor``."""
    for sensor in sync.IMU_SENSORS:
        load_imu_csv(path, sensor)


VALID = {
    "tum": (load_tum, b"# t tx ty tz qx qy qz qw\n"
                      b"0.000000000 1.0 2.0 3.0 0.0 0.0 0.0 1.0\n"
                      b"0.050000000 1.1 2.0 3.0 0.0 0.0 0.1 0.995\n"
                      b"0.100000000 1.2 2.1 2.9 0.0 0.1 0.1 0.99\n"),
    "tags": (load_tag_csv, b"t,tag_id,px,py,pz\n"
                           b"0.010000,3,0.5,-0.2,2.0\n"
                           b"0.060000,3,0.4,-0.1,2.1\n"
                           b"0.090000,7,-1.0,0.3,1.8\n"),
    "imu": (_load_imu_both, b"t,ax,ay,az,gx,gy,gz\n"
                          b"0.000000000,0.1,0.2,9.8,0.01,0.02,0.03\n"
                          b"0.005000000,0.1,0.2,9.8,0.01,0.02,0.03\n"
                          b"0.010000000,0.1,0.2,9.8,0.01,0.02,0.03\n"),
    "ply": (read_ply, b"ply\nformat binary_little_endian 1.0\nelement vertex 2\n"
                      b"property float x\nproperty float y\nproperty float z\n"
                      b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
                      b"property float quality\nend_header\n"
                      + struct.pack("<3f3Bf", 1.0, 2.0, 3.0, 10, 20, 30, 0.5) * 2),
    "ply-ascii": (read_ply, b"ply\nformat ascii 1.0\nelement vertex 2\n"
                            b"property float x\nproperty float y\nproperty float z\n"
                            b"property uchar red\nproperty uchar green\nproperty uchar blue\n"
                            b"end_header\n1 2 3 10 20 30\n-4 5.5 0.25 0 0 255\n"),
    "events": (replay_log_file, b"# drift loop\n"
                                b"KF 0 0 0 0 0 0 0 1\n"
                                b"KF 1 1 0 0 0 0 0.1 0.995\n"
                                b"OBS 7 0 1.0 2.0 3.0 0.9 10 20 30 100 200\n"
                                b"OBS 7 1 1.1 2.0 3.0 0.5 10 20 30 101 200\n"
                                b"OBS 8 0 -1.5 0.25 4.0 1 0 255 7 12 40\n"
                                b"OBS 9 1 2.0 -3.0 0.5 0.3 64 64 64 900 1\n"
                                b"OBS 7 0 1.2 2.1 3.0 0.7 11 21 31 102 201\n"
                                b"OBS 8 1 -1.4 0.2 4.1 0 5 250 9 13 41\n"
                                b"UPD 1 1 0 0.1 0 0 0.1 0.995\n"),
}

# an input cut down to no data rows is valid; numpy warns about it
pytestmark = pytest.mark.filterwarnings("ignore:loadtxt. input contained no data")


@st.composite
def flips(draw, base, start=0):
    """``base`` with 1-4 bytes from ``start`` on overwritten."""
    data = bytearray(base)
    for _ in range(draw(st.integers(1, 4))):
        data[draw(st.integers(start, len(data) - 1))] = draw(st.integers(0, 255))
    return bytes(data)


@st.composite
def mutations(draw, base):
    data = draw(flips(base))
    return data[:draw(st.integers(0, len(data)))]


@pytest.mark.parametrize("kind", sorted(VALID))
def test_reader_returns_or_raises_input_error(kind):
    loader, base = VALID[kind]

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
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


@pytest.mark.filterwarnings("ignore:.*imu.csv.cols: ")
def test_imu_sidecar_mutations_never_raise(tmp_path):
    """Any flip or truncation of the sidecar beside a valid IMU CSV loads
    without an error and gives the parse's bits: a changed sidecar is
    passed over for the CSV, and only the sidecar as written is read."""
    csv = tmp_path / "imu.csv"
    n = 8
    sync.export_imu_csv(sync.SyncedDataset(
        imu_t=np.arange(n) / 200.0, accel=np.linspace(-1, 1, 3 * n).reshape(n, 3),
        gyro=np.linspace(0, 1e-3, 3 * n).reshape(n, 3), frame_t=np.zeros(0),
        exposure=np.zeros(0)), csv)
    sidecar = sync.imu_sidecar(csv)
    base = sidecar.read_bytes()
    sidecar.unlink()
    parsed = {sensor: load_imu_csv(csv, sensor) for sensor in sync.IMU_SENSORS}

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(mutations(base), flips(base)))
    def check(data):
        sidecar.write_bytes(data)
        for sensor in sync.IMU_SENSORS:
            t, samples, source = load_imu_csv(csv, sensor)
            # every changed byte is caught, and an unchanged sidecar gives the
            # parse's bits
            assert source == "csv" or data == base
            assert t.tobytes() == parsed[sensor][0].tobytes()
            assert samples.tobytes() == parsed[sensor][1].tobytes()

    check()


def _extract(data):
    """What `uwvio extract` does with an MP4, short of writing files."""
    f = io.BytesIO(data)
    table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
    payloads = mp4.extract_payloads(table, f)
    return sync.build_dataset(sync.payload_streams_from_klv(payloads))


@pytest.mark.filterwarnings("ignore")  # gap warnings, SCAL divisors of 0
def test_mp4_extract_returns_or_raises_input_error(tmp_path):
    base = fixtures.fixture_mp4(tmp_path / "f.mp4", n_payloads=3, accel_count=8,
                                gyro_count=8, shut_count=2).read_bytes()
    # half the inputs change only the sample tables of the gpmd track,
    # which end the file
    moov = next(b for b in mp4.parse_box_tree(io.BytesIO(base)) if b.fourcc == "moov")
    trak = [b for b in moov.children if b.fourcc == "trak"][-1]
    stbl = trak.find("mdia").find("minf").find("stbl")

    @settings(max_examples=300, deadline=None, database=None, derandomize=True)
    @given(st.one_of(mutations(base), flips(base, stbl.offset)))
    def check(data):
        try:
            _extract(data)
        except InputError:
            pass

    check()
