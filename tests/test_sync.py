import hashlib
import io
import re
import struct
import tracemalloc
from collections import namedtuple

import numpy as np
import pytest

from uwvio import fixtures, gpmf, mp4, sync
from uwvio.errors import InputError
from uwvio.fixtures import fixture_mp4
from uwvio.sync import build_dataset, interpolate_sample_times, load_imu_csv
from uwvio.table import read_table


def test_uniform_placement_single_payload():
    # 4 samples on [10, 11): 10.0, 10.25, 10.5, 10.75
    t = interpolate_sample_times([10.0, 11.0], [4])
    assert np.allclose(t, [10.0, 10.25, 10.5, 10.75])


def test_spans_close_at_next_start():
    t = interpolate_sample_times([0.0, 1.01, 2.02], [2, 2])
    assert np.allclose(t, [0.0, 0.505, 1.01, 1.515])


def test_varying_counts():
    t = interpolate_sample_times([0.0, 1.0, 1.6], [1, 3])
    assert np.allclose(t, [0.0, 1.0, 1.2, 1.4])


def test_non_monotonic_rejected():
    with pytest.raises(InputError, match="^payload start times are not strictly increasing$"):
        interpolate_sample_times([0.0, 2.0, 1.0], [1, 1])


def test_zero_count_rejected():
    with pytest.raises(InputError, match="^payload 1 has zero samples$"):
        interpolate_sample_times([0.0, 1.0, 2.0], [2, 0])


def _loop_times(bounds, counts):
    """The per-payload loop that interpolate_sample_times replaced."""
    pieces = []
    for i, n in enumerate(counts):
        t0, t1 = bounds[i], bounds[i + 1]
        pieces.append(t0 + np.arange(n) * (t1 - t0) / n)
    return np.concatenate(pieces)


def test_times_match_per_payload_loop_bit_for_bit():
    rng = np.random.default_rng(0)
    counts = rng.integers(1, 300, size=600).tolist()
    bounds = 12.345 + np.cumsum(np.append(0.0, rng.uniform(0.9, 1.1, 600)))
    got = interpolate_sample_times(bounds, counts)
    assert got.tobytes() == _loop_times(bounds, counts).tobytes()


# one payload's streams; None is a stream the payload does not hold
_Payload = namedtuple("_Payload", "start duration accel gyro shutter", defaults=(None,) * 3)


def _columns(payloads):
    """The SensorStreams that `build_dataset` takes, stacked from payloads."""
    def stack(name):
        held = [getattr(p, name) for p in payloads if getattr(p, name) is not None]
        return np.concatenate(held) if held else None
    return sync.SensorStreams(
        start=np.array([p.start for p in payloads], dtype=float),
        duration=np.array([p.duration for p in payloads], dtype=float),
        counts=np.array([[0 if s is None else len(s) for s in p[2:]] for p in payloads],
                        dtype=np.int64),
        accel=stack("accel"), gyro=stack("gyro"), shutter=stack("shutter"))


def _payload(start, duration, na=4, ng=4, ns=2, accel_val=1.0, gyro_val=2.0):
    return _Payload(
        start=start, duration=duration,
        accel=np.full((na, 3), accel_val) if na else None,
        gyro=np.full((ng, 3), gyro_val) if ng else None,
        shutter=np.full(ns, 0.01) if ns else None,
    )


def test_build_dataset_basic():
    ds = build_dataset(_columns([_payload(5.0, 1.0), _payload(6.0, 1.0)]))
    # clock origin is the first payload start
    assert ds.imu_t[0] == 0.0
    assert np.allclose(ds.imu_t, np.arange(8) * 0.25)
    assert len(ds.frame_t) == 4
    assert np.allclose(ds.frame_t, [0.0, 0.5, 1.0, 1.5])
    assert np.allclose(ds.exposure, 0.01)
    assert ds.meta["n_imu_samples"] == 8
    assert ds.meta["n_frames"] == 4
    assert ds.meta["imu_rate_hz"] == pytest.approx(4.0)


def test_gyro_resampled_onto_accel_times():
    # gyro ramps linearly in time; resampling must preserve the ramp
    p1 = _Payload(start=0.0, duration=1.0,
                  accel=np.zeros((4, 3)),
                  gyro=np.linspace(0, 1, 5)[:, None] * np.ones(3),
                  shutter=np.array([0.01]))
    p2 = _Payload(start=1.0, duration=1.0,
                  accel=np.zeros((4, 3)),
                  gyro=(1.0 + np.linspace(0, 1, 5))[:, None] * np.ones(3),
                  shutter=np.array([0.01]))
    ds = build_dataset(_columns([p1, p2]))
    gyro_t_expected = ds.imu_t  # accel timeline
    # gyro value was v(t) = 1.25 * t on payload times t = 0, 0.2, ... (5/payload)
    expected = np.interp(gyro_t_expected,
                         np.concatenate([np.arange(5) * 0.2, 1.0 + np.arange(5) * 0.2]),
                         np.concatenate([np.linspace(0, 1, 5), 1 + np.linspace(0, 1, 5)]))
    assert np.allclose(ds.gyro[:, 0], expected)


def test_count_mismatch_tolerated_within_two():
    ds = build_dataset(_columns([_payload(0.0, 1.0, na=6, ng=4)]))
    assert len(ds.imu_t) == 6
    assert ds.gyro.shape == (6, 3)


def test_count_mismatch_beyond_tolerance_raises():
    with pytest.raises(InputError, match="^payload 0: ACCL count 8 vs GYRO count 4 differ by"):
        build_dataset(_columns([_payload(0.0, 1.0, na=8, ng=4)]))


def test_missing_stream_raises():
    with pytest.raises(InputError, match="^streams never seen: SHUT$"):
        build_dataset(_columns([_payload(0.0, 1.0, ns=0)]))


def test_stream_of_empty_blocks_is_missing():
    payload = _Payload(start=0.0, duration=1.0, accel=np.zeros((4, 3)),
                       gyro=np.zeros((4, 3)), shutter=np.zeros(0))
    with pytest.raises(InputError, match="^streams never seen: SHUT$"):
        build_dataset(_columns([payload, payload]))


def test_payload_gap_warning():
    payloads = [_payload(0.0, 1.0), _payload(1.0, 1.0), _payload(2.0, 1.0),
                _payload(3.0, 1.0), _payload(9.0, 1.0)]
    with pytest.warns(UserWarning, match="gap"):
        ds = build_dataset(_columns(payloads))
    assert ds.meta["warnings"]


def test_frame_times_strictly_increasing():
    payloads = [_payload(i * 1.01, 1.01, na=7, ng=7, ns=3) for i in range(5)]
    ds = build_dataset(_columns(payloads))
    assert np.all(np.diff(ds.frame_t) > 0)
    assert np.all(np.diff(ds.imu_t) > 0)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    payloads = [_Payload(start=i * 1.0, duration=1.0,
                         accel=rng.normal(size=(10, 3)),
                         gyro=rng.normal(size=(10, 3)),
                         shutter=rng.uniform(0.001, 0.02, 2))
                for i in range(3)]
    ds = build_dataset(_columns(payloads))
    csv = tmp_path / "imu.csv"
    sync.export_imu_csv(ds, csv)
    # the whole-row parse that the one-sensor reads must match bit for bit
    row = np.dtype([("t", float), ("accel", float, 3), ("gyro", float, 3)])
    t_all, *series_all = read_table(csv, row, delimiter=",", header="t,")
    assert np.allclose(t_all, ds.imu_t, atol=5e-10)
    for sensor, want, parsed in zip(sync.IMU_SENSORS, (ds.accel, ds.gyro), series_all):
        t, series, source = load_imu_csv(csv, sensor)
        assert source == "sidecar"
        assert t.tobytes() == t_all.tobytes()
        assert series.tobytes() == parsed.tobytes()
        assert np.array_equal(series, want)  # exact round-trip of values

    frames = tmp_path / "frames.csv"
    sync.export_frames_csv(ds, frames)
    lines = frames.read_text().splitlines()
    assert lines[0] == "index,t,exposure"
    assert len(lines) == 1 + len(ds.frame_t)


def _export_per_row(dataset, imu_path, frames_path):
    """The per-row CSV writers that the block writers replaced."""
    with open(imu_path, "w") as f:
        f.write(sync.IMU_CSV_HEADER + "\n")
        for t, a, g in zip(dataset.imu_t, dataset.accel, dataset.gyro):
            f.write(f"{t:.9f},{sync._fmt(a[0])},{sync._fmt(a[1])},{sync._fmt(a[2])},"
                    f"{sync._fmt(g[0])},{sync._fmt(g[1])},{sync._fmt(g[2])}\n")
    with open(frames_path, "w") as f:
        f.write(sync.FRAMES_CSV_HEADER + "\n")
        for i, (t, e) in enumerate(zip(dataset.frame_t, dataset.exposure)):
            f.write(f"{i},{t:.9f},{sync._fmt(e)}\n")


def _assert_csvs_match_per_row(dataset, tmp_path):
    _export_per_row(dataset, tmp_path / "imu_ref.csv", tmp_path / "frames_ref.csv")
    sync.export_imu_csv(dataset, tmp_path / "imu.csv")
    sync.export_frames_csv(dataset, tmp_path / "frames.csv")
    for name in ("imu", "frames"):
        got = (tmp_path / f"{name}.csv").read_bytes()
        assert got == (tmp_path / f"{name}_ref.csv").read_bytes(), name


def test_csv_writers_match_per_row_writer_on_distinct_values(tmp_path):
    rng = np.random.default_rng(3)
    special = [0.0, 1.0, -7.0, 123456789.0, 2.0 ** 53, 1e-7, -1e-7, 1e20,
               5e-324, 2.2250738585072014e-308 / 3, 1e-300, 1.7976931348623157e308,
               0.1 + 0.2, 1 / 3, np.pi * 1e15, np.e * 1e-15]
    # random doubles, most of which need all 17 digits to round-trip
    longest = rng.standard_normal(3000) * 10.0 ** rng.integers(-30, 30, 3000)
    assert any(len(repr(float(v)).split("e")[0].strip("-").replace(".", "").lstrip("0")) == 17
               for v in longest)
    # np.unique merges the signed zeros, so -0.0 goes in after it
    values = rng.permutation(np.append(np.unique(np.append(special, longest)), -0.0))
    n_imu = len(values) // 6
    dataset = sync.SyncedDataset(
        imu_t=np.sort(rng.uniform(0, 1e4, n_imu)),
        accel=values[:3 * n_imu].reshape(-1, 3),
        gyro=values[3 * n_imu:6 * n_imu].reshape(-1, 3),
        frame_t=np.sort(rng.uniform(0, 1e4, len(values))), exposure=values)
    _assert_csvs_match_per_row(dataset, tmp_path)


@pytest.mark.parametrize("n_rows", [0, sync.CHUNK_ROWS - 1, sync.CHUNK_ROWS,
                                    sync.CHUNK_ROWS + 1])
def test_csv_writers_match_per_row_writer_at_chunk_edges(tmp_path, n_rows):
    rng = np.random.default_rng(n_rows)
    # GPMF cells are integers over a SCAL divisor, so values repeat
    cells = rng.integers(-300, 300, size=(n_rows, 7)) / 418.0
    dataset = sync.SyncedDataset(
        imu_t=np.arange(n_rows) / 200.0, accel=cells[:, :3], gyro=cells[:, 3:6],
        frame_t=np.arange(n_rows) / 30.0, exposure=cells[:, 6])
    _assert_csvs_match_per_row(dataset, tmp_path)


def _imu_csv(path, cell, col, lines="t,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n"):
    """An IMU CSV of ``lines`` and then one row whose column ``col`` is ``cell``."""
    fields = ["1", "1", "2", "3", "4", "5", "6"]
    fields[col - 1] = cell
    path.write_text(lines + ",".join(fields) + "\n", encoding="utf-8")
    return path


# the second cell of each sensor
SENSOR_COLUMN = {"accel": 3, "gyro": 6}


@pytest.mark.parametrize("cell, message", [
    ("nan", "non-finite value"),
    ("-inf", "non-finite value"),
    ("x", "could not convert string 'x' to float64 in column {col}"),
    ("2,9", "expected 7 fields, got 8"),
])
def test_imu_csv_errors_name_file_line(tmp_path, cell, message):
    for sensor, col in SENSOR_COLUMN.items():
        # line 3 holds only whitespace: skipped, and counted
        path = _imu_csv(tmp_path / f"{sensor}.csv", cell, col,
                        "t,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n \t\n# c\n")
        want = re.escape(f"{path}:5: {message.format(col=col)}")
        with pytest.raises(InputError, match=f"^{want}$"):
            load_imu_csv(path, sensor)


@pytest.mark.parametrize("sensor", sync.IMU_SENSORS)
@pytest.mark.parametrize("row, n_fields", [("1,1,2,3,4,5", 6), ("1,1,2,3,4,5,6,", 8),
                                           ("1", 1)])
def test_imu_csv_field_count_names_line(tmp_path, sensor, row, n_fields):
    path = tmp_path / "imu.csv"
    path.write_text(f"t,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n{row}\n2,1,2,3,4,5,6\n")
    want = re.escape(f"{path}:3: expected 7 fields, got {n_fields}")
    with pytest.raises(InputError, match=f"^{want}$"):
        load_imu_csv(path, sensor)


@pytest.mark.parametrize("cell", ["nan", "inf", "x", "", "1e999", "\u20ac\u20ac"])
@pytest.mark.parametrize("bad, other", [("accel", "gyro"), ("gyro", "accel")])
def test_imu_csv_unread_cells_are_not_checked(tmp_path, bad, other, cell):
    """A cell of the sensor not asked for is only counted: any text loads."""
    path = _imu_csv(tmp_path / "imu.csv", cell, SENSOR_COLUMN[bad])
    t, series, source = load_imu_csv(path, other)
    assert source == "csv"
    assert np.array_equal(t, [0.0, 1.0])
    want = [1, 2, 3] if other == "accel" else [4, 5, 6]
    assert np.array_equal(series, [want, want])
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:3: "):
        load_imu_csv(path, bad)


def _bits(values):
    return np.ascontiguousarray(values, dtype=float).view(np.int64)


def _parse_imu_csv(path):
    """Every column of an IMU CSV, parsed from its text."""
    row = np.dtype([("t", float), ("accel", float, 3), ("gyro", float, 3)])
    return dict(zip(("t", *sync.IMU_SENSORS),
                    read_table(path, row, delimiter=",", header="t,")))


def _assert_loads_as_parsed(path, source):
    parsed = _parse_imu_csv(path)
    for sensor in sync.IMU_SENSORS:
        t, samples, got = load_imu_csv(path, sensor)
        assert got == source
        assert np.array_equal(_bits(t), _bits(parsed["t"]))
        assert np.array_equal(_bits(samples), _bits(parsed[sensor]))


def _dataset(rng, n):
    """IMU columns of full-precision, signed-zero, subnormal and
    1e300-scale values; the timestamps lie within 1 ulp of ``%.9f``
    rounding ties, from 0 up to 1e4 s."""
    scale = 10.0 ** rng.integers(-30, 30, (n, 6))
    cells = rng.standard_normal((n, 6)) * scale
    huge = rng.random((n, 6)) < 0.1
    cells[huge] = rng.standard_normal(np.count_nonzero(huge)) * 1e300
    special = [-0.0, 5e-324, -2.2250738585072014e-308 / 3, 1e300,
               -1.7976931348623157e308, 0.0, 123456789.0, 0.1 + 0.2][:cells.size]
    cells.flat[rng.choice(cells.size, len(special), replace=False)] = special
    ties = np.sort(rng.uniform(0, 1e4, n)).round(8) + 5e-10
    t = ties + rng.integers(-1, 2, n) * np.spacing(ties)
    return sync.SyncedDataset(imu_t=t, accel=cells[:, :3], gyro=cells[:, 3:],
                              frame_t=np.zeros(0), exposure=np.zeros(0))


@pytest.mark.parametrize("seed, n", [(0, 1), (1, 200), (2, 3000), (3, sync.CHUNK_ROWS + 5)])
def test_imu_sidecar_columns_bit_equal_to_parse(tmp_path, seed, n):
    """With or without the sidecar, `load_imu_csv` returns the bits that a
    parse of the whole CSV gives."""
    ds = _dataset(np.random.default_rng(seed), n)
    csv = tmp_path / "imu.csv"
    sync.export_imu_csv(ds, csv)
    # the digest, then 56 bytes a row
    assert sync.imu_sidecar(csv).stat().st_size == 32 + 56 * n
    parsed = _parse_imu_csv(csv)
    assert np.array_equal(_bits(parsed["accel"]), _bits(ds.accel))
    assert np.array_equal(_bits(parsed["gyro"]), _bits(ds.gyro))
    _assert_loads_as_parsed(csv, "sidecar")
    sync.imu_sidecar(csv).unlink()
    _assert_loads_as_parsed(csv, "csv")


def _exported(tmp_path, n=50):
    """An exported IMU CSV of ``n`` rows, its sidecar, and the sidecar's
    bytes."""
    rng = np.random.default_rng(n)
    ds = sync.SyncedDataset(imu_t=np.arange(n) / 200.0, accel=rng.normal(size=(n, 3)),
                            gyro=rng.normal(size=(n, 3)), frame_t=np.zeros(0),
                            exposure=np.zeros(0))
    csv = tmp_path / "imu.csv"
    sync.export_imu_csv(ds, csv)
    sidecar = sync.imu_sidecar(csv)
    return csv, sidecar, sidecar.read_bytes()


def test_imu_sidecar_stale_after_csv_edit(tmp_path):
    """One byte of the CSV edited: the edit is parsed, with a warning."""
    csv, sidecar, _ = _exported(tmp_path)
    data = bytearray(csv.read_bytes())
    cell = data.index(b"\n", data.index(b"\n") + 1) - 1   # last cell of row 1
    data[cell] = ord("5") if data[cell] != ord("5") else ord("6")
    csv.write_bytes(bytes(data))
    with pytest.warns(UserWarning, match=re.escape(f"{sidecar}: stale")):
        _assert_loads_as_parsed(csv, "csv")


def _signed(csv, columns):
    """A sidecar of ``columns`` (t, accel, gyro as one float64 array) under
    the digest that `export_imu_csv` would give them beside ``csv``."""
    columns = np.asarray(columns, dtype="<f8")
    return sync._sha256(csv, columns) + columns.tobytes()


def _flipped(data, byte, bit):
    data = bytearray(data)
    data[byte] ^= 1 << bit
    return bytes(data)


def _broken_sidecars(csv, good):
    """Sidecars that `load_imu_csv` must pass over, by what is wrong;
    ``good`` is the sidecar that `export_imu_csv` wrote beside ``csv``."""
    n = (len(good) - 32) // 56
    columns = np.frombuffer(good, "<f8", offset=32)
    rows = csv.stat().st_size // sync.MIN_ROW_BYTES + 1
    too_many = np.zeros(7 * rows)
    too_many[:rows] = np.arange(rows)
    non_finite = columns.copy()
    non_finite[3] = np.nan                      # t[3]
    # the one `.npy` record of the CSV's sha256 and its columns that an
    # earlier format held
    t, accel, gyro = np.split(columns, [n, 4 * n])
    old = np.zeros((), [("sha256", np.uint8, (32,)), ("t", "<f8", (n,)),
                        ("accel", "<f8", (n, 3)), ("gyro", "<f8", (n, 3))])
    old["sha256"] = np.frombuffer(hashlib.sha256(csv.read_bytes()).digest(), np.uint8)
    old["t"], old["accel"], old["gyro"] = t, accel.reshape(n, 3), gyro.reshape(n, 3)
    with io.BytesIO() as f:
        np.save(f, old)
        old_npy = f.getvalue()
    return {
        "empty": b"",
        "shorter-than-digest": good[:31],
        "truncated-mid-row": good[:-8],
        "truncated-by-a-row": good[:-56],
        "trailing-byte": good + b"\0",
        "rows-beyond-csv-size": _signed(csv, too_many),
        "digest-flip": _flipped(good, 5, 3),
        # bit 0 of the top byte of accel[0, 0]: 1.526e-05 from 1 when the
        # digest covered the CSV alone
        "accel-bit-flip": _flipped(good, 32 + 8 * n + 7, 0),
        "old-npy-record": old_npy,
        "non-finite": _signed(csv, non_finite),
    }


def test_broken_imu_sidecar_parses_csv(tmp_path):
    """A sidecar that is not the digest and columns of the CSV is passed
    over with a warning, and never allocates more than the CSV's columns."""
    csv, sidecar, good = _exported(tmp_path)
    _assert_loads_as_parsed(csv, "sidecar")
    for kind, data in _broken_sidecars(csv, good).items():
        sidecar.write_bytes(data)
        tracemalloc.start()
        with pytest.warns(UserWarning, match=f"^{re.escape(str(sidecar))}: ") as caught:
            _assert_loads_as_parsed(csv, "csv")
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        assert len(caught) == 2, kind          # one per sensor read
        assert peak < 2**24, kind


def test_imu_sidecar_not_read_when_absent(tmp_path, monkeypatch):
    """A CSV without a sidecar is parsed without being hashed."""
    csv, sidecar, _ = _exported(tmp_path)
    sidecar.unlink()
    monkeypatch.setattr(sync, "_sha256", None)
    _assert_loads_as_parsed(csv, "csv")


def test_imu_csv_unknown_sensor():
    with pytest.raises(ValueError, match="unknown IMU sensor 'mag'"):
        load_imu_csv("imu.csv", "mag")


def test_end_to_end_fixture(tmp_path):
    path = fixture_mp4(tmp_path / "f.mp4", n_payloads=4, accel_count=20,
                       gyro_count=20, shut_count=3, tick_duration=1010)
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
        raw = mp4.extract_payloads(table, f)
    streams = sync.payload_streams_from_klv(raw)
    ds = build_dataset(streams)
    assert len(ds.imu_t) == 80
    assert len(ds.frame_t) == 12
    assert ds.imu_t[0] == 0.0
    # 20 samples per 1.01 s payload -> 50.5 ms nominal spacing
    assert np.allclose(np.diff(ds.imu_t), 1.01 / 20)


def test_axis_order_applied_through_pipeline(tmp_path):
    from uwvio.fixtures import gpmf_payload
    accel = np.array([[100, 200, 300]] * 2)
    payload = gpmf_payload(accel_raw=accel, gyro_raw=accel,
                           shutter=np.array([0.01]), accel_scale=100,
                           gyro_scale=100)
    raw = mp4.RawPayload(data=payload, start_time=0.0, duration=1.0)
    streams = sync.payload_streams_from_klv([raw], axis_order="zxy")
    # device channel order z,x,y -> output x=ch1, y=ch2, z=ch0
    assert np.allclose(streams.accel[0], [2.0, 3.0, 1.0])
    # the dataset records the order the streams were remapped from
    assert build_dataset(streams).meta["axis_convention"] == "device order zxy remapped to xyz"


# --- the per-payload decode that the whole-recording columns replaced ---------

def _ref_nodes(data):
    """The KLV parser before offsets: each node a (key, type code, item size,
    repeat, padded payload copy, children) tuple."""
    nodes, pos = [], 0
    while pos < len(data):
        key = data[pos:pos + 4].decode("ascii")
        type_code, item_size, repeat = struct.unpack(">BBH", data[pos + 4:pos + 8])
        length = item_size * repeat
        payload = data[pos + 8:pos + 8 + (length + 3) // 4 * 4]
        pos += 8 + len(payload)
        children = _ref_nodes(payload[:length]) if type_code == 0 else []
        nodes.append((key, type_code, item_size, repeat, payload, children))
    return nodes


def _ref_values(node):
    _, type_code, item_size, repeat, raw, _ = node
    dtype = gpmf.SCALAR_TYPES[chr(type_code)]
    channels = item_size // dtype.itemsize
    flat = np.frombuffer(raw, dtype, repeat * channels)
    return flat.astype(float).reshape(repeat, channels)


def _ref_stream(nodes, key, axis_order=None):
    """One payload's `extract_stream` as it was: every STRM, breadth first,
    divided by its own SCAL, then stacked."""
    chunks, queue = [], [nodes]
    while queue:
        for child in queue.pop(0):
            if child[0] == "STRM":
                found = {}
                for leaf in child[5]:
                    found.setdefault(leaf[0], leaf)
                if key in found:
                    raw = _ref_values(found[key])
                    divisors = np.ones(raw.shape[1])
                    if "SCAL" in found:
                        divisors = _ref_values(found["SCAL"]).reshape(-1)
                        if divisors.size == 1:
                            divisors = np.full(raw.shape[1], divisors[0])
                    chunks.append(raw / divisors)
            elif child[1] == 0:
                queue.append(child[5])
    if not chunks:
        return None
    values = np.vstack(chunks)
    if axis_order is not None and values.shape[1] == 3:
        values = values[:, [axis_order.index(a) for a in "xyz"]]
    return values


def _ref_columns(raw_payloads, axis_order):
    payloads = []
    for rp in raw_payloads:
        nodes = _ref_nodes(rp.data)
        shutter = _ref_stream(nodes, "SHUT")
        payloads.append(_Payload(
            start=rp.start_time, duration=rp.duration,
            accel=_ref_stream(nodes, "ACCL", axis_order),
            gyro=_ref_stream(nodes, "GYRO", axis_order),
            shutter=None if shutter is None else shutter[:, 0]))
    return _columns(payloads)


@pytest.mark.parametrize("axis_order", ["xyz", "zxy"])
def test_decode_matches_per_payload_reference_bit_for_bit(tmp_path, axis_order):
    rng = np.random.default_rng(11)

    def strm(key, n):
        return gpmf.make_container("STRM", [
            gpmf.make_leaf("SCAL", "l", [50]),
            gpmf.make_leaf(key, "l", rng.integers(-5000, 5000, (n, 3)), channels=3)])

    payloads = []
    for i in range(8):
        n_accel = int(rng.integers(15, 25))
        # ACCL and GYRO counts differ by up to the tolerance: gyro is resampled
        n_gyro = n_accel + i % (2 * sync.COUNT_TOLERANCE + 1) - sync.COUNT_TOLERANCE
        payloads.append(fixtures.gpmf_payload(
            # payload 5 holds a second ACCL STRM, and a GYRO one in a nested DEVC
            extra_streams=[strm("ACCL", 2), gpmf.make_container("DEVC", [strm("GYRO", 2)])]
            if i == 5 else (),
            accel_raw=rng.integers(-5000, 5000, (n_accel, 3)),
            gyro_raw=rng.integers(-5000, 5000, (n_gyro, 3)),
            # payload 2 holds no SHUT
            shutter=None if i == 2 else rng.uniform(1e-4, 1e-2, 3).astype(np.float32),
            # a SCAL of its own in each payload: one divisor, or one per channel
            accel_scale=400 + 7 * i if i % 2 else [418 + i, 209, 836 - i],
            gyro_scale=[939, 17 + i, 3] if i % 2 else 939 - i))
    path = mp4.write_fixture_mp4(tmp_path / "r.mp4", payloads, durations=[1010] * 8)
    with open(path, "rb") as f:
        raw = mp4.extract_payloads(mp4.find_gpmf_track(mp4.parse_box_tree(f), f), f)
    got = sync.payload_streams_from_klv(raw, axis_order=axis_order)
    want = _ref_columns(raw, axis_order)
    for name in ("start", "duration", "counts", "accel", "gyro", "shutter"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert not np.array_equal(got.counts[:, 0], got.counts[:, 1])
    got_ds, want_ds = build_dataset(got), build_dataset(want)
    for name in ("imu_t", "accel", "gyro", "frame_t", "exposure"):
        assert getattr(got_ds, name).tobytes() == getattr(want_ds, name).tobytes(), name


def test_manifest(tmp_path):
    ds = build_dataset(_columns([_payload(0.0, 1.0)]))
    out = tmp_path / "manifest.txt"
    sync.export_manifest(ds, out)
    text = out.read_text()
    assert "imu_rate_hz: 4.0" in text
    assert "n_frames: 2" in text
