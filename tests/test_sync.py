import re

import numpy as np
import pytest

from uwvio import mp4, sync
from uwvio.errors import (CountMismatch, InputError, MissingStream,
                          NonMonotonicPayloads, ZeroCount)
from uwvio.fixtures import fixture_mp4
from uwvio.sync import (PayloadStreams, build_dataset,
                        interpolate_sample_times, load_imu_csv)


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
    with pytest.raises(NonMonotonicPayloads):
        interpolate_sample_times([0.0, 2.0, 1.0], [1, 1])


def test_zero_count_rejected():
    with pytest.raises(ZeroCount):
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


def _payload(start, duration, na=4, ng=4, ns=2, accel_val=1.0, gyro_val=2.0):
    return PayloadStreams(
        start=start, duration=duration,
        accel=np.full((na, 3), accel_val) if na else None,
        gyro=np.full((ng, 3), gyro_val) if ng else None,
        shutter=np.full(ns, 0.01) if ns else None,
    )


def test_build_dataset_basic():
    ds = build_dataset([_payload(5.0, 1.0), _payload(6.0, 1.0)])
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
    p1 = PayloadStreams(start=0.0, duration=1.0,
                        accel=np.zeros((4, 3)),
                        gyro=np.linspace(0, 1, 5)[:, None] * np.ones(3),
                        shutter=np.array([0.01]))
    p2 = PayloadStreams(start=1.0, duration=1.0,
                        accel=np.zeros((4, 3)),
                        gyro=(1.0 + np.linspace(0, 1, 5))[:, None] * np.ones(3),
                        shutter=np.array([0.01]))
    ds = build_dataset([p1, p2])
    gyro_t_expected = ds.imu_t  # accel timeline
    # gyro value was v(t) = 1.25 * t on payload times t = 0, 0.2, ... (5/payload)
    expected = np.interp(gyro_t_expected,
                         np.concatenate([np.arange(5) * 0.2, 1.0 + np.arange(5) * 0.2]),
                         np.concatenate([np.linspace(0, 1, 5), 1 + np.linspace(0, 1, 5)]))
    assert np.allclose(ds.gyro[:, 0], expected)


def test_count_mismatch_tolerated_within_two():
    ds = build_dataset([_payload(0.0, 1.0, na=6, ng=4)])
    assert len(ds.imu_t) == 6
    assert ds.gyro.shape == (6, 3)


def test_count_mismatch_beyond_tolerance_raises():
    with pytest.raises(CountMismatch):
        build_dataset([_payload(0.0, 1.0, na=8, ng=4)])


def test_missing_stream_raises():
    with pytest.raises(MissingStream) as exc:
        build_dataset([_payload(0.0, 1.0, ns=0)])
    assert "SHUT" in str(exc.value)


def test_stream_of_empty_blocks_is_missing():
    payload = PayloadStreams(start=0.0, duration=1.0, accel=np.zeros((4, 3)),
                             gyro=np.zeros((4, 3)), shutter=np.zeros(0))
    with pytest.raises(MissingStream, match="never seen: SHUT$"):
        build_dataset([payload, payload])


def test_payload_gap_warning():
    payloads = [_payload(0.0, 1.0), _payload(1.0, 1.0), _payload(2.0, 1.0),
                _payload(3.0, 1.0), _payload(9.0, 1.0)]
    with pytest.warns(UserWarning, match="gap"):
        ds = build_dataset(payloads)
    assert ds.meta["warnings"]


def test_frame_times_strictly_increasing():
    payloads = [_payload(i * 1.01, 1.01, na=7, ng=7, ns=3) for i in range(5)]
    ds = build_dataset(payloads)
    assert np.all(np.diff(ds.frame_t) > 0)
    assert np.all(np.diff(ds.imu_t) > 0)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    payloads = [PayloadStreams(start=i * 1.0, duration=1.0,
                               accel=rng.normal(size=(10, 3)),
                               gyro=rng.normal(size=(10, 3)),
                               shutter=rng.uniform(0.001, 0.02, 2))
                for i in range(3)]
    ds = build_dataset(payloads)
    csv = tmp_path / "imu.csv"
    sync.export_imu_csv(ds, csv)
    t, accel, gyro = load_imu_csv(csv)
    assert np.allclose(t, ds.imu_t, atol=5e-10)
    assert np.array_equal(accel, ds.accel)  # exact round-trip of values
    assert np.array_equal(gyro, ds.gyro)

    frames = tmp_path / "frames.csv"
    sync.export_frames_csv(ds, frames)
    lines = frames.read_text().splitlines()
    assert lines[0] == "index,t,exposure"
    assert len(lines) == 1 + len(ds.frame_t)


@pytest.mark.parametrize("cell, message", [
    ("nan", "non-finite value"),
    ("-inf", "non-finite value"),
    ("x", "could not convert string 'x' to float64 in column 3"),
])
def test_imu_csv_errors_name_file_line(tmp_path, cell, message):
    path = tmp_path / "imu.csv"
    path.write_text(f"t,ax,ay,az,gx,gy,gz\n0,1,2,3,4,5,6\n\n# c\n1,1,{cell},3,4,5,6\n")
    with pytest.raises(InputError, match=f"^{re.escape(str(path))}:5: {message}$"):
        load_imu_csv(path)


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
    assert np.allclose(streams[0].accel[0], [2.0, 3.0, 1.0])


def test_manifest(tmp_path):
    ds = build_dataset([_payload(0.0, 1.0)])
    out = tmp_path / "manifest.txt"
    sync.export_manifest(ds, out)
    text = out.read_text()
    assert "imu_rate_hz: 4.0" in text
    assert "n_frames: 2" in text
