"""Turn per-payload sensor streams into one globally timestamped dataset.

Per-sample timing follows the payload model: each payload spans
[T_i, T_{i+1}) and its n samples are placed uniformly on that span. Frame
timestamps come straight from the SHUT stream; the accelerometer timeline
is the master IMU clock and the gyroscope is linearly resampled onto it
when per-payload counts differ.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import gpmf
from .errors import (CountMismatch, MissingStream, NonMonotonicPayloads,
                     StreamNotFound, ZeroCount)

IMU_CSV_HEADER = "t,ax,ay,az,gx,gy,gz"
FRAMES_CSV_HEADER = "index,t,exposure"

# accelerometer/gyroscope count disagreement tolerated inside one payload
COUNT_TOLERANCE = 2


@dataclass
class PayloadStreams:
    """Parsed sensor content of one GPMF payload."""
    start: float
    duration: float
    accel: np.ndarray | None = None    # (n, 3) m/s^2
    gyro: np.ndarray | None = None     # (n, 3) rad/s
    shutter: np.ndarray | None = None  # (n,) seconds


@dataclass
class SyncedDataset:
    imu_t: np.ndarray      # (N,) seconds since recording start
    accel: np.ndarray      # (N, 3)
    gyro: np.ndarray       # (N, 3)
    frame_t: np.ndarray    # (M,)
    exposure: np.ndarray   # (M,)
    meta: dict = field(default_factory=dict)


def payload_streams_from_klv(raw_payloads, axis_order="xyz"):
    """Parse a list of RawPayloads into PayloadStreams.

    ``axis_order`` names the device channel order of ACCL/GYRO relative to
    the (x, y, z) output convention; it is recorded in downstream metadata.
    """
    out = []
    for rp in raw_payloads:
        root = gpmf.parse_klv(rp.data)
        streams = {}
        for key in ("ACCL", "GYRO", "SHUT"):
            try:
                order = axis_order if key in ("ACCL", "GYRO") else None
                streams[key] = gpmf.extract_stream(root, key, axis_order=order)
            except StreamNotFound:
                streams[key] = None
        out.append(PayloadStreams(
            start=rp.start_time, duration=rp.duration,
            accel=streams["ACCL"].values if streams["ACCL"] else None,
            gyro=streams["GYRO"].values if streams["GYRO"] else None,
            shutter=streams["SHUT"].values[:, 0] if streams["SHUT"] else None,
        ))
    return out


def interpolate_sample_times(payload_starts, counts, last_duration=None):
    """Uniformly place per-payload samples on their payload spans.

    ``payload_starts`` has either len(counts) entries plus ``last_duration``
    to close the final span, or len(counts) + 1 entries where the extra
    entry is the end of the last span. Payload i with n samples spanning
    [T_i, T_{i+1}) places sample j at T_i + j * (T_{i+1} - T_i) / n.
    """
    starts = np.asarray(payload_starts, dtype=float)
    counts = [int(c) for c in counts]
    if len(starts) == len(counts):
        if last_duration is None:
            raise ValueError("need last_duration when no closing boundary given")
        bounds = np.append(starts, starts[-1] + last_duration)
    elif len(starts) == len(counts) + 1:
        bounds = starts
    else:
        raise ValueError("payload_starts must have len(counts) or len(counts)+1 entries")
    if np.any(np.diff(bounds) <= 0):
        raise NonMonotonicPayloads("payload start times are not strictly increasing")
    pieces = []
    for i, n in enumerate(counts):
        if n < 1:
            raise ZeroCount(f"payload {i} has zero samples")
        t0, t1 = bounds[i], bounds[i + 1]
        pieces.append(t0 + np.arange(n) * (t1 - t0) / n)
    return np.concatenate(pieces) if pieces else np.empty(0)


def build_dataset(payloads, meta=None, axis_order="xyz",
                  count_tolerance=COUNT_TOLERANCE):
    """Merge parsed payload streams into one SyncedDataset.

    The clock origin is the first payload's start. ACCL is the master IMU
    timeline; GYRO is linearly interpolated onto it. Frame k is timestamped
    by the k-th SHUT sample time.
    """
    payloads = list(payloads)
    if not payloads:
        raise MissingStream("no payloads")
    have_accl = any(p.accel is not None for p in payloads)
    have_gyro = any(p.gyro is not None for p in payloads)
    have_shut = any(p.shutter is not None for p in payloads)
    if not (have_accl and have_gyro and have_shut):
        missing = [k for k, v in
                   (("ACCL", have_accl), ("GYRO", have_gyro), ("SHUT", have_shut))
                   if not v]
        raise MissingStream(f"streams never seen: {', '.join(missing)}")

    origin = payloads[0].start
    starts = np.array([p.start - origin for p in payloads])
    last_duration = payloads[-1].duration

    warnings_list = []
    if len(starts) > 1:
        gaps = np.diff(starts)
        nominal = np.median(gaps)
        bad = np.nonzero(gaps > 2 * nominal)[0]
        for i in bad:
            msg = (f"payload gap of {gaps[i]:.3f}s after payload {i} "
                   f"(nominal {nominal:.3f}s); possible dropped payloads")
            warnings_list.append(msg)
            warnings.warn(msg)

    accel_counts, gyro_counts, shut_counts = [], [], []
    for i, p in enumerate(payloads):
        na = 0 if p.accel is None else len(p.accel)
        ng = 0 if p.gyro is None else len(p.gyro)
        if abs(na - ng) > count_tolerance:
            raise CountMismatch(
                f"payload {i}: ACCL count {na} vs GYRO count {ng} "
                f"differ by more than {count_tolerance}")
        accel_counts.append(na)
        gyro_counts.append(ng)
        shut_counts.append(0 if p.shutter is None else len(p.shutter))

    def _times(counts):
        idx = [i for i, c in enumerate(counts) if c > 0]
        cts = [counts[i] for i in idx]
        bounds = [starts[i] for i in idx]
        # spans run to the next used payload start; close the final span
        last = idx[-1]
        closing = starts[last] + last_duration if last == len(payloads) - 1 \
            else starts[last + 1]
        return interpolate_sample_times(np.append(bounds, closing), cts)

    accel_t = _times(accel_counts)
    gyro_t = _times(gyro_counts)
    accel = np.vstack([p.accel for p in payloads if p.accel is not None])
    gyro_raw = np.vstack([p.gyro for p in payloads if p.gyro is not None])

    if accel_t.shape == gyro_t.shape and np.allclose(accel_t, gyro_t):
        gyro = gyro_raw
    else:
        gyro = np.column_stack([
            np.interp(accel_t, gyro_t, gyro_raw[:, c]) for c in range(3)])

    frame_t = _times(shut_counts)
    exposure = np.concatenate([p.shutter for p in payloads if p.shutter is not None])

    rate = 1.0 / float(np.median(np.diff(accel_t))) if len(accel_t) > 1 else 0.0
    full_meta = {
        "axis_convention": f"device order {axis_order} remapped to xyz",
        "imu_rate_hz": rate,
        "n_imu_samples": len(accel_t),
        "n_frames": len(frame_t),
        "duration_s": float(starts[-1] + last_duration),
        "warnings": warnings_list,
    }
    if meta:
        full_meta.update(meta)
    return SyncedDataset(imu_t=accel_t, accel=accel, gyro=gyro,
                         frame_t=frame_t, exposure=exposure, meta=full_meta)


def _fmt(v):
    """Shortest decimal that round-trips the float exactly."""
    return np.format_float_positional(float(v), trim="-")


def export_imu_csv(dataset, path):
    with open(path, "w") as f:
        f.write(IMU_CSV_HEADER + "\n")
        for t, a, g in zip(dataset.imu_t, dataset.accel, dataset.gyro):
            f.write(f"{t:.9f},{_fmt(a[0])},{_fmt(a[1])},{_fmt(a[2])},"
                    f"{_fmt(g[0])},{_fmt(g[1])},{_fmt(g[2])}\n")


def export_frames_csv(dataset, path):
    with open(path, "w") as f:
        f.write(FRAMES_CSV_HEADER + "\n")
        for i, (t, e) in enumerate(zip(dataset.frame_t, dataset.exposure)):
            f.write(f"{i},{t:.9f},{_fmt(e)}\n")


def load_imu_csv(path):
    """Read an exported IMU CSV back into (t, accel, gyro) arrays."""
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.size == 0:
        return np.empty(0), np.empty((0, 3)), np.empty((0, 3))
    return data[:, 0], data[:, 1:4], data[:, 4:7]


def export_manifest(dataset, path):
    """Key: value manifest describing the dataset."""
    with open(path, "w") as f:
        for key, value in dataset.meta.items():
            if key == "warnings":
                for w in value:
                    f.write(f"warning: {w}\n")
            else:
                f.write(f"{key}: {value}\n")
