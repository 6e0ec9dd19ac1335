"""Turn per-payload sensor streams into one globally timestamped dataset.

Per-sample timing follows the payload model: each payload spans
[T_i, T_{i+1}) and its n samples are placed uniformly on that span, for
all payloads at once from their count column. Frame timestamps come
straight from the SHUT stream; the accelerometer timeline is the master
IMU clock and the gyroscope is linearly resampled onto it when
per-payload counts differ.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from . import gpmf
from .errors import (CountMismatch, InputError, MissingStream,
                     NonMonotonicPayloads, StreamNotFound, ZeroCount)
from .table import read_table

IMU_CSV_HEADER = "t,ax,ay,az,gx,gy,gz"
FRAMES_CSV_HEADER = "index,t,exposure"

# accelerometer/gyroscope count disagreement tolerated inside one payload
COUNT_TOLERANCE = 2

# rows formatted and written per block by the CSV exporters
CHUNK_ROWS = 16384


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
        shutter = streams["SHUT"]
        out.append(PayloadStreams(
            start=rp.start_time, duration=rp.duration,
            accel=streams["ACCL"], gyro=streams["GYRO"],
            shutter=None if shutter is None else shutter[:, 0],
        ))
    return out


def interpolate_sample_times(bounds, counts):
    """Uniformly place per-payload samples on their payload spans.

    ``bounds`` has len(counts) + 1 entries: payload i with n samples spans
    [T_i, T_{i+1}) and places sample j at T_i + j * (T_{i+1} - T_i) / n.
    """
    bounds = np.asarray(bounds, dtype=float)
    counts = np.asarray(counts, dtype=np.int64)
    if len(bounds) != len(counts) + 1:
        raise ValueError("bounds must have len(counts) + 1 entries")
    if np.any(np.diff(bounds) <= 0):
        raise NonMonotonicPayloads("payload start times are not strictly increasing")
    if np.any(counts < 1):
        raise ZeroCount(f"payload {np.argmax(counts < 1)} has zero samples")
    payload = np.repeat(np.arange(len(counts)), counts)
    j = np.arange(len(payload)) - np.repeat(np.cumsum(counts) - counts, counts)
    t0, t1 = bounds[:-1][payload], bounds[1:][payload]
    return t0 + j * (t1 - t0) / counts[payload]


def _sample_times(bounds, counts):
    """Sample times of the payloads with samples; the span of each runs to
    the next such payload's start, the last one's to the next bound."""
    used = np.flatnonzero(counts)
    return interpolate_sample_times(
        np.append(bounds[used], bounds[used[-1] + 1]), counts[used])


def build_dataset(payloads, meta=None, axis_order="xyz"):
    """Merge parsed payload streams into one SyncedDataset.

    The clock origin is the first payload's start. ACCL is the master IMU
    timeline; GYRO is linearly interpolated onto it. Frame k is timestamped
    by the k-th SHUT sample time.
    """
    payloads = list(payloads)
    if not payloads:
        raise MissingStream("no payloads")
    # (payload, stream) sample counts; an absent stream counts 0
    counts = np.array([[0 if s is None else len(s) for s in (p.accel, p.gyro, p.shutter)]
                       for p in payloads], dtype=np.int64)
    never = [key for key, n in zip(("ACCL", "GYRO", "SHUT"), counts.max(axis=0)) if n == 0]
    if never:
        raise MissingStream(f"streams never seen: {', '.join(never)}")
    mismatch = np.flatnonzero(np.abs(counts[:, 0] - counts[:, 1]) > COUNT_TOLERANCE)
    if mismatch.size:
        i = mismatch[0]
        raise CountMismatch(
            f"payload {i}: ACCL count {counts[i, 0]} vs GYRO count {counts[i, 1]} "
            f"differ by more than {COUNT_TOLERANCE}")

    origin = payloads[0].start
    starts = np.array([p.start - origin for p in payloads])
    # payload spans: each start, then the end of the last payload
    bounds = np.append(starts, starts[-1] + payloads[-1].duration)

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

    accel_t = _sample_times(bounds, counts[:, 0])
    gyro_t = _sample_times(bounds, counts[:, 1])
    accel = np.vstack([p.accel for p in payloads if p.accel is not None])
    gyro_raw = np.vstack([p.gyro for p in payloads if p.gyro is not None])

    if accel_t.shape == gyro_t.shape and np.allclose(accel_t, gyro_t):
        gyro = gyro_raw
    else:
        gyro = np.column_stack([
            np.interp(accel_t, gyro_t, gyro_raw[:, c]) for c in range(3)])

    frame_t = _sample_times(bounds, counts[:, 2])
    exposure = np.concatenate([p.shutter for p in payloads if p.shutter is not None])

    rate = 1.0 / float(np.median(np.diff(accel_t))) if len(accel_t) > 1 else 0.0
    full_meta = {
        "axis_convention": f"device order {axis_order} remapped to xyz",
        "imu_rate_hz": rate,
        "n_imu_samples": len(accel_t),
        "n_frames": len(frame_t),
        "duration_s": float(bounds[-1]),
        "warnings": warnings_list,
    }
    if meta:
        full_meta.update(meta)
    return SyncedDataset(imu_t=accel_t, accel=accel, gyro=gyro,
                         frame_t=frame_t, exposure=exposure, meta=full_meta)


def _fmt(v):
    """Shortest decimal that round-trips the float exactly."""
    return np.format_float_positional(float(v), trim="-")


def _fmt_cells(values):
    """`_fmt` of every cell of ``values``, as an object array of the same
    shape. Each distinct value is formatted once; distinct means distinct
    bits, so -0.0 keeps its sign."""
    bits = np.ascontiguousarray(values, dtype=float).view(np.int64)
    uniq, inverse = np.unique(bits, return_inverse=True)
    text = np.array(list(map(_fmt, uniq.view(float).tolist())), dtype=object)
    return text[inverse.reshape(bits.shape)]


def _write_rows(path, header, row, n_rows, columns):
    """``header``, then ``row % cells`` for each of ``n_rows`` rows, one
    `write` per CHUNK_ROWS rows. ``columns(rows)`` gives, for a slice of
    rows, one sequence per cell of the row."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = columns(slice(start, start + CHUNK_ROWS))
            f.write("".join(map(row.__mod__, zip(*cells))))


def export_imu_csv(dataset, path):
    def columns(rows):
        values = _fmt_cells(np.hstack([dataset.accel[rows], dataset.gyro[rows]]))
        return [dataset.imu_t[rows].tolist(), *values.T.tolist()]
    _write_rows(path, IMU_CSV_HEADER, "%.9f,%s,%s,%s,%s,%s,%s\n",
                len(dataset.imu_t), columns)


def export_frames_csv(dataset, path):
    def columns(rows):
        return [range(len(dataset.frame_t))[rows], dataset.frame_t[rows].tolist(),
                _fmt_cells(dataset.exposure[rows]).tolist()]
    _write_rows(path, FRAMES_CSV_HEADER, "%d,%.9f,%s\n",
                len(dataset.frame_t), columns)


def load_imu_csv(path):
    """Read an exported IMU CSV back into (t, accel, gyro) arrays; the
    timestamps must strictly increase."""
    row = np.dtype([("t", float), ("accel", float, 3), ("gyro", float, 3)])
    t, accel, gyro = read_table(path, row, delimiter=",", header="t,")
    if np.any(np.diff(t) <= 0):
        raise InputError(f"{path}: IMU timestamps must be strictly increasing")
    return t, accel, gyro


def export_manifest(dataset, path):
    """Key: value manifest describing the dataset."""
    with open(path, "w") as f:
        for key, value in dataset.meta.items():
            if key == "warnings":
                for w in value:
                    f.write(f"warning: {w}\n")
            else:
                f.write(f"{key}: {value}\n")
