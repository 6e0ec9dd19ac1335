"""Turn a recording's sensor columns into one globally timestamped dataset.

Per-sample timing follows the payload model: each payload spans
[T_i, T_{i+1}) and its n samples are placed uniformly on that span, for
all payloads at once from their count column. Frame timestamps come
straight from the SHUT stream; the accelerometer timeline is the master
IMU clock and the gyroscope is linearly resampled onto it when
per-payload counts differ.
"""

import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gpmf
from .errors import InputError
from .table import read_table

IMU_CSV_HEADER = "t,ax,ay,az,gx,gy,gz"
IMU_SENSORS = ("accel", "gyro")           # the IMU CSV's cell triples, in order
FRAMES_CSV_HEADER = "index,t,exposure"

# accelerometer/gyroscope count disagreement tolerated inside one payload
COUNT_TOLERANCE = 2

# rows formatted and written per block by the CSV exporters
CHUNK_ROWS = 16384

# bytes of the shortest IMU CSV row, "0,0,0,0,0,0,0\n": a CSV of s bytes
# holds at most s // 14 rows
MIN_ROW_BYTES = 14


@dataclass
class SensorStreams:
    """Sensor samples of a whole recording, payload after payload."""
    start: np.ndarray      # (P,) payload start times, seconds
    duration: np.ndarray   # (P,) payload durations, seconds
    counts: np.ndarray     # (P, 3) ACCL, GYRO and SHUT samples of each payload
    accel: np.ndarray | None = None    # (n, 3) m/s^2
    gyro: np.ndarray | None = None     # (n, 3) rad/s
    shutter: np.ndarray | None = None  # (n,) seconds
    axis_order: str = "xyz"            # device order remapped to x, y, z


@dataclass
class SyncedDataset:
    imu_t: np.ndarray      # (N,) seconds since recording start
    accel: np.ndarray      # (N, 3)
    gyro: np.ndarray       # (N, 3)
    frame_t: np.ndarray    # (M,)
    exposure: np.ndarray   # (M,)
    meta: dict = field(default_factory=dict)


def payload_streams_from_klv(raw_payloads, axis_order="xyz"):
    """Decode a list of RawPayloads into one SensorStreams.

    ``axis_order`` names the device channel order of ACCL/GYRO relative to
    the (x, y, z) output convention; the streams carry it, and
    `build_dataset` records it in the dataset's metadata.
    """
    roots = [gpmf.parse_klv(rp.data) for rp in raw_payloads]
    (accel, gyro, shutter), counts = gpmf.extract_stream(
        roots, ("ACCL", "GYRO", "SHUT"), axis_order=axis_order)
    return SensorStreams(
        start=np.array([rp.start_time for rp in raw_payloads], dtype=float),
        duration=np.array([rp.duration for rp in raw_payloads], dtype=float),
        counts=counts, accel=accel, gyro=gyro,
        shutter=None if shutter is None else shutter[:, 0], axis_order=axis_order)


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
        raise InputError("payload start times are not strictly increasing")
    if np.any(counts < 1):
        raise InputError(f"payload {np.argmax(counts < 1)} has zero samples")
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


def build_dataset(streams, meta=None):
    """Merge a recording's decoded SensorStreams into one SyncedDataset.

    The clock origin is the first payload's start. ACCL is the master IMU
    timeline; GYRO is linearly interpolated onto it. Frame k is timestamped
    by the k-th SHUT sample time.
    """
    counts = streams.counts
    if not len(counts):
        raise InputError("no payloads")
    never = [key for key, n in zip(("ACCL", "GYRO", "SHUT"), counts.max(axis=0)) if n == 0]
    if never:
        raise InputError(f"streams never seen: {', '.join(never)}")
    mismatch = np.flatnonzero(np.abs(counts[:, 0] - counts[:, 1]) > COUNT_TOLERANCE)
    if mismatch.size:
        i = mismatch[0]
        raise InputError(
            f"payload {i}: ACCL count {counts[i, 0]} vs GYRO count {counts[i, 1]} "
            f"differ by more than {COUNT_TOLERANCE}")

    starts = streams.start - streams.start[0]
    # payload spans: each start, then the end of the last payload
    bounds = np.append(starts, starts[-1] + streams.duration[-1])

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
    gyro = streams.gyro
    if not (accel_t.shape == gyro_t.shape and np.allclose(accel_t, gyro_t)):
        gyro = np.column_stack([np.interp(accel_t, gyro_t, gyro[:, c]) for c in range(3)])

    frame_t = _sample_times(bounds, counts[:, 2])

    rate = 1.0 / float(np.median(np.diff(accel_t))) if len(accel_t) > 1 else 0.0
    full_meta = {
        "axis_convention": f"device order {streams.axis_order} remapped to xyz",
        "imu_rate_hz": rate,
        "n_imu_samples": len(accel_t),
        "n_frames": len(frame_t),
        "duration_s": float(bounds[-1]),
        "warnings": warnings_list,
    }
    if meta:
        full_meta.update(meta)
    return SyncedDataset(imu_t=accel_t, accel=streams.accel, gyro=gyro,
                         frame_t=frame_t, exposure=streams.shutter, meta=full_meta)


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


def _times(t):
    """``%.9f`` of every value of ``t``, formatted in one pass."""
    return ("%.9f\n" * len(t) % tuple(t.tolist())).split("\n")[:-1]


def _write_rows(path, header, n_rows, columns):
    """``header``, then each of ``n_rows`` rows as its cells joined by
    commas, one `write` per CHUNK_ROWS rows. ``columns(rows)`` gives, for a
    slice of rows, one sequence of cell strings per column."""
    with open(path, "w") as f:
        f.write(header + "\n")
        for start in range(0, n_rows, CHUNK_ROWS):
            cells = columns(slice(start, start + CHUNK_ROWS))
            f.write("\n".join(map(",".join, zip(*cells))) + "\n")


def imu_sidecar(path):
    """Path of the sidecar that `export_imu_csv` writes beside the IMU CSV
    at ``path``."""
    return Path(f"{os.fspath(path)}.cols")


def _sha256(path, columns):
    """sha256 of the bytes of the file at ``path``, read in 1 MB pieces,
    followed by the bytes of the array ``columns``."""
    import hashlib      # 2.8 ms to import, which `import uwvio.cli` does not pay
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for piece in iter(lambda: f.read(1 << 20), b""):
            digest.update(piece)
    digest.update(columns)
    return digest.digest()


def export_imu_csv(dataset, path):
    """The IMU CSV at ``path``, and beside it its sidecar (`imu_sidecar`),
    whose path is returned: the sha256 of the CSV's bytes and the column
    bytes, then the ``t``, ``accel`` and ``gyro`` columns as `load_imu_csv`
    parses them, as little-endian float64; 32 + 56 n bytes, no header.
    Reading them back costs a hash instead of a parse. The ``t`` cells are
    the ``%.9f`` strings parsed back; the sample cells round-trip the
    dataset's values."""
    t = np.empty(len(dataset.imu_t))

    def columns(rows):
        times = _times(dataset.imu_t[rows])
        t[rows] = np.array(times, dtype=float)
        values = _fmt_cells(np.hstack([dataset.accel[rows], dataset.gyro[rows]]))
        return [times, *values.T.tolist()]
    _write_rows(path, IMU_CSV_HEADER, len(t), columns)
    cols = np.concatenate([t, np.ravel(dataset.accel), np.ravel(dataset.gyro)], dtype="<f8")
    sidecar = imu_sidecar(path)
    with open(sidecar, "wb") as f:
        f.write(_sha256(path, cols))
        cols.tofile(f)
    return sidecar


def export_frames_csv(dataset, path):
    def columns(rows):
        return [map(str, range(len(dataset.frame_t))[rows]),
                _times(dataset.frame_t[rows]), _fmt_cells(dataset.exposure[rows]).tolist()]
    _write_rows(path, FRAMES_CSV_HEADER, len(dataset.frame_t), columns)


def _read_sidecar(path, sensor):
    """``t`` and the ``sensor`` samples of the IMU CSV at ``path`` from its
    sidecar, or None when it has none or it is passed over with a warning:
    when its size is not 32 + 56 n bytes for an n of at most the rows the
    CSV's size can hold (so nothing larger is allocated), fewer than 7 n
    values can be read, its digest is not the sha256 of the CSV and those
    values, its columns fail the checks of a parse, or reading it raises
    `OSError`."""
    sidecar = imu_sidecar(path)
    if not sidecar.exists():
        return None
    max_rows = os.path.getsize(path) // MIN_ROW_BYTES
    try:
        n, extra = divmod(sidecar.stat().st_size - 32, 56)
        if n < 0 or extra or n > max_rows:
            problem = "malformed, or more rows than the CSV can hold"
        else:
            with open(sidecar, "rb") as f:
                stored = f.read(32)
                cols = np.fromfile(f, "<f8", 7 * n)
            if len(cols) < 7 * n or _sha256(path, cols) != stored:
                problem = "stale: its digest is not the sha256 of the CSV and its columns"
            else:
                t, *series = np.split(cols, [n, 4 * n])
                samples = series[IMU_SENSORS.index(sensor)].reshape(n, 3)
                if np.isfinite(t).all() and np.isfinite(samples).all() and np.all(np.diff(t) > 0):
                    return t, samples
                problem = "columns not finite or not strictly increasing"
    except OSError as exc:
        problem = f"unreadable ({type(exc).__name__}: {exc})"
    warnings.warn(f"{sidecar}: {problem}; parsed {path} instead")
    return None


def load_imu_csv(path, sensor):
    """The timestamps ``t`` and the ``(n, 3)`` samples of ``sensor``
    (``"accel"`` or ``"gyro"``) of an exported IMU CSV, and where they came
    from: ``"sidecar"`` when the sidecar `export_imu_csv` wrote beside the
    CSV still matches it (see `_read_sidecar`), else ``"csv"``.

    Every line must hold all 7 fields, but only ``t`` and the three cells
    of ``sensor`` are parsed and checked: the other sensor's cells are read
    as one-character placeholders, so they may hold any text. The
    timestamps must strictly increase."""
    if sensor not in IMU_SENSORS:
        raise ValueError(f"unknown IMU sensor {sensor!r}")
    columns = _read_sidecar(path, sensor)
    if columns is not None:
        return (*columns, "sidecar")
    row = np.dtype([("t", float)] + [(name, float if name == sensor else "U1", 3)
                                     for name in IMU_SENSORS])
    t, *series = read_table(path, row, delimiter=",", header="t,")
    if np.any(np.diff(t) <= 0):
        raise InputError(f"{path}: IMU timestamps must be strictly increasing")
    return t, series[IMU_SENSORS.index(sensor)], "csv"


def export_manifest(dataset, path):
    """Key: value manifest describing the dataset."""
    with open(path, "w") as f:
        for key, value in dataset.meta.items():
            if key == "warnings":
                for w in value:
                    f.write(f"warning: {w}\n")
            else:
                f.write(f"{key}: {value}\n")
