"""Trajectory accuracy tooling: timestamp association, Umeyama Sim(3)
alignment, ATE RMSE, and fiducial-tag displacement statistics.

TUM trajectories (``t tx ty tz qx qy qz qw`` lines) and tag detection CSVs
(``t,tag_id,px,py,pz`` in the camera frame, after a ``t,...`` header) load
through one table reader into column records, `Trajectory` and
`TagDetections`; every later step works on whole columns.
"""

import re
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateConfiguration, EmptyPairs, InputError,
                     InsufficientDetections, NoMatches, loadtxt_field_error)
from .geometry import Sim3Transform, quat_normalize, quat_slerp, quat_to_matrix

DEFAULT_MAX_DT = 0.020  # half the 60 Hz frame interval


@dataclass
class Trajectory:
    t: np.ndarray          # (n,) strictly increasing seconds
    positions: np.ndarray  # (n, 3)
    quats: np.ndarray      # (n, 4), (x, y, z, w), unit norm

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.positions = np.asarray(self.positions, dtype=float)
        self.quats = np.asarray(self.quats, dtype=float)
        if len(self.t) and np.any(np.diff(self.t) <= 0):
            raise InputError("trajectory timestamps must be strictly increasing")

    def __len__(self):
        return len(self.t)


@dataclass
class TagDetections:
    t: np.ndarray       # (n,) seconds
    tag_id: np.ndarray  # (n,) int64
    p_cm: np.ndarray    # (n, 3) marker position in camera frame

    def __post_init__(self):
        self.t = np.asarray(self.t, dtype=float)
        self.tag_id = np.asarray(self.tag_id, dtype=np.int64)
        self.p_cm = np.asarray(self.p_cm, dtype=float).reshape(-1, 3)

    def __len__(self):
        return len(self.t)


def _read_table(path, row, record, delimiter=None, header=None):
    """``record`` of the columns of a numeric text table, one ``row`` per
    data line; `#` starts a comment and lines starting with ``header`` are
    skipped. Any failure on the way, such as a field that does not parse as
    its column's type, is an `InputError` naming the file."""
    text = ""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        if header:
            # blank skipped lines rather than drop them, so line numbers hold
            text = re.sub(rf"(?m)^(?:[ \t]*(?:#|{re.escape(header)}).*|[ \t]+)$", "", text)
        # an iterator, not the list, keeps numpy's no-data warning short
        rows = np.loadtxt(iter(text.split("\n")), dtype=row, delimiter=delimiter, ndmin=1)
        if not all(np.isfinite(rows[name]).all() for name in row.names):
            raise ValueError("non-finite value")
        return record(**{name: np.ascontiguousarray(rows[name]) for name in row.names})
    except (ValueError, InputError) as exc:  # UnicodeDecodeError is a ValueError
        raise InputError(_field_count_error(path, text, row, delimiter)
                         or loadtxt_field_error(path, exc, text.split("\n"))
                         or f"{path}: {exc}") from None


def _field_count_error(path, text, row, delimiter):
    """Message naming the first data line with a wrong field count, if any."""
    n = row.itemsize // 8  # every column is 8 bytes wide
    if delimiter is None:
        field, sep, pad = r"[^\s#]+", r"[^\S\n]+", r"[^\S\n]*"
    else:
        field, sep, pad = rf"[^{delimiter}#\n]*", delimiter, ""
    good = rf"{pad}(?:{field}(?:{sep}{field}){{{n - 1}}}{pad})?(?:#.*)?"
    bad = re.search(rf"(?m)^(?!{good}$).+$", text)
    if bad:
        got = len(bad.group().partition("#")[0].split(delimiter))
        line_no = text.count("\n", 0, bad.start()) + 1
        return f"{path}:{line_no}: expected {n} fields, got {got}"


def load_tum(path):
    row = np.dtype([("t", float), ("positions", float, 3), ("quats", float, 4)])
    return _read_table(path, row, lambda t, positions, quats:
                       Trajectory(t, positions, quat_normalize(quats)))


def save_tum(traj, path):
    np.savetxt(path, np.column_stack([traj.t, traj.positions, traj.quats]),
               fmt="%.9f", header="# t tx ty tz qx qy qz qw", comments="")


def associate(t_a, t_b, max_dt=DEFAULT_MAX_DT):
    """Greedy nearest-timestamp matching; each pose used at most once.

    Returns an (m, 2) int array of the pairs (i, j) with
    |t_a[i] - t_b[j]| <= max_dt, sorted by i.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    if len(t_a) == 0 or len(t_b) == 0:
        raise NoMatches("empty trajectory")
    # candidates: the poses of t_b on either side of each t_a, nearest first
    j = np.searchsorted(t_b, t_a)[:, None] + [-1, 0]
    dt = np.abs(t_a[:, None] - t_b[np.clip(j, 0, len(t_b) - 1)])
    i, side = np.nonzero((j >= 0) & (j < len(t_b)) & (dt <= max_dt))
    j, dt = j[i, side], dt[i, side]
    order = np.lexsort((j, i, dt))
    match, used_b = {}, set()
    for a, b in zip(i[order].tolist(), j[order].tolist()):
        if a not in match and b not in used_b:
            match[a] = b
            used_b.add(b)
    if not match:
        raise NoMatches(f"no timestamp pairs within {max_dt} s")
    return np.array(sorted(match.items()))


def umeyama_sim3(source, target, fix_scale=False):
    """Closed-form least-squares similarity transform.

    Minimizes sum ||target_i - (s R source_i + t)||^2 over Sim(3); with
    ``fix_scale`` the scale is frozen at 1 (SE(3) mode).
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    n = len(src)
    if n < 3 or len(dst) != n:
        raise DegenerateConfiguration(f"need >= 3 point pairs, got {n}")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    ds = src - mu_s
    dd = dst - mu_d
    cov = dd.T @ ds / n
    var_s = np.mean(np.sum(ds * ds, axis=1))
    U, D, Vt = np.linalg.svd(cov)
    if var_s < 1e-24 or D[1] <= max(D[0] * 1e-9, 1e-24):
        raise DegenerateConfiguration("points are coincident or collinear")
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    s = 1.0 if fix_scale else float(np.trace(np.diag(D) @ S) / var_s)
    t = mu_d - s * (R @ mu_s)
    return Sim3Transform(s=s, R=R, t=t)


def ate_rmse(reference, estimated, transform=None):
    """Root mean squared position error after applying ``transform`` to
    the estimated positions."""
    ref = np.asarray(reference, dtype=float).reshape(-1, 3)
    est = np.asarray(estimated, dtype=float).reshape(-1, 3)
    if len(ref) == 0 or len(ref) != len(est):
        raise EmptyPairs("need at least one matched pair")
    if transform is not None:
        est = transform.apply(est)
    residuals = ref - est
    return float(np.sqrt(np.mean(np.sum(residuals * residuals, axis=1))))


def evaluate_ate(traj_ref, traj_est, max_dt=DEFAULT_MAX_DT, fix_scale=False):
    """Associate, align, and score two trajectories.

    Returns (ate, transform, n_pairs).
    """
    pairs = associate(traj_ref.t, traj_est.t, max_dt)
    ref = traj_ref.positions[pairs[:, 0]]
    est = traj_est.positions[pairs[:, 1]]
    transform = umeyama_sim3(est, ref, fix_scale=fix_scale)
    return ate_rmse(ref, est, transform), transform, len(pairs)


def load_tag_csv(path):
    row = np.dtype([("t", float), ("tag_id", np.int64), ("p_cm", float, 3)])
    return _read_table(path, row, TagDetections, delimiter=",", header="t,")


def tag_world_positions(traj, detections, max_dt=DEFAULT_MAX_DT):
    """Map camera-frame detections to world positions via the trajectory
    pose at their time: interpolated between two poses, else the end pose
    if within max_dt. Returns (positions_by_tag, unmatched): an (n, 3)
    array per tag id in detection order, and the poseless `TagDetections`."""
    n = len(traj)
    if n == 0:
        raise NoMatches("empty trajectory")
    t = detections.t
    k = np.searchsorted(traj.t, t)
    inside = (k > 0) & (k < n)
    edge = np.minimum(k, n - 1)
    ok = inside | (np.abs(traj.t[edge] - t) <= max_dt)
    pos = traj.positions[edge]
    quats = traj.quats[edge]
    k = k[inside]
    t0, t1 = traj.t[k - 1], traj.t[k]
    alpha = ((t[inside] - t0) / (t1 - t0))[:, None]
    pos[inside] = (1 - alpha) * traj.positions[k - 1] + alpha * traj.positions[k]
    quats[inside] = quat_slerp(traj.quats[k - 1], traj.quats[k], alpha[:, 0])
    R = quat_to_matrix(quats[ok])
    world = (R @ detections.p_cm[ok][:, :, None])[:, :, 0] + pos[ok]
    tag_id = detections.tag_id[ok]
    order = np.argsort(tag_id, kind="stable")
    tags, starts = np.unique(tag_id[order], return_index=True)
    by_tag = dict(zip(tags.tolist(), np.split(world[order], starts[1:])))
    return by_tag, TagDetections(t[~ok], detections.tag_id[~ok], detections.p_cm[~ok])


@dataclass
class TagStats:
    per_tag: dict      # tag id -> dict of stats
    std_xyz: np.ndarray
    avg_dist_error: float
    n_detections: int


def tag_statistics(positions_by_tag):
    """Per-tag and overall displacement statistics about the per-tag mean.

    Standard deviations use the sample (n-1) estimator. Quantiles per tag
    are (min, Q1, median, Q3, max) of the distance errors.
    """
    if not positions_by_tag:
        raise InsufficientDetections("no tag detection has a trajectory pose")
    per_tag = {}
    all_devs = []
    for tag, pts in sorted(positions_by_tag.items()):
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        if len(pts) < 2:
            raise InsufficientDetections(f"tag {tag}: need >= 2 detections")
        mean = pts.mean(axis=0)
        devs = pts - mean
        dists = np.linalg.norm(devs, axis=1)
        per_tag[tag] = {
            "n": len(pts),
            "mean": mean,
            "std_xyz": np.std(pts, axis=0, ddof=1),
            "avg_dist_error": float(np.mean(dists)),
            "quantiles": np.percentile(dists, [0, 25, 50, 75, 100]),
        }
        all_devs.append(devs)
    devs = np.vstack(all_devs)
    dists = np.linalg.norm(devs, axis=1)
    return TagStats(per_tag=per_tag,
                    std_xyz=np.std(devs, axis=0, ddof=1),
                    avg_dist_error=float(np.mean(dists)),
                    n_detections=len(dists))
