"""Trajectory accuracy tooling: timestamp association, Umeyama Sim(3)
alignment, ATE RMSE, and fiducial-tag displacement statistics.

TUM trajectories (``t tx ty tz qx qy qz qw`` lines) and tag detection CSVs
(``t,tag_id,px,py,pz`` in the camera frame, after a ``t,...`` header) load
through one table reader into column records, `Trajectory` and
`TagDetections`; every later step works on whole columns.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, UwvioError
from .geometry import Sim3Transform, quat_normalize, quat_slerp, quat_to_matrix
from .table import read_table

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
        if not (np.all(np.isfinite(self.t)) and np.all(np.diff(self.t) > 0)):
            raise InputError("trajectory timestamps must be finite and strictly increasing")

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


def load_tum(path):
    row = np.dtype([("t", float), ("positions", float, 3), ("quats", float, 4)])
    t, positions, quats = read_table(path, row)
    try:
        return Trajectory(t, positions, quat_normalize(quats))
    except (ValueError, InputError) as exc:  # a zero quaternion, unsorted times
        raise InputError(f"{path}: {exc}") from None


def save_tum(traj, path):
    np.savetxt(path, np.column_stack([traj.t, traj.positions, traj.quats]),
               fmt="%.9f", header="# t tx ty tz qx qy qz qw", comments="")


def associate(t_a, t_b, max_dt=DEFAULT_MAX_DT):
    """Greedy nearest-timestamp matching; each pose used at most once.

    ``t_b`` must be strictly increasing. The candidates of ``t_a[i]`` are
    the poses of ``t_b`` on either side of it within ``max_dt``; a
    candidate pair is taken in (|dt|, i, j) order when neither of its poses
    is taken yet. Returns an (m, 2) int array of the pairs (i, j), sorted
    by i.
    """
    t_a = np.asarray(t_a, dtype=float)
    t_b = np.asarray(t_b, dtype=float)
    if len(t_a) == 0 or len(t_b) == 0:
        raise UwvioError("empty trajectory")
    if not np.all(np.diff(t_b) > 0):
        raise ValueError("t_b must be strictly increasing")
    # candidates: the poses of t_b on either side of each t_a, nearest first
    j = np.searchsorted(t_b, t_a)[:, None] + [-1, 0]
    dt = np.abs(t_a[:, None] - t_b[np.clip(j, 0, len(t_b) - 1)])
    i, side = np.nonzero((j >= 0) & (j < len(t_b)) & (dt <= max_dt))
    j, dt = j[i, side], dt[i, side]
    order = np.lexsort((j, i, dt))
    i, j = i[order], j[order]
    # a candidate that comes first among the candidates of both its poses
    # is taken by the greedy loop whatever it takes before: take all such
    # at once and leave the loop the candidates of the poses still open
    rank = np.arange(len(i))
    first_a = np.full(len(t_a), len(i))
    first_b = np.full(len(t_b), len(i))
    np.minimum.at(first_a, i, rank)
    np.minimum.at(first_b, j, rank)
    take = (first_a[i] == rank) & (first_b[j] == rank)
    match = np.full(len(t_a), -1)
    match[i[take]] = j[take]
    used_b = np.zeros(len(t_b), dtype=bool)
    used_b[j[take]] = True
    open_ = (match[i] < 0) & ~used_b[j]
    for a, b in zip(i[open_].tolist(), j[open_].tolist()):
        if match[a] < 0 and not used_b[b]:
            match[a] = b
            used_b[b] = True
    a = np.flatnonzero(match >= 0)
    if not len(a):
        raise UwvioError(f"no timestamp pairs within {max_dt} s")
    return np.column_stack([a, match[a]])


def umeyama_sim3(source, target, fix_scale=False):
    """Closed-form least-squares similarity transform.

    Minimizes sum ||target_i - (s R source_i + t)||^2 over Sim(3); with
    ``fix_scale`` the scale is frozen at 1 (SE(3) mode).
    """
    src = np.asarray(source, dtype=float).reshape(-1, 3)
    dst = np.asarray(target, dtype=float).reshape(-1, 3)
    n = len(src)
    if n < 3 or len(dst) != n:
        raise UwvioError(f"need >= 3 point pairs, got {n}")
    mu_s = src.mean(axis=0)
    mu_d = dst.mean(axis=0)
    ds = src - mu_s
    dd = dst - mu_d
    cov = dd.T @ ds / n
    var_s = np.mean(np.sum(ds * ds, axis=1))
    U, D, Vt = np.linalg.svd(cov)
    if var_s < 1e-24 or D[1] <= max(D[0] * 1e-9, 1e-24):
        raise UwvioError("points are coincident or collinear")
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
        raise UwvioError("need at least one matched pair")
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
    return TagDetections(*read_table(path, row, delimiter=",", header="t,"))


def tag_world_positions(traj, detections, max_dt=DEFAULT_MAX_DT):
    """Map camera-frame detections to world positions via the trajectory
    pose at their time: interpolated between two poses, else the end pose
    if within max_dt. Returns (positions_by_tag, unmatched): an (n, 3)
    array per tag id in detection order, and the poseless `TagDetections`."""
    n = len(traj)
    if n == 0:
        raise UwvioError("empty trajectory")
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
        raise UwvioError("no tag detection has a trajectory pose")
    per_tag = {}
    all_devs = []
    for tag, pts in sorted(positions_by_tag.items()):
        pts = np.asarray(pts, dtype=float).reshape(-1, 3)
        if len(pts) < 2:
            raise UwvioError(f"tag {tag}: need >= 2 detections")
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
