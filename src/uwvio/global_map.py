"""Loop-closure-consistent sparse global map.

Keyframes carry world poses; landmark observations are cached in
keyframe-local coordinates, so a pose update implicitly moves every
attached landmark while keeping the point-to-keyframe relative pose
unchanged. Fusion is the quality-weighted mean over all observations of a
landmark.

Observations live in one table of column arrays with a row per
(landmark, keyframe) pair: keyframe slot, landmark slot, keyframe-local
position ``p_f``, quality and colour. ``landmarks`` maps each
landmark id to ``{keyframe id: row}``, so a repeated observation overwrites
its row. Keyframe poses sit in slot-indexed rotation and translation
arrays. One kernel fuses any set of landmarks: it moves the rows into the
world frame chunk by chunk, sums each weighted channel per landmark slot
with ``np.bincount``, puts the sums in landmark-id order, and costs time
linear in the number of observations.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ply
from .errors import (DuplicateKeyframe, EventLogError, InvalidQuality,
                     UnknownKeyframe, UnknownLandmark, UwvioError)
from .geometry import RigidTransform

# rows transformed per step, so the gathered (rows, 3, 3) rotations stay in cache
_CHUNK = 16_384


@dataclass(frozen=True)
class FusedPoint:
    p_w: np.ndarray
    color: np.ndarray
    quality: float
    n_obs: int


def _grow(a):
    """Copy of ``a`` with twice the rows (at least 16), the old ones kept."""
    out = np.empty((max(2 * len(a), 16),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


class GlobalMap:
    """Single-writer map state; fuse/export are read-only."""

    def __init__(self):
        self.keyframes = {}      # id -> RigidTransform (T_wf)
        self.landmarks = {}      # landmark id -> {keyframe id: table row}
        self._kf_slot = {}       # keyframe id -> index into _R, _t
        self._lm_slot = {}       # landmark id -> index into _lm_ids
        self._R = np.empty((0, 3, 3))
        self._t = np.empty((0, 3))
        self._lm_ids = np.empty(0, dtype=np.int64)
        self.n_observations = 0  # rows in use
        self._kf = np.empty(0, dtype=np.intp)
        self._lm = np.empty(0, dtype=np.intp)
        self._p_f = np.empty((0, 3))
        self._quality = np.empty(0)
        self._color = np.empty((0, 3))

    def add_keyframe(self, kf_id, pose):
        if kf_id in self.keyframes:
            raise DuplicateKeyframe(f"keyframe {kf_id} already present")
        slot = len(self._kf_slot)
        if slot == len(self._R):
            self._R, self._t = _grow(self._R), _grow(self._t)
        self._R[slot], self._t[slot] = pose.R, pose.t
        self._kf_slot[kf_id] = slot
        self.keyframes[kf_id] = pose

    def add_observation(self, landmark_id, kf_id, p_w_obs, quality,
                        color=(0, 0, 0)):
        """Cache a world-frame observation in keyframe-local coordinates.

        A repeated observation from the same keyframe replaces the old one.
        Landmark ids must fit in a signed 64-bit integer.
        """
        pose = self.keyframes.get(kf_id)
        if pose is None:
            raise UnknownKeyframe(f"keyframe {kf_id} not in map")
        if not 0.0 <= quality <= 1.0:
            raise InvalidQuality(f"quality {quality} outside [0, 1]")
        p_f = pose.R.T @ (np.asarray(p_w_obs, dtype=float) - pose.t)
        rows = self.landmarks.get(landmark_id)
        if rows is None:
            slot = len(self._lm_slot)
            if slot == len(self._lm_ids):
                self._lm_ids = _grow(self._lm_ids)
            self._lm_ids[slot] = landmark_id
            self._lm_slot[landmark_id] = slot
            rows = self.landmarks[landmark_id] = {}
        row = rows.get(kf_id)
        if row is None:
            row = rows[kf_id] = self.n_observations
            self.n_observations += 1
            if row == len(self._kf):
                self._kf, self._lm, self._p_f, self._quality, self._color = map(
                    _grow, (self._kf, self._lm, self._p_f, self._quality, self._color))
            self._kf[row] = self._kf_slot[kf_id]
            self._lm[row] = self._lm_slot[landmark_id]
        self._p_f[row] = p_f
        self._quality[row] = quality
        self._color[row] = color

    def update_keyframe_poses(self, updates):
        """Replace keyframe poses (absolute, e.g. pose-graph output).

        Stored local observations are untouched; the deformation shows up
        in subsequent fusion.
        """
        for kf_id in updates:
            if kf_id not in self.keyframes:
                raise UnknownKeyframe(f"keyframe {kf_id} not in map")
        self.keyframes.update(updates)
        for kf_id, pose in updates.items():
            slot = self._kf_slot[kf_id]
            self._R[slot], self._t[slot] = pose.R, pose.t

    def _fuse(self, landmark_id=None):
        """Fuse one landmark, or every landmark when ``landmark_id`` is None.

        Returns landmark ids in ascending order with, per landmark, the
        world position, colour, mean quality and observation count.
        """
        if landmark_id is None:
            n_lm = len(self._lm_slot)
            rows = slice(0, self.n_observations)
            groups = self._lm[rows]                       # landmark slot of each row
            order = np.argsort(self._lm_ids[:n_lm])       # slot of each output
            ids = self._lm_ids[order]
        else:
            obs = self.landmarks.get(landmark_id)
            if not obs:
                raise UnknownLandmark(f"landmark {landmark_id} has no observations")
            n_lm = 1
            rows = np.fromiter(obs.values(), dtype=np.intp, count=len(obs))
            groups = np.zeros(len(obs), dtype=np.intp)
            order = np.zeros(1, dtype=np.intp)
            ids = self._lm_ids[[self._lm_slot[landmark_id]]]
        kf, p_f = self._kf[rows], self._p_f[rows]
        quality, color = self._quality[rows], self._color[rows]
        count = np.bincount(groups, minlength=n_lm)
        q_sum = np.bincount(groups, weights=quality, minlength=n_lm)
        # all-zero weights make the weighted mean 0/0; such a landmark gets
        # the unweighted mean instead of being dropped
        unweighted = q_sum == 0.0
        w = np.where(unweighted[groups], 1.0, quality) if unweighted.any() else quality
        denom = np.where(unweighted, count, q_sum)
        # w times the world x, y, z of every row; row 0 then takes w times
        # r, g and b in turn, so each channel is summed from one contiguous row
        weighted = np.empty((3, len(groups)))
        for s in range(0, len(groups), _CHUNK):
            e = s + _CHUNK
            k = kf[s:e]
            weighted[:, s:e] = (np.einsum("nij,nj->in", self._R[k], p_f[s:e])
                                + self._t[k].T) * w[s:e]
        mean = np.empty((6, len(order)))
        for c in range(6):
            channel = (weighted[c] if c < 3
                       else np.multiply(color[:, c - 3], w, out=weighted[0]))
            total = np.bincount(groups, weights=channel, minlength=n_lm)
            total /= denom
            np.take(total, order, out=mean[c])
        color = mean[3:]
        np.clip(np.rint(color, out=color), 0, 255, out=color)
        return ids, mean[:3].T, color.T, (q_sum / count)[order], count[order]

    def fuse_landmark(self, landmark_id):
        _, p_w, color, quality, count = self._fuse(landmark_id)
        return FusedPoint(p_w=p_w[0], color=color[0], quality=float(quality[0]),
                          n_obs=int(count[0]))

    def fuse_all(self):
        """Fused points for every landmark, in landmark-id order."""
        ids, p_w, color, quality, count = self._fuse()
        return {lm: FusedPoint(p_w=p, color=c, quality=q, n_obs=n)
                for lm, p, c, q, n in zip(ids.tolist(), p_w, color,
                                          quality.tolist(), count.tolist())}

    def export_fused_cloud(self, path):
        """Write every fused landmark to a binary PLY; returns the count."""
        _, p_w, color, quality, _ = self._fuse()
        return ply.write_ply(path, p_w, colors=color, quality=quality)


def _finite(fields):
    """``fields`` as floats; a non-finite one is a ValueError."""
    values = [float(v) for v in fields]
    if not all(map(math.isfinite, values)):
        raise ValueError("non-finite value")
    return values


def _parse_pose(fields):
    values = _finite(fields)
    return RigidTransform(q=np.array(values[3:]), t=np.array(values[:3]))


def replay_log(lines):
    """Apply a recorded VIO event stream to a fresh map.

    ``lines`` are str, or bytes decoded as UTF-8. Line formats
    (whitespace-separated, quaternion w-last; integer pixel ``u v``, not kept):
      KF  id tx ty tz qx qy qz qw
      OBS lm_id kf_id px py pz q r g b u v
      UPD id tx ty tz qx qy qz qw
    A bad line, such as one with a non-finite number or an unknown
    keyframe, is an `EventLogError` carrying its line number.
    """
    gmap = GlobalMap()
    pending_updates = {}

    def flush_updates():
        if pending_updates:
            gmap.update_keyframe_poses(dict(pending_updates))
            pending_updates.clear()

    for line_no, line in enumerate(lines, start=1):
        try:
            fields = (line if isinstance(line, str) else line.decode()).split()
            if not fields or fields[0].startswith("#"):
                continue
            tag = fields[0]
            if tag == "KF":
                flush_updates()
                if len(fields) != 9:
                    raise EventLogError(line_no, f"KF expects 8 values, got {len(fields) - 1}")
                gmap.add_keyframe(int(fields[1]), _parse_pose(fields[2:9]))
            elif tag == "OBS":
                flush_updates()
                if len(fields) != 12:
                    raise EventLogError(line_no, f"OBS expects 11 values, got {len(fields) - 1}")
                values = _finite(fields[3:10])
                int(fields[10]), int(fields[11])  # u v: checked, not kept
                gmap.add_observation(int(fields[1]), int(fields[2]), values[:3], values[3],
                                     color=values[4:])
            elif tag == "UPD":
                if len(fields) != 9:
                    raise EventLogError(line_no, f"UPD expects 8 values, got {len(fields) - 1}")
                kf_id = int(fields[1])
                if kf_id not in gmap.keyframes:
                    raise UnknownKeyframe(f"keyframe {kf_id} not in map")
                pending_updates[kf_id] = _parse_pose(fields[2:9])
            else:
                raise EventLogError(line_no, f"unknown event {tag!r}")
        except EventLogError:
            raise
        except (UwvioError, ValueError, OverflowError) as exc:  # UnicodeDecodeError is one
            raise EventLogError(line_no, str(exc)) from exc
    flush_updates()
    return gmap


def replay_log_file(path):
    with open(path, "rb") as f:
        return replay_log(f)
