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
arrays.

Writes convert world points to keyframe-local ones in one place, a stacked
``np.matmul`` over many rows. `add_observations` converts its rows at once;
`add_observation` stores its row's world point, quality and colour as given
and stages the row. The staged rows are converted before any other write or
read, at the end of `replay_log`, and whenever `_CHUNK` rows are staged, so
a staged observation keeps the pose of its call and a fused export converts
fewer than `_CHUNK` staged rows. One kernel fuses any set of landmarks: it
moves the rows into the world frame chunk by chunk, sums each weighted
channel per landmark slot with ``np.bincount``, puts the sums in landmark-id
order, and costs time linear in the number of observations. The fusion of
every landmark is kept until the next write; fused reads of it return
copies. An event log's runs of ``OBS`` lines are parsed by numpy and stored
block by block through `add_observations`.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import ply
from .errors import EventLogError, UwvioError
from .geometry import RigidTransform

# rows transformed per step, OBS lines parsed per block and observations
# staged at most, so the gathered (rows, 3, 3) rotations stay in cache and a
# block's memory stays bounded
_CHUNK = 16_384

# the 12 whitespace-separated fields of an event-log OBS line
_OBS_ROW = np.dtype([("tag", "U3"), ("lm", np.int64), ("kf", np.int64),
                     ("p_w", float, 3), ("quality", float), ("color", float, 3),
                     ("uv", np.int64, 2)])
# how a line of a run starts: numpy drops trailing NULs of a string field, so
# the tag is checked here rather than by its parsed value; other OBS lines
# (indented, or a tab after the tag) are applied line by line
_OBS_START = ("OBS ", b"OBS ")


@dataclass(frozen=True)
class FusedPoint:
    p_w: np.ndarray
    color: np.ndarray
    quality: float
    n_obs: int


def _grow(a, rows=0):
    """Copy of ``a`` with twice the rows (at least 16 and at least ``rows``),
    the old ones kept."""
    out = np.empty((max(2 * len(a), 16, rows),) + a.shape[1:], dtype=a.dtype)
    out[:len(a)] = a
    return out


def _landmark_id(value):
    """``value`` as an int; `UwvioError` unless it is an integer that fits
    in int64."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        whole = None
    if whole is None or whole != value or not -2 ** 63 <= whole < 2 ** 63:
        raise UwvioError(f"landmark id {value!r} is not an integer that fits in int64")
    return whole


def _landmark_ids(values):
    """`_landmark_id` of every value, as an int64 array of the same shape."""
    values = np.asarray(values)
    if np.can_cast(values.dtype, np.int64):
        return values.astype(np.int64)
    if values.dtype.kind != "f":
        return np.array([_landmark_id(v) for v in values.ravel().tolist()],
                        dtype=np.int64).reshape(values.shape)
    whole = (values == np.trunc(values)) & (values >= -2.0 ** 63) & (values < 2.0 ** 63)
    if not whole.all():
        _landmark_id(values[~whole].flat[0].item())
    return values.astype(np.int64)


class GlobalMap:
    """Single-writer map state.

    Reads store the staged observations first and keep the fusion of every
    landmark until the next write; what they return never shares memory
    with the kept fusion.
    """

    def __init__(self):
        self.keyframes = {}      # id -> RigidTransform (T_wf)
        self.landmarks = {}      # landmark id -> {keyframe id: table row}
        self._kf_slot = {}       # keyframe id -> index into _R, _t
        self._lm_slot = {}       # landmark id -> index into _lm_ids
        self._R = np.empty((0, 3, 3))
        self._t = np.empty((0, 3))
        self._lm_ids = np.empty(0, dtype=np.int64)
        self.n_observations = 0  # rows in use
        self.n_replaced = 0      # observations that overwrote their pair's row
        self._kf = np.empty(0, dtype=np.intp)
        self._lm = np.empty(0, dtype=np.intp)
        self._p_f = np.empty((0, 3))
        self._quality = np.empty(0)
        self._color = np.empty((0, 3))
        self._staged = []        # rows whose p_f holds a world point, in call order
        self._fused = None       # _fuse() of every landmark, until the next write

    def add_keyframe(self, kf_id, pose):
        if kf_id in self.keyframes:
            raise UwvioError(f"keyframe {kf_id} already present")
        slot = len(self._kf_slot)
        if slot == len(self._R):
            self._R, self._t = _grow(self._R), _grow(self._t)
        self._R[slot], self._t[slot] = pose.R, pose.t
        self._kf_slot[kf_id] = slot
        self.keyframes[kf_id] = pose

    def add_observation(self, landmark_id, kf_id, p_w_obs, quality,
                        color=(0, 0, 0)):
        """Stage a world-frame observation, to be cached in keyframe-local
        coordinates at the keyframe's pose of this call.

        A repeated observation from the same keyframe replaces the old one.
        The point and the colour hold 3 numbers each, and a landmark id must
        be an integer that fits in a signed 64-bit integer. A call that
        raises changes nothing.
        """
        kf_slot = self._kf_slot.get(kf_id)
        if kf_slot is None:
            raise UwvioError(f"keyframe {kf_id} not in map")
        if not 0.0 <= quality <= 1.0:
            raise UwvioError(f"quality {quality} outside [0, 1]")
        # the values go first to the next free row, so values that fail to
        # convert leave every row in use as it was
        new = self.n_observations
        if new == len(self._kf):
            self._kf, self._lm, self._p_f, self._quality, self._color = map(
                _grow, (self._kf, self._lm, self._p_f, self._quality, self._color))
        try:
            if len(p_w_obs) != 3 or len(color) != 3:
                raise ValueError
            self._p_f[new] = p_w_obs
            self._color[new] = color
            self._quality[new] = quality
        except (TypeError, ValueError):
            raise UwvioError("an observation's point and colour must hold 3 numbers "
                             f"each, got {p_w_obs!r} and {color!r}") from None
        rows = self.landmarks.get(landmark_id)
        if rows is None:
            lm_id = _landmark_id(landmark_id)
            slot = len(self._lm_slot)
            if slot == len(self._lm_ids):
                self._lm_ids = _grow(self._lm_ids)
            self._lm_ids[slot] = lm_id
            self._lm_slot[landmark_id] = slot
            rows = self.landmarks[landmark_id] = {}
        row = rows.get(kf_id)
        if row is None:
            row = rows[kf_id] = new
            self.n_observations += 1
            self._kf[row] = kf_slot
            self._lm[row] = self._lm_slot[landmark_id]
        else:
            self.n_replaced += 1
            self._p_f[row] = self._p_f[new]
            self._quality[row] = self._quality[new]
            self._color[row] = self._color[new]
        self._staged.append(row)
        self._fused = None
        if len(self._staged) == _CHUNK:
            self._flush()

    def add_observations(self, lm, kf, p_w, quality, color):
        """`add_observation` for each row of the arrays, in order.

        ``lm``, ``kf`` and ``quality`` hold n values, ``p_w`` and ``color``
        are (n, 3). The shapes and every row are checked before anything is
        stored, and the first row at fault raises `add_observation`'s error.
        The last row of a repeated (landmark, keyframe) pair wins; new rows
        and landmark slots follow the order of first occurrence, so the map is
        the one that one call per row builds.
        """
        try:
            lm = _landmark_ids(lm)
            kf = np.asarray(kf, dtype=np.int64)
            quality = np.asarray(quality, dtype=float)
            p_w = np.asarray(p_w, dtype=float)
            color = np.asarray(color, dtype=float)
        except (TypeError, ValueError, OverflowError) as exc:
            raise UwvioError(f"observation arrays: {exc}") from None
        n = len(lm) if lm.ndim == 1 else -1
        if (n < 0 or kf.shape != (n,) or quality.shape != (n,)
                or p_w.shape != (n, 3) or color.shape != (n, 3)):
            raise UwvioError(
                "observation arrays must be lm, kf and quality of n values and "
                f"p_w and color of (n, 3); got shapes {lm.shape}, {kf.shape}, "
                f"{quality.shape}, {p_w.shape} and {color.shape}")
        kf_ids, kf_row = np.unique(kf, return_inverse=True)
        kf_slot = np.array([self._kf_slot.get(k, -1) for k in kf_ids.tolist()],
                           dtype=np.intp)[kf_row]
        bad = (kf_slot < 0) | ~((quality >= 0.0) & (quality <= 1.0))
        if bad.any():
            i = int(bad.argmax())
            if kf_slot[i] < 0:
                raise UwvioError(f"keyframe {kf[i]} not in map")
            raise UwvioError(f"quality {quality[i]} outside [0, 1]")
        self._flush()
        self._fused = None
        # (landmark, keyframe) -> index of its last row, in first-occurrence order
        last = dict(zip(zip(lm.tolist(), kf.tolist()), range(n)))
        landmarks, lm_slot = self.landmarks, self._lm_slot
        n_obs = self.n_observations
        rows, slots = [], []
        for lm_id, kf_id in last:
            obs = landmarks.get(lm_id)
            if obs is None:
                obs = landmarks[lm_id] = {}
                lm_slot[lm_id] = len(lm_slot)
            row = obs.get(kf_id)
            if row is None:
                row = obs[kf_id] = n_obs
                n_obs += 1
            rows.append(row)
            slots.append(lm_slot[lm_id])
        self.n_replaced += n - (n_obs - self.n_observations)
        self.n_observations = n_obs
        rows, slots = np.array(rows, dtype=np.intp), np.array(slots, dtype=np.intp)
        if n_obs > len(self._kf):
            self._kf, self._lm, self._p_f, self._quality, self._color = (
                _grow(a, n_obs) for a in (self._kf, self._lm, self._p_f,
                                          self._quality, self._color))
        if len(lm_slot) > len(self._lm_ids):
            self._lm_ids = _grow(self._lm_ids, len(lm_slot))
        src = np.fromiter(last.values(), dtype=np.intp, count=len(last))
        self._lm_ids[slots] = lm[src]
        self._kf[rows] = kf_slot[src]
        self._lm[rows] = slots
        self._p_f[rows] = p_w[src]
        self._quality[rows] = quality[src]
        self._color[rows] = color[src]
        self._to_local(rows)

    def _to_local(self, rows):
        """Move the world points in table ``rows`` into their keyframes' frames
        at the current poses. A repeated row holds one point, moved alike."""
        k = self._kf[rows]
        p_f = np.matmul(self._R[k].transpose(0, 2, 1),
                        (self._p_f[rows] - self._t[k])[:, :, None])
        self._p_f[rows] = p_f[:, :, 0]

    def _flush(self):
        """Store the staged observations."""
        if self._staged:
            self._to_local(np.array(self._staged, dtype=np.intp))
            self._staged.clear()

    def update_keyframe_poses(self, updates):
        """Replace keyframe poses (absolute, e.g. pose-graph output).

        Stored local observations are untouched; the deformation shows up
        in subsequent fusion. Observations staged before the call keep the
        poses they were made at.
        """
        for kf_id in updates:
            if kf_id not in self.keyframes:
                raise UwvioError(f"keyframe {kf_id} not in map")
        self._flush()
        self._fused = None
        self.keyframes.update(updates)
        for kf_id, pose in updates.items():
            slot = self._kf_slot[kf_id]
            self._R[slot], self._t[slot] = pose.R, pose.t

    def _fuse(self, landmark_id=None):
        """Fuse one landmark, or every landmark when ``landmark_id`` is None.

        Returns landmark ids in ascending order with, per landmark, the
        world position, colour, mean quality and observation count.
        """
        self._flush()
        if landmark_id is None:
            n_lm = len(self._lm_slot)
            rows = slice(0, self.n_observations)
            groups = self._lm[rows]                       # landmark slot of each row
            order = np.argsort(self._lm_ids[:n_lm])       # slot of each output
            ids = self._lm_ids[order]
            if not self.n_observations:  # np.bincount of no rows sums to int64
                return ids, np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0, int)
        else:
            obs = self.landmarks[landmark_id]
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

    def _fuse_all(self):
        """`_fuse` of every landmark, kept until the next write."""
        if self._fused is None:
            self._fused = self._fuse()
        return self._fused

    def fuse_landmark(self, landmark_id):
        if not self.landmarks.get(landmark_id):
            raise UwvioError(f"landmark {landmark_id} has no observations")
        if self._fused is None:
            _, p_w, color, quality, count = self._fuse(landmark_id)
            i = 0
        else:
            ids, p_w, color, quality, count = self._fused
            i = int(np.searchsorted(ids, self._lm_ids[self._lm_slot[landmark_id]]))
        return FusedPoint(p_w=p_w[i].copy(), color=color[i].copy(),
                          quality=float(quality[i]), n_obs=int(count[i]))

    def fuse_all(self):
        """Fused points for every landmark, in landmark-id order."""
        ids, p_w, color, quality, count = self._fuse_all()
        return {lm: FusedPoint(p_w=p, color=c, quality=q, n_obs=n)
                for lm, p, c, q, n in zip(ids.tolist(), p_w.copy(), color.copy(),
                                          quality.tolist(), count.tolist())}

    def export_fused_cloud(self, path):
        """Write every fused landmark to a binary PLY; returns the count."""
        _, p_w, color, quality, _ = self._fuse_all()
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

    Consecutive lines that start with ``OBS `` are parsed by numpy and
    stored by one `GlobalMap.add_observations` call per block of at most
    `_CHUNK` lines. A block that numpy or a check rejects is applied line by
    line instead: its first bad line raises, and where numpy is only
    stricter than Python (``1_000``, an id beyond int64) the block is
    applied exactly as one line at a time applies it.
    """
    gmap = GlobalMap()
    pending_updates = {}
    run = []  # the lines of the current run of OBS lines

    def flush_updates():
        if pending_updates:
            gmap.update_keyframe_poses(dict(pending_updates))
            pending_updates.clear()

    def apply_line(line_no, line):
        try:
            fields = (line if isinstance(line, str) else line.decode()).split()
            if not fields or fields[0].startswith("#"):
                return
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
                    raise UwvioError(f"keyframe {kf_id} not in map")
                pending_updates[kf_id] = _parse_pose(fields[2:9])
            else:
                raise EventLogError(line_no, f"unknown event {tag!r}")
        except EventLogError:
            raise
        except (UwvioError, ValueError, OverflowError) as exc:  # UnicodeDecodeError is one
            raise EventLogError(line_no, str(exc)) from exc

    def apply_run(last_no):
        """Apply ``run``, whose last line is line ``last_no``."""
        flush_updates()
        try:
            rows = np.loadtxt([line if isinstance(line, str) else line.decode()
                               for line in run], dtype=_OBS_ROW, comments=None, ndmin=1)
            if not all(np.isfinite(rows[name]).all() for name in ("p_w", "quality", "color")):
                raise ValueError("non-finite value")
            gmap.add_observations(rows["lm"], rows["kf"], rows["p_w"], rows["quality"],
                                  rows["color"])
        except (UwvioError, ValueError):  # UnicodeDecodeError is one
            for line_no, line in enumerate(run, start=last_no - len(run) + 1):
                apply_line(line_no, line)
        run.clear()

    for line_no, line in enumerate(lines, start=1):
        if line[:4] in _OBS_START:
            run.append(line)
            if len(run) == _CHUNK:
                apply_run(line_no)
            continue
        if run:
            apply_run(line_no - 1)
        apply_line(line_no, line)
    if run:
        apply_run(line_no)
    flush_updates()
    gmap._flush()
    return gmap


def replay_log_file(path):
    with open(path, "rb") as f:
        return replay_log(f)
