"""Loop-closure-consistent sparse global map.

Keyframes carry world poses; landmark observations are cached in
keyframe-local coordinates, so a pose update implicitly moves every
attached landmark while keeping the point-to-keyframe relative pose
unchanged. Fusion is the quality-weighted mean over all observations of a
landmark.

Observations live in one table of column arrays with a row per
(landmark, keyframe) pair: keyframe slot, landmark slot, keyframe-local
position ``p_f``, quality and colour. Keyframe poses sit in slot-indexed
arrays, and a dict maps each landmark id to its slot. One index,
`_SortedRuns`, maps the packed (landmark slot, keyframe slot) key of a pair
to its row. The last observation of a pair wins, and new rows and landmark
slots follow the order of first occurrence.

Writes go through one queue: `add_observation` checks its observation and
leaves it pending in the next free table row. Every read, pose update and
batch insert, and the `_CHUNK`-th pending observation, stores the pending
observations first. A store of fewer than `_LARGE` observations looks its
pairs up one at a time and sets new ones in the index's dict; a larger one
resolves them with numpy kernels and adds new ones as a sorted run, so no
write copies the whole index. A store then moves its points into their
keyframes' frames at the current poses, those of their calls, with one
stacked ``np.matmul``.

One kernel fuses any set of landmarks: it moves the rows into the world
frame chunk by chunk, sums each weighted channel per landmark slot with
``np.bincount`` and puts the sums in landmark-id order. A second
`_SortedRuns` keeps that order: it sorts new landmark ids in blocks of
`_CHUNK` as they are stored and the rest when fusion reads them, so fusion
time stays linear in the number of observations. The fusion of every
landmark is kept until the next write; fused reads of it return copies. An
event log's runs of `_MIN_RUN` or more ``KF``, ``OBS`` or ``UPD`` lines are
parsed by numpy and applied a block at a time, ``UPD`` poses where they stand.
"""

import math
from dataclasses import dataclass
from itertools import repeat
from types import MappingProxyType

import numpy as np

from . import ply
from .errors import EventLogError, UwvioError
from .geometry import RigidTransform

# rows transformed per step, event-log lines parsed per block and observations
# pending at most, so the gathered (rows, 3, 3) rotations stay in cache and a
# block's memory stays bounded
_CHUNK = 16_384
# the fewest event-log lines parsed as one block: a block's fixed numpy cost
# is that of about 10 OBS lines, or 3 KF lines, applied one at a time
_MIN_RUN = 16
# the fewest observations that one store resolves with numpy kernels rather
# than one (landmark, keyframe) pair at a time, and the most that the pair
# index keeps in its dict for a range query; the two cost alike at about 128
_LARGE = 128

# the 12 whitespace-separated fields of an event-log OBS line
_OBS_ROW = np.dtype([("tag", "U3"), ("lm", np.int64), ("kf", np.int64),
                     ("p_w", float, 3), ("quality", float), ("color", float, 3),
                     ("uv", np.int64, 2)])
# the 9 fields of a KF or UPD line
_POSE_ROW = np.dtype([("tag", "U3"), ("id", np.int64), ("t", float, 3), ("q", float, 4)])
# how a line of a run starts, and the run's kind: numpy drops trailing NULs of
# a string field, so the tag is checked here rather than by its parsed value;
# other KF, OBS and UPD lines (indented, or a tab after the tag) are applied
# line by line
_RUN_START = {"KF ": "KF", b"KF ": "KF", "OBS ": "OBS", b"OBS ": "OBS",
              "UPD ": "UPD", b"UPD ": "UPD"}


@dataclass(frozen=True)
class FusedPoint:
    p_w: np.ndarray
    color: np.ndarray
    quality: float
    n_obs: int


def _grow(a, rows=0):
    """Copy of ``a`` with twice the rows (at least 16 and at least twice
    ``rows``), the old ones kept."""
    out = np.empty((max(2 * len(a), 16, 2 * rows),) + a.shape[1:], dtype=a.dtype)
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


def _not_finite(p_w, color):
    return UwvioError(f"an observation's point and colour must be finite, got {p_w!r} "
                      f"and {color!r}")


def _distinct(values):
    """The distinct values of an int64 array, ascending; the place of each
    element's value among them; and masks of the elements that are the
    first and the last occurrence of their value."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.ones(len(values), dtype=bool)
    np.not_equal(ordered[1:], ordered[:-1], out=starts[1:])
    inverse = np.empty(len(values), dtype=np.intp)
    inverse[order] = np.cumsum(starts) - 1
    ends = np.ones(len(values), dtype=bool)
    ends[:-1] = starts[1:]
    first = np.zeros(len(values), dtype=bool)
    first[order[starts]] = True
    last = np.zeros(len(values), dtype=bool)
    last[order[ends]] = True
    return ordered[starts], inverse, first, last


def _merge(a, b):
    """One sorted run of the keys and values of sorted runs ``a`` and ``b``,
    which share no key."""
    at = np.searchsorted(a[0], b[0])
    return tuple(np.insert(x, at, y) for x, y in zip(a, b))


class _SortedRuns:
    """A map of distinct int64 keys to intp values: a dict of the keys set
    one at a time, and runs of the keys added in blocks, each sorted by key
    and more than 8 times as long as the next one.

    `add` sorts its keys into a new run and merges it into the runs before
    it while they are at most 8 times as long, so a lookup searches the dict
    and a few runs, each key is copied O(log n) times in all, and adding k
    keys never copies all n. The dict becomes a run when `update` leaves it
    with `_CHUNK` keys, when `between` finds `_LARGE`, and in `items`.
    """

    def __init__(self):
        self._runs = []          # (keys, values); longest first
        self._dict = {}          # the keys set one at a time

    def add(self, keys, values):
        """Add ``keys``, none of them present, with their ``values``."""
        if not len(keys):
            return
        order = np.argsort(keys)
        runs = self._runs
        runs.append((keys[order], values[order]))
        while len(runs) > 1 and len(runs[-2][0]) <= 8 * len(runs[-1][0]):
            runs.append(_merge(runs.pop(-2), runs.pop()))

    def set(self, key, value):
        """Add ``key``, an int not present, with ``value``."""
        self._dict[key] = value

    def update(self, keys, values):
        """Add ``keys``, ints none of them present, with their ``values`` as
        `set` does; the dict becomes a run once it holds `_CHUNK` keys."""
        self._dict.update(zip(keys, values))
        if len(self._dict) >= _CHUNK:
            self._add_dict()

    def _add_dict(self):
        d = self._dict
        self.add(np.fromiter(d, dtype=np.int64, count=len(d)),
                 np.fromiter(d.values(), dtype=np.intp, count=len(d)))
        d.clear()

    def get(self, key):
        """The value of ``key``, or None."""
        value = self._dict.get(key)
        if value is None:
            for keys, values in self._runs:
                i = keys.searchsorted(key)
                if i < len(keys) and keys[i] == key:
                    return int(values[i])
        return value

    def find(self, wanted):
        """The value of each of the ``wanted`` keys, -1 for a missing one."""
        out = np.full(len(wanted), -1, dtype=np.intp)
        for keys, values in self._runs:
            at = np.searchsorted(keys, wanted)
            np.minimum(at, len(keys) - 1, out=at)
            hit = keys[at] == wanted
            out[hit] = values[at[hit]]
        if self._dict:
            miss = np.flatnonzero(out < 0)
            out[miss] = np.fromiter(map(self._dict.get, wanted[miss].tolist(), repeat(-1)),
                                    dtype=np.intp, count=len(miss))
        return out

    def between(self, lo, hi):
        """The values of the keys in [lo, hi), in no set order, as a list."""
        if len(self._dict) >= _LARGE:
            self._add_dict()
        out = [value for key, value in self._dict.items() if lo <= key < hi]
        for keys, values in self._runs:
            out += values[keys.searchsorted(lo):keys.searchsorted(hi)].tolist()
        return out

    def items(self):
        """Every key, ascending, and its value; everything becomes one run."""
        self._add_dict()
        runs = self._runs
        while len(runs) > 1:
            runs.append(_merge(runs.pop(-2), runs.pop()))
        return runs[0] if runs else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp))


class GlobalMap:
    """Single-writer map state.

    Reads store the pending observations first; fused reads keep the fusion
    of every landmark until the next write and return none of its memory.
    """

    def __init__(self):
        self._keyframes = {}     # id -> RigidTransform (T_wf)
        # read-only: a pose changes only through the methods that move _R, _t
        self.keyframes = MappingProxyType(self._keyframes)
        self._kf_slot = {}       # keyframe id -> index into _R, _t
        self._R = np.empty((0, 3, 3))
        self._t = np.empty((0, 3))
        self._lm_slot = {}       # landmark id -> landmark slot
        self._lm_order = _SortedRuns()   # the same, sorted by id for fusion
        self._pairs = _SortedRuns()      # landmark slot << 32 | keyframe slot -> table row
        self._n_obs = 0          # rows in use
        self._n_replaced = 0     # stored observations that overwrote their pair's row
        self._kf = np.empty(0, dtype=np.intp)
        self._lm = np.empty(0, dtype=np.intp)
        self._p_f = np.empty((0, 3))
        self._quality = np.empty(0)
        self._color = np.empty((0, 3))
        # landmark id and keyframe slot of each observation not yet stored, in
        # call order; its world point, quality and colour sit in the free rows
        self._pending_lm = []
        self._pending_kf = []
        self._fused = None       # _fuse() of every landmark, until the next write

    def add_keyframe(self, kf_id, pose):
        """Add keyframe ``kf_id`` at world pose ``pose``, whose translation
        must be finite (a `RigidTransform` has a finite rotation)."""
        if kf_id in self._keyframes:
            raise UwvioError(f"keyframe {kf_id} already present")
        if not all(map(math.isfinite, pose.t.tolist())):
            raise UwvioError(f"keyframe {kf_id} pose is not finite")
        slot = len(self._kf_slot)
        if slot == len(self._R):
            self._R, self._t = _grow(self._R), _grow(self._t)
        self._R[slot], self._t[slot] = pose.R, pose.t
        self._kf_slot[kf_id] = slot
        self._keyframes[kf_id] = pose

    def add_observation(self, landmark_id, kf_id, p_w_obs, quality,
                        color=(0, 0, 0)):
        """Add a world-frame observation, to be cached in keyframe-local
        coordinates at the keyframe's pose of this call.

        A repeated observation from the same keyframe replaces the old one.
        The point and the colour hold 3 finite numbers each, and a landmark
        id must be an integer that fits in a signed 64-bit integer. A call
        that raises changes nothing.
        """
        kf_slot = self._kf_slot.get(kf_id)
        if kf_slot is None:
            raise UwvioError(f"keyframe {kf_id} not in map")
        if not 0.0 <= quality <= 1.0:
            raise UwvioError(f"quality {quality} outside [0, 1]")
        # the values go to the next free row, which no pending observation holds
        new = self._n_obs + len(self._pending_lm)
        if new == len(self._kf):
            self._kf, self._lm, self._p_f, self._quality, self._color = map(
                _grow, (self._kf, self._lm, self._p_f, self._quality, self._color))
        p, c = self._p_f[new], self._color[new]
        try:
            if len(p_w_obs) != 3 or len(color) != 3:
                raise ValueError
            p[...] = p_w_obs
            c[...] = color
        except (TypeError, ValueError):
            raise UwvioError("an observation's point and colour must hold 3 numbers "
                             f"each, got {p_w_obs!r} and {color!r}") from None
        x, y, z = p.tolist()
        r, g, b = c.tolist()
        isfinite = math.isfinite
        if not (isfinite(x) and isfinite(y) and isfinite(z)
                and isfinite(r) and isfinite(g) and isfinite(b)):
            raise _not_finite(p_w_obs, color)
        if type(landmark_id) is not int or not -2 ** 63 <= landmark_id < 2 ** 63:
            landmark_id = _landmark_id(landmark_id)
        self._pending_lm.append(landmark_id)
        self._pending_kf.append(kf_slot)
        self._quality[new] = quality
        self._fused = None
        if len(self._pending_lm) >= _CHUNK:
            self._store_pending()

    def add_observations(self, lm, kf, p_w, quality, color):
        """`add_observation` for each row of the arrays, in order.

        ``lm``, ``kf`` and ``quality`` hold n values, ``p_w`` and ``color``
        are (n, 3). The shapes and every row are checked before anything is
        stored, and the first row at fault raises `add_observation`'s error.
        """
        try:
            lm = _landmark_ids(lm)
            # keyframe ids are looked up as given, as add_observation does:
            # 1.5 is no keyframe, 1.0 is keyframe 1, and a list keeps its types
            kf = kf if isinstance(kf, np.ndarray) else np.array(kf, dtype=object)
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
        try:
            kf_slot = np.fromiter(map(self._kf_slot.get, kf.tolist(), repeat(-1)),
                                  dtype=np.intp, count=n)
        except TypeError as exc:        # an unhashable keyframe id
            raise UwvioError(f"observation arrays: {exc}") from None
        if n and not (kf_slot.min() >= 0 and 0.0 <= quality.min() and quality.max() <= 1.0
                      and np.isfinite(p_w).all() and np.isfinite(color).all()):
            in_range = (quality >= 0.0) & (quality <= 1.0)
            finite = np.isfinite(p_w).all(axis=1) & np.isfinite(color).all(axis=1)
            i = int(((kf_slot < 0) | ~in_range | ~finite).argmax())
            if kf_slot[i] < 0:
                raise UwvioError(f"keyframe {kf[i]} not in map")
            if not in_range[i]:
                raise UwvioError(f"quality {quality[i]} outside [0, 1]")
            raise _not_finite(p_w[i].tolist(), color[i].tolist())
        self._store_pending()
        self._fused = None
        self._store(lm, kf_slot, p_w, quality, color)

    def _store_pending(self):
        """Store the pending observations, in call order."""
        lm, kf = self._pending_lm, self._pending_kf
        if lm:
            free = slice(self._n_obs, self._n_obs + len(lm))
            self._store(np.array(lm, dtype=np.int64), np.array(kf, dtype=np.intp),
                        self._p_f[free], self._quality[free], self._color[free])
            lm.clear()
            kf.clear()

    def _store(self, lm, kf_slot, p_w, quality, color):
        """Store checked observations in order, each point in its keyframe's
        frame at the current pose: int64 landmark ids ``lm``, keyframe slots,
        world points, qualities and colours, which may be the free rows."""
        n, n_obs = len(lm), self._n_obs
        resolve = self._resolve_small if n < _LARGE else self._resolve_large
        rows, slots, last = resolve(lm, kf_slot)
        added = self._n_obs - n_obs
        self._n_replaced += n - added
        if added == n:   # all new pairs: their rows follow on in order
            rows, last = slice(n_obs, n_obs + n), slice(None)
        if self._n_obs > len(self._kf):
            self._kf, self._lm, self._p_f, self._quality, self._color = (
                _grow(a, self._n_obs) for a in (self._kf, self._lm, self._p_f,
                                                self._quality, self._color))
        # each right-hand side is computed, gathered, or is the very rows
        # written, before its column is written, so the sources may be free rows
        k = kf_slot[last]
        p_f = np.matmul(self._R[k].transpose(0, 2, 1), (p_w[last] - self._t[k])[:, :, None])
        self._kf[rows] = k
        self._lm[rows] = slots
        self._p_f[rows] = p_f[:, :, 0]
        self._quality[rows] = quality[last]
        self._color[rows] = color[last]

    def _resolve_small(self, lm, kf_slot):
        """Find or add the row of each (landmark, keyframe) pair of the
        arrays ``lm`` and ``kf_slot``, one pair at a time. Returns lists of,
        per pair in order of first occurrence, its row, its landmark slot and
        the index of its last observation; new pairs take the next rows."""
        last = dict(zip(zip(lm.tolist(), kf_slot.tolist()), range(len(lm))))
        lm_slot, pairs = self._lm_slot, self._pairs
        rows, slots, new = [], [], {}
        for lm_id, k in last:
            slot = lm_slot.get(lm_id)
            if slot is None:
                slot = lm_slot[lm_id] = new[lm_id] = len(lm_slot)
            key = slot << 32 | k
            row = pairs.get(key)
            if row is None:
                row = self._n_obs
                pairs.set(key, row)
                self._n_obs += 1
            rows.append(row)
            slots.append(slot)
        self._lm_order.update(new, new.values())
        return rows, slots, list(last.values())

    def _resolve_large(self, lm, kf_slot):
        """`_resolve_small` with numpy kernels, pairs in no set order; the
        new pairs go into the index as one sorted run."""
        n_lm = len(self._lm_slot)
        ids, inverse, first, _ = _distinct(lm)
        places = inverse[first]                  # in order of first occurrence
        slots = np.empty(len(ids), dtype=np.intp)
        lm_slot = self._lm_slot   # a new id takes the next slot
        slots[places] = [lm_slot.setdefault(i, len(lm_slot)) for i in ids[places].tolist()]
        added = slots >= n_lm
        self._lm_order.update(ids[added].tolist(), slots[added].tolist())
        slot = slots[inverse]
        pairs, inverse, first, last = _distinct(slot.astype(np.int64) << 32 | kf_slot)
        rows = self._pairs.find(pairs)
        new = inverse[first & (rows < 0)[inverse]]    # in order of first occurrence
        rows[new] = np.arange(self._n_obs, self._n_obs + len(new))
        self._pairs.add(pairs[new], rows[new])
        self._n_obs += len(new)
        last = np.flatnonzero(last)
        return rows[inverse[last]], slot[last], last

    @property
    def n_observations(self):
        """Stored (landmark, keyframe) pairs."""
        self._store_pending()
        return self._n_obs

    @property
    def n_replaced(self):
        """Observations that overwrote their pair's row."""
        self._store_pending()
        return self._n_replaced

    @property
    def n_landmarks(self):
        """Landmarks with observations."""
        self._store_pending()
        return len(self._lm_slot)

    def update_keyframe_poses(self, updates):
        """Replace keyframe poses (absolute, e.g. pose-graph output).

        Observations keep their keyframe-local points, also those added
        before the call and not yet stored; the deformation shows up in
        subsequent fusion. Every keyframe must be in the map and every
        translation finite, else nothing changes.
        """
        for kf_id in updates:
            if kf_id not in self._keyframes:
                raise UwvioError(f"keyframe {kf_id} not in map")
        t = np.array([pose.t for pose in updates.values()], dtype=float).reshape(-1, 3)
        finite = np.isfinite(t).all(axis=1)
        if not finite.all():
            raise UwvioError(f"keyframe {list(updates)[finite.argmin()]} pose is not finite")
        self._store_pending()
        self._fused = None
        self._keyframes.update(updates)
        slots = np.fromiter(map(self._kf_slot.get, updates), dtype=np.intp, count=len(t))
        self._R[slots] = np.array([pose.R for pose in updates.values()]).reshape(-1, 3, 3)
        self._t[slots] = t

    def _fuse(self, slot=None):
        """Fuse the landmark in ``slot``, or every landmark when ``slot`` is
        None.

        Returns landmark ids in ascending order (None for one landmark) with,
        per landmark, the world position, colour, mean quality and
        observation count.
        """
        self._store_pending()
        if slot is None:
            ids, order = self._lm_order.items()           # slot of each output
            n_lm = len(ids)
            rows = slice(0, self._n_obs)
            groups = self._lm[rows]                       # landmark slot of each row
            if not self._n_obs:  # np.bincount of no rows sums to int64
                return ids, np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0, int)
        else:
            rows = np.array(sorted(self._pairs.between(slot << 32, (slot + 1) << 32)),
                            dtype=np.intp)              # ascending, as for every landmark
            n_lm = 1
            groups = np.zeros(len(rows), dtype=np.intp)
            order = np.zeros(1, dtype=np.intp)
            ids = None
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
        self._store_pending()
        try:
            lm = _landmark_id(landmark_id)
        except UwvioError:
            lm = None
        slot = self._lm_slot.get(lm)
        if slot is None:
            raise UwvioError(f"landmark {landmark_id} has no observations")
        if self._fused is None:
            _, p_w, color, quality, count = self._fuse(slot)
            i = 0
        else:
            ids, p_w, color, quality, count = self._fused
            i = int(np.searchsorted(ids, lm))
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


def _apply_line(gmap, line_no, line):
    """Apply one event-log line: the reference semantics of `replay_log`,
    which a block falls back to when numpy or a check rejects it."""
    try:
        fields = (line if isinstance(line, str) else line.decode()).split()
        if not fields or fields[0].startswith("#"):
            return
        tag = fields[0]
        if tag == "KF":
            if len(fields) != 9:
                raise EventLogError(line_no, f"KF expects 8 values, got {len(fields) - 1}")
            gmap.add_keyframe(int(fields[1]), _parse_pose(fields[2:9]))
        elif tag == "OBS":
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
            gmap.update_keyframe_poses({kf_id: _parse_pose(fields[2:9])})
        else:
            raise EventLogError(line_no, f"unknown event {tag!r}")
    except EventLogError:
        raise
    except (UwvioError, ValueError, OverflowError) as exc:  # UnicodeDecodeError is one
        raise EventLogError(line_no, str(exc)) from exc


def _apply_block(gmap, kind, run):
    """Apply ``run``, consecutive lines of one ``kind``, with one parse.
    Every check runs before the first write; numpy or a check rejecting a
    line raises UwvioError or ValueError before any observation or keyframe
    is stored."""
    if kind == "OBS":
        rows = np.loadtxt(run, dtype=_OBS_ROW, comments=None, ndmin=1, encoding="utf-8")
        return gmap.add_observations(rows["lm"], rows["kf"], rows["p_w"],
                                     rows["quality"], rows["color"])
    rows = np.loadtxt(run, dtype=_POSE_ROW, comments=None, ndmin=1, encoding="utf-8")
    if not (np.isfinite(rows["t"]).all() and np.isfinite(rows["q"]).all()):
        raise ValueError("non-finite value")
    poses = RigidTransform.from_arrays(rows["q"], rows["t"])  # a zero quaternion raises
    ids = rows["id"].tolist()
    if kind == "KF":
        if len(set(ids)) < len(ids) or any(k in gmap.keyframes for k in ids):
            raise UwvioError("keyframe already present")
        for kf_id, pose in zip(ids, poses):
            gmap.add_keyframe(kf_id, pose)
    else:   # every keyframe is checked before any pose changes
        gmap.update_keyframe_poses(dict(zip(ids, poses)))


def _apply_run(gmap, kind, run, last_no):
    """Apply ``run``, consecutive lines of one ``kind`` whose last line is
    line ``last_no``: as one block (`_apply_block`) if it holds `_MIN_RUN`
    lines or more, else, or if the block is rejected, line by line."""
    if len(run) >= _MIN_RUN:
        try:
            return _apply_block(gmap, kind, run)
        except (UwvioError, ValueError):  # UnicodeDecodeError is one
            pass
    for line_no, line in enumerate(run, start=last_no - len(run) + 1):
        _apply_line(gmap, line_no, line)


def replay_log(lines):
    """Apply a recorded VIO event stream to a fresh map.

    ``lines`` are str, or bytes decoded as UTF-8. Line formats
    (whitespace-separated, quaternion w-last; integer pixel ``u v``, not kept):
      KF  id tx ty tz qx qy qz qw
      OBS lm_id kf_id px py pz q r g b u v
      UPD id tx ty tz qx qy qz qw
    A bad line, such as one with a non-finite number or an unknown
    keyframe, is an `EventLogError` carrying its line number.

    Consecutive lines that start with the same ``KF ``, ``OBS `` or ``UPD ``
    form a run, parsed by numpy and applied a block of at most `_CHUNK`
    lines at a time: a block of ``OBS`` lines through one
    `GlobalMap.add_observations` call, one of ``KF`` or ``UPD`` lines with
    one stacked quaternion normalisation. ``UPD`` poses are absolute and
    change the map where they stand, so the map after a run of ``UPD`` lines
    is the one-batch result. A block of fewer than `_MIN_RUN` lines, and one
    that numpy or a check rejects, is applied line by line instead
    (`_apply_line`): its first bad line raises, and where numpy is only
    stricter than Python (``1_000``, an id beyond int64) the block is
    applied exactly as one line at a time applies it.
    """
    gmap = GlobalMap()
    run, kind = [], None
    get = _RUN_START.get
    for line_no, line in enumerate(lines, start=1):
        start = get(line[:4]) or get(line[:3])
        if start != kind or len(run) == _CHUNK:
            if run:
                _apply_run(gmap, kind, run, line_no - 1)
                run.clear()
            kind = start
        if start is None:
            _apply_line(gmap, line_no, line)
        else:
            run.append(line)
    if run:
        _apply_run(gmap, kind, run, line_no)
    return gmap


def replay_log_file(path):
    with open(path, "rb") as f:
        return replay_log(f)
