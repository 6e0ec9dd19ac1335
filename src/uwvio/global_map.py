"""Loop-closure-consistent sparse global map.

Keyframes carry world poses; landmark observations are cached in
keyframe-local coordinates, so a pose update implicitly moves every
attached landmark while keeping the point-to-keyframe relative pose
unchanged. Fusion is the quality-weighted mean over all observations of a
landmark.

Observations live in one table of column arrays with a row per
(landmark, keyframe) pair: keyframe slot, landmark slot, keyframe-local
position ``p_f``, quality and colour. Keyframe poses sit in slot-indexed
rotation and translation arrays. A dict maps each landmark id to its slot.
The packed (landmark slot, keyframe slot) key of a pair maps to its row
through sorted int64 runs (`_SortedRuns`) if a large block stored the pair
first, else through a dict. A write of fewer than `_LARGE` observations
looks its pairs up one at a time; a larger one resolves them with numpy
kernels. Neither copies the whole index. The last observation of a pair
wins, and new rows and landmark slots follow the order of first occurrence,
so a repeated observation overwrites its pair's row. ``landmarks``
(landmark id -> {keyframe id: row}) is a view built from the columns.

`add_observations` stores its rows and moves them into keyframe frames at
once. `add_observation` checks its observation and leaves it pending: the
world point, quality and colour go to the next free table row, the landmark
id and keyframe slot to two lists. Every read stores the pending
observations first, `_LARGE` or more of them with the numpy kernels. A
stored single observation keeps its world point (it is staged) until the
next pose update, batch insert or fusion, the end of `replay_log`, or until
`_CHUNK` observations are pending or staged, so it keeps the pose of its
call. Each move is one stacked ``np.matmul``.

One kernel fuses any set of landmarks: it moves the rows into the world
frame chunk by chunk, sums each weighted channel per landmark slot with
``np.bincount`` and puts the sums in landmark-id order. That order comes
from sorted runs of the landmark ids, which take new landmarks in blocks of
`_CHUNK` as they are written and the rest when fusion reads them, so fusion
sorts fewer than `_CHUNK` ids and its time is linear in the number of
observations. The fusion of every landmark is kept until the next write;
fused reads of it return copies. An event log's runs of `_MIN_RUN` or more
``KF``, ``OBS`` or ``UPD`` lines are parsed by numpy and applied a block at
a time.
"""

import math
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from . import ply
from .errors import EventLogError, UwvioError
from .geometry import RigidTransform

# rows transformed per step, event-log lines parsed per block and observations
# staged at most, so the gathered (rows, 3, 3) rotations stay in cache and a
# block's memory stays bounded
_CHUNK = 16_384
# the fewest event-log lines parsed as one block: a block's fixed numpy cost
# is that of about 10 OBS lines, or 3 KF lines, applied one at a time
_MIN_RUN = 16
# the fewest observations that one add_observations call resolves with numpy
# kernels rather than one (landmark, keyframe) pair at a time; the two cost
# alike at about 128
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


def _not_finite(p_w, color):
    return UwvioError(f"an observation's point and colour must be finite, got {p_w!r} "
                      f"and {color!r}")


def _lookup(table, keys):
    """The value of each of the distinct ``keys``, a list, in the dict
    ``table``, as an intp array; missing keys are added with the values
    ``len(table)``, ``len(table) + 1``, ... in order."""
    out = np.fromiter(map(table.get, keys, repeat(-1)), dtype=np.intp, count=len(keys))
    missing = np.flatnonzero(out < 0)
    if len(missing):
        added = np.arange(len(table), len(table) + len(missing))
        out[missing] = added
        if len(missing) < len(keys):
            keys = [keys[i] for i in missing.tolist()]
        table.update(zip(keys, added.tolist()))
    return out


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
    n = len(a[0]) + len(b[0])
    at = np.searchsorted(a[0], b[0])
    at += np.arange(len(at))           # where b's keys go
    rest = np.ones(n, dtype=bool)
    rest[at] = False                   # where a's keys go
    merged = []
    for x, y in zip(a, b):
        out = np.empty(n, dtype=x.dtype)
        out[at] = y
        out[rest] = x
        merged.append(out)
    return tuple(merged)


class _SortedRuns:
    """A map of distinct int64 keys to intp values, kept as runs sorted by
    key, each more than 8 times as long as the next one.

    `add` sorts its keys into a new run and merges it into the runs before
    it while they are at most 8 times as long, so a lookup searches a few
    runs, each key is copied O(log n) times in all, and adding k keys
    never copies all n.
    """

    def __init__(self):
        self._runs = []          # (keys, values); longest first
        self._n = 0

    def __len__(self):
        return self._n

    def add(self, keys, values):
        """Add ``keys``, none of them present, with their ``values``."""
        if not len(keys):
            return
        order = np.argsort(keys)
        runs = self._runs
        runs.append((keys[order], values[order]))
        self._n += len(keys)
        while len(runs) > 1 and len(runs[-2][0]) <= 8 * len(runs[-1][0]):
            runs.append(_merge(runs.pop(-2), runs.pop()))

    def get(self, key):
        """The value of ``key``, or None."""
        for keys, values in self._runs:
            i = keys.searchsorted(key)
            if i < len(keys) and keys[i] == key:
                return int(values[i])
        return None

    def find(self, wanted):
        """The value of each of the ``wanted`` keys, -1 for a missing one."""
        out = np.full(len(wanted), -1, dtype=np.intp)
        for keys, values in self._runs:
            at = np.searchsorted(keys, wanted)
            np.minimum(at, len(keys) - 1, out=at)
            hit = keys[at] == wanted
            out[hit] = values[at[hit]]
        return out

    def between(self, lo, hi):
        """The values of the keys in [lo, hi), in no set order, as a list."""
        out = []
        for keys, values in self._runs:
            out += values[keys.searchsorted(lo):keys.searchsorted(hi)].tolist()
        return out

    def items(self):
        """Every key, ascending, and its value; the runs become one."""
        runs = self._runs
        while len(runs) > 1:
            runs.append(_merge(runs.pop(-2), runs.pop()))
        return runs[0] if runs else (np.empty(0, dtype=np.int64), np.empty(0, dtype=np.intp))


class GlobalMap:
    """Single-writer map state.

    Reads store the pending observations first; fused reads also move the
    staged rows and keep the fusion of every landmark until the next write.
    What they return never shares memory with the kept fusion.
    """

    def __init__(self):
        self.keyframes = {}      # id -> RigidTransform (T_wf)
        self._kf_slot = {}       # keyframe id -> index into _R, _t
        self._R = np.empty((0, 3, 3))
        self._t = np.empty((0, 3))
        self._lm_slot = {}       # landmark id -> landmark slot
        self._lm_ids = np.empty(0, dtype=np.int64)   # landmark id of each slot
        self._lm_order = _SortedRuns()   # the ids of the first len(_lm_order) slots
        # landmark slot << 32 | keyframe slot -> table row: the pairs a large
        # block stored first sit in sorted runs, the others in a dict until
        # `_rows_of` moves them into the runs
        self._pair_runs = _SortedRuns()
        self._pair_dict = {}
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
        self._staged = []        # rows whose p_f holds a world point, in store order
        self._fused = None       # _fuse() of every landmark, until the next write
        self._landmarks = None   # the landmarks view, until the next new pair

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
        if len(self._pending_lm) + len(self._staged) >= _CHUNK:
            self._flush()

    def add_observations(self, lm, kf, p_w, quality, color):
        """`add_observation` for each row of the arrays, in order.

        ``lm``, ``kf`` and ``quality`` hold n values, ``p_w`` and ``color``
        are (n, 3). The shapes and every row are checked before anything is
        stored, and the first row at fault raises `add_observation`'s error.
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
        kf_slot = np.fromiter(map(self._kf_slot.get, kf.tolist(), repeat(-1)),
                              dtype=np.intp, count=n)
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
        self._flush()
        self._fused = None
        self._to_local(self._store(lm, kf_slot, p_w, quality, color))

    def _store_pending(self):
        """Store the pending observations in call order: each takes its pair's
        row, or the next row for a new pair, with its values moved there from
        the free row it was written to. The rows join `_staged`, except that
        `_LARGE` or more are moved into keyframe frames at once, after the
        staged rows."""
        start, lm, kf = self._n_obs, self._pending_lm, self._pending_kf
        if len(lm) >= _LARGE:
            self._move_staged()
            free = slice(start, start + len(lm))
            self._to_local(self._store(
                np.fromiter(lm, dtype=np.int64, count=len(lm)),
                np.fromiter(kf, dtype=np.intp, count=len(kf)),
                self._p_f[free], self._quality[free], self._color[free]))
        elif lm:
            # one pair at a time: a row is written before the free rows of
            # later pairs are read, but never over them
            rows, slots, last = self._resolve_small(lm, kf)
            self._n_replaced += len(lm) - (self._n_obs - start)
            for row, slot, i in zip(rows, slots, last):
                if row >= start:
                    self._kf[row], self._lm[row] = kf[i], slot
                if row != start + i:
                    self._p_f[row] = self._p_f[start + i]
                    self._quality[row] = self._quality[start + i]
                    self._color[row] = self._color[start + i]
            self._staged += rows
        lm.clear()
        kf.clear()

    def _store(self, lm, kf_slot, p_w, quality, color):
        """Store checked observations, in order: int64 landmark ids ``lm``,
        keyframe slots, world points, qualities and colours, which may be the
        free rows after the rows in use. Returns the rows written."""
        n, n_obs = len(lm), self._n_obs
        if n < _LARGE:
            rows, slots, last = (np.array(a, dtype=np.intp) for a in
                                 self._resolve_small(lm.tolist(), kf_slot.tolist()))
        else:
            rows, slots, last = self._resolve_large(lm, kf_slot)
        added = self._n_obs - n_obs
        self._n_replaced += n - added
        if added == n:   # all new pairs: their rows follow on in order
            rows, last = slice(n_obs, n_obs + n), slice(None)
        if self._n_obs > len(self._kf):
            self._kf, self._lm, self._p_f, self._quality, self._color = (
                _grow(a, self._n_obs) for a in (self._kf, self._lm, self._p_f,
                                                self._quality, self._color))
        # each right-hand side is gathered, or is the very rows written,
        # before its column is written, so the sources may be free rows
        self._kf[rows] = kf_slot[last]
        self._lm[rows] = slots
        self._p_f[rows] = p_w[last]
        self._quality[rows] = quality[last]
        self._color[rows] = color[last]
        return rows

    def _resolve_small(self, lm, kf_slot):
        """Find or add the row of each (landmark, keyframe) pair of the
        lists ``lm`` and ``kf_slot``, one pair at a time. Returns, per pair
        in order of first occurrence, its row, its landmark slot and the
        index of its last observation; new pairs take the next rows."""
        last = dict(zip(zip(lm, kf_slot), range(len(lm))))
        lm_slot, pair_dict, pair_runs = self._lm_slot, self._pair_dict, self._pair_runs
        rows, slots = [], []
        for lm_id, k in last:
            slot = lm_slot.get(lm_id)
            if slot is None:
                slot = lm_slot[lm_id] = len(lm_slot)
                if slot == len(self._lm_ids):
                    self._lm_ids = _grow(self._lm_ids)
                self._lm_ids[slot] = lm_id
            key = slot << 32 | k
            row = pair_dict.get(key)
            if row is None and pair_runs:
                row = pair_runs.get(key)
            if row is None:
                row = pair_dict[key] = self._n_obs
                self._n_obs += 1
                self._landmarks = None
            rows.append(row)
            slots.append(slot)
        return rows, slots, list(last.values())

    def _resolve_large(self, lm, kf_slot):
        """`_resolve_small` with numpy kernels for int64 arrays, pairs in no
        set order; the new pairs go into the sorted runs."""
        n_lm = len(self._lm_slot)
        ids, inverse, first, _ = _distinct(lm)
        places = inverse[first]                  # in order of first occurrence
        slots = np.empty(len(ids), dtype=np.intp)
        slots[places] = _lookup(self._lm_slot, ids[places].tolist())
        if len(self._lm_slot) > n_lm:
            if len(self._lm_slot) > len(self._lm_ids):
                self._lm_ids = _grow(self._lm_ids, len(self._lm_slot))
            added = slots >= n_lm
            self._lm_ids[slots[added]] = ids[added]
        slot = slots[inverse]
        pairs, inverse, first, last = _distinct(slot.astype(np.int64) << 32 | kf_slot)
        rows = self._pair_runs.find(pairs)
        if self._pair_dict:
            miss = np.flatnonzero(rows < 0)
            rows[miss] = np.fromiter(map(self._pair_dict.get, pairs[miss].tolist(),
                                         repeat(-1)), dtype=np.intp, count=len(miss))
        new = inverse[first & (rows < 0)[inverse]]    # in order of first occurrence
        rows[new] = np.arange(self._n_obs, self._n_obs + len(new))
        self._pair_runs.add(pairs[new], rows[new])
        self._n_obs += len(new)
        if len(new):
            self._landmarks = None
        last = np.flatnonzero(last)
        return rows[inverse[last]], slot[last], last

    def _to_local(self, rows):
        """Move the world points in table ``rows`` into their keyframes' frames
        at the current poses. A repeated row holds one point, moved alike."""
        k = self._kf[rows]
        p_f = np.matmul(self._R[k].transpose(0, 2, 1),
                        (self._p_f[rows] - self._t[k])[:, :, None])
        self._p_f[rows] = p_f[:, :, 0]

    def _move_staged(self):
        """Move the staged rows into their keyframes' frames."""
        if self._staged:
            self._to_local(np.array(self._staged, dtype=np.intp))
            self._staged.clear()

    def _flush(self):
        """Store the pending observations and move the staged rows into their
        keyframes' frames."""
        self._store_pending()
        self._move_staged()
        self._sort_landmarks(_CHUNK)

    def _sort_landmarks(self, least=1):
        """Sort the landmarks added since the last call into `_lm_order`, if
        there are ``least`` or more."""
        lo, hi = len(self._lm_order), len(self._lm_slot)
        if hi - lo >= least:
            self._lm_order.add(self._lm_ids[lo:hi], np.arange(lo, hi))

    def _rows_of(self, slot):
        """The table rows of the landmark in ``slot``, ascending. The pairs
        in `_pair_dict` are searched one by one while they are fewer than
        `_LARGE`, else first moved into `_pair_runs`."""
        pairs = self._pair_dict
        if len(pairs) >= _LARGE:
            self._pair_runs.add(np.fromiter(pairs, dtype=np.int64, count=len(pairs)),
                                np.fromiter(pairs.values(), dtype=np.intp, count=len(pairs)))
            pairs.clear()
        rows = self._pair_runs.between(slot << 32, (slot + 1) << 32)
        rows += [row for key, row in pairs.items() if key >> 32 == slot]
        return np.array(sorted(rows), dtype=np.intp)

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

    @property
    def landmarks(self):
        """Landmark id -> {keyframe id: table row}, landmarks in slot order and
        each one's keyframes in row order.

        The dict is built from the columns, in time linear in the number of
        observations, and the same dict is returned until an observation of
        a new (landmark, keyframe) pair is stored; changing it changes no
        map state.
        """
        self._store_pending()
        if self._landmarks is None:
            kf_ids = list(self._kf_slot)
            out = {lm: {} for lm in self._lm_ids[:len(self._lm_slot)].tolist()}
            by_slot = list(out.values())
            n = self._n_obs
            for row, (lm, kf) in enumerate(zip(self._lm[:n].tolist(),
                                               self._kf[:n].tolist())):
                by_slot[lm][kf_ids[kf]] = row
            self._landmarks = out
        return self._landmarks

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

    def _fuse(self, slot=None):
        """Fuse the landmark in ``slot``, or every landmark when ``slot`` is
        None.

        Returns landmark ids in ascending order (None for one landmark) with,
        per landmark, the world position, colour, mean quality and
        observation count.
        """
        self._flush()
        if slot is None:
            self._sort_landmarks()
            ids, order = self._lm_order.items()           # slot of each output
            n_lm = len(ids)
            rows = slice(0, self._n_obs)
            groups = self._lm[rows]                       # landmark slot of each row
            if not self._n_obs:  # np.bincount of no rows sums to int64
                return ids, np.empty((0, 3)), np.empty((0, 3)), np.empty(0), np.empty(0, int)
        else:
            rows = self._rows_of(slot)
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


def _flush_updates(gmap, pending):
    if pending:
        gmap.update_keyframe_poses(dict(pending))
        pending.clear()


def _apply_line(gmap, pending, line_no, line):
    """Apply one event-log line: the reference semantics of `replay_log`,
    which a block falls back to when numpy or a check rejects it.
    ``pending`` collects the ``UPD`` poses not yet applied."""
    try:
        fields = (line if isinstance(line, str) else line.decode()).split()
        if not fields or fields[0].startswith("#"):
            return
        tag = fields[0]
        if tag == "KF":
            _flush_updates(gmap, pending)
            if len(fields) != 9:
                raise EventLogError(line_no, f"KF expects 8 values, got {len(fields) - 1}")
            gmap.add_keyframe(int(fields[1]), _parse_pose(fields[2:9]))
        elif tag == "OBS":
            _flush_updates(gmap, pending)
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
            pending[kf_id] = _parse_pose(fields[2:9])
        else:
            raise EventLogError(line_no, f"unknown event {tag!r}")
    except EventLogError:
        raise
    except (UwvioError, ValueError, OverflowError) as exc:  # UnicodeDecodeError is one
        raise EventLogError(line_no, str(exc)) from exc


def _apply_block(gmap, pending, kind, run):
    """Apply ``run``, consecutive lines of one ``kind``, with one parse.
    Every check runs before the first write; numpy or a check rejecting a
    line raises UwvioError or ValueError before any observation or keyframe
    is stored."""
    text = [line if isinstance(line, str) else line.decode() for line in run]
    if kind == "OBS":
        rows = np.loadtxt(text, dtype=_OBS_ROW, comments=None, ndmin=1)
        _flush_updates(gmap, pending)
        gmap.add_observations(rows["lm"], rows["kf"], rows["p_w"], rows["quality"],
                              rows["color"])
        return
    rows = np.loadtxt(text, dtype=_POSE_ROW, comments=None, ndmin=1)
    if not (np.isfinite(rows["t"]).all() and np.isfinite(rows["q"]).all()):
        raise ValueError("non-finite value")
    poses = RigidTransform.from_arrays(rows["q"], rows["t"])  # a zero quaternion raises
    ids = rows["id"].tolist()
    if kind == "KF":
        if len(set(ids)) < len(ids) or any(k in gmap.keyframes for k in ids):
            raise UwvioError("keyframe already present")
        _flush_updates(gmap, pending)
        for kf_id, pose in zip(ids, poses):
            gmap.add_keyframe(kf_id, pose)
    else:
        if not all(k in gmap.keyframes for k in ids):
            raise UwvioError("keyframe not in map")
        pending.update(zip(ids, poses))


def _apply_run(gmap, pending, kind, run, last_no):
    """Apply ``run``, consecutive lines of one ``kind`` whose last line is
    line ``last_no``: as one block (`_apply_block`) if it holds `_MIN_RUN`
    lines or more, else, or if the block is rejected, line by line."""
    if len(run) >= _MIN_RUN:
        try:
            return _apply_block(gmap, pending, kind, run)
        except (UwvioError, ValueError):  # UnicodeDecodeError is one
            pass
    for line_no, line in enumerate(run, start=last_no - len(run) + 1):
        _apply_line(gmap, pending, line_no, line)


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
    one stacked quaternion normalisation. A block of fewer than `_MIN_RUN`
    lines, and one that numpy or a check rejects, is applied line by line
    instead (`_apply_line`): its first bad line raises, and where numpy is
    only stricter than Python (``1_000``, an id beyond int64) the block is
    applied exactly as one line at a time applies it.
    """
    gmap = GlobalMap()
    pending = {}   # UPD poses not yet applied
    run, kind = [], None
    get = _RUN_START.get
    for line_no, line in enumerate(lines, start=1):
        start = get(line[:4]) or get(line[:3])
        if start != kind or len(run) == _CHUNK:
            if run:
                _apply_run(gmap, pending, kind, run, line_no - 1)
                run.clear()
            kind = start
        if start is None:
            _apply_line(gmap, pending, line_no, line)
        else:
            run.append(line)
    if run:
        _apply_run(gmap, pending, kind, run, line_no)
    _flush_updates(gmap, pending)
    gmap._flush()
    return gmap


def replay_log_file(path):
    with open(path, "rb") as f:
        return replay_log(f)
