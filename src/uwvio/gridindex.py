"""Uniform-grid spatial index for batched neighbor queries on point clouds.

Points are bucketed into cubic cells of side ``cell_size`` and sorted by an
int64 cell key, ties by index. The key packs the ranks of the cell's
coordinates among those occupied on each axis, so its range is bounded by
the point count, not by the cloud's extent. `cube` and `radius_neighbors`
scan: a query batch looks up the cell cube around each query with
``np.searchsorted`` and expands the cells' points into flat candidate
arrays, ``_CHUNK`` candidates at a time. A cube's window of cells
saturates at the int64 limits, so any reach, and any finite radius, is
searched exactly.

`nearest_within` reads a cell-neighbourhood table instead, built on first
use and kept until a query needs another reach. It has one CSR row for
every cell within reach of an occupied cell: the key-sorted positions of
all points in the (2*reach+1)^3 cells around it, in the order the scan
yields them. The build dilates the occupied cells one axis at a time, then
counting-sorts the points into the rows one scan offset at a time, so it
needs no sort of (cell, offset) pairs. A query then costs one
``np.searchsorted`` for its row. The table holds (2*reach+1)^3 positions
per indexed point, 27 at reach 1, as int32 where they fit. Past
``_TABLE_MAX`` positions, or for cells beyond 2^62 or a box of cells too
large for int64 keys, the query scans instead.
"""

import functools
import math

import numpy as np

from .errors import UwvioError

_CHUNK = 1 << 18
_TABLE_MAX = 1 << 23


class GridIndex:
    def __init__(self, points, cell_size):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.cell_size = float(cell_size)
        # each axis's distinct cell coordinates and every point's rank among them
        self._axes, ranks = zip(*(np.unique(c, return_inverse=True)
                                  for c in self._cells(self.points).T))
        if np.prod([len(u) for u in self._axes], dtype=object) >= 2 ** 63:
            raise ValueError("too many distinct cell coordinates for int64 keys")
        keys = self._key(*ranks)
        self._order = np.argsort(keys, kind="stable")
        self._keys, self._starts, self._counts = np.unique(
            keys[self._order], return_index=True, return_counts=True)
        self._last_table = None     # (reach, table) of the last table built

    @functools.cached_property
    def _columns(self):
        """The key-sorted points as (3, n) coordinate columns, built on the
        first distance query: `cells` alone does not need them."""
        return self.points[self._order].T.copy()

    def _cells(self, points):
        """Cell coordinates of indexed points; `UwvioError` unless every
        point is finite and its cell fits in int64."""
        with np.errstate(over="ignore"):   # an overflowing cell is rejected below
            scaled = points / self.cell_size
        if not max(scaled.max(initial=0.0), -scaled.min(initial=0.0)) < 2.0 ** 63:
            if not np.isfinite(points).all():
                raise UwvioError("grid index points must be finite")
            raise UwvioError(f"a point over cell size {self.cell_size:g} overflows an "
                             "int64 cell index")
        return np.floor(scaled, out=scaled).astype(np.int64)

    def _query_cells(self, queries):
        """Cell coordinates of each query, as (3, m), and a mask of the queries
        that have a cell: finite, with coordinates that fit in int64. The
        other queries get cell 0."""
        scaled = queries / self.cell_size
        valid = np.all(np.abs(scaled) < 2.0 ** 63, axis=1)
        return np.floor(np.where(valid[:, None], scaled, 0.0)).astype(np.int64).T, valid

    def _key(self, rx, ry, rz):
        return (rx * len(self._axes[1]) + ry) * len(self._axes[2]) + rz

    def _candidates(self, queries, reach):
        """Yield (query, position) chunks: positions into the key-sorted
        points of all points in the (2*reach+1)^3 cells around each query's
        cell, by query, then in x, y, z cell scan order, then by index."""
        if reach < 0 or len(self._keys) == 0:
            return
        cube = np.prod([min(2 * reach + 1, len(u)) for u in self._axes])
        step = max(1, _CHUNK // int(cube * self._counts.max()))
        i64 = np.iinfo(np.int64)
        whole = min(reach, 2 * i64.max)     # cells span less than 2^64
        for q0 in range(0, len(queries), step):
            cells, valid = self._query_cells(queries[q0:q0 + step])
            # c +- reach in two int64 steps, each saturated at the limits
            low, high = cells, cells
            for r in (whole // 2, whole - whole // 2):
                low = np.maximum(low, i64.min + r) - r
                high = np.minimum(high, i64.max - r) + r
            lo = [np.searchsorted(u, c) for u, c in zip(self._axes, low)]
            span = [np.searchsorted(u, c, "right") - first
                    for u, c, first in zip(self._axes, high, lo)]
            qid, t = _expand(span[0] * span[1] * span[2] * valid)
            nz = span[2][qid]
            nyz = span[1][qid] * nz
            keys = self._key(lo[0][qid] + t // nyz, lo[1][qid] + t % nyz // nz,
                             lo[2][qid] + t % nz)
            at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            found = self._keys[at] == keys
            qid, at = qid[found], at[found]
            # built in place; the generator holds only the chunk while it is read
            row, t = _expand(self._counts[at])
            pos = self._starts[at].take(row)
            pos += t
            del t
            qid = qid.take(row)
            qid += q0
            del row
            yield qid, pos

    def _table(self, reach):
        """The cell-neighbourhood table at ``reach``: (first cell, box shape,
        row keys, CSR row offsets, positions), where a cell's key is its
        place in the box of cells within reach of the occupied ones. None
        where the scan must serve. Only the last table built is kept."""
        if self._last_table is None or self._last_table[0] != reach:
            self._last_table = reach, self._build_table(reach)
        return self._last_table[1]

    def _build_table(self, reach):
        width = 2 * reach + 1
        cube = width ** 3
        low = [int(u[0]) - reach for u in self._axes]
        high = [int(u[-1]) + reach for u in self._axes]
        shape = [hi - lo + 1 for lo, hi in zip(low, high)]
        # the box and a query's offset into it stay far inside int64
        if (len(self.points) * cube > _TABLE_MAX or math.prod(shape) * cube >= 2 ** 63
                or min(low) <= -2 ** 62 or max(high) >= 2 ** 62):
            return None
        strides = np.array([shape[1] * shape[2], shape[2], 1])
        ny, nz = len(self._axes[1]), len(self._axes[2])
        ranks = (self._keys // (ny * nz), self._keys // nz % ny, self._keys % nz)
        occupied = _box_key([u[r] for u, r in zip(self._axes, ranks)], low, shape)
        # cells within reach of an occupied cell, reached one axis at a time
        keys = occupied
        for step in strides:
            # width sorted runs, which a stable sort merges
            keys = (keys + np.arange(-reach, reach + 1)[:, None] * step).ravel()
            keys.sort(kind="stable")
            keys = keys[np.diff(keys, prepend=-1) > 0]
        # the occupied cell at each scan offset from a row's cell, in x, y, z
        # scan order, joins the row of every cell it is seen from
        shifts = strides @ (np.indices((width,) * 3).reshape(3, cube) - reach)
        rows = [np.searchsorted(keys, occupied - shift) for shift in shifts]
        lengths = np.zeros(len(keys), dtype=np.int64)
        for r in rows:
            lengths[r] += self._counts
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        # counting sort: each scan offset appends its cells' points to their
        # rows, so a row lists them in scan order, then by index
        n = len(self.points)
        dtype = np.int32 if n < 2 ** 31 else np.int64
        positions = np.empty(offsets[-1], dtype=dtype)
        fill = offsets[:-1].copy()
        order = np.arange(n, dtype=dtype)
        for r in rows:
            positions[np.repeat(fill[r] - self._starts, self._counts) + order] = order
            fill[r] += self._counts
        return low, shape, keys, offsets, positions

    def _rows(self, queries, table):
        """(start, count) of each query's table row; a query whose cell is
        not within reach of an occupied cell gets an empty row."""
        low, shape, keys, offsets, _ = table
        cells, valid = self._query_cells(queries)
        for c, lo, size in zip(cells, low, shape):
            valid &= (c >= lo) & (c < lo + size)
        key = _box_key(cells, low, shape)
        at = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        valid &= keys[at] == key
        start = offsets[at]
        return start, np.where(valid, offsets[at + 1] - start, 0)

    def _distances(self, queries, radius):
        """Candidate chunks within reach of ``radius`` with their squared
        distances, summed over x, y, z in that order."""
        columns = queries.T.copy()
        for qid, pos in self._candidates(queries, int(np.ceil(radius / self.cell_size))):
            yield qid, pos, self._d2(columns, qid, pos)

    def _table_distances(self, queries, table):
        """`_distances` from the table's rows, whole queries per chunk of at
        most ``_CHUNK`` candidates (or one query's row, if longer)."""
        columns = queries.T.copy()
        start, count = self._rows(queries, table)
        ends = np.cumsum(count)
        q0 = 0
        while q0 < len(queries):
            q1 = max(q0 + 1, int(np.searchsorted(ends, ends[q0] - count[q0] + _CHUNK,
                                                 "right")))
            qid, t = _expand(count[q0:q1])
            qid += q0
            pos = table[-1].take(start[qid] + t)
            yield qid, pos, self._d2(columns, qid, pos)
            q0 = q1

    def _d2(self, columns, qid, pos):
        """Squared distance of each candidate from its query, summed over x,
        y, z in that order; ``columns`` holds the queries as (3, m)."""
        d2 = 0
        for a in range(3):
            d = self._columns[a].take(pos)
            d -= columns[a].take(qid)
            d *= d
            d2 += d
        return d2

    def cells(self):
        """(cell of each point, lowest-index point of each cell), with the
        occupied cells numbered in lexicographic (x, y, z) order."""
        cell_of = np.empty(len(self.points), dtype=np.intp)
        cell_of[self._order] = np.repeat(np.arange(len(self._keys)), self._counts)
        return cell_of, self._order[self._starts]

    def cube(self, queries, reach):
        """Points in the (2*reach+1)^3 cells around each query's cell, as
        CSR ``(offsets, indices)``; a row lists its cells in x, y, z scan
        order and each cell's points by index."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        # each chunk's (query, position) arrays are dropped once read
        chunks = [(np.bincount(qid, minlength=len(queries)), self._order.take(pos))
                  for qid, pos in self._candidates(queries, reach)]
        counts = sum((c for c, _ in chunks), np.zeros(len(queries), dtype=np.int64))
        indices = np.concatenate([np.empty(0, dtype=np.int64)] + [i for _, i in chunks])
        return np.concatenate([[0], np.cumsum(counts)]), indices

    def radius_neighbors(self, queries, radius):
        """Points within ``radius`` of each query, as CSR ``(offsets,
        indices)``: row i is ``indices[offsets[i]:offsets[i + 1]]``, sorted."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        n = max(len(self.points), 1)
        pairs = [np.empty(0, dtype=np.int64)]
        for qid, pos, d2 in self._distances(queries, radius):
            keep = np.flatnonzero(d2 <= radius * radius)
            pairs.append(np.sort(qid.take(keep) * n + self._order.take(pos.take(keep))))
        pairs = np.concatenate(pairs)
        return _offsets(pairs // n, len(queries)), pairs % n

    def nearest_within(self, queries, radius):
        """(index, distance) arrays of each query's nearest point within
        ``radius``; ties go to the lowest index, a miss is (-1, inf)."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        index, dist = np.full(len(queries), -1), np.full(len(queries), np.inf)
        reach = int(np.ceil(radius / self.cell_size))
        table = self._table(reach) if len(self._keys) and reach >= 0 else None
        chunks = (self._distances(queries, radius) if table is None
                  else self._table_distances(queries, table))
        for qid, pos, d2 in chunks:
            keep = np.flatnonzero(d2 <= radius * radius)
            qid, d2, cand = qid.take(keep), d2.take(keep), self._order.take(pos.take(keep))
            first = np.flatnonzero(np.diff(qid, prepend=-1))
            best = np.minimum.reduceat(d2, first)
            tie = d2 == np.repeat(best, np.diff(first, append=len(qid)))
            index[qid[first]] = np.minimum.reduceat(
                np.where(tie, cand, len(self.points)), first)
            dist[qid[first]] = np.sqrt(best)
        return index, dist


def _box_key(cells, low, shape):
    """Key of each cell, given as per-axis coordinates, in the row-major
    order of the box of ``shape`` cells whose first cell is ``low``."""
    key = 0
    for c, lo, size in zip(cells, low, shape):
        key = key * size + (c - lo)
    return key


def _expand(counts):
    """Row and rank within the row of every element of rows of these lengths."""
    row = np.repeat(np.arange(len(counts)), counts)
    rank = np.arange(len(row))
    rank -= (np.cumsum(counts) - counts).take(row)
    return row, rank


def _offsets(rows, n_rows):
    """CSR offsets of a sorted array of row ids."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
