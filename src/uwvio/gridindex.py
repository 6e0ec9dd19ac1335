"""Uniform-grid spatial index for batched neighbor queries on point clouds.

Points are bucketed into cubic cells of side ``cell_size`` and sorted by an
int64 cell key, ties by index. The key packs the ranks of the cell's
coordinates among those occupied on each axis, so its range is bounded by
the point count, not by the cloud's extent. A query batch looks up the cell
cube around each query with ``np.searchsorted`` and expands the cells'
points into flat candidate arrays, ``_CHUNK`` candidates at a time.
"""

import numpy as np

_CHUNK = 1 << 18


class GridIndex:
    def __init__(self, points, cell_size):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.cell_size = float(cell_size)
        cells = self._cells(self.points).T
        self._axes = [np.unique(c) for c in cells]
        if np.prod([len(u) for u in self._axes], dtype=object) >= 2 ** 63:
            raise ValueError("too many distinct cell coordinates for int64 keys")
        keys = self._key(*(np.searchsorted(u, c) for u, c in zip(self._axes, cells)))
        self._order = np.argsort(keys, kind="stable")
        self._columns = self.points[self._order].T.copy()
        self._keys, self._starts, self._counts = np.unique(
            keys[self._order], return_index=True, return_counts=True)

    def _cells(self, points):
        return np.floor(points / self.cell_size).astype(np.int64)

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
        for q0 in range(0, len(queries), step):
            cells = self._cells(queries[q0:q0 + step]).T
            lo = [np.searchsorted(u, c - reach) for u, c in zip(self._axes, cells)]
            span = [np.searchsorted(u, c + reach, "right") - first
                    for u, c, first in zip(self._axes, cells, lo)]
            qid, t = _expand(span[0] * span[1] * span[2])
            nz = span[2][qid]
            nyz = span[1][qid] * nz
            keys = self._key(lo[0][qid] + t // nyz, lo[1][qid] + t % nyz // nz,
                             lo[2][qid] + t % nz)
            at = np.minimum(np.searchsorted(self._keys, keys), len(self._keys) - 1)
            found = self._keys[at] == keys
            qid, at = qid[found], at[found]
            row, t = _expand(self._counts[at])
            yield qid[row] + q0, self._starts[at][row] + t

    def _distances(self, queries, radius):
        """Candidate chunks within reach of ``radius`` with their squared
        distances, summed over x, y, z in that order."""
        for qid, pos in self._candidates(queries, int(np.ceil(radius / self.cell_size))):
            yield qid, pos, sum((self._columns[a][pos] - queries[qid, a]) ** 2
                                for a in range(3))

    def cells(self):
        """Points of each occupied cell, as CSR ``(offsets, indices)``;
        a row lists its cell's points by index."""
        return np.append(self._starts, len(self.points)), self._order

    def cube(self, queries, reach):
        """Points in the (2*reach+1)^3 cells around each query's cell, as
        CSR ``(offsets, indices)``; a row lists its cells in x, y, z scan
        order and each cell's points by index."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        chunks = list(self._candidates(queries, reach)) or [(np.empty(0, dtype=np.int64),) * 2]
        qid, pos = (np.concatenate(c) for c in zip(*chunks))
        return _offsets(qid, len(queries)), self._order[pos]

    def radius_neighbors(self, queries, radius):
        """Points within ``radius`` of each query, as CSR ``(offsets,
        indices)``: row i is ``indices[offsets[i]:offsets[i + 1]]``, sorted."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        n = max(len(self.points), 1)
        pairs = [np.empty(0, dtype=np.int64)]
        for qid, pos, d2 in self._distances(queries, radius):
            keep = d2 <= radius * radius
            pairs.append(np.sort(qid[keep] * n + self._order[pos[keep]]))
        pairs = np.concatenate(pairs)
        return _offsets(pairs // n, len(queries)), pairs % n

    def nearest_within(self, queries, radius):
        """(index, distance) arrays of each query's nearest point within
        ``radius``; ties go to the lowest index, a miss is (-1, inf)."""
        queries = np.asarray(queries, dtype=float).reshape(-1, 3)
        index, dist = np.full(len(queries), -1), np.full(len(queries), np.inf)
        for qid, pos, d2 in self._distances(queries, radius):
            keep = d2 <= radius * radius
            qid, d2, cand = qid[keep], d2[keep], self._order[pos[keep]]
            first = np.flatnonzero(np.diff(qid, prepend=-1))
            best = np.minimum.reduceat(d2, first)
            tie = d2 == np.repeat(best, np.diff(first, append=len(qid)))
            index[qid[first]] = np.minimum.reduceat(
                np.where(tie, cand, len(self.points)), first)
            dist[qid[first]] = np.sqrt(best)
        return index, dist


def _expand(counts):
    """Row and rank within the row of every element of rows of these lengths."""
    row = np.repeat(np.arange(len(counts)), counts)
    return row, np.arange(len(row)) - (np.cumsum(counts) - counts)[row]


def _offsets(rows, n_rows):
    """CSR offsets of a sorted array of row ids."""
    return np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=n_rows))])
