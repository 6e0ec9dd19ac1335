"""Uniform-grid spatial hash for neighbor queries on point clouds.

Points are bucketed by voxel cell; radius queries scan the covering cell
block. Expected O(1) per query at the densities this toolkit works with.
"""

import numpy as np


class GridIndex:
    def __init__(self, points, cell_size):
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        self.points = np.asarray(points, dtype=float).reshape(-1, 3)
        self.cell_size = float(cell_size)
        cells = np.floor(self.points / self.cell_size).astype(np.int64)
        self.cells = {}
        for idx, cell in enumerate(map(tuple, cells)):
            self.cells.setdefault(cell, []).append(idx)
        for cell, members in self.cells.items():
            self.cells[cell] = np.array(members)

    def _cell_of(self, q):
        return tuple(np.floor(np.asarray(q, dtype=float) / self.cell_size).astype(np.int64))

    def _block(self, center, reach):
        """Indices of all points in the (2*reach+1)^3 cell block."""
        cx, cy, cz = center
        chunks = []
        for dx in range(-reach, reach + 1):
            for dy in range(-reach, reach + 1):
                for dz in range(-reach, reach + 1):
                    members = self.cells.get((cx + dx, cy + dy, cz + dz))
                    if members is not None:
                        chunks.append(members)
        if not chunks:
            return np.empty(0, dtype=int)
        return np.concatenate(chunks)

    def radius_neighbors(self, q, radius):
        """Indices of points within ``radius`` of q, unordered."""
        q = np.asarray(q, dtype=float)
        reach = int(np.ceil(radius / self.cell_size))
        cand = self._block(self._cell_of(q), reach)
        if cand.size == 0:
            return cand
        d2 = np.sum((self.points[cand] - q) ** 2, axis=1)
        return cand[d2 <= radius * radius]

    def nearest_within(self, q, radius):
        """(index, distance) of the nearest point within radius, or None."""
        q = np.asarray(q, dtype=float)
        cand = self.radius_neighbors(q, radius)
        if cand.size == 0:
            return None
        d = np.linalg.norm(self.points[cand] - q, axis=1)
        best = int(np.argmin(d))
        return int(cand[best]), float(d[best])
