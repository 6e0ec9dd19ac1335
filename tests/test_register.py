import itertools
import math
import re

import numpy as np
import pytest

from uwvio import gridindex, register
from uwvio.errors import UwvioError
from uwvio.fixtures import structured_scene
from uwvio.geometry import (RigidTransform, random_rotation, rigid_fit,
                            rotation_about_z, rotation_angle)
from uwvio.gridindex import GridIndex
from uwvio.register import (PointCloud, _density_cell, _histogram_bins,
                            compute_fpfh, estimate_normals, icp_refine,
                            match_descriptors, register_pipeline,
                            robust_global_registration, score_registration,
                            voxel_downsample)


# --- grid index --------------------------------------------------------------

def _assert_grid_matches_brute_force(pts, cell, queries, radius):
    index = GridIndex(pts, cell)
    offsets, indices = index.radius_neighbors(queries, radius)
    nearest, dist = index.nearest_within(queries, radius)
    assert len(offsets) == len(queries) + 1
    for i, q in enumerate(queries):
        d = np.linalg.norm(pts - q, axis=1)
        want = np.nonzero(d <= radius)[0]
        assert np.array_equal(indices[offsets[i]:offsets[i + 1]], want)
        if want.size:
            assert nearest[i] == np.argmin(d)
            assert dist[i] == pytest.approx(d.min())
        else:
            assert nearest[i] == -1


def test_grid_index_matches_brute_force():
    rng = np.random.default_rng(0)
    pts = rng.uniform(0, 5, size=(400, 3))
    index = GridIndex(pts, 0.5)
    queries = rng.uniform(0, 5, size=(20, 3))
    offsets, indices = index.radius_neighbors(queries, 0.7)
    nearest, dist = index.nearest_within(queries, 1.0)
    for i, q in enumerate(queries):
        want = np.nonzero(np.linalg.norm(pts - q, axis=1) <= 0.7)[0]
        assert np.array_equal(indices[offsets[i]:offsets[i + 1]], want)
        d = np.linalg.norm(pts - q, axis=1)
        assert nearest[i] >= 0
        assert nearest[i] == np.argmin(d)
        assert dist[i] == pytest.approx(d.min())


def test_grid_index_radius_beyond_one_cell():
    rng = np.random.default_rng(1)
    pts = rng.uniform(0, 5, size=(400, 3))
    _assert_grid_matches_brute_force(pts, 0.5, rng.uniform(0, 5, size=(20, 3)), 0.9)


def test_grid_index_queries_outside_and_empty():
    rng = np.random.default_rng(2)
    pts = rng.uniform(0, 5, size=(300, 3))
    queries = np.array([[-3.0, -3.0, -3.0], [100.0, 2.0, 2.0], [2.5, 2.5, -0.6],
                        [5.3, 5.3, 5.3], [2.0, 2.0, 2.0], [np.nan, 2.0, 2.0],
                        [2.0, np.inf, 2.0], [1e300, 2.0, 2.0]])
    with np.errstate(over="ignore"):    # the brute force squares 1e300
        _assert_grid_matches_brute_force(pts, 0.5, queries, 0.7)
    offsets, _ = GridIndex(pts, 0.5).radius_neighbors(queries[:2], 0.7)
    assert offsets.tolist() == [0, 0, 0]
    nearest, dist = GridIndex(pts, 0.5).nearest_within(queries[:2], 0.7)
    assert nearest.tolist() == [-1, -1]
    assert np.all(np.isinf(dist))


@pytest.mark.parametrize("bad, message", [
    ([np.nan, 0.0, 0.0], "must be finite"), ([0.0, np.inf, 0.0], "must be finite"),
    ([0.0, 0.0, -np.inf], "must be finite"), ([1e300, 0.0, 0.0], "overflows"),
], ids=["nan", "inf", "-inf", "cell-overflow"])
def test_grid_index_rejects_points_without_a_cell(bad, message):
    """An indexed point that is not finite, or whose cell does not fit in
    int64, is a `UwvioError`, also from ICP and scoring; queries like it
    stay misses."""
    pts = [[0.0, 0.0, 0.0], bad, [1.0, 1.0, 1.0]]
    with np.errstate(all="raise"):
        for call in (lambda: GridIndex(pts, 0.1),
                     lambda: icp_refine(np.zeros((3, 3)), pts, RigidTransform.identity(), 0.1),
                     lambda: score_registration(np.zeros((3, 3)), pts,
                                                RigidTransform.identity(), 0.1)):
            with pytest.raises(UwvioError, match=message) as exc:
                call()
            assert exc.value.exit_code == 1
        nearest, dist = GridIndex(pts[::2], 0.1).nearest_within(np.array([bad]), 0.5)
    assert nearest.tolist() == [-1] and np.isinf(dist).all()


def test_grid_index_tie_goes_to_lowest_index():
    # both points are 2 m from the query; index 0 lies in the later cell of
    # the x, y, z scan, so scan order alone would pick index 1
    pts = np.array([[3.0, 1.0, 1.0], [-1.0, 1.0, 1.0], [1.0, 9.0, 1.0]])
    nearest, dist = GridIndex(pts, 0.5).nearest_within([[1.0, 1.0, 1.0]], 2.5)
    assert nearest.tolist() == [0]
    assert dist.tolist() == [2.0]


def test_grid_index_far_outlier():
    # a dense key over the occupied box would need ~1e30 cells
    rng = np.random.default_rng(3)
    pts = np.vstack([rng.uniform(0, 2, size=(300, 3)), [[1e9, 1e9, 1e9]],
                     rng.uniform(0, 2, size=(100, 3))])
    queries = np.vstack([rng.uniform(0, 2, size=(20, 3)), [[1e9, 1e9, 1e9 + 0.05]]])
    _assert_grid_matches_brute_force(pts, 0.1, queries, 0.25)
    # cells near the int64 limits, whose box of cells would overflow
    pts[300], pts[301] = [9e17, 1, 1], [-9e17, 1, 1]
    queries[-1] = [9e17, 1, 1.05]
    _assert_grid_matches_brute_force(pts, 0.1, queries, 0.25)


@pytest.mark.parametrize("radius", [6e17, 1e18, 1e300])
def test_grid_index_windows_saturate_at_int64_limits(radius):
    """A query's cell window, its cell plus or minus the reach, stops at the
    int64 limits instead of wrapping, for any finite radius."""
    pts = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [4e17, 0.0, 0.0]])
    queries = np.array([[0.5, 0.0, 0.0], [4e17, 0.0, 0.0]])
    offsets, indices = GridIndex(pts, 0.1).radius_neighbors(queries, radius)
    assert offsets.tolist() == [0, 3, 6]
    assert indices.tolist() == [0, 1, 2, 0, 1, 2]
    # cells near both int64 limits, further apart than int64 can count
    ends = np.array([[-9e17, -9e17, 0.0], [9e17, 9e17, 0.0]])
    _assert_grid_matches_brute_force(ends, 0.1, ends, radius)
    offsets, indices = GridIndex(ends, 0.1).cube(ends, 2 ** 80)
    assert offsets.tolist() == [0, 2, 4]
    assert indices.tolist() == [0, 1, 0, 1]


def _unit_cloud():
    pts = np.random.default_rng(30).uniform(0, 1, size=(50, 3))
    return PointCloud(points=pts, normals=np.tile([0.0, 0.0, 1.0], (50, 1)))


_LENGTH_ARGUMENTS = {
    "GridIndex": ("cell_size", "> 0", lambda v: GridIndex(_unit_cloud().points, v)),
    "radius_neighbors": ("radius", ">= 0", lambda v: GridIndex(
        _unit_cloud().points, 0.1).radius_neighbors([[0.5, 0.5, 0.5]], v)),
    "nearest_within": ("radius", ">= 0", lambda v: GridIndex(
        _unit_cloud().points, 0.1).nearest_within([[0.5, 0.5, 0.5]], v)),
    "voxel_downsample": ("voxel size", "> 0", lambda v: voxel_downsample(_unit_cloud(), v)),
    "compute_fpfh": ("radius", "> 0", lambda v: compute_fpfh(_unit_cloud(), v)),
    "icp_refine": ("threshold", "> 0", lambda v: icp_refine(
        _unit_cloud(), _unit_cloud(), RigidTransform.identity(), v)),
    "score_registration": ("threshold", "> 0", lambda v: score_registration(
        _unit_cloud(), _unit_cloud(), RigidTransform.identity(), v)),
    "robust_global_registration": ("inlier_threshold", "> 0",
                                   lambda v: robust_global_registration(
                                       np.column_stack([np.arange(50)] * 2),
                                       _unit_cloud().points, _unit_cloud().points, v)),
}


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
@pytest.mark.parametrize("entry", sorted(_LENGTH_ARGUMENTS))
def test_lengths_must_be_finite_and_in_range(entry, value):
    """A cell size, radius, voxel or threshold that is not finite, or below
    its range, is a `ValueError` naming the argument and its value."""
    name, bound, call = _LENGTH_ARGUMENTS[entry]
    with np.errstate(all="raise"):
        with pytest.raises(ValueError, match=f"^{name} must be finite and {bound}, "
                                             f"got {re.escape(repr(value))}$"):
            call(value)


def test_grid_index_reach_and_huge_radius():
    """`cube` takes an integer reach >= 0. A finite radius of any size
    saturates the reach instead of overflowing it, and finds every point. A
    finite query whose cell overflows int64 has no neighbours."""
    pts = np.random.default_rng(31).uniform(0, 1, size=(20, 3))
    index = GridIndex(pts, 1e-9)
    for reach in (1.5, -1, np.nan, True):
        with pytest.raises(ValueError, match=f"^reach must be an integer >= 0, got "
                                             f"{re.escape(repr(reach))}$"):
            index.cube(pts[:1], reach)
    assert index.cube(pts[:1], np.int64(0))[0].tolist() == [0, 1]
    offsets, indices = index.radius_neighbors(pts[:2], 1e300)
    assert offsets.tolist() == [0, 20, 40]
    assert indices.tolist() == list(range(20)) * 2
    nearest, dist = index.nearest_within(pts[:2] + 5.0, 1e300)
    assert nearest.tolist() == np.argmin(
        np.linalg.norm(pts[None] - pts[:2, None] - 5.0, axis=2), axis=1).tolist()
    assert np.isfinite(dist).all()
    far = [[1e300, 0.0, 0.0]]
    assert index.radius_neighbors(far, 1.0)[0].tolist() == [0, 0]
    assert index.cube(far, 1)[0].tolist() == [0, 0]


def _brute_nearest(pts, queries, radius):
    """Nearest point within radius by the index's own squared distance,
    ties to the lowest index; (-1, inf) for a miss."""
    index, dist = np.full(len(queries), -1), np.full(len(queries), np.inf)
    for i, q in enumerate(queries):
        with np.errstate(over="ignore", invalid="ignore"):   # far and non-finite queries
            d2 = sum((pts[:, a] - q[a]) ** 2 for a in range(3))
        if len(pts) and d2.min() <= radius * radius:
            index[i] = np.argmin(d2)
            dist[i] = np.sqrt(d2[index[i]])
    return index, dist


def _random_grid_case(rng):
    n = int(rng.integers(1, 300))
    kind = rng.integers(3)
    if kind == 0:
        pts = rng.uniform(0, 3, size=(n, 3))
    elif kind == 1:     # lattice: many queries tie between points
        pts = rng.integers(0, 6, size=(n, 3)) * 0.5
    else:               # planar, with a far outlier
        pts = np.column_stack([rng.uniform(0, 3, size=(n, 2)), np.ones(n)])
        pts[0] = [1e3, -1e3, 1e3]
    cell = float(rng.choice([0.25, 0.5, 1.0]))
    radius = cell * float(rng.choice([0.5, 1.0, 1.7, 2.5]))    # reach 1 to 3
    queries = np.vstack([rng.uniform(-1, 4, size=(40, 3)),
                         rng.integers(0, 6, size=(20, 3)) * 0.5 + 0.25,
                         pts[:5] + rng.normal(size=(min(n, 5), 3)) * 0.1,
                         [[1e5, 1.0, 1.0], [-1e12, 0, 0], [1e300, 0, 0], [1.7e308, 0, 0],
                          [np.nan, 1.0, 1.0], [np.inf, 0, 0], [0, -np.inf, 0]]])
    return pts, cell, radius, queries


@pytest.mark.parametrize("seed", range(6))
def test_nearest_within_matches_brute_force(seed, monkeypatch):
    # the neighbourhood table, and the scan it falls back to, answer alike
    rng = np.random.default_rng(100 + seed)
    for _ in range(25):
        pts, cell, radius, queries = _random_grid_case(rng)
        want = _brute_nearest(pts, queries, radius)
        got = GridIndex(pts, cell).nearest_within(queries, radius)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        with monkeypatch.context() as m:
            m.setattr(gridindex, "_TABLE_MAX", 0)
            index = GridIndex(pts, cell)
            got = index.nearest_within(queries, radius)
            assert index._table(int(np.ceil(radius / cell))) is None
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def test_nearest_within_empty_index():
    queries = [[0.0, 0.0, 0.0], [np.nan, 0.0, 0.0]]
    nearest, dist = GridIndex(np.empty((0, 3)), 0.5).nearest_within(queries, 0.5)
    assert nearest.tolist() == [-1, -1]
    assert np.all(np.isinf(dist))


def test_nearest_within_chunks_match_one_chunk(monkeypatch):
    rng = np.random.default_rng(7)
    pts = rng.uniform(0, 2, size=(3000, 3))
    queries = rng.uniform(-0.2, 2.2, size=(2000, 3))
    index = GridIndex(pts, 0.2)
    whole = index.nearest_within(queries, 0.2)
    table = index._table(1)
    assert len(list(index._table_distances(queries, table))) == 1
    monkeypatch.setattr(gridindex, "_CHUNK", 500)
    assert len(list(index._table_distances(queries, table))) > 10
    chunked = index.nearest_within(queries, 0.2)
    assert np.array_equal(chunked[0], whole[0]) and np.array_equal(chunked[1], whole[1])
    monkeypatch.setattr(gridindex, "_CHUNK", 1)     # every row longer than a chunk
    single = index.nearest_within(queries, 0.2)
    assert np.array_equal(single[0], whole[0]) and np.array_equal(single[1], whole[1])


def test_table_rows_follow_the_scan_order():
    rng = np.random.default_rng(8)
    index = GridIndex(rng.uniform(0, 3, size=(500, 3)), 0.4)
    queries = rng.uniform(-1, 4, size=(300, 3))
    for reach in (1, 2):
        table = index._table(reach)
        start, count = index._rows(queries, table)
        offsets, cand = index.cube(queries, reach)
        assert np.array_equal(count, np.diff(offsets))
        for i in range(len(queries)):
            row = table[-1][start[i]:start[i] + count[i]]
            assert np.array_equal(index._order[row], cand[offsets[i]:offsets[i + 1]])


def test_grid_cells_in_lexicographic_order():
    rng = np.random.default_rng(4)
    pts = rng.integers(-3, 3, size=(400, 3)) + rng.uniform(0, 1, size=(400, 3))
    pts[100:150] = pts[:50]
    cell_of, first = GridIndex(pts, 1.0).cells()
    cells = np.floor(pts).astype(np.int64)
    distinct, inverse = np.unique(cells, axis=0, return_inverse=True)
    assert np.array_equal(cell_of, inverse)
    assert np.array_equal(first, [np.flatnonzero(inverse == c)[0]
                                  for c in range(len(distinct))])
    assert np.array_equal(GridIndex(np.empty((0, 3)), 1.0).cells()[0], [])


# --- voxel downsample ---------------------------------------------------------

def test_downsample_centroids():
    pts = np.array([[0.01, 0.01, 0.01], [0.03, 0.03, 0.03],  # same voxel
                    [0.55, 0.0, 0.0]])
    cloud = voxel_downsample(PointCloud(points=pts), 0.1)
    assert len(cloud) == 2
    got = sorted(cloud.points.tolist())
    assert np.allclose(got[0], [0.02, 0.02, 0.02])
    assert np.allclose(got[1], [0.55, 0.0, 0.0])


def test_downsample_monotone_in_voxel():
    rng = np.random.default_rng(2)
    cloud = PointCloud(points=rng.uniform(0, 10, size=(5000, 3)))
    sizes = [len(voxel_downsample(cloud, v)) for v in (0.1, 0.3, 1.0, 3.0)]
    assert sizes == sorted(sizes, reverse=True)


def test_downsample_empty_cloud():
    with pytest.raises(UwvioError, match="^cannot downsample an empty cloud$") as exc:
        voxel_downsample(PointCloud(points=np.empty((0, 3))), 0.1)
    assert exc.value.exit_code == 1


def _lexsort_downsample(cloud, voxel):
    """(points, colors) of the voxel downsample as a lexsort of the cells
    grouped them before `GridIndex.cells` did."""
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    order = np.lexsort(cells.T[::-1])
    ordered = cells[order]
    new = np.concatenate([[True], np.any(ordered[1:] != ordered[:-1], axis=1)])
    inverse = np.empty(len(cells), dtype=np.intp)
    inverse[order] = np.cumsum(new) - 1
    counts = np.diff(np.append(np.flatnonzero(new), len(cells)))

    def _mean(values):
        sums = [np.bincount(inverse, weights=v, minlength=len(counts)) for v in values.T]
        return np.column_stack(sums) / counts[:, None]

    return _mean(cloud.points), _mean(cloud.colors)


@pytest.mark.parametrize("seed", range(4))
def test_downsample_bit_equal_to_lexsort_grouping(seed):
    rng = np.random.default_rng(seed)
    voxel = (0.1, 0.25, 0.07, 1.0)[seed]
    pts = rng.uniform(-3, 2, size=(3000, 3))
    # points on voxel faces, duplicates, and lone points in voxels of their own
    pts[:200] = np.round(pts[:200] / voxel) * voxel
    pts[200:400] = pts[400:600]
    pts[600:610] = rng.uniform(-50, 50, size=(10, 3))
    cloud = PointCloud(points=pts, colors=rng.uniform(0, 255, size=(3000, 3)))
    got = voxel_downsample(cloud, voxel)
    points, colors = _lexsort_downsample(cloud, voxel)
    assert np.array_equal(got.points, points)
    assert np.array_equal(got.colors, colors)
    assert (np.bincount(GridIndex(pts, voxel).cells()[0]) == 1).sum() >= 10


def test_downsample_averages_colors():
    pts = np.array([[0.0, 0, 0], [0.05, 0, 0]])
    colors = np.array([[100.0, 0, 0], [200.0, 0, 0]])
    cloud = voxel_downsample(PointCloud(points=pts, colors=colors), 0.1)
    assert np.allclose(cloud.colors[0], [150.0, 0, 0])


# --- normals ------------------------------------------------------------------

def brute_force_normals(pts, k, viewpoint=(0.0, 0.0, 0.0)):
    """(normals, degenerate mask) from each point's exact k + 1 nearest
    points, ties by index, with estimate_normals' arithmetic; the distance
    matrix is formed 500 rows at a time."""
    nearest = []
    for s in range(0, len(pts), 500):
        d2 = sum((pts[None, :, a] - pts[s:s + 500, None, a]) ** 2 for a in range(3))
        ids = np.broadcast_to(np.arange(len(pts)), d2.shape)
        nearest.append(np.lexsort((ids, d2))[:, :k + 1])
    nb = pts[np.concatenate(nearest)]
    centered = nb - nb.mean(axis=1, keepdims=True)
    w, v = np.linalg.eigh(np.matmul(centered.transpose(0, 2, 1), centered) / (k + 1))
    degenerate = (w[:, 2] <= 1e-18) | (w[:, 1] <= 1e-12 * w[:, 2])
    normals = np.where(degenerate[:, None], register.DEGENERATE_NORMAL, v[:, :, 0])
    flip = np.einsum("ij,ij->i", normals, np.asarray(viewpoint) - pts) < 0
    return np.where(flip[:, None], -normals, normals), degenerate


def test_plane_normals_exact():
    rng = np.random.default_rng(3)
    pts = np.column_stack([rng.uniform(0, 10, 2000).reshape(-1),
                           rng.uniform(0, 10, 2000).reshape(-1),
                           np.zeros(2000)])
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=10,
                             viewpoint=(0, 0, 100.0))
    assert np.allclose(np.abs(cloud.normals[:, 2]), 1.0, atol=1e-9)
    # all oriented toward the viewpoint above the plane
    assert np.all(cloud.normals[:, 2] > 0)


def test_tilted_plane_normals():
    rng = np.random.default_rng(4)
    uv = rng.uniform(0, 5, size=(1500, 2))
    normal = np.array([1.0, 2.0, 2.0]) / 3.0
    e1 = np.array([2.0, -1.0, 0.0]) / np.sqrt(5)
    e2 = np.cross(normal, e1)
    pts = uv[:, :1] * e1 + uv[:, 1:] * e2
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=12,
                             viewpoint=normal * 100)
    dots = cloud.normals @ normal
    assert np.all(dots > 0.999999)


def test_degenerate_normals_flagged():
    """Points on a line far from a plane have rank-1 neighbourhoods: they get
    the oriented fallback normal and the mask counts exactly them."""
    rng = np.random.default_rng(5)
    plane = np.column_stack([rng.uniform(0, 10, (600, 2)), np.zeros(600)])
    line = np.zeros((40, 3))
    line[:, 0] = 100.0 + np.linspace(0, 4, 40)
    line[:, 2] = 3.0
    cloud = estimate_normals(PointCloud(points=np.vstack([plane, line])), k_neighbors=10,
                             viewpoint=(0, 0, 100.0))
    assert cloud.degenerate.tolist() == [False] * 600 + [True] * 40
    assert np.array_equal(cloud.normals[600:], np.tile(register.DEGENERATE_NORMAL, (40, 1)))
    assert np.all(cloud.normals[:600, 2] > 0.999)


def test_too_few_points_for_normals():
    with pytest.raises(UwvioError, match="^need >= 31 points, got 5$") as exc:
        estimate_normals(PointCloud(points=np.zeros((5, 3))), k_neighbors=30)
    assert exc.value.exit_code == 1


# --- FPFH -----------------------------------------------------------------

def fpfh_for(pts, radius=1.0, k=12, viewpoint=(0, 0, 100.0)):
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=k,
                             viewpoint=viewpoint)
    return compute_fpfh(cloud, radius), cloud


def test_fpfh_shape_and_normalization():
    rng = np.random.default_rng(5)
    pts = rng.uniform(0, 4, size=(300, 3))
    desc, _ = fpfh_for(pts)
    assert desc.values.shape == (300, 33)
    assert not desc.isolated.any()
    for lo in (0, 11, 22):
        sums = desc.values[:, lo:lo + 11].sum(axis=1)
        assert np.allclose(sums, 100.0)


def test_fpfh_isolated_point_flagged():
    pts = np.vstack([np.random.default_rng(6).uniform(0, 1, size=(50, 3)),
                     [[100.0, 100.0, 100.0]]])
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=8)
    desc = compute_fpfh(cloud, radius=2.0)
    assert desc.isolated[-1]
    assert np.all(desc.values[-1] == 0)


def test_fpfh_rigid_invariance():
    """Descriptors must be (numerically) invariant under rigid motion."""
    rng = np.random.default_rng(7)
    base = structured_scene(n_points=1500, extent=8.0, seed=7)
    T = RigidTransform.from_matrix(random_rotation(rng), np.array([3.0, -2.0, 1.0]))
    moved = T.apply(base)

    cloud_a = estimate_normals(PointCloud(points=base), k_neighbors=12,
                               viewpoint=(0, 0, 1e9))
    # transform the same normals instead of re-estimating, to isolate the
    # descriptor's dependence on geometry alone
    cloud_b = PointCloud(points=moved, normals=cloud_a.normals @ T.R.T)
    desc_a = compute_fpfh(cloud_a, radius=1.2)
    desc_b = compute_fpfh(cloud_b, radius=1.2)
    assert np.allclose(desc_a.values, desc_b.values, atol=1e-6)


def _reference_fpfh(pts, normals, radius):
    """The per-point FPFH loop: one neighbor list and histogram per point."""
    def pair_features(p, n_p, q_pts, q_normals):
        d = q_pts - p
        dist = np.linalg.norm(d, axis=1)
        dist = np.where(dist > 0, dist, 1.0)
        dn = d / dist[:, None]
        u = n_p
        v = np.cross(dn, u)
        v_norm = np.linalg.norm(v, axis=1)
        deg = v_norm < 1e-12
        if np.any(deg):
            alt = np.cross(np.tile([1.0, 0.0, 0.0], (int(deg.sum()), 1)), u)
            alt_bad = np.linalg.norm(alt, axis=1) < 1e-12
            alt[alt_bad] = np.cross([0.0, 1.0, 0.0], u)
            v[deg] = alt
            v_norm = np.linalg.norm(v, axis=1)
        v = v / v_norm[:, None]
        w = np.cross(u, v)
        alpha = np.einsum("ij,ij->i", v, q_normals)
        phi = dn @ u
        theta = np.arctan2(np.einsum("ij,ij->i", w, q_normals), q_normals @ u)
        return alpha, phi, theta

    n = len(pts)
    all_d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    neighbor_lists = []
    spfh = np.zeros((n, 33))
    isolated = np.zeros(n, dtype=bool)
    for i in range(n):
        nbrs = np.nonzero(all_d[i] <= radius)[0]
        nbrs = nbrs[nbrs != i]
        neighbor_lists.append(nbrs)
        if nbrs.size == 0:
            isolated[i] = True
            continue
        alpha, phi, theta = pair_features(pts[i], normals[i], pts[nbrs], normals[nbrs])
        spfh[i, 0:11] = np.histogram(alpha, bins=11, range=(-1.0, 1.0))[0]
        spfh[i, 11:22] = np.histogram(phi, bins=11, range=(-1.0, 1.0))[0]
        spfh[i, 22:33] = np.histogram(theta, bins=11, range=(-np.pi, np.pi))[0]
    fpfh = np.zeros((n, 33))
    for i in range(n):
        nbrs = neighbor_lists[i]
        if nbrs.size == 0:
            continue
        dist = np.linalg.norm(pts[nbrs] - pts[i], axis=1)
        weights = 1.0 / np.maximum(dist, 1e-12)
        fpfh[i] = spfh[i] + (weights[:, None] * spfh[nbrs]).sum(axis=0) / nbrs.size
        for lo in (0, 11, 22):
            total = fpfh[i, lo:lo + 11].sum()
            if total > 0:
                fpfh[i, lo:lo + 11] *= 100.0 / total
    return fpfh, isolated


def test_fpfh_matches_per_point_reference():
    rng = np.random.default_rng(17)
    pts = rng.uniform(0, 2, size=(250, 3))
    normals = rng.normal(size=(250, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    # pairs whose connecting line is parallel to the first point's normal,
    # the second one along x, so both fallback frames are taken
    pts[1] = pts[0] + 0.1 * normals[0]
    pts[3] = pts[2] + [0.1, 0.0, 0.0]
    normals[2] = [1.0, 0.0, 0.0]
    pts = np.vstack([pts, [[50.0, 50.0, 50.0]]])
    normals = np.vstack([normals, [[0.0, 0.0, 1.0]]])
    desc = compute_fpfh(PointCloud(points=pts, normals=normals), radius=0.45)
    want, isolated = _reference_fpfh(pts, normals, 0.45)
    assert np.array_equal(desc.isolated, isolated)
    assert isolated.sum() == 1
    np.testing.assert_allclose(desc.values, want, rtol=0, atol=1e-12)


def test_fpfh_pieces_across_chunk_edges(monkeypatch):
    # enough pairs to cross two _CHUNK edges, some rows straddling them
    rng = np.random.default_rng(23)
    pts = rng.uniform(0, 2, size=(1100, 3))
    normals = rng.normal(size=(1100, 3))
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    cloud = PointCloud(points=pts, normals=normals)
    offsets, _ = GridIndex(pts, 0.55).radius_neighbors(pts, 0.55)
    assert offsets[-1] - len(pts) > 2 * register._CHUNK
    want = compute_fpfh(cloud, radius=0.55).values
    for piece in (1, 37, register._CHUNK):
        monkeypatch.setattr(register, "_PIECE", piece)
        assert np.array_equal(compute_fpfh(cloud, radius=0.55).values, want)
    reference, _ = _reference_fpfh(pts, normals, 0.55)
    np.testing.assert_allclose(want, reference, rtol=0, atol=1e-12)


def _row_pair_features(d, u, nq):
    """`register._pair_features` as it was on (m, 3) rows, frozen."""
    dist = np.linalg.norm(d, axis=1)
    dn = d / np.where(dist > 0, dist, 1.0)[:, None]
    v = np.cross(dn, u)
    v_norm = np.linalg.norm(v, axis=1)
    deg = v_norm < 1e-12
    if np.any(deg):
        alt = np.cross([1.0, 0.0, 0.0], u[deg])
        alt_bad = np.linalg.norm(alt, axis=1) < 1e-12
        alt[alt_bad] = np.cross([0.0, 1.0, 0.0], u[deg][alt_bad])
        v[deg] = alt
        v_norm = np.linalg.norm(v, axis=1)
    v = v / v_norm[:, None]
    w = np.cross(u, v)
    alpha = np.einsum("ij,ij->i", v, nq)
    phi = np.einsum("ij,ij->i", dn, u)
    theta = np.arctan2(np.einsum("ij,ij->i", w, nq), np.einsum("ij,ij->i", nq, u))
    return dist, alpha, phi, theta


def _unit_rows(rng, m):
    u = rng.normal(size=(m, 3))
    return u / np.linalg.norm(u, axis=1, keepdims=True)


def test_pair_features_bit_equal_to_row_form():
    # bit-equal with numpy 2.4, whose einsum sums a row of three in the
    # order `register._dot` copies; another numpy may sum it differently
    rng = np.random.default_rng(20)
    m = 1 << 15
    d = rng.normal(size=(m, 3)) * rng.uniform(1e-3, 2.0, (m, 1))
    u, nq = _unit_rows(rng, m), _unit_rows(rng, m)
    # fallback frames among ordinary pairs: d parallel to u, u along x with
    # d parallel to it (so the first fallback axis fails too), and d = 0
    u[:8] = [[1, 0, 0], [-1, 0, 0], [1, 0, 0], [0, 1, 0],
             [0, 0, -1], [0.6, 0.8, 0], [1, 0, 0], [-1, 0, 0]]
    d[:8] = u[:8] * [[0.3], [2.0], [-0.7], [1.1], [0.4], [-0.5], [0.0], [0.0]]
    d[8:40] = u[8:40] * rng.uniform(-2, 2, (32, 1))
    want = _row_pair_features(d, u, nq)
    dn = d / np.where(want[0] > 0, want[0], 1.0)[:, None]
    assert (np.linalg.norm(np.cross(dn, u), axis=1)[:40] < 1e-12).all()
    got = register._pair_features(d.T.copy(), u.T.copy(), nq.T.copy())
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_histogram_bins_match_numpy():
    for lo, hi in [(-1.0, 1.0), (-np.pi, np.pi)]:
        edges = np.linspace(lo, hi, 12)
        # every edge and both its neighbours, lo - ulp and hi + ulp among them
        x = np.concatenate([edges, np.nextafter(edges, np.inf),
                            np.nextafter(edges, -np.inf), [np.nan, np.inf, -np.inf],
                            np.random.default_rng(18).uniform(1.3 * lo, 1.3 * hi, 500)])
        bins = _histogram_bins(x, lo, hi)
        inside = bins >= 0
        assert np.array_equal(inside, (x >= lo) & (x <= hi))
        assert np.array_equal(np.bincount(bins[inside], minlength=11),
                              np.histogram(x, bins=11, range=(lo, hi))[0])
        for value, b in zip(x, bins):
            counts = np.histogram([value], bins=11, range=(lo, hi))[0]
            assert b == (np.argmax(counts) if counts.any() else -1)


def test_normals_match_brute_force_knn():
    # a sparse corner group whose cube of cells at reach 1 holds fewer than
    # k + 1 points, so it needs a wider reach
    rng = np.random.default_rng(19)
    k = 8
    pts = np.vstack([rng.uniform(0, 1, size=(400, 3)),
                     [1.6, 1.6, 1.6] + rng.normal(size=(3, 3)) * 0.05])
    cell = _density_cell(pts, (k + 1) / 27)
    offsets, _ = GridIndex(pts, cell).cube(pts[-1:], 1)
    assert offsets[1] < k + 1
    got = estimate_normals(PointCloud(points=pts), k_neighbors=k).normals
    want, degenerate = brute_force_normals(pts, k)
    assert not degenerate.any()
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


def test_normals_exact_on_clustered_cloud():
    """A dense blob inside a sparse spread: a cube of cells that holds
    k + 2 points need not hold the k + 1 nearest."""
    rng = np.random.default_rng(0)
    pts = np.vstack([rng.normal(0.0, 0.05, size=(2000, 3)),
                     rng.uniform(-10, 10, size=(60, 3))])
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=30)
    want, degenerate = brute_force_normals(pts, 30)
    assert not degenerate.any() and not cloud.degenerate.any()
    np.testing.assert_allclose(cloud.normals, want, rtol=0, atol=1e-12)


@pytest.mark.parametrize("spacing", [1.0, 0.1])
def test_normals_exact_on_lattice(spacing):
    """A lattice whose points lie on cell faces (exactly at spacing 1, where
    the cell is 1, and within rounding at 0.1) and whose distances tie at
    the k-th nearest point: those ties go to the lower index."""
    k = 26
    lattice = np.stack(np.meshgrid(*[np.arange(5.0)] * 3, indexing="ij"), -1).reshape(-1, 3)
    # one more point makes the box 4 x 4 x 7.875 for 126 points
    pts = np.vstack([lattice, [[0.0, 0.0, 7.875]]]) * spacing
    if spacing == 1.0:
        assert _density_cell(pts, (k + 1) / 27) == 1.0
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=k,
                             viewpoint=(-1.0, -2.0, -3.0))
    want, degenerate = brute_force_normals(pts, k, viewpoint=(-1.0, -2.0, -3.0))
    assert np.array_equal(cloud.degenerate, degenerate)
    np.testing.assert_allclose(cloud.normals, want, rtol=0, atol=1e-12)


def test_normals_certificate_is_strict():
    """Cell 1: the point at index 2 lies 0.25 from its cell's nearest face,
    so at reach 1 the cube holds every point closer than 1.25. Its 3rd
    nearest candidate there (index 1) lies exactly 1.25 away, as does index
    0 outside the cube, which wins the tie; so the reach must widen."""
    pts = np.array([[3.0, 0.5, 0.5], [1.75, 1.75, 0.5], [1.75, 0.5, 0.5],
                    [1.75, 0.5, 1.5], [5.75, 0.5, 0.5]])
    assert _density_cell(pts, 3 / 27) == 1.0
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=2)
    want, degenerate = brute_force_normals(pts, 2)
    assert np.array_equal(np.abs(cloud.normals[2]), [0.0, 1.0, 0.0])
    assert np.array_equal(cloud.degenerate, degenerate)
    np.testing.assert_allclose(cloud.normals, want, rtol=0, atol=1e-12)


def _cube_reaches(monkeypatch):
    """A list that records the reach of every `GridIndex.cube` call."""
    reaches = []
    cube = GridIndex.cube

    def counted(self, queries, reach):
        reaches.append(reach)
        return cube(self, queries, reach)

    monkeypatch.setattr(GridIndex, "cube", counted)
    return reaches


def _reach_needed(pts, k):
    """A reach at which every point's search has stopped: the least r whose
    r cells exceed the point's (k + 1)-th nearest distance (its distance to
    the cell's faces left out), or at which its cube holds the whole cloud."""
    cell = _density_cell(pts, (k + 1) / 27)
    cells = np.floor(pts / cell)
    d2 = sum((pts[None, :, a] - pts[:, None, a]) ** 2 for a in range(3))
    inside = np.floor(np.sqrt(np.sort(d2, axis=1)[:, k]) / cell) + 1
    whole = np.abs(cells[:, None] - cells[None]).max(axis=(1, 2))
    return max(1, int(np.minimum(inside, whole).max()))


def _assert_exact_in_doublings(monkeypatch, pts, k):
    """Normals and mask equal brute force, after at most one `cube` call per
    doubling of the reach up to the reach needed."""
    reaches = _cube_reaches(monkeypatch)
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=k)
    want, degenerate = brute_force_normals(pts, k)
    assert np.array_equal(cloud.degenerate, degenerate)
    np.testing.assert_allclose(cloud.normals, want, rtol=0, atol=1e-12)
    r = _reach_needed(pts, k)
    assert len(reaches) <= 1 + math.ceil(math.log2(r))
    return r


def test_normals_of_k_plus_one_points(monkeypatch):
    """k + 1 points: every point's neighbourhood is the whole cloud, found
    once a cube of cells holds it, within three doublings of the reach."""
    pts = np.random.default_rng(7).uniform(0, 1, size=(31, 3))
    reaches = _cube_reaches(monkeypatch)
    got = estimate_normals(PointCloud(points=pts), k_neighbors=30).normals
    assert len(reaches) <= 3
    np.testing.assert_allclose(got, brute_force_normals(pts, 30)[0], rtol=0, atol=1e-12)


def test_normals_beyond_the_reach_bound(monkeypatch):
    """Points hundreds of cells from any other, beyond the 64 cells at which
    an earlier rule took whatever the cube held: their neighbourhoods are
    still the exact k + 1 nearest points."""
    rng = np.random.default_rng(11)
    far = [[1000.0, 0.5, 0.5], [2000.0, 1.0, 0.5], [3000.0, 0.5, 1.0]]
    pts = np.vstack([rng.uniform(0, 1, size=(39, 3)), far])
    assert _assert_exact_in_doublings(monkeypatch, pts, 8) > 64


def test_normals_across_a_tunnel_gap(monkeypatch):
    """A cave tunnel with a 200 m gap in its scan and a 12-point patch in the
    middle of the gap: the patch's k + 1 nearest reach across to the tunnel
    ends, far more than 64 cells away."""
    rng = np.random.default_rng(23)
    x = rng.uniform(0, 200, 1200)
    x[x > 100] += 200
    angle = rng.uniform(0, 2 * np.pi, 1200)
    wall = np.column_stack([x, 0.5 * np.cos(angle), 0.5 * np.sin(angle)])
    angle = rng.uniform(-0.3, 0.3, 12)
    patch = np.column_stack([200 + rng.uniform(-0.5, 0.5, 12),
                             0.5 * np.cos(angle), 0.5 * np.sin(angle)])
    assert _assert_exact_in_doublings(monkeypatch, np.vstack([wall, patch]), 30) > 64


@pytest.mark.parametrize("seed", range(4))
def test_normals_exact_with_far_isolated_points(seed, monkeypatch):
    """Dense blobs and a few isolated points strung out along x, as a long
    passage scanned at its ends: exact whatever reach the strays need."""
    rng = np.random.default_rng(seed)
    blobs = [rng.normal(rng.uniform(-5, 5, 3), rng.uniform(0.05, 0.5),
                        size=(int(rng.integers(40, 150)), 3))
             for _ in range(int(rng.integers(2, 5)))]
    n_far = int(rng.integers(1, 6))
    far = np.column_stack([rng.uniform(100, 5000, n_far) * rng.choice([-1, 1], n_far),
                           rng.uniform(-5, 5, (n_far, 2))])
    _assert_exact_in_doublings(monkeypatch, np.vstack(blobs + [far]),
                               int(rng.integers(3, 13)))


@pytest.mark.parametrize("n_far", range(1, 6))
def test_normals_linear_with_far_strays(n_far, monkeypatch):
    """A scanned surface plus 1 to 5 strays at 10^3 to 10^5 times its extent,
    as a sparse map's badly triangulated landmarks: the normals are exact,
    and the searches rank at most 16 n (k + 1) candidates in all, as the
    grid is sized from the trimmed spread, not the bounding box."""
    rng = np.random.default_rng(n_far)
    # at least 1000 n_far points: the trim drops n_far values at each end
    scene = structured_scene(n_points=1000 * n_far, extent=20.0, seed=n_far)
    direction = rng.normal(size=(n_far, 3))
    direction /= np.linalg.norm(direction, axis=1, keepdims=True)
    extent = np.ptp(scene, axis=0).max()
    far = scene.mean(axis=0) + direction * extent * 10.0 ** rng.uniform(3, 5, (n_far, 1))
    pts = np.vstack([scene, far])[rng.permutation(len(scene) + n_far)]
    ranked = []
    knn = register._knn

    def counted(columns, queries, cand, starts, lengths, k):
        ranked.append(int(lengths.sum()))
        return knn(columns, queries, cand, starts, lengths, k)

    monkeypatch.setattr(register, "_knn", counted)
    k = register.NORMAL_K
    cloud = estimate_normals(PointCloud(points=pts), k_neighbors=k)
    assert sum(ranked) <= 16 * len(pts) * (k + 1)
    want, degenerate = brute_force_normals(pts, k)
    assert np.array_equal(cloud.degenerate, degenerate)
    np.testing.assert_allclose(cloud.normals, want, rtol=0, atol=1e-12)


def test_normals_exact_when_cells_span_beyond_int64():
    """A cloud whose normals cells span more than int64 can count still
    widens each search to the whole cloud: the cell windows saturate at
    the int64 limits, and every normal is exact."""
    rng = np.random.default_rng(0)
    pts = np.column_stack([rng.uniform(0, 1e-9, 40), rng.uniform(0, 1e-18, (40, 2))])
    pts[20:, 0], pts[-1, 0] = 5e9, -5e9
    # 1e-9 m cells, from -5e18 to 5e18
    assert _density_cell(pts, 9 / 27) == 1e-9
    got = estimate_normals(PointCloud(points=pts), k_neighbors=8)
    normals, degenerate = brute_force_normals(pts, 8)
    assert np.array_equal(got.degenerate, degenerate)
    assert np.array_equal(got.normals, normals)


@pytest.mark.parametrize("k", [0, -1, -5, 2.5])
def test_normals_reject_bad_k(k):
    pts = np.random.default_rng(1).uniform(0, 1, size=(50, 3))
    with pytest.raises(ValueError, match="^k_neighbors must be an integer >= 1$"):
        estimate_normals(PointCloud(points=pts), k_neighbors=k)


# --- matching / RANSAC / ICP -----------------------------------------------

def test_match_descriptors_identity():
    rng = np.random.default_rng(8)
    desc = rng.uniform(size=(100, 33))
    pairs = match_descriptors(desc, desc)
    assert np.array_equal(pairs, np.column_stack([np.arange(100)] * 2))


def test_match_descriptors_mutual_filters():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.1]])
    assert match_descriptors(a, b).tolist() == [[0, 0]]  # 1.0's hit is not reciprocated


def _two_pass_matches(a, b):
    """The matcher that `match_descriptors` replaced: one pass of blocked
    GEMMs a→b, a second b→a, and the pairs that agree."""
    def nearest(a, b):
        a_sq, b_sq = np.sum(a * a, axis=1), np.sum(b * b, axis=1)
        out = np.empty(len(a), dtype=int)
        for start in range(0, len(a), register.MATCH_CHUNK):
            block = slice(start, start + register.MATCH_CHUNK)
            d2 = a[block] @ b.T
            d2 *= 2.0
            np.subtract(a_sq[block, None], d2, out=d2)
            d2 += b_sq
            out[block] = np.argmin(d2, axis=1)
        return out
    fwd, bwd = nearest(a, b), nearest(b, a)
    keep = bwd[fwd] == np.arange(len(a))
    return np.column_stack([np.flatnonzero(keep), fwd[keep]])


@pytest.mark.parametrize("seed", range(3))
def test_match_descriptors_equal_two_pass_on_scenes(seed):
    """The forward matches keep their bits, and the backward ones, taken
    from the same distances, agree with the b→a pass on FPFH of scene
    pairs, whose nearest descriptors have no near-ties."""
    scene = structured_scene(n_points=4000, extent=6.0, seed=seed)
    rng = np.random.default_rng(seed)
    desc = []
    for part in (scene[scene[:, 0] <= 3.5], scene[scene[:, 0] >= 2.0]):
        part = part + rng.normal(size=part.shape) * 0.01
        cloud = estimate_normals(voxel_downsample(PointCloud(points=part), 0.15))
        desc.append(compute_fpfh(cloud, 0.75).values)
    assert len(desc[0]) > register.MATCH_CHUNK
    pairs = match_descriptors(*desc)
    assert len(pairs) > 50
    assert np.array_equal(pairs, _two_pass_matches(*desc))


@pytest.mark.parametrize("chunk", [1, 700, register._CHUNK])
def test_match_descriptors_equal_two_pass_with_exact_ties(chunk, monkeypatch):
    """Small integers make every distance exact, so rows and columns tie;
    each tie goes to the lowest index, across pieces and blocks too.
    All-zero rows stand for isolated points."""
    monkeypatch.setattr(register, "_CHUNK", chunk)
    rng = np.random.default_rng(26)
    for n_a, n_b, dim in ((600, 300, 3), (300, 600, 2), (257, 40, 33)):
        a = rng.integers(0, 3, size=(n_a, dim)).astype(float)
        b = rng.integers(0, 3, size=(n_b, dim)).astype(float)
        a[::7] = 0.0
        b[::5] = 0.0
        b[1::9] = a[:len(b[1::9])]      # exact duplicates across the sets
        assert np.array_equal(match_descriptors(a, b), _two_pass_matches(a, b))
    # every row equal: only the two first rows match
    assert match_descriptors(np.zeros((300, 4)), np.zeros((50, 4))).tolist() == [[0, 0]]


@pytest.mark.parametrize("side, bad", [(0, np.nan), (1, np.inf), (1, -np.inf)])
def test_match_descriptors_rejects_non_finite(side, bad):
    rng = np.random.default_rng(27)
    desc = [rng.uniform(size=(5, 4)), rng.uniform(size=(6, 4))]
    desc[side][2, 1] = bad
    with pytest.raises(UwvioError, match="^descriptors must be finite$") as exc:
        match_descriptors(*desc)
    assert exc.value.exit_code == 1


@pytest.mark.parametrize("a, b", [
    (np.full((3, 4), 1e200), np.ones((2, 4))),     # |a|^2 overflows
    (np.ones((2, 4)), np.full((3, 4), -1e200)),    # |b|^2 overflows
    ([[1.2e154]], [[1.2e154], [1.3e154]]),         # finite norms, 2 a.b overflows
], ids=["a", "b", "cross-term"])
def test_match_descriptors_rejects_overflowing_norms(a, b):
    """Finite descriptors whose distances overflow raise instead of
    matching on inf or NaN distances, and raise no RuntimeWarning (an
    error under this suite's settings)."""
    with pytest.raises(UwvioError, match="^descriptor squared norms overflow$") as exc:
        match_descriptors(np.asarray(a), np.asarray(b))
    assert exc.value.exit_code == 1
    # the largest descriptors whose distance terms all fit still match
    assert match_descriptors([[1e153]], [[0.0], [1e153]]).tolist() == [[0, 1]]


def test_ransac_recovers_transform_with_outliers():
    rng = np.random.default_rng(9)
    n = 200
    a = rng.uniform(-5, 5, size=(n, 3))
    R = random_rotation(rng)
    t = np.array([1.0, -2.0, 0.5])
    b = a @ R.T + t
    # corrupt 40% of correspondences
    n_bad = 80
    b[:n_bad] = rng.uniform(-5, 5, size=(n_bad, 3))
    corr = np.column_stack([np.arange(n)] * 2)
    T = robust_global_registration(corr, a, b, inlier_threshold=0.05, seed=0).transform
    assert np.allclose(T.R, R, atol=1e-9)
    assert np.allclose(T.t, t, atol=1e-9)


def test_ransac_determinism():
    rng = np.random.default_rng(10)
    a = rng.uniform(size=(50, 3))
    b = a + np.array([1.0, 0, 0])
    b[:10] += rng.normal(size=(10, 3))
    corr = np.column_stack([np.arange(50)] * 2)
    r1 = robust_global_registration(corr, a, b, inlier_threshold=0.01, seed=3)
    r2 = robust_global_registration(corr, a, b, inlier_threshold=0.01, seed=3)
    assert np.array_equal(r1.transform.matrix(), r2.transform.matrix())
    assert (r1.iterations, r1.n_inliers) == (r2.iterations, r2.n_inliers)


def test_ransac_all_outliers_fails():
    rng = np.random.default_rng(11)
    a = rng.uniform(size=(100, 3)) * 10
    b = rng.uniform(size=(100, 3)) * 10
    corr = np.column_stack([np.arange(100)] * 2)
    with pytest.raises(UwvioError, match=r"^best consensus \d+/100 below minimum 5$") as exc:
        robust_global_registration(corr, a, b, inlier_threshold=1e-6, seed=0)
    assert exc.value.exit_code == 1


def test_ransac_three_exact_correspondences():
    # every hypothesis must use all three: a repeated index fits a degenerate
    # pair and misses the transform
    rng = np.random.default_rng(20)
    a = rng.uniform(-5, 5, size=(3, 3))
    R = random_rotation(rng)
    t = np.array([0.3, 0.2, -1.0])
    corr = np.column_stack([np.arange(3)] * 2)
    res = robust_global_registration(corr, a, a @ R.T + t, inlier_threshold=1e-6)
    assert res.n_inliers == 3
    assert np.allclose(res.transform.R, R, atol=1e-9)
    assert np.allclose(res.transform.t, t, atol=1e-9)


def test_ransac_all_inliers_stops_after_one_hypothesis():
    rng = np.random.default_rng(21)
    a = rng.uniform(-5, 5, size=(500, 3))
    corr = np.column_stack([np.arange(500)] * 2)
    res = robust_global_registration(corr, a, a + [1.0, 2.0, 3.0], inlier_threshold=0.01)
    assert (res.iterations, res.n_inliers) == (1, 500)


def test_distinct_triples():
    rng = np.random.default_rng(22)
    for n in (3, 4, 50):
        s = register._distinct_triples(rng, n, 2000)
        assert s.min() >= 0 and s.max() < n
        assert np.all((s[:, 0] != s[:, 1]) & (s[:, 0] != s[:, 2]) & (s[:, 1] != s[:, 2]))
    # each third draw is uniform over the n - 2 indices left
    s = register._distinct_triples(rng, 5, 50_000)
    assert np.all(np.abs(np.bincount(s[:, 2], minlength=5) / 50_000 - 0.2) < 0.01)


@pytest.mark.parametrize("n", [3, 4, 680])
def test_distinct_triples_split_draws_equal_one(n):
    """A run of m1 + m2 triples is the run of m1 followed by that of m2:
    the bounded integers come element by element, so RANSAC's hypothesis
    stream does not depend on how many are drawn at once."""
    whole = register._distinct_triples(np.random.default_rng(28), n, 1000)
    rng = np.random.default_rng(28)
    parts = [register._distinct_triples(rng, n, m) for m in (1, 363, 636)]
    assert np.array_equal(whole, np.concatenate(parts))


def _one_at_a_time(a, b, thr, samples):
    """Iterations, best count and best inlier mask of a RANSAC loop that
    fits and scores the given hypotheses one by one."""
    best, best_inliers, needed, it = 0, None, register.RANSAC_MAX_ITER, 0
    for sample in samples:
        if it >= needed:
            break
        R, t = rigid_fit(a[sample], b[sample])
        inliers = np.sum((a @ R.T + t - b) ** 2, axis=1) < thr * thr
        it += 1
        if inliers.sum() > best:
            best, best_inliers = int(inliers.sum()), inliers
            needed = int(np.ceil(np.log(1.0 - register.RANSAC_CONFIDENCE)
                                 / np.log1p(-(best / len(a)) ** 3)))
    return it, best, best_inliers


def _check_against_one_at_a_time(res, a, b, thr, samples):
    # the same iterations, best count and inlier set: ties go to the
    # earlier hypothesis, and none past the stopping point is taken
    it, best, best_inliers = _one_at_a_time(a, b, thr, samples)
    assert (res.iterations, res.n_inliers) == (it, best)
    R, t = rigid_fit(a[best_inliers], b[best_inliers])
    assert np.array_equal(res.transform.matrix(),
                          RigidTransform.from_matrix(R, t).matrix())
    return it, best


def test_ransac_blocks_match_one_hypothesis_at_a_time(monkeypatch):
    _check_runs_against_one_at_a_time(monkeypatch, 150, 9 * 40)


@pytest.mark.parametrize("n_bad, chunk", [(150, 9 * 300), (80, 9 * 10)])
def test_ransac_runs_of_several_blocks_match_one_at_a_time(n_bad, chunk, monkeypatch):
    # with 80 outliers a run holds many fitted hypotheses
    _check_runs_against_one_at_a_time(monkeypatch, n_bad, chunk)


def _check_runs_against_one_at_a_time(monkeypatch, n_bad, chunk):
    """RANSAC drawing runs of chunk // 9 hypotheses, each run's passing
    triples fitted in one stacked call, against the one-at-a-time loop."""
    monkeypatch.setattr(register, "_CHUNK", chunk)
    rng = np.random.default_rng(23)
    n, thr = 200, 0.1
    a = rng.uniform(-5, 5, size=(n, 3))
    b = a + [1.0, 0.0, 0.0] + rng.normal(size=(n, 3)) * 0.05
    b[:n_bad] = rng.uniform(-5, 5, size=(n_bad, 3))
    drawn = []

    def recording(rng, n, m):
        drawn.append(real(rng, n, m))
        return drawn[-1].copy()

    real = register._distinct_triples
    monkeypatch.setattr(register, "_distinct_triples", recording)
    corr = np.column_stack([np.arange(n)] * 2)
    res = robust_global_registration(corr, a, b, inlier_threshold=thr, seed=4)
    assert len(drawn) > 1
    _check_against_one_at_a_time(res, a, b, thr, np.concatenate(drawn))


def _crafted_stream(monkeypatch, late):
    """A pair of 200 correspondences and a hypothesis stream in place of
    the drawn one: hypothesis 0 holds the 60 pairs of one motion, the one
    at `late` the 100 of another, and every other joins three outliers."""
    rng = np.random.default_rng(24)
    n = 200
    a = rng.uniform(-5, 5, size=(n, 3))
    b = rng.uniform(-5, 5, size=(n, 3))
    b[:60] = a[:60] + [1.0, 0.0, 0.0]
    b[60:160] = a[60:160] @ rotation_about_z(1.0).T
    # enough for one full run of hypotheses
    samples = np.array([rng.permutation(np.arange(160, n))[:3]
                        for _ in range(register._CHUNK // 9)])
    samples[0], samples[late] = [0, 1, 2], [60, 61, 62]
    stream = iter(samples.reshape(-1, 1, 3))

    def crafted(rng, n, m):
        return np.concatenate([next(stream) for _ in range(m)])

    monkeypatch.setattr(register, "_distinct_triples", crafted)
    return a, b, samples


@pytest.mark.parametrize("late, want", [(253, (253, 60)), (100, (101, 100))],
                         ids=["at-the-limit", "past-the-new-limit"])
def test_ransac_stopping_point_inside_a_block(monkeypatch, late, want):
    """Hypothesis 0 holds 60 of 200 pairs, which asks for 253 hypotheses;
    the one at `late` holds 100. At 253 it is not evaluated. At 100 it is
    taken, and its own limit of 52 has already passed."""
    a, b, samples = _crafted_stream(monkeypatch, late)
    corr = np.column_stack([np.arange(len(a))] * 2)
    res = robust_global_registration(corr, a, b, inlier_threshold=0.01)
    assert _check_against_one_at_a_time(res, a, b, 0.01, samples) == want


@pytest.mark.parametrize("late, want", [(253, (253, 60, 1)), (100, (101, 100, 2))],
                         ids=["at-the-limit", "past-the-new-limit"])
def test_ransac_fits_only_triples_that_keep_their_edges(monkeypatch, late, want):
    """The triples of three outliers fail the edge check and never reach
    `rigid_fit`; the two that hold a motion are fitted, in one stacked call.
    `fits` counts only those up to the stopping point."""
    a, b, samples = _crafted_stream(monkeypatch, late)
    stacked = []

    def recording(src, dst):
        if np.ndim(src) == 3:       # a run's hypotheses, not the final refit
            stacked.append(np.array(src))
        return rigid_fit(src, dst)

    monkeypatch.setattr(register, "rigid_fit", recording)
    corr = np.column_stack([np.arange(len(a))] * 2)
    res = robust_global_registration(corr, a, b, inlier_threshold=0.01)
    assert (res.iterations, res.n_inliers, res.fits) == want
    assert np.array_equal(np.concatenate(stacked), a[samples[[0, late]]])


def test_ransac_best_carries_across_blocks_of_a_run(monkeypatch):
    """Hypotheses 0, 5 and 9 hold motions of 60, 100 and 80 of 300 pairs,
    all in one run and scored in draw order: the 80-pair motion, which
    beats the best of the run's start, is not taken."""
    monkeypatch.setattr(register, "_CHUNK", 9 * 20)     # runs of 20
    rng = np.random.default_rng(29)
    n = 300
    a = rng.uniform(-5, 5, size=(n, 3))
    b = rng.uniform(-5, 5, size=(n, 3))
    b[:60] = a[:60] + [1.0, 0.0, 0.0]
    b[60:160] = a[60:160] @ rotation_about_z(1.0).T
    b[160:240] = a[160:240] @ rotation_about_z(-1.0).T
    samples = np.array([rng.permutation(np.arange(240, n))[:3] for _ in range(400)])
    samples[[0, 5, 9]] = [0, 1, 2], [60, 61, 62], [160, 161, 162]
    stream = iter(samples)
    monkeypatch.setattr(register, "_distinct_triples",
                        lambda rng, n, m: np.array([next(stream) for _ in range(m)]))
    corr = np.column_stack([np.arange(n)] * 2)
    res = robust_global_registration(corr, a, b, inlier_threshold=0.01)
    assert _check_against_one_at_a_time(res, a, b, 0.01, samples)[1] == 100


@pytest.fixture(scope="module")
def ransac_inputs():
    """Two RANSAC inputs as (correspondences, points a, points b,
    threshold): the evaluate benchmark's pair, a 31 % overlap of a
    16 000-point scene, matched by FPFH at a 0.1 m voxel; and 300 pairs in
    a cubic metre, 270 of them outliers, whose edge checks pass often."""
    scene = structured_scene(n_points=16_000, extent=6.0, seed=0)
    noise = np.random.default_rng(0)
    source = (scene[scene[:, 0] <= 3.9] - [2.0, 0.0, 0.0]) @ rotation_about_z(np.pi / 6)
    target = scene[scene[:, 0] >= 2.7]
    source = source + noise.normal(size=source.shape) * 0.01
    target = target + noise.normal(size=target.shape) * 0.01
    clouds = [estimate_normals(voxel_downsample(PointCloud(points=p), 0.1))
              for p in (source, target)]
    corr = match_descriptors(*[compute_fpfh(c, 0.5) for c in clouds])
    rng = np.random.default_rng(26)
    a = rng.uniform(0, 1, size=(300, 3))
    b = a @ rotation_about_z(0.5).T + [1.0, 0.0, 0.0]
    b[:270] = rng.uniform(0, 1, size=(270, 3)) @ rotation_about_z(0.5).T + [1.0, 0.0, 0.0]
    return [(corr, clouds[0].points, clouds[1].points, 0.1),
            (np.column_stack([np.arange(300)] * 2), a, b, 0.1)]


def test_ransac_does_not_depend_on_the_run_length(ransac_inputs, monkeypatch):
    """Runs of 20, 300 and the default number of hypotheses give the same
    result: a stacked `rigid_fit` gives each hypothesis the bits it gets
    alone, and every hypothesis is scored by the same product."""
    for corr, a, b, thr in ransac_inputs:
        results = []
        for chunk in (9 * 20, 9 * 300, register._CHUNK):
            with monkeypatch.context() as m:
                m.setattr(register, "_CHUNK", chunk)
                res = robust_global_registration(corr, a, b, inlier_threshold=thr, seed=0)
            results.append((res.iterations, res.n_inliers, res.fits,
                            res.transform.matrix().tobytes()))
        assert results[0][2] > 100
        assert results[1:] == results[:-1]


def test_edges_agree_keeps_every_all_inlier_triple():
    """Pairs within the threshold of one rigid motion keep each edge's
    length to within twice the threshold, so no triple of them fails."""
    rng = np.random.default_rng(25)
    thr = 0.1
    a = rng.uniform(-5, 5, size=(40, 3))
    R, t = random_rotation(rng), rng.normal(size=3)
    r = rng.normal(size=(40, 3))
    r *= thr * (1 - 1e-9) / np.linalg.norm(r, axis=1, keepdims=True)
    b = a @ R.T + t + r
    assert np.all(np.sum((a @ R.T + t - b) ** 2, axis=1) < thr * thr)
    triples = np.array(list(itertools.combinations(range(40), 3)))
    assert register._edges_agree(a[triples], b[triples], 2 * thr).all()
    # the worst case: points on a line, residuals alternating along it,
    # so every edge between neighbours stretches by almost 2 * thr
    line = np.outer(np.arange(40.0), [1.0, 0.0, 0.0])
    along = line + np.outer((-1.0) ** np.arange(40), [thr * (1 - 1e-9), 0.0, 0.0])
    assert register._edges_agree(line[triples], along[triples], 2 * thr).all()
    # one edge longer by just over or just under 2 * thr
    tri = np.array([[[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    for stretch, agree in ((1 + 1e-9, False), (1 - 1e-9, True)):
        moved = tri.copy()
        moved[0, 1, 0] += 2 * thr * stretch
        assert register._edges_agree(tri, moved, 2 * thr).tolist() == [agree]


def test_icp_converges_from_small_offset():
    rng = np.random.default_rng(12)
    tgt = structured_scene(n_points=3000, extent=8.0, seed=12)
    T_true = RigidTransform.from_matrix(rotation_about_z(0.05),
                                        np.array([0.08, -0.05, 0.02]))
    src = T_true.inverse().apply(tgt)
    icp = icp_refine(src, tgt, RigidTransform.identity(), threshold=0.3)
    T = icp.transform
    err_R = rotation_angle(T.R @ T_true.R.T)
    assert err_R < 1e-6
    assert np.linalg.norm(T.t - T_true.t) < 1e-6
    assert icp.stop == "tolerance"
    assert 1 < icp.iterations < register.ICP_MAX_ITER
    again = icp_refine(src, GridIndex(tgt, 0.3), RigidTransform.identity(), threshold=0.3)
    assert (again.iterations, again.stop) == (icp.iterations, icp.stop)
    assert np.array_equal(again.transform.matrix(), T.matrix())


def test_icp_stops_at_max_iter(monkeypatch):
    tgt = structured_scene(n_points=3000, extent=8.0, seed=12)
    T_true = RigidTransform.from_matrix(rotation_about_z(0.05),
                                        np.array([0.08, -0.05, 0.02]))
    src = T_true.inverse().apply(tgt)
    full = icp_refine(src, tgt, RigidTransform.identity(), threshold=0.3)
    monkeypatch.setattr(register, "ICP_MAX_ITER", 2)
    icp = icp_refine(src, tgt, RigidTransform.identity(), threshold=0.3)
    assert (icp.iterations, icp.stop) == (2, "max_iter")
    assert not np.array_equal(icp.transform.matrix(), full.transform.matrix())


def test_icp_stops_when_rmse_rises():
    # the first fit shifts every point by 0.1 in x; that brings the last
    # point within 0.5 of its target, at 0.41, so the second pass's RMSE rises
    src = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [5.0, 0.0, 0.0]])
    tgt = np.array([[0.1, 0.0, 0.0], [1.1, 0.0, 0.0], [0.1, 1.0, 0.0], [5.5, 0.1, 0.0]])
    icp = icp_refine(src, tgt, RigidTransform.identity(), threshold=0.5)
    assert (icp.iterations, icp.stop) == (2, "rmse_rise")
    assert np.allclose(icp.transform.matrix(), [[1, 0, 0, 0.1], [0, 1, 0, 0],
                                                [0, 0, 1, 0], [0, 0, 0, 1]])


def test_icp_no_overlap():
    src = np.zeros((10, 3))
    tgt = np.full((10, 3), 100.0)
    with pytest.raises(UwvioError, match="^no point associations within threshold$") as exc:
        icp_refine(src, tgt, RigidTransform.identity(), threshold=0.5)
    assert exc.value.exit_code == 1


# --- scoring ------------------------------------------------------------------

def test_score_against_brute_force():
    rng = np.random.default_rng(13)
    src = rng.uniform(0, 5, size=(500, 3))
    tgt = rng.uniform(0, 5, size=(400, 3))
    T = RigidTransform.from_matrix(rotation_about_z(0.2), np.array([0.3, 0, 0]))
    thr = 0.25
    res = score_registration(src, tgt, T, thr)
    moved = T.apply(src)
    d = np.linalg.norm(moved[:, None, :] - tgt[None, :, :], axis=2).min(axis=1)
    inl = d < thr
    assert res.fitness == pytest.approx(inl.sum() / len(src))
    assert res.inlier_rmse == pytest.approx(np.sqrt(np.mean(d[inl] ** 2)), rel=1e-9)
    # a prebuilt index of the target, of any cell size, scores alike
    for cell in (thr, 0.1):
        assert score_registration(src, GridIndex(tgt, cell), T, thr) == res


def test_fitness_monotone_in_threshold():
    rng = np.random.default_rng(14)
    src = rng.uniform(0, 5, size=(300, 3))
    tgt = rng.uniform(0, 5, size=(300, 3))
    T = RigidTransform.identity()
    fits = [score_registration(src, tgt, T, thr).fitness
            for thr in (0.05, 0.15, 0.5, 1.5)]
    assert fits == sorted(fits)


def test_perfect_alignment_scores_one():
    rng = np.random.default_rng(15)
    pts = rng.uniform(0, 5, size=(200, 3))
    res = score_registration(pts, pts, RigidTransform.identity(), 0.1)
    assert res.fitness == 1.0
    assert res.inlier_rmse == 0.0


# --- full pipeline ------------------------------------------------------------

def test_pipeline_small_scene():
    base = structured_scene(n_points=12_000, extent=12.0, seed=16)
    T_true = RigidTransform.from_matrix(rotation_about_z(np.deg2rad(25)),
                                        np.array([1.5, -0.8, 0.3]))
    source = PointCloud(points=T_true.inverse().apply(base))
    target = PointCloud(points=base)
    out = register_pipeline(source, target, voxel=0.25, seed=0)
    T = out.result.transform
    assert rotation_angle(T.R @ T_true.R.T) < np.deg2rad(0.5)
    assert np.linalg.norm(T.t - T_true.t) < 0.05
    assert out.result.fitness > 0.95  # full overlap
    assert out.result.inlier_rmse < 0.05
    assert out.n_putative >= 3


def test_pipeline_outcome_pinned():
    # integer outcomes of a fixed partial-overlap pair: a neighbour search,
    # descriptor or RANSAC change that moves any of them changes the result
    base = structured_scene(n_points=6000, extent=8.0, seed=21)
    T = RigidTransform.from_matrix(rotation_about_z(np.deg2rad(20)), np.array([1.0, -0.5, 0.2]))
    source = PointCloud(points=T.apply(base[base[:, 0] <= 5.5]))
    target = PointCloud(points=base[base[:, 0] >= 2.0])
    out = register_pipeline(source, target, voxel=0.2, seed=3)
    assert (out.n_source_down, out.n_target_down, out.n_putative) == (1571, 2057, 456)
    assert (out.coarse.iterations, out.coarse.n_inliers) == (27, 279)
    assert (out.icp.iterations, out.icp.stop) == (5, "tolerance")
    assert out.result.n_inliers == 2879
    T_est, T_true = out.result.transform, T.inverse()
    assert rotation_angle(T_est.R @ T_true.R.T) < np.deg2rad(0.5)
    assert np.linalg.norm(T_est.t - T_true.t) < 0.05
