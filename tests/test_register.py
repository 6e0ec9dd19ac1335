import numpy as np
import pytest

from uwvio import register
from uwvio.errors import ConsensusFailure, EmptyCloud, NoOverlap, TooFewPoints
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
                        [5.3, 5.3, 5.3], [2.0, 2.0, 2.0]])
    _assert_grid_matches_brute_force(pts, 0.5, queries, 0.7)
    offsets, _ = GridIndex(pts, 0.5).radius_neighbors(queries[:2], 0.7)
    assert offsets.tolist() == [0, 0, 0]
    nearest, dist = GridIndex(pts, 0.5).nearest_within(queries[:2], 0.7)
    assert nearest.tolist() == [-1, -1]
    assert np.all(np.isinf(dist))


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
    with pytest.raises(EmptyCloud):
        voxel_downsample(PointCloud(points=np.empty((0, 3))), 0.1)


def test_downsample_averages_colors():
    pts = np.array([[0.0, 0, 0], [0.05, 0, 0]])
    colors = np.array([[100.0, 0, 0], [200.0, 0, 0]])
    cloud = voxel_downsample(PointCloud(points=pts, colors=colors), 0.1)
    assert np.allclose(cloud.colors[0], [150.0, 0, 0])


# --- normals ------------------------------------------------------------------

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


def test_too_few_points_for_normals():
    with pytest.raises(TooFewPoints):
        estimate_normals(PointCloud(points=np.zeros((5, 3))), k_neighbors=30)


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


def test_histogram_bins_match_numpy():
    edges = np.linspace(-np.pi, np.pi, 12)
    x = np.concatenate([edges, np.nextafter(edges, np.inf),
                        np.nextafter(edges, -np.inf),
                        np.random.default_rng(18).uniform(-4, 4, 500)])
    bins = _histogram_bins(x, -np.pi, np.pi)
    inside = bins >= 0
    assert np.array_equal(inside, (x >= -np.pi) & (x <= np.pi))
    assert np.array_equal(np.bincount(bins[inside], minlength=11),
                          np.histogram(x, bins=11, range=(-np.pi, np.pi))[0])
    for value, b in zip(x[inside], bins[inside]):
        assert np.histogram([value], bins=11, range=(-np.pi, np.pi))[0][b] == 1


def test_normals_match_brute_force_knn():
    # a sparse corner group whose cell needs a reach beyond 1 to hold k + 2
    rng = np.random.default_rng(19)
    k = 8
    pts = np.vstack([rng.uniform(0, 1, size=(400, 3)),
                     [1.6, 1.6, 1.6] + rng.normal(size=(3, 3)) * 0.05])
    cell = _density_cell(pts, k)
    offsets, _ = GridIndex(pts, cell).cube(pts[-1:], 1)
    assert offsets[1] < k + 2
    got = estimate_normals(PointCloud(points=pts), k_neighbors=k).normals

    d = np.linalg.norm(pts[:, None] - pts[None], axis=2)
    nb = pts[np.argsort(d, axis=1)[:, :k + 1]]
    centered = nb - nb.mean(axis=1, keepdims=True)
    w, v = np.linalg.eigh(np.einsum("nki,nkj->nij", centered, centered) / (k + 1))
    want = v[:, :, 0] * np.where(np.einsum("ij,ij->i", v[:, :, 0], -pts) < 0, -1, 1)[:, None]
    assert np.all(w[:, 1] > 1e-12 * w[:, 2])
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


# --- matching / RANSAC / ICP -----------------------------------------------

def test_match_descriptors_identity():
    rng = np.random.default_rng(8)
    desc = rng.uniform(size=(100, 33))
    pairs = match_descriptors(desc, desc, mutual=True)
    assert np.array_equal(pairs, np.column_stack([np.arange(100)] * 2))


def test_match_descriptors_mutual_filters():
    a = np.array([[0.0], [1.0]])
    b = np.array([[0.1]])
    mutual = match_descriptors(a, b, mutual=True)
    assert mutual.tolist() == [[0, 0]]  # 1.0's hit is not reciprocated
    non_mutual = match_descriptors(a, b, mutual=False)
    assert len(non_mutual) == 2


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
    with pytest.raises(ConsensusFailure):
        robust_global_registration(corr, a, b, inlier_threshold=1e-6, seed=0)


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


def _check_blocks_against_one_at_a_time(res, a, b, thr, samples):
    # the same iterations, best count and inlier set: ties go to the
    # earlier hypothesis, and none past the stopping point is taken
    it, best, best_inliers = _one_at_a_time(a, b, thr, samples)
    assert (res.iterations, res.n_inliers) == (it, best)
    R, t = rigid_fit(a[best_inliers], b[best_inliers])
    assert np.array_equal(res.transform.matrix(),
                          RigidTransform.from_matrix(R, t).matrix())
    return it, best


def test_ransac_blocks_match_one_hypothesis_at_a_time(monkeypatch):
    rng = np.random.default_rng(23)
    n, thr = 200, 0.1
    a = rng.uniform(-5, 5, size=(n, 3))
    b = a + [1.0, 0.0, 0.0] + rng.normal(size=(n, 3)) * 0.05
    b[:150] = rng.uniform(-5, 5, size=(150, 3))
    drawn = []

    def recording(rng, n, m):
        drawn.append(real(rng, n, m))
        return drawn[-1].copy()

    real = register._distinct_triples
    monkeypatch.setattr(register, "_distinct_triples", recording)
    corr = np.column_stack([np.arange(n)] * 2)
    res = robust_global_registration(corr, a, b, inlier_threshold=thr, seed=4)
    assert len(drawn) > 1
    _check_blocks_against_one_at_a_time(res, a, b, thr, np.concatenate(drawn))


@pytest.mark.parametrize("late, want", [(253, (253, 60)), (100, (101, 100))],
                         ids=["at-the-limit", "past-the-new-limit"])
def test_ransac_stopping_point_inside_a_block(monkeypatch, late, want):
    """Hypothesis 0 holds 60 of 200 pairs, which asks for 253 hypotheses;
    the one at `late` holds 100. At 253 it is not evaluated. At 100 it is
    taken, and its own limit of 52 has already passed."""
    rng = np.random.default_rng(24)
    n, thr = 200, 0.01
    a = rng.uniform(-5, 5, size=(n, 3))
    b = rng.uniform(-5, 5, size=(n, 3))
    b[:60] = a[:60] + [1.0, 0.0, 0.0]
    b[60:160] = a[60:160] @ rotation_about_z(1.0).T
    # the other hypotheses join three outliers each
    samples = np.array([rng.permutation(np.arange(160, n))[:3] for _ in range(600)])
    samples[0], samples[late] = [0, 1, 2], [60, 61, 62]
    stream = iter(samples.reshape(-1, 1, 3))

    def crafted(rng, n, m):
        return np.concatenate([next(stream) for _ in range(m)])

    monkeypatch.setattr(register, "_distinct_triples", crafted)
    corr = np.column_stack([np.arange(n)] * 2)
    res = robust_global_registration(corr, a, b, inlier_threshold=thr)
    assert _check_blocks_against_one_at_a_time(res, a, b, thr, samples) == want


def test_icp_converges_from_small_offset():
    rng = np.random.default_rng(12)
    tgt = structured_scene(n_points=3000, extent=8.0, seed=12)
    T_true = RigidTransform.from_matrix(rotation_about_z(0.05),
                                        np.array([0.08, -0.05, 0.02]))
    src = T_true.inverse().apply(tgt)
    T = icp_refine(src, tgt, RigidTransform.identity(), threshold=0.3)
    err_R = rotation_angle(T.R @ T_true.R.T)
    assert err_R < 1e-6
    assert np.linalg.norm(T.t - T_true.t) < 1e-6


def test_icp_no_overlap():
    src = np.zeros((10, 3))
    tgt = np.full((10, 3), 100.0)
    with pytest.raises(NoOverlap):
        icp_refine(src, tgt, RigidTransform.identity(), threshold=0.5)


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
