"""Sparse-map comparison pipeline: voxel downsampling, FPFH descriptors,
descriptor matching, robust correspondence-based global registration,
ICP refinement, and fitness / inlier_rmse scoring.

The global-registration step is a correspondence RANSAC with a closed-form
3-point rigid fit and a final least-squares refit on the consensus set;
it is deterministic under a fixed seed.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (ConsensusFailure, EmptyCloud, NoOverlap, TooFewPoints)
from .geometry import RigidTransform, rigid_fit
from .gridindex import GridIndex

DEFAULT_VOXEL = 0.10            # paper pipeline voxel size, meters
NORMAL_K = 30
FEATURE_RADIUS_FACTOR = 5.0     # FPFH radius in voxels
RANSAC_MAX_ITER = 100_000
RANSAC_CONFIDENCE = 0.999
MIN_INLIER_RATIO = 0.05
ICP_MAX_ITER = 50
ICP_TOL = 1e-8                  # transform change that ends ICP
MATCH_CHUNK = 256               # descriptor rows per nearest-neighbour pass

# deterministic fallback normal for rank-deficient neighborhoods
DEGENERATE_NORMAL = np.array([0.0, 0.0, 1.0])

# pairs, or point x candidate entries, per pass of the batched kernels;
# bounds their temporaries
_CHUNK = 1 << 15


@dataclass
class PointCloud:
    points: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=float).reshape(-1, 3)
        if self.colors is not None:
            self.colors = np.asarray(self.colors, dtype=float).reshape(-1, 3)
        if self.normals is not None:
            self.normals = np.asarray(self.normals, dtype=float).reshape(-1, 3)

    def __len__(self):
        return len(self.points)


@dataclass
class RegistrationResult:
    transform: RigidTransform
    fitness: float
    inlier_rmse: float
    n_inliers: int


def voxel_downsample(cloud, voxel):
    """One output point per occupied voxel: the centroid of its members."""
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        raise EmptyCloud("cannot downsample an empty cloud")
    cells = np.floor(cloud.points / voxel).astype(np.int64)
    _, inverse, counts = np.unique(cells, axis=0, return_inverse=True,
                                   return_counts=True)
    n_out = len(counts)

    def _mean(values):
        out = np.zeros((n_out, values.shape[1]))
        np.add.at(out, inverse, values)
        return out / counts[:, None]

    points = _mean(cloud.points)
    colors = _mean(cloud.colors) if cloud.colors is not None else None
    return PointCloud(points=points, colors=colors)


def estimate_normals(cloud, k_neighbors=NORMAL_K, viewpoint=(0.0, 0.0, 0.0)):
    """Per-point normals from the k-neighborhood covariance.

    The normal is the smallest-eigenvalue eigenvector, oriented toward the
    viewpoint. Rank-deficient neighborhoods get the deterministic fallback
    normal (flagged by returning it unmodified). Returns a new cloud.
    """
    pts = cloud.points
    n = len(pts)
    if n < k_neighbors + 1:
        raise TooFewPoints(f"need >= {k_neighbors + 1} points, got {n}")
    index = GridIndex(pts, _density_cell(pts, k_neighbors))
    viewpoint = np.asarray(viewpoint, dtype=float)

    # points sharing a cell share its candidate block: the smallest cube of
    # cells around it (reach 1 to 64) holding k + 2 points
    bounds, members = index.cells()
    first = members[bounds[:-1]]        # one point per cell
    covs = np.empty((n, 3, 3))
    need = np.arange(len(first))
    for reach in range(1, 65):
        offsets, cand = index.cube(pts[first[need]], reach)
        done = (np.diff(offsets) >= k_neighbors + 2) | (reach == 64)
        for j, c in zip(np.flatnonzero(done), need[done]):
            block = pts[cand[offsets[j]:offsets[j + 1]]]
            cell_members = members[bounds[c]:bounds[c + 1]]
            n_chunks = -(-len(cell_members) * len(block) // _CHUNK)
            for mine in np.array_split(cell_members, n_chunks):
                covs[mine] = _knn_covariances(pts[mine], block, k_neighbors + 1)
        need = need[~done]
        if need.size == 0:
            break

    w, v = np.linalg.eigh(covs)
    normals = v[:, :, 0].copy()
    degenerate = (w[:, 2] <= 1e-18) | (w[:, 1] <= 1e-12 * w[:, 2])
    normals[degenerate] = DEGENERATE_NORMAL
    flip = np.einsum("ij,ij->i", normals, viewpoint - pts) < 0
    normals[flip] = -normals[flip]
    return PointCloud(points=pts, colors=cloud.colors, normals=normals)


def _knn_covariances(points, block, k):
    """Covariance of the k nearest block points of each point (all of the
    block if it is smaller), ranked with one argpartition per row."""
    take = min(k, len(block))
    d2 = sum((block[:, a] - points[:, a, None]) ** 2 for a in range(3))
    nb = block[np.argpartition(d2, take - 1, axis=1)[:, :take]]
    centered = nb - nb.mean(axis=1, keepdims=True)
    return np.matmul(centered.transpose(0, 2, 1), centered) / take


def _density_cell(pts, k):
    """Grid cell size tuned so a cell holds on the order of k points."""
    extent = np.ptp(pts, axis=0)
    extent = np.where(extent > 0, extent, 1.0)
    volume = float(np.prod(extent))
    per_point = (volume / len(pts)) ** (1.0 / 3.0)
    return max(per_point * max(k, 1) ** (1.0 / 3.0), 1e-9)


@dataclass
class FpfhDescriptors:
    values: np.ndarray          # (n, 33)
    isolated: np.ndarray        # (n,) bool: no neighbors in radius

    def __len__(self):
        return len(self.values)


def _pair_features(d, u, nq):
    """Angular features (alpha, phi, theta) of pairs (p, q) with offset
    d = q - p, normal u at p and normal nq at q."""
    dist = np.linalg.norm(d, axis=1)
    dn = d / np.where(dist > 0, dist, 1.0)[:, None]
    v = np.cross(dn, u)
    v_norm = np.linalg.norm(v, axis=1)
    # connecting line parallel to the normal: pick any perpendicular frame
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
    return alpha, phi, theta


def _histogram_bins(x, lo, hi):
    """Bin of each value in ``np.histogram(x, bins=11, range=(lo, hi))``,
    -1 outside the range: bins are closed on the left, the last on both sides."""
    b = np.searchsorted(np.linspace(lo, hi, 12), x, "right") - 1
    b[x == hi] = 10
    return np.where(b < 11, b, -1)


def compute_fpfh(cloud, radius):
    """Fast Point Feature Histograms (33 bins per point).

    Simplified per-point features are binned into three 11-bin histograms,
    then aggregated over the neighborhood with 1/distance weights and
    normalized so each sub-histogram sums to 100. Points with no neighbor
    in radius get a zero descriptor and are flagged.
    """
    if cloud.normals is None:
        raise ValueError("cloud needs normals; run estimate_normals first")
    if radius <= 0:
        raise ValueError("radius must be positive")
    pts = cloud.points
    normals = cloud.normals
    n = len(pts)
    if n == 0:
        raise EmptyCloud("cannot describe an empty cloud")
    offsets, nbrs = GridIndex(pts, radius).radius_neighbors(pts, radius)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    keep = nbrs != rows
    rows, nbrs = rows[keep], nbrs[keep]
    n_nbrs = np.bincount(rows, minlength=n)
    isolated = n_nbrs == 0

    # pair features binned into SPFH histograms, one chunk of pairs at a time
    spfh = np.zeros(n * 33)
    for s in range(0, len(rows), _CHUNK):
        i, j = rows[s:s + _CHUNK], nbrs[s:s + _CHUNK]
        features = _pair_features(pts[j] - pts[i], normals[i], normals[j])
        for lo, x, span in zip((0, 11, 22), features, (1.0, 1.0, np.pi)):
            b = _histogram_bins(x, -span, span)
            spfh += np.bincount(i[b >= 0] * 33 + lo + b[b >= 0], minlength=n * 33)
    spfh = spfh.reshape(n, 33)

    # 1/distance-weighted sum of the neighbors' SPFH; pairs are grouped by row
    weighted = np.zeros((n, 33))
    for s in range(0, len(rows), _CHUNK):
        i, j = rows[s:s + _CHUNK], nbrs[s:s + _CHUNK]
        weights = 1.0 / np.maximum(np.linalg.norm(pts[j] - pts[i], axis=1), 1e-12)
        first = np.flatnonzero(np.diff(i, prepend=-1))
        weighted[i[first]] += np.add.reduceat(weights[:, None] * spfh[j], first)
    fpfh = spfh + weighted / np.maximum(n_nbrs, 1)[:, None]
    # percentage-normalize each 11-bin sub-histogram
    sub = fpfh.reshape(n, 3, 11)
    total = sub.sum(axis=2, keepdims=True)
    sub *= np.where(total > 0, 100.0 / np.where(total > 0, total, 1.0), 1.0)
    return FpfhDescriptors(values=fpfh, isolated=isolated)


def match_descriptors(desc_a, desc_b, mutual=True):
    """Nearest-neighbor correspondences in descriptor space (L2).

    Returns an (m, 2) array of (index_a, index_b) pairs. With ``mutual``
    only reciprocal nearest neighbors are kept.
    """
    a = np.asarray(desc_a.values if hasattr(desc_a, "values") else desc_a, dtype=float)
    b = np.asarray(desc_b.values if hasattr(desc_b, "values") else desc_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise EmptyCloud("empty descriptor set")
    fwd = _nn_indices(a, b)
    if not mutual:
        return np.column_stack([np.arange(len(a)), fwd])
    bwd = _nn_indices(b, a)
    idx_a = np.arange(len(a))
    keep = bwd[fwd] == idx_a
    return np.column_stack([idx_a[keep], fwd[keep]])


def _nn_indices(a, b):
    """Index of the L2-nearest row of b for every row of a."""
    a_sq = np.sum(a * a, axis=1)
    b_sq = np.sum(b * b, axis=1)
    out = np.empty(len(a), dtype=int)
    for start in range(0, len(a), MATCH_CHUNK):
        block = slice(start, start + MATCH_CHUNK)
        # |a|^2 - 2 a.b + |b|^2 in one buffer
        d2 = a[block] @ b.T
        d2 *= 2.0
        np.subtract(a_sq[block, None], d2, out=d2)
        d2 += b_sq
        out[block] = np.argmin(d2, axis=1)
    return out


@dataclass
class RansacResult:
    transform: RigidTransform
    iterations: int             # hypotheses evaluated
    n_inliers: int              # best consensus size


def robust_global_registration(correspondences, points_a, points_b,
                               inlier_threshold, seed=0):
    """Consensus-maximizing rigid transform over putative correspondences.

    RANSAC with a 3-point closed-form rigid fit and a final least-squares
    refit on the consensus set. Hypotheses are drawn, fitted and scored a
    block at a time but taken in order, as a one-at-a-time loop would: ties
    go to the earlier hypothesis, and the hypotheses of the last block past
    the stopping point are discarded. Deterministic under the seed.
    """
    corr = np.asarray(correspondences, dtype=int).reshape(-1, 2)
    n = len(corr)
    if n < 3:
        raise ConsensusFailure(f"need >= 3 correspondences, got {n}")
    a = np.asarray(points_a, dtype=float)[corr[:, 0]]
    b = np.asarray(points_b, dtype=float)[corr[:, 1]]
    rng = np.random.default_rng(seed)
    thr2 = inlier_threshold * inlier_threshold
    block = max(1, _CHUNK // n)     # hypotheses per block: (n, block) temporaries

    best_count = 0
    best_inliers = None
    limit = RANSAC_MAX_ITER
    it = 0
    while it < limit:
        sample = _distinct_triples(rng, n, block)
        R, t = rigid_fit(a[sample], b[sample])
        # squared residual of every correspondence under every hypothesis,
        # one axis at a time
        resid2 = np.zeros((n, block))
        for k in range(3):
            e = a @ R[:, k, :].T
            e += t[:, k]
            e -= b[:, k, None]
            e *= e
            resid2 += e
        inliers = resid2 < thr2
        counts = np.count_nonzero(inliers, axis=0)
        # only a count above every earlier one can become the best
        before = np.maximum.accumulate(np.concatenate([[best_count], counts[:-1]]))
        taken = 0
        for j in np.flatnonzero(counts > before):
            if it + j >= limit:
                break
            best_count = int(counts[j])
            best_inliers = inliers[:, j]
            taken = j + 1
            ratio = best_count / n
            if ratio >= 1.0:
                limit = it + taken      # nothing can beat an all-inlier fit
                break
            # iterations needed to hit an all-inlier sample with the
            # requested confidence
            denom = np.log1p(-min(ratio ** 3, 1 - 1e-12))
            needed = int(np.ceil(np.log(1.0 - RANSAC_CONFIDENCE) / denom))
            limit = min(needed, RANSAC_MAX_ITER)
        it += min(block, max(taken, limit - it))

    minimum = max(3, int(np.ceil(MIN_INLIER_RATIO * n)))
    if best_inliers is None or best_count < minimum:
        raise ConsensusFailure(
            f"best consensus {best_count}/{n} below minimum {minimum}")
    R, t = rigid_fit(a[best_inliers], b[best_inliers])
    return RansacResult(transform=RigidTransform.from_matrix(R, t),
                        iterations=it, n_inliers=best_count)


def _distinct_triples(rng, n, m):
    """m index triples of range(n), each without repeats: the second and
    third draws come from the n - 1 and n - 2 indices left, shifted past
    the ones already taken."""
    s = rng.integers(0, [n, n - 1, n - 2], size=(m, 3))
    i, j, k = s.T
    j += j >= i
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    k += k >= lo
    k += k >= hi
    return s


def icp_refine(source, target, init, threshold):
    """Point-to-point ICP from the given initial guess.

    Alternates nearest-neighbor association (within ``threshold``) with a
    closed-form rigid fit. Stops when the transform change drops below
    ``ICP_TOL``, the association RMSE stops improving, or after
    ``ICP_MAX_ITER`` iterations.
    """
    src = np.asarray(source.points if hasattr(source, "points") else source, dtype=float)
    tgt = np.asarray(target.points if hasattr(target, "points") else target, dtype=float)
    if len(src) == 0 or len(tgt) == 0:
        raise EmptyCloud("empty cloud in ICP")
    index = GridIndex(tgt, threshold)
    transform = init
    prev_rmse = np.inf
    for _ in range(ICP_MAX_ITER):
        moved = transform.apply(src)
        nearest, dists = index.nearest_within(moved, threshold)
        hit = nearest >= 0
        if not hit.any():
            raise NoOverlap("no point associations within threshold")
        rmse = float(np.sqrt(np.mean(dists[hit] ** 2)))
        if rmse > prev_rmse:
            break
        R, t = rigid_fit(src[hit], tgt[nearest[hit]])
        new_transform = RigidTransform.from_matrix(R, t)
        delta = np.abs(new_transform.matrix() - transform.matrix()).max()
        transform = new_transform
        prev_rmse = rmse
        if delta < ICP_TOL:
            break
    return transform


def score_registration(source, target, transform, threshold):
    """Fitness and inlier RMSE of a registration.

    fitness = inliers / source points, where an inlier is a transformed
    source point with a target neighbor closer than ``threshold``;
    inlier_rmse is the RMSE over those inlier distances.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    src = np.asarray(source.points if hasattr(source, "points") else source, dtype=float)
    tgt = np.asarray(target.points if hasattr(target, "points") else target, dtype=float)
    if len(src) == 0 or len(tgt) == 0:
        raise EmptyCloud("empty cloud in scoring")
    index = GridIndex(tgt, threshold)
    moved = transform.apply(src)
    nearest, dists = index.nearest_within(moved, threshold)
    dists = dists[nearest >= 0]
    n_inliers = len(dists)
    fitness = n_inliers / len(src)
    inlier_rmse = float(np.sqrt(np.mean(dists ** 2))) if n_inliers else 0.0
    return RegistrationResult(transform=transform, fitness=fitness,
                              inlier_rmse=inlier_rmse, n_inliers=n_inliers)


@dataclass
class PipelineResult:
    result: RegistrationResult
    coarse: RansacResult
    n_putative: int
    n_source_down: int = 0
    n_target_down: int = 0
    isolated_points: tuple = (0, 0)     # FPFH points with no neighbor: source, target


def register_pipeline(source, target, voxel=DEFAULT_VOXEL, seed=0):
    """End-to-end map comparison: downsample, describe, match, register
    globally, refine with ICP on the original clouds, and score."""
    src_d = voxel_downsample(source, voxel)
    tgt_d = voxel_downsample(target, voxel)
    src_d = estimate_normals(src_d, NORMAL_K)
    tgt_d = estimate_normals(tgt_d, NORMAL_K)
    radius = FEATURE_RADIUS_FACTOR * voxel
    desc_s = compute_fpfh(src_d, radius)
    desc_t = compute_fpfh(tgt_d, radius)
    corr = match_descriptors(desc_s, desc_t)
    coarse = robust_global_registration(corr, src_d.points, tgt_d.points,
                                        inlier_threshold=voxel, seed=seed)
    refined = icp_refine(source, target, coarse.transform, threshold=voxel)
    result = score_registration(source, target, refined, threshold=voxel)
    return PipelineResult(result=result, coarse=coarse,
                          n_putative=len(corr),
                          n_source_down=len(src_d), n_target_down=len(tgt_d),
                          isolated_points=(int(desc_s.isolated.sum()),
                                           int(desc_t.isolated.sum())))
