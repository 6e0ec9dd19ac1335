"""Sparse-map comparison pipeline: voxel downsampling, FPFH descriptors,
descriptor matching, robust correspondence-based global registration,
ICP refinement, and fitness / inlier_rmse scoring.

The global-registration step is a correspondence RANSAC with a closed-form
3-point rigid fit and a final least-squares refit on the consensus set;
it is deterministic under a fixed seed. A drawn triple is fitted only if
each of its three edges keeps its length to within 2 * inlier_threshold
between the two clouds (the edge-length check of Open3D's feature-based
RANSAC and the tuple test of Zhou, Park and Koltun, "Fast Global
Registration", ECCV 2016). Three pairs within the threshold of one rigid
motion always pass, by the triangle inequality, so the check drops no
all-inlier sample and the adaptive stop keeps its confidence.
"""

from dataclasses import dataclass

import numpy as np

from .errors import InputError, UwvioError
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
# about this many pairs per pass of the FPFH weighted sum, whose (pairs, 33)
# gathered block then fits in L2
_PIECE = 1 << 12


@dataclass
class PointCloud:
    points: np.ndarray
    colors: np.ndarray | None = None
    normals: np.ndarray | None = None
    degenerate: np.ndarray | None = None  # (n,) bool: normal is the fallback

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


def check_voxel_grid(cloud, voxel):
    """Raise unless ``cloud`` can be voxelized at ``voxel``: an empty cloud
    is a `UwvioError`; a coordinate whose voxel index does not fit in
    int64, or that is not finite, is an `InputError`."""
    if voxel <= 0:
        raise ValueError("voxel size must be positive")
    if len(cloud) == 0:
        raise UwvioError("cannot downsample an empty cloud")
    extent = np.abs(cloud.points).max()
    if not extent / voxel < 2.0 ** 63:
        raise InputError(f"coordinate magnitude {extent:g} over voxel {voxel:g} "
                         "overflows an int64 cell index")


def voxel_downsample(cloud, voxel):
    """One output point per occupied voxel: the centroid of its members.
    Fails as `check_voxel_grid` does."""
    check_voxel_grid(cloud, voxel)
    # voxels in the lexicographic order of np.unique(cells, axis=0)
    inverse, _ = GridIndex(cloud.points, voxel).cells()
    counts = np.bincount(inverse)

    def _mean(values):
        sums = [np.bincount(inverse, weights=v, minlength=len(counts)) for v in values.T]
        return np.column_stack(sums) / counts[:, None]

    points = _mean(cloud.points)
    colors = _mean(cloud.colors) if cloud.colors is not None else None
    return PointCloud(points=points, colors=colors)


def estimate_normals(cloud, k_neighbors=NORMAL_K, viewpoint=(0.0, 0.0, 0.0)):
    """Per-point normals from the covariance of the exact k + 1 nearest
    points (the point itself included), ties broken by the lower index.

    The normal is the smallest-eigenvalue eigenvector, oriented toward the
    viewpoint. Rank-deficient neighborhoods get the deterministic fallback
    normal, also oriented, and are flagged in the ``degenerate`` mask.
    Returns a new cloud.

    The grid's cells are sized so that a cube of 27 cells would hold about
    k + 1 points if the cloud filled its bounding box. A point searches the
    cube of cells around its own, doubling the reach (1, 2, 4, ... cells)
    until its (k + 1)-th nearest candidate lies strictly closer than every
    point outside the cube, or the cube holds the whole cloud; so every
    neighbourhood is exact.
    """
    if (isinstance(k_neighbors, bool) or not isinstance(k_neighbors, (int, np.integer))
            or k_neighbors < 1):
        raise ValueError("k_neighbors must be an integer >= 1")
    pts = cloud.points
    n = len(pts)
    size = int(k_neighbors) + 1         # the point and its k neighbours
    if n < size:
        raise UwvioError(f"need >= {size} points, got {n}")
    cell = _density_cell(pts, size / 27)
    top = np.abs(pts).max()
    index = GridIndex(pts, cell)
    viewpoint = np.asarray(viewpoint, dtype=float)

    # points sharing a cell share its candidate row
    cell_of, first = index.cells()
    columns = pts.T.copy()
    covs = np.empty((n, 3, 3))
    need = np.arange(n)
    reach = 1
    while need.size:
        live, row = np.unique(cell_of[need], return_inverse=True)
        offsets, cand = index.cube(pts[first[live]], reach)
        # rows by length, a cell's points together, so that one padded
        # (points, widest row) block per pass wastes little
        order = np.lexsort((row, np.diff(offsets)[row]))
        need, row = need[order], row[order]
        start, length = offsets[row], np.diff(offsets)[row]
        # a point outside the cube lies at least reach cells plus the query's
        # distance to its own cell's nearest face away, less a margin for
        # rounding in the cell assignment, that distance and d^2
        margin = 1e-12 * (top + (reach + 1) * cell)
        clearance = np.maximum(reach * cell + _face_distance(pts[need], cell) - margin,
                               0.0) ** 2
        done = np.zeros(len(need), dtype=bool)
        s = 0
        while s < len(need):
            # a pass holds (points, widest row) distances and (points, size,
            # 3) neighbourhoods: at most _CHUNK elements each
            fits = max(1, _CHUNK // max(length[s], 3 * size))
            e = s + max(1, _CHUNK // max(length[min(s + fits, len(need)) - 1], 3 * size))
            sel, d2 = _knn(columns, need[s:e], cand, start[s:e], length[s:e], size)
            # a row shorter than size ends in infinite padding and never passes
            ok = (d2[:, -1] < clearance[s:e]) | (length[s:e] == n)
            if ok.any():
                covs[need[s:e][ok]] = _covariances(pts[sel[ok]])
            done[s:e] = ok
            s = e
        need = need[~done]
        reach *= 2

    w, v = np.linalg.eigh(covs)
    normals = v[:, :, 0].copy()
    degenerate = (w[:, 2] <= 1e-18) | (w[:, 1] <= 1e-12 * w[:, 2])
    normals[degenerate] = DEGENERATE_NORMAL
    flip = np.einsum("ij,ij->i", normals, viewpoint - pts) < 0
    normals[flip] = -normals[flip]
    return PointCloud(points=pts, colors=cloud.colors, normals=normals,
                      degenerate=degenerate)


def _knn(columns, queries, cand, starts, lengths, k):
    """(indices, squared distances) of the k nearest of each query's
    candidates ``cand[start:start + length]``, sorted by (distance, index);
    a row of fewer than k candidates is padded with infinite distances.
    ``columns`` holds the points as (3, n)."""
    width = max(int(lengths.max()), k)
    last = len(cand) - 1
    # the points of a cell share its row: gather each distinct row's
    # coordinates once, padded with infinities, and copy it per point
    first, shared = np.unique(starts, return_inverse=True)
    ends = np.empty_like(first)
    ends[shared] = starts + lengths
    pos = first[:, None] + np.arange(width)
    pad = pos >= ends[:, None]
    idx = cand.take(np.minimum(pos, last, out=pos))
    del pos
    # summed over x, y, z in that order, in place
    for a in range(3):
        rows = columns[a].take(idx)
        rows[pad] = np.inf
        d = rows.take(shared, axis=0)
        d -= columns[a].take(queries)[:, None]
        d *= d
        if a == 0:
            d2 = d
        else:
            d2 += d
    del d, rows, idx
    # partitioned at the next place too: a row whose k-th distance ties with
    # it, or whose selection is not in (d^2, index) order, is sorted whole
    part = np.argpartition(d2, min(k, width - 1), axis=1)
    sel_d2 = np.take_along_axis(d2, part[:, :k], 1)
    sel = cand.take(np.minimum(starts[:, None] + part[:, :k], last))
    lo, hi = sel_d2[:, :-1], sel_d2[:, 1:]
    redo = ((hi < lo) | ((hi == lo) & (sel[:, 1:] < sel[:, :-1]))).any(axis=1)
    if width > k:
        redo |= np.take_along_axis(d2, part[:, k:k + 1], 1)[:, 0] == sel_d2[:, -1]
    if redo.any():
        idx = cand.take(np.minimum(starts[redo, None] + np.arange(width), last))
        order = np.lexsort((idx, d2[redo]))[:, :k]
        sel[redo] = np.take_along_axis(idx, order, 1)
        sel_d2[redo] = np.take_along_axis(d2[redo], order, 1)
    return sel, sel_d2


def _face_distance(points, cell):
    """Distance of each point to the nearest face of its grid cell."""
    frac = points / cell
    frac -= np.floor(frac)
    return cell * np.minimum(frac, 1.0 - frac).min(axis=1)


def _covariances(nb):
    """Covariance of each (m, t, 3) neighbourhood of t points."""
    centered = nb - nb.mean(axis=1, keepdims=True)
    return np.matmul(centered.transpose(0, 2, 1), centered) / nb.shape[1]


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
    """Distance and angular features (alpha, phi, theta) of pairs (p, q)
    with offset d = q - p, normal u at p and normal nq at q, each given as
    its x, y and z columns. Bit-equal to the same formulas on (m, 3) rows
    with ``np.linalg.norm(axis=1)``, ``einsum("ij,ij->i")`` and ``np.cross``."""
    dx, dy, dz = d
    ux, uy, uz = u
    dist = _norm(dx, dy, dz)
    scale = np.where(dist > 0, dist, 1.0)
    dn = dx / scale, dy / scale, dz / scale
    vx, vy, vz = _cross(*dn, ux, uy, uz)
    v_norm = _norm(vx, vy, vz)
    # connecting line parallel to the normal: pick any perpendicular frame
    deg = np.flatnonzero(v_norm < 1e-12)
    if deg.size:
        ud = np.column_stack([ux[deg], uy[deg], uz[deg]])
        alt = np.cross([1.0, 0.0, 0.0], ud)
        alt_bad = np.linalg.norm(alt, axis=1) < 1e-12
        alt[alt_bad] = np.cross([0.0, 1.0, 0.0], ud[alt_bad])
        vx[deg], vy[deg], vz[deg] = alt.T
        v_norm[deg] = np.linalg.norm(alt, axis=1)
    vx /= v_norm
    vy /= v_norm
    vz /= v_norm
    w = _cross(ux, uy, uz, vx, vy, vz)
    alpha = _dot(vx, vy, vz, *nq)
    phi = _dot(*dn, ux, uy, uz)
    theta = np.arctan2(_dot(*w, *nq), _dot(*nq, ux, uy, uz))
    return dist, alpha, phi, theta


def _norm(x, y, z):
    """Euclidean norm of columns, summed (x·x + y·y) + z·z as
    ``np.linalg.norm(axis=1)`` sums a row."""
    out = x * x
    out += y * y
    out += z * z
    return np.sqrt(out, out=out)


def _dot(ax, ay, az, bx, by, bz):
    """Dot product of columns, summed (x·x' + z·z') + y·y' as
    ``einsum("ij,ij->i")`` sums a row of three on numpy 2.4."""
    out = ax * bx
    out += az * bz
    out += ay * by
    return out


def _cross(ax, ay, az, bx, by, bz):
    """Cross product of columns, with the arithmetic of ``np.cross``."""
    x = ay * bz
    x -= az * by
    y = az * bx
    y -= ax * bz
    z = ax * by
    z -= ay * bx
    return x, y, z


def _histogram_bins(x, lo, hi):
    """Bin of each value in ``np.histogram(x, bins=11, range=(lo, hi))``,
    -1 outside the range or NaN: bins are closed on the left, the last on
    both sides.

    As in ``np.histogram``, the bin comes from arithmetic, off by at most
    one next to an edge, then one comparison with each neighbouring edge
    makes it exact."""
    edges = np.linspace(lo, hi, 12)
    # NaN and infinities cast to arbitrary integers, replaced below
    with np.errstate(invalid="ignore"):
        b = ((x - lo) * (11 / (hi - lo))).astype(np.intp)
    np.clip(b, 0, 10, out=b)
    b -= x < edges[b]
    b += (x >= edges[b + 1]) & (b < 10)
    b[~((x >= lo) & (x <= hi))] = -1
    return b


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
        raise UwvioError("cannot describe an empty cloud")
    offsets, nbrs = GridIndex(pts, radius).radius_neighbors(pts, radius)
    rows = np.repeat(np.arange(n), np.diff(offsets))
    keep = nbrs != rows
    rows, nbrs = rows[keep], nbrs[keep]
    n_nbrs = np.bincount(rows, minlength=n)
    isolated = n_nbrs == 0

    # pair features binned into SPFH histograms, one chunk of pairs at a
    # time; each pair's 1/distance weight is kept for the second pass
    spfh = np.zeros(n * 33)
    weights = np.empty(len(rows))
    columns, normal_columns = pts.T.copy(), normals.T.copy()
    for s in range(0, len(rows), _CHUNK):
        i, j = rows[s:s + _CHUNK], nbrs[s:s + _CHUNK]
        # (3, m) gathers of contiguous coordinate rows
        dist, *features = _pair_features(columns.take(j, axis=1) - columns.take(i, axis=1),
                                         normal_columns.take(i, axis=1),
                                         normal_columns.take(j, axis=1))
        weights[s:s + _CHUNK] = 1.0 / np.maximum(dist, 1e-12)
        bins = []
        for lo, x, span in zip((0, 11, 22), features, (1.0, 1.0, np.pi)):
            b = _histogram_bins(x, -span, span)
            bins.append(i[b >= 0] * 33 + lo + b[b >= 0])
        spfh += np.bincount(np.concatenate(bins), minlength=n * 33)
    spfh = spfh.reshape(n, 33)

    # 1/distance-weighted sum of the neighbors' SPFH, pairs grouped by row,
    # in pieces of whole rows cut at the last row end before each multiple
    # of _PIECE, so that a piece's gathered rows stay in cache
    ends = np.append(0, np.cumsum(n_nbrs))
    cuts = np.union1d(ends[np.searchsorted(ends, np.arange(0, len(rows), _PIECE), "right") - 1],
                      ends[-1])
    weighted = np.zeros((n, 33))
    for a, b in zip(cuts[:-1], cuts[1:]):
        i = rows[a:b]
        first = np.flatnonzero(np.diff(i, prepend=-1))
        block = spfh.take(nbrs[a:b], axis=0)
        block *= weights[a:b, None]
        weighted[i[first]] = np.add.reduceat(block, first)
    fpfh = spfh + weighted / np.maximum(n_nbrs, 1)[:, None]
    # percentage-normalize each 11-bin sub-histogram
    sub = fpfh.reshape(n, 3, 11)
    total = sub.sum(axis=2, keepdims=True)
    sub *= np.where(total > 0, 100.0 / np.where(total > 0, total, 1.0), 1.0)
    return FpfhDescriptors(values=fpfh, isolated=isolated)


def match_descriptors(desc_a, desc_b):
    """Mutual nearest-neighbor correspondences in descriptor space (L2).

    Returns an (m, 2) array of the (index_a, index_b) pairs that are each
    other's nearest neighbors; ties go to the lower index. One distance
    matrix, |a|^2 - 2 a.b + |b|^2, serves both directions: its row minima
    are the a→b matches and its column minima the b→a ones. Descriptors
    must be finite, and small enough that no distance term overflows.
    """
    a = np.asarray(desc_a.values if hasattr(desc_a, "values") else desc_a, dtype=float)
    b = np.asarray(desc_b.values if hasattr(desc_b, "values") else desc_b, dtype=float)
    if len(a) == 0 or len(b) == 0:
        raise UwvioError("empty descriptor set")
    if not (np.isfinite(a).all() and np.isfinite(b).all()):
        raise UwvioError("descriptors must be finite")
    with np.errstate(over="ignore"):
        a_sq = np.sum(a * a, axis=1)
        b_sq = np.sum(b * b, axis=1)
        # 2 a.b, |a|^2 - 2 a.b and the distance all stay within
        # 2 (max |a|^2 + max |b|^2); twice that leaves room for rounding
        fits = np.isfinite(4.0 * (a_sq.max() + b_sq.max()))
    if not fits:
        raise UwvioError("descriptor squared norms overflow")
    fwd = np.empty(len(a), dtype=int)
    col_best = np.full(len(b), np.inf)
    bwd = np.zeros(len(b), dtype=int)
    rows = max(1, _CHUNK // len(b))     # rows per piece of a block
    for start in range(0, len(a), MATCH_CHUNK):
        # doubling a is exact: the bits of (a @ b.T) * 2
        block = (2.0 * a[start:start + MATCH_CHUNK]) @ b.T
        for s in range(0, len(block), rows):
            lo = start + s
            d2 = block[s:s + rows]
            np.subtract(a_sq[lo:lo + len(d2), None], d2, out=d2)
            d2 += b_sq
            fwd[lo:lo + len(d2)] = np.argmin(d2, axis=1)
            # running column minimum: a strict < keeps the lower index
            col = d2.min(axis=0)
            better = np.flatnonzero(col < col_best)
            if better.size:
                col_best[better] = col[better]
                bwd[better] = lo + np.argmin(d2[:, better], axis=0)
    idx_a = np.arange(len(a))
    keep = bwd[fwd] == idx_a
    return np.column_stack([idx_a[keep], fwd[keep]])


@dataclass
class RansacResult:
    transform: RigidTransform
    iterations: int             # hypotheses drawn, up to the stopping point
    n_inliers: int              # best consensus size
    fits: int                   # of those, the ones that passed the edge check


def robust_global_registration(correspondences, points_a, points_b,
                               inlier_threshold, seed=0):
    """Consensus-maximizing rigid transform over putative correspondences.

    RANSAC with a 3-point closed-form rigid fit and a final least-squares
    refit on the consensus set. Hypotheses are drawn a run at a time, up
    to the stopping point as it stands, but taken in order, as a
    one-at-a-time loop would: ties go to the earlier hypothesis, and the
    hypotheses of a run past a stopping point that moved closer are
    discarded. Deterministic under the seed.

    Only the triples whose three edge lengths agree to within
    2 * ``inlier_threshold`` (`_edges_agree`) are fitted and scored, a
    block of them at a time; the others count 0 inliers, which never beats
    the best so far. If the three pairs of a triple lie within the
    threshold of one rigid motion, each edge's lengths differ by less than
    twice the threshold (triangle inequality), so every all-inlier sample
    is still fitted and the number of hypotheses drawn before the stop
    keeps its confidence bound.
    """
    corr = np.asarray(correspondences, dtype=int).reshape(-1, 2)
    n = len(corr)
    if n < 3:
        raise UwvioError(f"need >= 3 correspondences, got {n}")
    a = np.asarray(points_a, dtype=float)[corr[:, 0]]
    b = np.asarray(points_b, dtype=float)[corr[:, 1]]
    rng = np.random.default_rng(seed)
    thr2 = inlier_threshold * inlier_threshold
    run = _CHUNK // 9               # hypotheses per draw: (run, 3, 3) triples
    block = max(1, _CHUNK // n)     # fitted hypotheses per block: (n, block) temporaries

    best_count = 0
    best_inliers = None
    limit = RANSAC_MAX_ITER
    it = fits = 0
    while it < limit:
        sample = _distinct_triples(rng, n, min(run, limit - it))
        pa, pb = a[sample], b[sample]
        # only the triples that keep their edge lengths are fitted and
        # scored; the others count 0, which never beats the best
        fit = np.flatnonzero(_edges_agree(pa, pb, 2 * inlier_threshold))
        taken = 0
        for s in range(0, fit.size, block):
            f = fit[s:s + block]
            if it + f[0] >= limit:
                break
            R, t = rigid_fit(pa[f], pb[f])
            # squared residual of every correspondence under every fitted
            # hypothesis, one axis at a time
            resid2 = np.zeros((n, f.size))
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
            for c in np.flatnonzero(counts > before):
                j = f[c]                # the hypothesis's place in the run
                if it + j >= limit:
                    break
                best_count = int(counts[c])
                best_inliers = inliers[:, c]
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
        step = max(taken, min(len(sample), limit - it))
        fits += int(np.searchsorted(fit, step))
        it += step

    minimum = max(3, int(np.ceil(MIN_INLIER_RATIO * n)))
    if best_inliers is None or best_count < minimum:
        raise UwvioError(
            f"best consensus {best_count}/{n} below minimum {minimum}")
    R, t = rigid_fit(a[best_inliers], b[best_inliers])
    return RansacResult(transform=RigidTransform.from_matrix(R, t),
                        iterations=int(it), n_inliers=best_count, fits=fits)


def _edges_agree(pa, pb, tol):
    """Mask of the triples whose three edges, (0, 1), (1, 2) and (2, 0),
    differ in length by less than ``tol`` between the (m, 3, 3) point
    triples ``pa`` and their matches ``pb``."""
    def lengths(p):
        e = p - p[:, [1, 2, 0]]
        return np.sqrt(np.einsum("ijk,ijk->ij", e, e))
    return (np.abs(lengths(pa) - lengths(pb)) < tol).all(axis=1)


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


@dataclass
class IcpResult:
    transform: RigidTransform
    iterations: int             # association passes run
    stop: str                   # "tolerance", "rmse_rise" or "max_iter"


def _points(cloud):
    return np.asarray(cloud.points if hasattr(cloud, "points") else cloud, dtype=float)


def _target_index(target, threshold):
    """The `GridIndex` that ICP and scoring search: ``target`` itself if it
    is one, else its points indexed at ``threshold``."""
    if isinstance(target, GridIndex):
        return target
    return GridIndex(_points(target), threshold)


def icp_refine(source, target, init, threshold):
    """Point-to-point ICP from the given initial guess.

    Alternates nearest-neighbor association (within ``threshold``) with a
    closed-form rigid fit. Stops when the transform change drops below
    ``ICP_TOL`` (``"tolerance"``), when the association RMSE rises
    (``"rmse_rise"``, keeping the transform before that pass), or after
    ``ICP_MAX_ITER`` passes (``"max_iter"``). ``target`` is a cloud, its
    points, or a `GridIndex` of them.
    """
    src, index = _points(source), _target_index(target, threshold)
    tgt = index.points
    if len(src) == 0 or len(tgt) == 0:
        raise UwvioError("empty cloud in ICP")
    transform = init
    prev_rmse = np.inf
    for it in range(1, ICP_MAX_ITER + 1):
        moved = transform.apply(src)
        nearest, dists = index.nearest_within(moved, threshold)
        hit = nearest >= 0
        if not hit.any():
            raise UwvioError("no point associations within threshold")
        rmse = float(np.sqrt(np.mean(dists[hit] ** 2)))
        if rmse > prev_rmse:
            return IcpResult(transform, it, "rmse_rise")
        R, t = rigid_fit(src[hit], tgt[nearest[hit]])
        new_transform = RigidTransform.from_matrix(R, t)
        delta = np.abs(new_transform.matrix() - transform.matrix()).max()
        transform = new_transform
        prev_rmse = rmse
        if delta < ICP_TOL:
            return IcpResult(transform, it, "tolerance")
    return IcpResult(transform, ICP_MAX_ITER, "max_iter")


def score_registration(source, target, transform, threshold):
    """Fitness and inlier RMSE of a registration.

    fitness = inliers / source points, where an inlier is a transformed
    source point with a target neighbor closer than ``threshold``;
    inlier_rmse is the RMSE over those inlier distances. ``target`` is a
    cloud, its points, or a `GridIndex` of them.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    src, index = _points(source), _target_index(target, threshold)
    if len(src) == 0 or len(index.points) == 0:
        raise UwvioError("empty cloud in scoring")
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
    icp: IcpResult
    n_putative: int
    n_source_down: int = 0
    n_target_down: int = 0
    isolated_points: tuple = (0, 0)     # FPFH points with no neighbor: source, target
    degenerate_normals: tuple = (0, 0)  # fallback normals: source, target


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
    # one index of the full target, and its neighbourhood table, serve
    # every ICP pass and the scoring
    target_index = GridIndex(target.points, voxel)
    icp = icp_refine(source, target_index, coarse.transform, threshold=voxel)
    result = score_registration(source, target_index, icp.transform, threshold=voxel)
    return PipelineResult(result=result, coarse=coarse, icp=icp,
                          n_putative=len(corr),
                          n_source_down=len(src_d), n_target_down=len(tgt_d),
                          isolated_points=(int(desc_s.isolated.sum()),
                                           int(desc_t.isolated.sum())),
                          degenerate_normals=(int(src_d.degenerate.sum()),
                                              int(tgt_d.degenerate.sum())))
