"""Allan deviation analysis of IMU logs.

Uses the overlapping Allan variance estimator: for cluster size m over N
samples at rate fs,

    AVAR(tau = m/fs) = 1 / (2 (N - 2m)) * sum_k (ybar_{k+m} - ybar_k)^2

with ybar_k the mean of samples k..k+m-1. White noise with density
sigma_w appears as sigma_w / sqrt(tau) (log-log slope -1/2, read at
tau = 1 s); a rate random walk with intensity sigma_b appears as
sigma_b * sqrt(tau / 3) (slope +1/2, read at tau = 3 s).
"""

from dataclasses import dataclass

import numpy as np

from .errors import UwvioError

POINTS_PER_DECADE = 30

# cluster differences formed per block of this many samples: the block and
# the three prefix-sum slices it is formed from stay in a 2 MB L2 cache
BLOCK = 65536
# samples per dot product of a block's sum of squares: OpenBLAS splits a
# longer ddot across threads, so its bits would follow the thread count
DOT = 8192

# default log-log fit windows in seconds; (low, high); None = data limit
WHITE_WINDOW = (None, 1.0)
WALK_WINDOW = (100.0, None)


@dataclass
class AllanCurve:
    taus: np.ndarray    # (n_tau,)
    adev: np.ndarray    # (n_tau, n_axes)
    rate: float
    n_samples: int


@dataclass
class NoiseParams:
    sigma_w: np.ndarray      # per axis
    sigma_b: np.ndarray      # per axis
    sigma_w_avg: float
    sigma_b_avg: float
    white_slope: np.ndarray  # free-slope check over the white-noise window


def default_taus(n_samples, rate):
    """Log-spaced tau grid from 2/rate up to n/(2*rate)."""
    lo = 2.0 / rate
    hi = n_samples / (2.0 * rate)
    if hi <= lo:
        raise UwvioError(f"{n_samples} samples support no tau range")
    n_pts = max(int(np.ceil(np.log10(hi / lo) * POINTS_PER_DECADE)), 2)
    return np.logspace(np.log10(lo), np.log10(hi), n_pts)


def allan_deviation(samples, rate, taus=None):
    """Overlapping Allan deviation of one or more uniformly sampled series.

    ``samples`` is (N,) or (N, axes). Requested taus are snapped to integer
    cluster sizes and deduplicated; taus too large for at least one cluster
    pair are dropped.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n = x.shape[0]
    if n < 6:
        raise UwvioError(f"need at least 6 samples, got {n}")
    if taus is None:
        taus = default_taus(n, rate)
    taus = np.asarray(taus, dtype=float)
    if np.any(taus <= 0):
        raise UwvioError("all taus must be positive")

    ms = np.unique(np.clip(np.round(taus * rate).astype(int), 1, None))
    ms = ms[n - 2 * ms >= 1]
    if ms.size == 0:
        raise UwvioError("series too short for every requested tau")

    # one axis at a time: a contiguous prefix sum gives cluster means in
    # O(1) per cluster, and every cluster size reuses one difference buffer
    csum = np.zeros(n + 1)
    buf = np.empty(min(n, BLOCK))
    adev = np.empty((ms.size, x.shape[1]))
    for axis in range(x.shape[1]):
        np.cumsum(x[:, axis], out=csum[1:])
        for i, m in enumerate(ms):
            # second difference of prefix sums = m * (ybar_{k+m} - ybar_k)
            # for k < n - 2m, formed in place one block at a time
            ssq = 0.0
            for lo in range(0, n - 2 * m, BLOCK):
                d = buf[:min(BLOCK, n - 2 * m - lo)]
                np.multiply(csum[lo + m:][:d.size], 2, out=d)
                np.subtract(csum[lo + 2 * m:][:d.size], d, out=d)
                np.add(d, csum[lo:][:d.size], out=d)
                for s in range(0, d.size, DOT):
                    ssq += np.dot(d[s:s + DOT], d[s:s + DOT])
            adev[i, axis] = np.sqrt(ssq / (2.0 * m * m * (n - 2 * m)))
    return AllanCurve(taus=ms / rate, adev=adev, rate=rate, n_samples=n)


def _in_window(taus, adev, window):
    """Mask of the taus inside ``window`` (None = data limit) with a
    positive deviation, and the window's bounds (lo, hi)."""
    lo = window[0] if window[0] is not None else taus[0]
    hi = window[1] if window[1] is not None else taus[-1]
    return (taus >= lo) & (taus <= hi) & (adev > 0), lo, hi


def _fixed_slope_value(taus, adev, window, slope, at_tau):
    """Least-squares fixed-slope log-log fit, evaluated at ``at_tau``."""
    mask, lo, hi = _in_window(taus, adev, window)
    if not np.any(mask):
        raise UwvioError(f"no usable taus in [{lo:g}, {hi:g}] s")
    log_tau = np.log(taus[mask])
    log_adev = np.log(adev[mask])
    intercept = np.mean(log_adev - slope * log_tau)
    return float(np.exp(intercept + slope * np.log(at_tau)))


def _free_slope(taus, adev, window):
    mask, _, _ = _in_window(taus, adev, window)
    if np.count_nonzero(mask) < 2:
        return float("nan")
    slope, _ = np.polyfit(np.log(taus[mask]), np.log(adev[mask]), 1)
    return float(slope)


def fit_noise_params(curve, white_window=WHITE_WINDOW, walk_window=WALK_WINDOW):
    """Read sigma_w and sigma_b off fixed-slope log-log line fits.

    sigma_w: slope -1/2 line over the short-tau window, evaluated at
    tau = 1 s. sigma_b: slope +1/2 line over the long-tau window, evaluated
    at tau = 3 s. Fitted per axis, then averaged across axes.
    """
    taus = curve.taus
    n_axes = curve.adev.shape[1]
    sigma_w = np.empty(n_axes)
    sigma_b = np.empty(n_axes)
    slopes = np.empty(n_axes)
    for a in range(n_axes):
        adev = curve.adev[:, a]
        sigma_w[a] = _fixed_slope_value(taus, adev, white_window, -0.5, 1.0)
        sigma_b[a] = _fixed_slope_value(taus, adev, walk_window, 0.5, 3.0)
        slopes[a] = _free_slope(taus, adev, white_window)
    return NoiseParams(sigma_w=sigma_w, sigma_b=sigma_b,
                       sigma_w_avg=float(np.mean(sigma_w)),
                       sigma_b_avg=float(np.mean(sigma_b)),
                       white_slope=slopes)


def simulate_imu_noise(sigma_w, sigma_b, rate, duration, seed, axes=1):
    """Synthetic sensor series x_k = w_k + b_k.

    w_k is white with std sigma_w * sqrt(rate); b_k random-walks with
    increments of std sigma_b / sqrt(rate). Deterministic under the seed.
    Returns (n,) for axes == 1, else (n, axes).
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration * rate))
    w = rng.standard_normal((n, axes)) * (sigma_w * np.sqrt(rate))
    db = rng.standard_normal((n, axes)) * (sigma_b / np.sqrt(rate))
    x = w + np.cumsum(db, axis=0)
    return x[:, 0] if axes == 1 else x


def export_curve_csv(curve, path):
    """CSV with per-axis and axis-averaged deviation columns."""
    n_axes = curve.adev.shape[1]
    names = ["x", "y", "z"][:n_axes] if n_axes <= 3 else [str(i) for i in range(n_axes)]
    header = "tau," + ",".join(f"adev_{n}" for n in names) + ",adev_avg"
    avg = curve.adev.mean(axis=1)
    with open(path, "w") as f:
        f.write(header + "\n")
        for i, tau in enumerate(curve.taus):
            cols = ",".join(f"{v:.9e}" for v in curve.adev[i])
            f.write(f"{tau:.9e},{cols},{avg[i]:.9e}\n")
