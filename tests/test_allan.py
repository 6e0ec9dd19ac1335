import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uwvio
from uwvio.allan import (BLOCK, AllanCurve, allan_deviation, default_taus,
                         export_curve_csv, fit_noise_params,
                         simulate_imu_noise)
from uwvio.errors import UwvioError


def oracle_overlapping_adev(x, m):
    """Direct O(N*m) overlapping Allan deviation for cluster size m."""
    n = len(x)
    means = np.array([x[k:k + m].mean() for k in range(n - m + 1)])
    # k = 0 .. n - 2m - 1, n - 2m overlapping cluster-mean differences
    diffs = (means[m:] - means[:-m])[:n - 2 * m]
    return np.sqrt(np.sum(diffs ** 2) / (2 * (n - 2 * m)))


def prefix_sum_adev(x, ms):
    """The (N, axes) prefix-sum kernel that the per-axis kernel replaced."""
    n = x.shape[0]
    csum = np.vstack([np.zeros(x.shape[1]), np.cumsum(x, axis=0)])
    adev = np.empty((len(ms), x.shape[1]))
    for i, m in enumerate(ms):
        d = csum[2 * m:n] - 2 * csum[m:n - m] + csum[:n - 2 * m]
        adev[i] = np.sqrt(np.sum(d * d, axis=0) / (2.0 * m * m * (n - 2 * m)))
    return adev


@pytest.mark.parametrize("axes", [1, 3, 5])
def test_matches_prefix_sum_kernel(axes):
    n, rate = 1001, 20.0
    x = 9.81 + simulate_imu_noise(2e-3, 1e-4, rate, n / rate, seed=axes, axes=axes)
    # every cluster size; the largest one kept leaves a single cluster pair
    curve = allan_deviation(x, rate, taus=np.arange(1, n) / rate)
    ms = np.arange(1, (n - 1) // 2 + 1)
    assert np.array_equal(np.rint(curve.taus * rate), ms)
    np.testing.assert_allclose(curve.adev, prefix_sum_adev(x.reshape(n, -1), ms),
                               rtol=1e-12, atol=0)


def test_matches_prefix_sum_kernel_across_blocks():
    n, rate = 2 * BLOCK + 4, 200.0
    x = 9.81 + simulate_imu_noise(2e-3, 1e-4, rate, n / rate, seed=0, axes=2)
    # n - 2m runs over 3 blocks, exactly 2, just under 2, just over 1,
    # exactly 1, and 2 for the largest m kept
    ms = np.array([1, 2, 3, BLOCK // 2, BLOCK // 2 + 2, BLOCK + 1])
    curve = allan_deviation(x, rate, taus=ms / rate)
    assert np.array_equal(np.rint(curve.taus * rate), ms)
    np.testing.assert_allclose(curve.adev, prefix_sum_adev(x, ms), rtol=1e-12, atol=0)


def test_same_bits_on_one_blas_thread():
    """A block's sum of squares is taken in dot products short enough that
    OpenBLAS runs each on one thread, so the curve's bits do not depend on
    OPENBLAS_NUM_THREADS."""
    x = simulate_imu_noise(2e-3, 1e-3, 200.0, 3 * BLOCK / 200.0, seed=5)
    code = ("import sys, numpy as np\n"
            "from uwvio.allan import allan_deviation\n"
            "x = np.frombuffer(sys.stdin.buffer.read())\n"
            "sys.stdout.buffer.write(allan_deviation(x, 200.0).adev.tobytes())\n")
    src = str(Path(uwvio.__file__).parents[1])
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    child = subprocess.run([sys.executable, "-c", code], input=x.tobytes(), env=env,
                           check=True, capture_output=True)
    assert child.stdout == allan_deviation(x, 200.0).adev.tobytes()


def test_matches_direct_estimator():
    rng = np.random.default_rng(7)
    x = rng.standard_normal(500)
    rate = 10.0
    for m in (1, 2, 5, 17, 100):
        curve = allan_deviation(x, rate, taus=[m / rate])
        assert curve.adev[0, 0] == pytest.approx(oracle_overlapping_adev(x, m),
                                                 rel=1e-12)


def test_alternating_series_exact_value():
    # x = +1, -1, +1, ... : at m=1 every (ybar_{k+1} - ybar_k)^2 = 4,
    # so AVAR = 4/2 = 2 and ADEV = sqrt(2) exactly.
    x = np.tile([1.0, -1.0], 50)
    curve = allan_deviation(x, 1.0, taus=[1.0])
    assert curve.adev[0, 0] == pytest.approx(np.sqrt(2.0), abs=1e-14)


def test_constant_series_is_zero():
    curve = allan_deviation(np.full(100, 3.7), 5.0)
    assert np.allclose(curve.adev, 0.0, atol=1e-12)


def test_white_noise_slope_and_level():
    rate = 100.0
    sigma_w = 5e-3
    x = simulate_imu_noise(sigma_w, 0.0, rate, 2000.0, seed=1)
    curve = allan_deviation(x, rate)
    params = fit_noise_params(curve, walk_window=(curve.taus[-3], None))
    assert params.sigma_w_avg == pytest.approx(sigma_w, rel=0.05)
    assert params.white_slope[0] == pytest.approx(-0.5, abs=0.05)


def test_random_walk_level():
    rate = 50.0
    sigma_b = 2e-3
    x = simulate_imu_noise(0.0, sigma_b, rate, 40000.0, seed=2)
    curve = allan_deviation(x, rate)
    # pure walk: slope +1/2 everywhere, so fit over mid-range taus
    params = fit_noise_params(curve, white_window=(None, 0.1),
                              walk_window=(10.0, 1000.0))
    assert params.sigma_b_avg == pytest.approx(sigma_b, rel=0.15)


def test_rate_random_walk_analytic_form():
    # for a pure random walk, ADEV(tau) = sigma_b * sqrt(tau / 3)
    rate = 20.0
    sigma_b = 1e-2
    x = simulate_imu_noise(0.0, sigma_b, rate, 50000.0, seed=3)
    curve = allan_deviation(x, rate, taus=[5.0, 20.0, 80.0])
    expected = sigma_b * np.sqrt(curve.taus / 3.0)
    assert np.all(np.abs(curve.adev[:, 0] / expected - 1) < 0.25)


def test_white_noise_analytic_form():
    # for white noise, ADEV(tau) = sigma_w / sqrt(tau)
    rate = 200.0
    sigma_w = 2e-3
    x = simulate_imu_noise(sigma_w, 0.0, rate, 5000.0, seed=4)
    curve = allan_deviation(x, rate, taus=[0.05, 0.5, 5.0])
    expected = sigma_w / np.sqrt(curve.taus)
    assert np.all(np.abs(curve.adev[:, 0] / expected - 1) < 0.05)


def test_tau_snapping_and_dedup():
    x = np.random.default_rng(0).standard_normal(200)
    curve = allan_deviation(x, 10.0, taus=[0.1, 0.1001, 0.1999, 0.2])
    assert curve.taus.tolist() == [0.1, 0.2]


def test_too_large_taus_dropped():
    x = np.random.default_rng(0).standard_normal(50)
    curve = allan_deviation(x, 1.0, taus=[1.0, 24.0, 1000.0])
    assert curve.taus.max() <= 24.0


def test_short_series_rejected():
    with pytest.raises(UwvioError, match="^need at least 6 samples, got 5$") as exc:
        allan_deviation(np.ones(5), 1.0)
    assert exc.value.exit_code == 1


def test_non_positive_tau_rejected():
    with pytest.raises(UwvioError, match="^all taus must be positive$") as exc:
        allan_deviation(np.ones(100), 1.0, taus=[-1.0])
    assert exc.value.exit_code == 1


def test_empty_fit_region():
    x = np.random.default_rng(0).standard_normal(100)
    curve = allan_deviation(x, 1.0)
    with pytest.raises(UwvioError, match=r"^no usable taus in \[1e\+06, 1e\+07\] s$") as exc:
        fit_noise_params(curve, white_window=(1e6, 1e7))
    assert exc.value.exit_code == 1


def test_default_tau_grid():
    taus = default_taus(100_000, 200.0)
    assert taus[0] == pytest.approx(0.01)
    assert taus[-1] == pytest.approx(250.0)
    ratios = taus[1:] / taus[:-1]
    assert np.allclose(ratios, ratios[0])  # log-spaced


def test_multi_axis():
    rng = np.random.default_rng(5)
    x = rng.standard_normal((2000, 3)) * np.array([1.0, 2.0, 4.0])
    curve = allan_deviation(x, 10.0, taus=[0.5])
    assert curve.adev.shape == (1, 3)
    assert curve.adev[0, 1] / curve.adev[0, 0] == pytest.approx(2.0, rel=0.15)
    assert curve.adev[0, 2] / curve.adev[0, 0] == pytest.approx(4.0, rel=0.15)


def test_simulation_determinism():
    a = simulate_imu_noise(1e-3, 1e-4, 100.0, 10.0, seed=42)
    b = simulate_imu_noise(1e-3, 1e-4, 100.0, 10.0, seed=42)
    assert np.array_equal(a, b)
    c = simulate_imu_noise(1e-3, 1e-4, 100.0, 10.0, seed=43)
    assert not np.array_equal(a, c)


def test_curve_csv(tmp_path):
    curve = AllanCurve(taus=np.array([0.1, 1.0]),
                       adev=np.array([[1e-3, 2e-3], [4e-4, 8e-4]]),
                       rate=10.0, n_samples=100)
    path = tmp_path / "allan.csv"
    export_curve_csv(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,adev_x,adev_y,adev_avg"
    got = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.allclose(got[:, 0], curve.taus)
    assert np.allclose(got[:, 3], curve.adev.mean(axis=1))
