"""Acceptance suite: one test per release criterion, each printing a single
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -v -s``)."""

import json
import time

import numpy as np
import pytest

from uwvio import cli, fixtures, gpmf, mp4, ply, sync, traj_eval
from uwvio.allan import simulate_imu_noise
from uwvio.geometry import (RigidTransform, matrix_to_quat, random_rotation,
                            rotation_about_z, rotation_angle)
from uwvio.global_map import GlobalMap, replay_log_file
from uwvio.register import (PointCloud, register_pipeline, score_registration)
from uwvio.traj_eval import Trajectory, ate_rmse, umeyama_sim3


def verdict(number, name, ok, detail):
    print(f"[{number:>2}] {'PASS' if ok else 'FAIL'}  {name}: {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# --- 1. GPMF round-trip ------------------------------------------------------

def random_klv_tree(rng, depth):
    letters = sorted(gpmf.SCALAR_TYPES) + ["c"]
    key = "".join(chr(rng.integers(65, 91)) for _ in range(4))
    if depth > 0 and rng.random() < 0.5:
        children = [random_klv_tree(rng, depth - 1)
                    for _ in range(rng.integers(1, 4))]
        return gpmf.make_container(key, children)
    letter = letters[rng.integers(0, len(letters))]
    if letter == "c":
        strings = ["".join(chr(rng.integers(33, 127)) for _ in range(rng.integers(1, 9)))
                   for _ in range(rng.integers(1, 4))]
        return gpmf.make_leaf(key, letter, strings)
    n = int(rng.integers(1, 8))
    if letter == "f":
        vals = rng.uniform(-1e4, 1e4, n).astype(np.float32).astype(float)
    elif letter == "d":
        vals = rng.uniform(-1e12, 1e12, n)
    elif letter in "bsl j".replace(" ", ""):
        vals = rng.integers(-100, 100, n)
    else:
        vals = rng.integers(0, 200, n)
    return gpmf.make_leaf(key, letter, vals)


def trees_equal(a, b):
    if a.header != b.header or a.raw != b.raw:
        return False
    if len(a.children) != len(b.children):
        return False
    return all(trees_equal(x, y) for x, y in zip(a.children, b.children))


def test_criterion_1_gpmf_round_trip():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    failures = 0
    for _ in range(200):
        nodes = [random_klv_tree(rng, depth=4)
                 for _ in range(rng.integers(1, 4))]
        wire = gpmf.write_klv(nodes)
        back = gpmf.parse_klv(wire).children
        if len(back) != len(nodes) or not all(
                trees_equal(x, y) for x, y in zip(nodes, back)):
            failures += 1
    elapsed = time.perf_counter() - t0
    verdict(1, "gpmf-round-trip",
            failures == 0 and elapsed < 5.0,
            f"200 payloads, {failures} mismatches, {elapsed:.2f} s (< 5 s)")


# --- 2. payload timing model -------------------------------------------------

def test_criterion_2_payload_timing(tmp_path):
    path = fixtures.fixture_mp4(tmp_path / "f.mp4", n_payloads=10,
                                accel_count=202, gyro_count=202, shut_count=30,
                                tick_duration=1010)
    with open(path, "rb") as f:
        table = mp4.find_gpmf_track(mp4.parse_box_tree(f), f)
        raw = mp4.extract_payloads(table, f)
    ds = sync.build_dataset(sync.payload_streams_from_klv(raw))
    spacing = np.diff(ds.imu_t)
    step = 1.01 / 202  # one interpolation step
    ok = (len(ds.imu_t) == 2020
          and np.all(np.abs(spacing - 0.005) <= step + 1e-12)
          and len(ds.frame_t) == 300
          and np.all(np.diff(ds.frame_t) > 0))
    verdict(2, "payload-timing", ok,
            f"{len(ds.imu_t)} IMU samples, spacing "
            f"[{spacing.min() * 1e3:.3f}, {spacing.max() * 1e3:.3f}] ms, "
            f"{len(ds.frame_t)} strictly increasing frames")


# --- 3. Allan recovery -------------------------------------------------------

def test_criterion_3_allan_recovery(tmp_path):
    sigma_w, sigma_b = 2e-3, 1e-4
    rate, duration = 200.0, 4 * 3600.0
    x = simulate_imu_noise(sigma_w, sigma_b, rate, duration, seed=0)
    t = np.arange(len(x)) / rate
    cols = np.column_stack([t, x, x, x, np.zeros((len(x), 3))])
    csv = tmp_path / "imu.csv"
    np.savetxt(csv, cols, delimiter=",", fmt="%.9f",
               header="t,ax,ay,az,gx,gy,gz", comments="")
    out = tmp_path / "out"
    t0 = time.perf_counter()
    rc = cli.main(["--out-dir", str(out), "-q", "allan", str(csv),
                   "--sensor", "accel"])
    elapsed = time.perf_counter() - t0
    report = json.loads((out / "allan_accel_report.json").read_text())
    err_w = abs(report["sigma_w_avg"] / sigma_w - 1)
    err_b = abs(report["sigma_b_avg"] / sigma_b - 1)
    slope_ok = all(abs(s + 0.5) <= 0.05 for s in report["white_slope"])
    ok = rc == 0 and err_w < 0.10 and err_b < 0.10 and slope_ok and elapsed < 60
    verdict(3, "allan-recovery", ok,
            f"sigma_w err {err_w * 100:.1f}%, sigma_b err {err_b * 100:.1f}% "
            f"(< 10%), slopes {[round(s, 3) for s in report['white_slope']]}, "
            f"{elapsed:.1f} s (< 60 s)")


# --- 4. map rigid-invariance -------------------------------------------------

def build_random_map(rng, n_keyframes, n_landmarks, obs_per_landmark=4):
    m = GlobalMap()
    poses = {}
    for k in range(n_keyframes):
        T = RigidTransform.from_matrix(random_rotation(rng), rng.normal(size=3) * 5)
        poses[k] = T
        m.add_keyframe(k, T)
    for lm in range(n_landmarks):
        for k in rng.choice(n_keyframes, size=obs_per_landmark, replace=False):
            m.add_observation(lm, int(k), rng.normal(size=3) * 10,
                              float(rng.uniform(0.1, 1.0)),
                              color=rng.integers(0, 256, 3))
    return m, poses


def test_criterion_4_rigid_invariance():
    rng = np.random.default_rng(4)
    m, poses = build_random_map(rng, n_keyframes=50, n_landmarks=1000)
    before = {lm: f.p_w for lm, f in m.fuse_all().items()}
    G = RigidTransform.from_matrix(random_rotation(rng), rng.normal(size=3) * 3)
    m.update_keyframe_poses({k: G.compose(T) for k, T in poses.items()})
    after = m.fuse_all()
    dev = max(np.linalg.norm(after[lm].p_w - G.apply(before[lm]))
              for lm in before)
    verdict(4, "map-rigid-invariance", dev < 1e-9,
            f"1000 landmarks / 50 keyframes, max deviation {dev:.2e} m (< 1e-9)")


# --- 5. fusion equation ------------------------------------------------------

def test_criterion_5_fusion_equation():
    rng = np.random.default_rng(5)
    n_landmarks = 10_000
    m = GlobalMap()
    n_kf = 30
    poses = []
    for k in range(n_kf):
        T = RigidTransform.from_matrix(random_rotation(rng), rng.normal(size=3))
        poses.append(T)
        m.add_keyframe(k, T)
    worst = 0.0
    for lm in range(n_landmarks):
        n_obs = int(rng.integers(1, 6))
        kfs = rng.choice(n_kf, size=n_obs, replace=False)
        pts = rng.normal(size=(n_obs, 3)) * 5
        qs = rng.uniform(0.01, 1.0, n_obs)
        for k, p, q in zip(kfs, pts, qs):
            m.add_observation(lm, int(k), p, float(q))
        fused = m.fuse_landmark(lm)
        # brute-force weighted mean with plain matrix arithmetic
        num = np.zeros(3)
        for k, p, q in zip(kfs, pts, qs):
            R, t = poses[k].R, poses[k].t
            p_f = R.T @ (p - t)
            num += (R @ p_f + t) * q
        expected = num / qs.sum()
        scale = max(np.linalg.norm(expected), 1.0)
        worst = max(worst, np.linalg.norm(fused.p_w - expected) / scale)
    verdict(5, "fusion-equation", worst < 1e-12,
            f"10^4 landmarks, worst relative error {worst:.2e} (< 1e-12)")


# --- 6. loop-closure drift collapse -----------------------------------------

def test_criterion_6_drift_collapse(tmp_path):
    _, _, _, landmarks = fixtures.drift_loop_scene(z_drift=0.5, seed=0)

    def z_spread(include_correction):
        path = tmp_path / f"log_{include_correction}.txt"
        fixtures.write_drift_loop_log(path, include_correction=include_correction,
                                      z_drift=0.5, seed=0)
        fused = replay_log_file(path).fuse_all()
        errs = np.array([fused[lm].p_w[2] - landmarks[lm][2] for lm in fused])
        return float(np.std(errs))

    before = z_spread(False)
    after = z_spread(True)
    ratio = before / max(after, 1e-300)
    verdict(6, "drift-collapse", ratio > 5,
            f"z-spread {before:.4f} m -> {after:.2e} m, "
            f"shrink factor {ratio:.1e} (> 5)")


# --- 7. map scaling ----------------------------------------------------------

def test_criterion_7_map_scaling(tmp_path):
    def timed_fuse(n_obs):
        rng = np.random.default_rng(7)
        m = GlobalMap()
        for k in range(50):
            m.add_keyframe(k, RigidTransform.from_matrix(
                random_rotation(rng), rng.normal(size=3)))
        lm_ids = rng.integers(0, n_obs // 4, size=n_obs)
        kf_ids = rng.integers(0, 50, size=n_obs)
        pts = rng.normal(size=(n_obs, 3))
        qs = rng.uniform(0.1, 1.0, n_obs)
        for i in range(n_obs):
            m.add_observation(int(lm_ids[i]), int(kf_ids[i]), pts[i], float(qs[i]))
        t0 = time.perf_counter()
        m.export_fused_cloud(tmp_path / f"map_{n_obs}.ply")
        return time.perf_counter() - t0

    t_small = timed_fuse(100_000)
    t_large = timed_fuse(1_000_000)
    ratio = t_large / t_small
    verdict(7, "map-scaling", ratio <= 12,
            f"fuse+export 10^5: {t_small:.2f} s, 10^6: {t_large:.2f} s, "
            f"ratio {ratio:.1f}x (<= 12x)")


# --- 8. Umeyama / ATE --------------------------------------------------------

def test_criterion_8_umeyama_ate():
    rng = np.random.default_rng(8)
    worst_param = 0.0
    worst_resid = 0.0
    for _ in range(500):
        src = rng.normal(size=(40, 3)) * rng.uniform(0.5, 5)
        s = rng.uniform(0.2, 5.0)
        R = random_rotation(rng)
        t = rng.normal(size=3) * 10
        dst = s * src @ R.T + t
        T = umeyama_sim3(src, dst)
        worst_param = max(worst_param, abs(T.s - s) / s,
                          float(np.abs(T.R - R).max()),
                          float(np.abs(T.t - t).max() / max(np.linalg.norm(t), 1)))
        worst_resid = max(worst_resid, ate_rmse(dst, src, T))
    # noise trials: residual RMSE of the Sim(3) fit approaches sigma*sqrt(3)
    sigma = 0.1
    errs = []
    for trial in range(5):
        src = rng.normal(size=(5000, 3)) * 3
        R = random_rotation(rng)
        dst = 1.3 * src @ R.T + np.array([1.0, 2, 3]) + rng.normal(size=src.shape) * sigma
        errs.append(ate_rmse(dst, src, umeyama_sim3(src, dst)))
    noise_err = abs(np.mean(errs) / (sigma * np.sqrt(3)) - 1)
    ok = worst_param < 1e-9 and worst_resid < 1e-9 and noise_err < 0.10
    verdict(8, "umeyama-ate", ok,
            f"500 exact trials: worst param err {worst_param:.1e}, worst "
            f"residual {worst_resid:.1e} (< 1e-9); noisy e_ATE within "
            f"{noise_err * 100:.1f}% of sigma*sqrt(3) (< 10%)")


# --- 9. tag statistics -------------------------------------------------------

def _loop_with_tags(sigma, n_per_tag, seed):
    rng = np.random.default_rng(seed)
    t, pos, quats = fixtures.circle_trajectory(n=400, radius=5.0, period=60.0)
    traj = Trajectory(t=t, positions=pos, quats=quats)
    tags = rng.uniform(-3, 3, size=(5, 3))
    by_tag = {}
    for tag_id in range(5):
        idx = rng.choice(len(t), size=n_per_tag, replace=False)
        world = tags[tag_id] + rng.normal(size=(n_per_tag, 3)) * sigma
        p_cm = [rotation_about_z(2 * np.pi * t[i] / 60.0).T @ (w - pos[i])
                for i, w in zip(idx, world)]
        dets = traj_eval.TagDetections(t=t[idx], tag_id=np.full(n_per_tag, tag_id),
                                       p_cm=p_cm)
        positions, unmatched = traj_eval.tag_world_positions(traj, dets)
        assert not unmatched
        by_tag[tag_id] = positions[tag_id]
    return traj_eval.tag_statistics(by_tag)


def test_criterion_9_tag_statistics():
    sigma, n = 0.05, 40
    stats = _loop_with_tags(sigma, n, seed=9)
    # deviation from the per-tag sample mean has per-axis std
    # sigma*sqrt(1 - 1/n); mean distance of an isotropic 3D Gaussian is
    # std * 2*sqrt(2/pi)
    expected = sigma * np.sqrt(1 - 1 / n) * 2 * np.sqrt(2 / np.pi)
    err = abs(stats.avg_dist_error / expected - 1)

    # zero noise from a static pose: world positions reproduce bit-exactly
    static = Trajectory(t=np.array([0.0, 1.0]), positions=np.zeros((2, 3)),
                        quats=np.tile([0.0, 0, 0, 1.0], (2, 1)))
    dets = traj_eval.TagDetections(t=[0.25 * k for k in range(1, 4)], tag_id=[0] * 3,
                                   p_cm=[[1.0, 2, 3]] * 3)
    pos0, _ = traj_eval.tag_world_positions(static, dets)
    zero_stats = traj_eval.tag_statistics(pos0)
    ok = err < 0.15 and zero_stats.avg_dist_error == 0.0
    verdict(9, "tag-statistics", ok,
            f"avg dist error {stats.avg_dist_error:.4f} m vs analytic "
            f"{expected:.4f} m ({err * 100:.1f}% off, < 15%); "
            f"zero-noise error {zero_stats.avg_dist_error}")


# --- 10. registration end-to-end --------------------------------------------

def test_criterion_10_registration():
    rng = np.random.default_rng(10)
    base = fixtures.structured_scene(n_points=40_000, extent=10.0, seed=10)
    # 40% of the source region overlaps the target region along x
    src_w = base[base[:, 0] <= 7.5]
    tgt_w = base[base[:, 0] >= 4.5]
    noise = 0.01
    T_true = RigidTransform.from_matrix(rotation_about_z(np.deg2rad(30.0)),
                                        np.array([2.0, 0.0, 0.0]))
    source = PointCloud(points=T_true.inverse().apply(src_w)
                        + rng.normal(size=src_w.shape) * noise)
    target = PointCloud(points=tgt_w + rng.normal(size=tgt_w.shape) * noise)
    overlap = np.mean(src_w[:, 0] >= 4.5)

    t0 = time.perf_counter()
    out = register_pipeline(source, target, voxel=0.10, seed=0)
    elapsed = time.perf_counter() - t0
    T = out.result.transform
    rot_err = np.rad2deg(rotation_angle(T.R @ T_true.R.T))
    trans_err = float(np.linalg.norm(T.t - T_true.t))
    fit_err = abs(out.result.fitness - overlap)
    down_ok = 5_000 <= out.n_source_down <= 20_000

    # brute-force scorer agreement on a 10^3-point subset
    sub = source.points[rng.choice(len(source), 1000, replace=False)]
    res = score_registration(sub, target.points, T, 0.10)
    moved = T.apply(sub)
    d = np.array([np.linalg.norm(target.points - p, axis=1).min() for p in moved])
    inl = d < 0.10
    brute_fitness = inl.sum() / len(sub)
    brute_rmse = float(np.sqrt(np.mean(d[inl] ** 2))) if inl.any() else 0.0
    scorer_ok = (res.fitness == brute_fitness
                 and abs(res.inlier_rmse - brute_rmse) < 1e-9)

    ok = (rot_err < 0.5 and trans_err < 0.02 and fit_err < 0.1
          and scorer_ok and down_ok and elapsed < 120)
    verdict(10, "registration", ok,
            f"rot err {rot_err:.3f} deg (< 0.5), trans err "
            f"{trans_err * 100:.2f} cm (< 2), fitness {out.result.fitness:.3f} "
            f"vs overlap {overlap:.3f} (+-0.1), brute-force scorer "
            f"{'match' if scorer_ok else 'MISMATCH'}, "
            f"{out.n_source_down} downsampled pts, {elapsed:.1f} s (< 120 s)")


# --- 11. determinism ---------------------------------------------------------

def test_criterion_11_determinism(tmp_path):
    # shared inputs
    mp4_path = fixtures.fixture_mp4(tmp_path / "f.mp4", n_payloads=3,
                                    accel_count=20, gyro_count=20, shut_count=4)
    imu_csv = tmp_path / "imu.csv"
    x = simulate_imu_noise(2e-3, 1e-4, 20.0, 700.0, seed=0, axes=3)
    t = np.arange(len(x)) / 20.0
    np.savetxt(imu_csv, np.column_stack([t, x, np.zeros_like(x)]),
               delimiter=",", fmt="%.9f", header="t,ax,ay,az,gx,gy,gz",
               comments="")
    log = fixtures.write_drift_loop_log(tmp_path / "events.txt",
                                        n_keyframes=10, n_landmarks=30)
    tt, pos, quats = fixtures.circle_trajectory(n=60)
    ref_path, est_path = tmp_path / "ref.txt", tmp_path / "est.txt"
    traj_eval.save_tum(Trajectory(t=tt, positions=pos, quats=quats), ref_path)
    traj_eval.save_tum(Trajectory(t=tt, positions=pos * 1.2 + [1, 0, 0],
                                  quats=quats), est_path)
    tags_csv = tmp_path / "tags.csv"
    rng = np.random.default_rng(0)
    with open(tags_csv, "w") as f:
        f.write("t,tag_id,px,py,pz\n")
        for tag in range(3):
            for _ in range(4):
                ti = float(rng.uniform(tt[0], tt[-1]))
                p = rng.uniform(-1, 1, 3)
                f.write(f"{ti:.6f},{tag},{p[0]:.6f},{p[1]:.6f},{p[2]:.6f}\n")
    base = fixtures.structured_scene(n_points=5000, extent=8.0, seed=0)
    src_ply, tgt_ply = tmp_path / "s.ply", tmp_path / "t.ply"
    T = RigidTransform.from_matrix(rotation_about_z(0.2), np.array([0.5, 0, 0]))
    ply.write_ply(src_ply, T.inverse().apply(base))
    ply.write_ply(tgt_ply, base)

    commands = {
        "extract": (["extract", str(mp4_path)], ["extract_report.json", "imu.csv.cols"]),
        "allan": (["allan", str(imu_csv), "--walk-window-min", "30"],
                  ["allan_accel_report.json", "allan_accel.csv"]),
        "map": (["map", str(log)], ["map_report.json", "fused_map.ply"]),
        "eval-ate": (["eval-ate", str(est_path), str(ref_path)],
                     ["ate_report.json"]),
        "eval-tags": (["eval-tags", str(ref_path), str(tags_csv)],
                      ["tags_report.json", "tag_quantiles.csv"]),
        "register": (["register", str(src_ply), str(tgt_ply),
                      "--voxel", "0.3"],
                     ["register_report.json", "aligned_source.ply"]),
        "fixtures": (["fixtures"],
                     ["fixture.mp4", "drift_loop_events.txt",
                      "circle_traj.txt", "tags.csv"]),
    }
    mismatches = []
    for name, (argv, outputs) in commands.items():
        blobs = []
        for run_dir in ("run1", "run2"):
            out = tmp_path / name / run_dir
            rc = cli.main(["--out-dir", str(out), "--seed", "0", "-q"] + argv)
            assert rc == 0, f"{name} exited {rc}"
            blobs.append({f: (out / f).read_bytes() for f in outputs})
        if blobs[0] != blobs[1]:
            mismatches.append(name)
    verdict(11, "determinism", not mismatches,
            f"7 subcommands x 2 runs byte-compared"
            + (f"; mismatches: {mismatches}" if mismatches else ", all identical"))
