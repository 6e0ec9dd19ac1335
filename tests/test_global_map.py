import numpy as np
import pytest

from uwvio import ply
from uwvio.errors import (DuplicateKeyframe, EventLogError, InvalidQuality,
                          UnknownKeyframe, UnknownLandmark)
from uwvio.fixtures import drift_loop_scene, write_drift_loop_log
from uwvio.geometry import RigidTransform, matrix_to_quat, random_rotation, rotation_about_z
from uwvio.global_map import _CHUNK, GlobalMap, replay_log, replay_log_file


def identity_pose():
    return RigidTransform.identity()


def pose(R=None, t=(0, 0, 0)):
    R = np.eye(3) if R is None else R
    return RigidTransform.from_matrix(R, np.asarray(t, dtype=float))


def test_single_observation_round_trip():
    m = GlobalMap()
    m.add_keyframe(0, pose(rotation_about_z(0.7), [1.0, -2.0, 3.0]))
    p_w = np.array([4.0, 5.0, 6.0])
    m.add_observation(10, 0, p_w, quality=0.8, color=(10, 20, 30))
    fused = m.fuse_landmark(10)
    assert np.allclose(fused.p_w, p_w, atol=1e-12)
    assert fused.quality == pytest.approx(0.8)
    assert fused.n_obs == 1
    assert fused.color.tolist() == [10, 20, 30]


def test_quality_weighted_fusion_oracle():
    """Weighted mean computed independently with plain matrix math."""
    rng = np.random.default_rng(1)
    m = GlobalMap()
    poses = []
    for k in range(4):
        T = pose(random_rotation(rng), rng.normal(size=3))
        poses.append(T)
        m.add_keyframe(k, T)
    obs_w = rng.normal(size=(4, 3)) * 3
    qualities = np.array([0.9, 0.4, 0.7, 0.2])
    colors = rng.integers(0, 256, size=(4, 3)).astype(float)
    for k in range(4):
        m.add_observation(5, k, obs_w[k], qualities[k], color=colors[k])
    fused = m.fuse_landmark(5)
    # oracle: p_f = R^T (p_w - t); fused = sum(T p_f q) / sum(q)
    num = np.zeros(3)
    cnum = np.zeros(3)
    for k in range(4):
        R, t = poses[k].R, poses[k].t
        p_f = R.T @ (obs_w[k] - t)
        num += (R @ p_f + t) * qualities[k]
        cnum += colors[k] * qualities[k]
    expected = num / qualities.sum()
    assert np.allclose(fused.p_w, expected, atol=1e-12)
    assert np.allclose(fused.color, np.clip(np.rint(cnum / qualities.sum()), 0, 255))
    assert fused.quality == pytest.approx(qualities.mean())


def test_pose_update_moves_landmarks_rigidly():
    m = GlobalMap()
    T0 = pose(rotation_about_z(0.3), [1.0, 0.0, 0.0])
    m.add_keyframe(0, T0)
    p_w = np.array([2.0, 1.0, 0.5])
    m.add_observation(0, 0, p_w, 1.0)
    # move the keyframe by a known correction G: fused point must follow
    G = pose(rotation_about_z(-0.5), [0.0, 0.0, 2.0])
    m.update_keyframe_poses({0: G.compose(T0)})
    fused = m.fuse_landmark(0)
    assert np.allclose(fused.p_w, G.apply(p_w), atol=1e-12)


def test_same_keyframe_observation_replaces():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(0, 0, [1.0, 0, 0], 0.5)
    m.add_observation(0, 0, [3.0, 0, 0], 0.5)
    fused = m.fuse_landmark(0)
    assert fused.n_obs == 1
    assert np.allclose(fused.p_w, [3.0, 0, 0])


def test_zero_quality_fallback():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_keyframe(1, identity_pose())
    m.add_observation(0, 0, [1.0, 0, 0], 0.0)
    m.add_observation(0, 1, [3.0, 0, 0], 0.0)
    fused = m.fuse_landmark(0)
    assert np.allclose(fused.p_w, [2.0, 0, 0])  # unweighted mean
    assert fused.quality == 0.0


def test_weight_scaling_invariance():
    # doubling every quality must leave the fused position unchanged
    rng = np.random.default_rng(2)
    positions = rng.normal(size=(3, 3))
    qualities = np.array([0.1, 0.25, 0.4])

    def fuse(scale):
        m = GlobalMap()
        for k in range(3):
            m.add_keyframe(k, identity_pose())
            m.add_observation(0, k, positions[k], qualities[k] * scale)
        return m.fuse_landmark(0)

    assert np.allclose(fuse(1.0).p_w, fuse(2.0).p_w, atol=1e-12)


def test_fused_point_inside_convex_hull():
    m = GlobalMap()
    pts = np.array([[0.0, 0, 0], [1.0, 0, 0], [0.0, 1, 0]])
    for k, p in enumerate(pts):
        m.add_keyframe(k, identity_pose())
        m.add_observation(0, k, p, 0.5)
    fused = m.fuse_landmark(0)
    assert pts.min(axis=0).tolist() <= fused.p_w.tolist() <= pts.max(axis=0).tolist()


def test_errors():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    with pytest.raises(DuplicateKeyframe):
        m.add_keyframe(0, identity_pose())
    with pytest.raises(UnknownKeyframe):
        m.add_observation(0, 99, [0, 0, 0], 0.5)
    with pytest.raises(InvalidQuality):
        m.add_observation(0, 0, [0, 0, 0], 1.5)
    with pytest.raises(UnknownLandmark):
        m.fuse_landmark(123)
    with pytest.raises(UnknownKeyframe):
        m.update_keyframe_poses({99: identity_pose()})


def test_fuse_all_sorted():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    for lm in (5, 1, 3):
        m.add_observation(lm, 0, [float(lm), 0, 0], 0.5)
    fused = m.fuse_all()
    assert list(fused) == [1, 3, 5]


def test_export_fused_cloud(tmp_path):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(0, 0, [1.0, 2.0, 3.0], 0.5, color=(255, 0, 0))
    m.add_observation(1, 0, [-1.0, 0.0, 4.0], 1.0, color=(0, 255, 0))
    out = tmp_path / "cloud.ply"
    n = m.export_fused_cloud(out)
    assert n == 2
    back = ply.read_ply(out)
    assert np.allclose(back["points"], [[1, 2, 3], [-1, 0, 4]])
    assert back["colors"].tolist() == [[255, 0, 0], [0, 255, 0]]
    assert np.allclose(back["quality"], [0.5, 1.0])


def test_replay_log_minimal():
    log = [
        "# comment line",
        "KF 0 0 0 0 0 0 0 1",
        "OBS 7 0 1.0 2.0 3.0 0.9 10 20 30 100 200",
        "",
        "UPD 0 0 0 1 0 0 0 1",
    ]
    m = replay_log(log)
    fused = m.fuse_landmark(7)
    assert np.allclose(fused.p_w, [1.0, 2.0, 4.0])  # shifted by the update


@pytest.mark.filterwarnings("ignore:overflow encountered")
def test_replay_log_quaternion_beyond_float_squares():
    # the squared norm overflows; the keyframe still turns 90 deg about x
    m = replay_log(["KF 0 0 0 0 1e200 0 0 1e200"])
    assert np.allclose(m.keyframes[0].R, [[1, 0, 0], [0, 0, -1], [0, 1, 0]],
                       rtol=0, atol=1e-15)


def test_replay_log_errors_carry_line_numbers():
    with pytest.raises(EventLogError) as exc:
        replay_log(["KF 0 0 0 0 0 0 0 1", "BAD 1 2 3"])
    assert exc.value.line_no == 2
    with pytest.raises(EventLogError) as exc:
        replay_log(["KF 0 0 0 0 0 0 0"])
    assert exc.value.line_no == 1
    with pytest.raises(EventLogError) as exc:
        replay_log(["KF 0 0 0 0 0 0 0 1", "", "OBS 1 55 0 0 0 0.5 0 0 0 0 0"])
    assert exc.value.line_no == 3


def test_drift_loop_collapse(tmp_path):
    """Loop-closure pose update must collapse the injected z-drift."""
    drifted, true_poses, observations, landmarks = drift_loop_scene(z_drift=0.5, seed=0)

    def spreads(include_correction):
        path = tmp_path / f"log_{include_correction}.txt"
        write_drift_loop_log(path, include_correction=include_correction,
                             z_drift=0.5, seed=0)
        m = replay_log_file(path)
        fused = m.fuse_all()
        errs = [np.linalg.norm(fused[lm].p_w - landmarks[lm]) for lm in fused]
        return float(np.mean(errs))

    before = spreads(False)
    after = spreads(True)
    assert after < before / 5
    assert after < 1e-9  # exact rigid bookkeeping: drift removed entirely


def test_fusion_linear_in_observations():
    """Runtime of fuse_all grows roughly linearly with observation count."""
    import time

    def run(n_obs):
        rng = np.random.default_rng(0)
        m = GlobalMap()
        for k in range(10):
            m.add_keyframe(k, pose(rotation_about_z(k * 0.1), [k, 0, 0]))
        lm_ids = rng.integers(0, n_obs // 4, size=n_obs)
        kf_ids = rng.integers(0, 10, size=n_obs)
        pts = rng.normal(size=(n_obs, 3))
        for i in range(n_obs):
            m.add_observation(int(lm_ids[i]), int(kf_ids[i]), pts[i], 0.5)
        t0 = time.perf_counter()
        m.fuse_all()
        return time.perf_counter() - t0

    t_small = run(5_000)
    t_large = run(50_000)
    assert t_large < 30 * max(t_small, 1e-3)


def test_observations_after_pose_update_use_new_pose():
    """A new pair and a replaced pair added after an update follow the new pose."""
    m = GlobalMap()
    m.add_keyframe(0, pose(rotation_about_z(0.3), [1.0, 0.0, 0.0]))
    m.add_observation(0, 0, [2.0, 1.0, 0.5], 1.0)
    m.update_keyframe_poses({0: pose(rotation_about_z(-1.1), [0.0, 3.0, -2.0])})
    p_new = np.array([-1.0, 4.0, 2.0])
    p_replaced = np.array([5.0, -2.0, 1.0])
    m.add_observation(1, 0, p_new, 0.5)
    m.add_observation(0, 0, p_replaced, 0.5)
    assert np.allclose(m.fuse_landmark(1).p_w, p_new, atol=1e-12)
    assert np.allclose(m.fuse_landmark(0).p_w, p_replaced, atol=1e-12)
    fused = m.fuse_all()
    assert np.allclose(fused[0].p_w, p_replaced, atol=1e-12)
    assert np.allclose(fused[1].p_w, p_new, atol=1e-12)
    assert m.n_observations == 2


def test_fuse_all_and_export_match_fuse_landmark(tmp_path):
    rng = np.random.default_rng(3)
    m = GlobalMap()
    for k in range(6):
        m.add_keyframe(k, pose(random_rotation(rng), rng.normal(size=3)))
    ids = rng.choice(np.arange(-500, 500), size=40, replace=False).tolist()
    pairs = set()
    for lm in ids:
        for k in rng.choice(6, size=int(rng.integers(1, 5)), replace=False).tolist():
            m.add_observation(lm, k, rng.normal(size=3) * 4,
                              float(rng.uniform(0.05, 1.0)),
                              color=rng.integers(0, 256, 3))
            pairs.add((lm, k))
    replaced = min(pairs)
    # an all-zero-quality landmark falls back to the unweighted mean
    zero_pts = rng.normal(size=(3, 3))
    for i, k in enumerate((1, 3, 5)):
        m.add_observation(1000, k, zero_pts[i], 0.0, color=(10 * i, 0, 255))
        pairs.add((1000, k))
    # a repeated pair replaces the stored observation
    m.add_observation(*replaced, [9.0, 9.0, 9.0], 0.7, color=(1, 2, 3))
    # keyframes 1, 3 and 5, which hold the zero-quality landmark, keep their poses
    m.update_keyframe_poses({k: pose(random_rotation(rng), rng.normal(size=3))
                             for k in (0, 2, 4)})
    assert m.n_observations == len(pairs)

    fused = m.fuse_all()
    assert list(fused) == sorted(ids + [1000])
    for lm, f in fused.items():
        g = m.fuse_landmark(lm)
        assert np.allclose(f.p_w, g.p_w, rtol=0, atol=1e-12)
        assert f.color.tolist() == g.color.tolist()
        assert f.quality == pytest.approx(g.quality, abs=1e-15)
        assert f.n_obs == g.n_obs
    zero = fused[1000]
    assert np.allclose(zero.p_w, zero_pts.mean(axis=0), atol=1e-12)
    assert zero.quality == 0.0
    assert zero.color.tolist() == [10, 0, 255]

    out = tmp_path / "cloud.ply"
    assert m.export_fused_cloud(out) == len(fused)
    back = ply.read_ply(out)
    points = list(fused.values())
    assert np.allclose(back["points"], [f.p_w for f in points], rtol=1e-6, atol=1e-6)
    assert back["colors"].tolist() == [f.color.tolist() for f in points]
    assert np.allclose(back["quality"], [f.quality for f in points], atol=1e-7)


def test_fuse_all_across_chunks_matches_plain_sums():
    """Rows spanning several transform chunks, fused against per-row arithmetic."""
    rng = np.random.default_rng(11)
    m = GlobalMap()
    poses = [pose(random_rotation(rng), rng.normal(size=3) * 5) for _ in range(7)]
    for k, T in enumerate(poses):
        m.add_keyframe(k, T)
    n = 2 * _CHUNK + 3000
    lms = rng.integers(-30_000, 30_000, size=n)
    kfs = rng.integers(0, 7, size=n)
    pts = rng.normal(size=(n, 3)) * 4
    qs = rng.uniform(0.0, 1.0, n)
    qs[np.isin(lms, lms[:3])] = 0.0               # three all-zero-quality landmarks
    cols = rng.integers(0, 256, size=(n, 3))
    rows = {}
    for i in range(n):
        m.add_observation(int(lms[i]), int(kfs[i]), pts[i], float(qs[i]), color=cols[i])
        rows[int(lms[i]), int(kfs[i])] = i        # a repeated pair replaces the row
    assert m.n_observations == len(rows) > 2 * _CHUNK
    # keyframe 3 moves after its observations were stored
    moved = pose(random_rotation(rng), rng.normal(size=3))
    m.update_keyframe_poses({3: moved})
    by_lm = {}
    for (lm, k), i in rows.items():
        p_f = poses[k].R.T @ (pts[i] - poses[k].t)
        now = moved if k == 3 else poses[k]
        by_lm.setdefault(lm, []).append((now.R @ p_f + now.t, qs[i], cols[i]))

    fused = m.fuse_all()
    assert list(fused) == sorted(by_lm)
    for lm, obs in by_lm.items():
        world, q, col = (np.array(v) for v in zip(*obs))
        w = q if q.sum() > 0 else np.ones(len(q))
        f = fused[lm]
        assert np.allclose(f.p_w, (w[:, None] * world).sum(axis=0) / w.sum(),
                           rtol=0, atol=1e-12)
        assert f.color.tolist() == np.clip(
            np.rint((w[:, None] * col).sum(axis=0) / w.sum()), 0, 255).tolist()
        assert f.quality == pytest.approx(q.mean(), abs=1e-15)
        assert f.n_obs == len(obs)
    assert sum(1 for obs in by_lm.values() if not any(q for _, q, _ in obs)) == 3


def test_replay_log_rejects_landmark_id_beyond_int64():
    with pytest.raises(EventLogError) as exc:
        replay_log(["KF 0 0 0 0 0 0 0 1",
                    f"OBS {2 ** 64} 0 1 2 3 0.5 0 0 0 0 0"])
    assert exc.value.line_no == 2
