import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from uwvio import global_map, ply
from uwvio.errors import EventLogError, UwvioError
from uwvio.fixtures import drift_loop_scene, write_drift_loop_log
from uwvio.geometry import RigidTransform, matrix_to_quat, random_rotation, rotation_about_z
from uwvio.global_map import (_CHUNK, _LARGE, _MIN_RUN, GlobalMap, _finite, _parse_pose,
                              _SortedRuns, replay_log, replay_log_file)


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


def test_keyframes_are_a_read_only_view():
    """Poses change only through the map's methods, which keep fusion's
    pose table in step; the view follows them."""
    m = GlobalMap()
    T0 = pose(rotation_about_z(0.3), [1.0, 0.0, 0.0])
    m.add_keyframe(0, T0)
    m.add_observation(0, 0, [2.0, 1.0, 0.5], 1.0)
    with pytest.raises(TypeError):
        m.keyframes[0] = identity_pose()
    assert m.keyframes[0] is T0 and m.keyframes == {0: T0}
    assert np.allclose(m.fuse_landmark(0).p_w, [2.0, 1.0, 0.5], atol=1e-12)
    T1 = identity_pose()
    m.update_keyframe_poses({0: T1})
    assert m.keyframes[0] is T1 and 0 in m.keyframes and len(m.keyframes) == 1
    assert list(m.keyframes.items()) == [(0, T1)]
    assert np.allclose(m.fuse_landmark(0).p_w, T0.inverse().apply([2.0, 1.0, 0.5]),
                       atol=1e-12)


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
    cases = [("^keyframe 0 already present$", m.add_keyframe, 0, identity_pose()),
             ("^keyframe 99 not in map$", m.add_observation, 0, 99, [0, 0, 0], 0.5),
             (r"^quality 1.5 outside \[0, 1\]$", m.add_observation, 0, 0, [0, 0, 0], 1.5),
             ("^landmark 123 has no observations$", m.fuse_landmark, 123),
             ("^keyframe 99 not in map$", m.update_keyframe_poses, {99: identity_pose()})]
    for message, call, *args in cases:
        with pytest.raises(UwvioError, match=message) as exc:
            call(*args)
        assert exc.value.exit_code == 1


def test_empty_map_fuses_to_nothing(tmp_path):
    m = GlobalMap()
    assert m.fuse_all() == {}
    m.add_keyframe(0, identity_pose())
    assert m.fuse_all() == {}
    assert m.export_fused_cloud(tmp_path / "empty.ply") == 0
    assert ply.read_ply(tmp_path / "empty.ply")["points"].shape == (0, 3)


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


def _replay_line_by_line(lines):
    """The per-line replay that block parsing replaced, kept as the reference."""
    gmap = GlobalMap()
    pending_updates = {}

    def flush_updates():
        if pending_updates:
            gmap.update_keyframe_poses(dict(pending_updates))
            pending_updates.clear()

    for line_no, line in enumerate(lines, start=1):
        try:
            fields = (line if isinstance(line, str) else line.decode()).split()
            if not fields or fields[0].startswith("#"):
                continue
            tag = fields[0]
            if tag == "KF":
                flush_updates()
                if len(fields) != 9:
                    raise EventLogError(line_no, f"KF expects 8 values, got {len(fields) - 1}")
                gmap.add_keyframe(int(fields[1]), _parse_pose(fields[2:9]))
            elif tag == "OBS":
                flush_updates()
                if len(fields) != 12:
                    raise EventLogError(line_no, f"OBS expects 11 values, got {len(fields) - 1}")
                values = _finite(fields[3:10])
                int(fields[10]), int(fields[11])
                gmap.add_observation(int(fields[1]), int(fields[2]), values[:3], values[3],
                                     color=values[4:])
            elif tag == "UPD":
                if len(fields) != 9:
                    raise EventLogError(line_no, f"UPD expects 8 values, got {len(fields) - 1}")
                kf_id = int(fields[1])
                if kf_id not in gmap.keyframes:
                    raise UwvioError(f"keyframe {kf_id} not in map")
                pending_updates[kf_id] = _parse_pose(fields[2:9])
            else:
                raise EventLogError(line_no, f"unknown event {tag!r}")
        except EventLogError:
            raise
        except (UwvioError, ValueError, OverflowError) as exc:
            raise EventLogError(line_no, str(exc)) from exc
    flush_updates()
    return gmap


def _obs_lines(rng, n, n_kf=6, n_lm=None):
    """``n`` OBS lines over keyframes 0..n_kf-1; most pairs repeat."""
    n_lm = n_lm or max(n // 8, 1)
    lm = rng.integers(-n_lm, n_lm, size=n)
    kf = rng.integers(0, n_kf, size=n)
    p = rng.normal(size=(n, 3)) * 10
    q = rng.choice([0.0, 0.25, 1.0, 0.7], size=n)
    q[::3] = rng.uniform(0, 1, size=len(q[::3]))
    c = rng.integers(0, 256, size=(n, 3))
    return [f"OBS {a} {b} {x!r} {y!r} {z!r} {w!r} {r} {g} {bl} {a % 1920} 7"
            for a, b, (x, y, z), w, (r, g, bl) in zip(lm.tolist(), kf.tolist(), p.tolist(),
                                                      q.tolist(), c.tolist())]


def _pose_lines(rng, tag, ids):
    return [f"{tag} {k} " + " ".join(map(repr, rng.normal(size=7).tolist())) for k in ids]


def _outcome(replay, lines):
    try:
        m = replay(lines)
    except EventLogError as exc:
        return exc.line_no, str(exc)
    poses = [(k, p.q.tobytes(), p.t.tobytes(), p.R.tobytes()) for k, p in m.keyframes.items()]
    return [poses, m._R[:len(poses)].tobytes(), m._t[:len(poses)].tobytes(),
            *_table_bytes(m)]


def _assert_replays_alike(tmp_path, lines, newline="\n", valid=True):
    data = b"".join((line.encode() if isinstance(line, str) else line) + newline.encode()
                    for line in lines)
    path = tmp_path / "events.txt"
    path.write_bytes(data)
    with open(path, "rb") as f:
        expected = _outcome(_replay_line_by_line, list(f))
    assert isinstance(expected[0], list) == valid
    assert _outcome(replay_log_file, path) == expected
    try:
        text = data.decode().split("\n")
    except UnicodeDecodeError:
        return
    assert _outcome(replay_log, text) == _outcome(_replay_line_by_line, text)


def _assert_later_poses_win(lines):
    """Each keyframe ends at the translation of its last UPD line."""
    last = {int(line.split()[1]): line.split()[2:5] for line in lines if line.startswith("UPD")}
    poses = replay_log(lines).keyframes
    assert all(poses[k].t.tolist() == list(map(float, t)) for k, t in last.items())


@pytest.mark.parametrize("run_length", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_replay_blocks_match_line_by_line(tmp_path, run_length):
    rng = np.random.default_rng(run_length)
    lines = _pose_lines(rng, "KF", range(6)) + _obs_lines(rng, run_length)
    lines += _pose_lines(rng, "UPD", (1, 4)) + _obs_lines(rng, 40)
    _assert_replays_alike(tmp_path, lines)


def test_replay_repeated_pair_across_block_edge(tmp_path):
    rng = np.random.default_rng(5)
    run = _obs_lines(rng, _CHUNK + 10, n_lm=_CHUNK)
    pair = "OBS 99999 2 {0}.5 1.25 -3 {1} 1 2 3 4 5"
    for i, q in ((5, 0.5), (_CHUNK - 1, 0.25), (_CHUNK, 0.75), (_CHUNK + 7, 1)):
        run[i] = pair.format(i, q)
    lines = _pose_lines(rng, "KF", range(6)) + run
    _assert_replays_alike(tmp_path, lines)
    f = replay_log(lines).fuse_landmark(99999)
    assert (f.n_obs, f.quality) == (1, 1.0)
    assert np.allclose(f.p_w, [_CHUNK + 7.5, 1.25, -3], rtol=1e-12, atol=1e-12)


def test_replay_runs_between_keyframes_and_updates(tmp_path):
    rng = np.random.default_rng(6)
    lines = _pose_lines(rng, "KF", range(3))
    for step in range(4):
        lines += _obs_lines(rng, 30, n_kf=3 + step)
        lines += _pose_lines(rng, "UPD", range(step + 1))
        lines += _pose_lines(rng, "KF", [3 + step])
    lines += _obs_lines(rng, 30, n_kf=7)
    # UPD runs between OBS runs, shorter and longer than _MIN_RUN, each
    # naming its first keyframe again as its last line
    for size in (2, 5, _MIN_RUN - 1, _MIN_RUN + 3):
        ids = rng.integers(0, 7, size - 1).tolist()
        lines += _pose_lines(rng, "UPD", ids + ids[:1]) + _obs_lines(rng, 30, n_kf=7)
    _assert_replays_alike(tmp_path, lines)
    _assert_later_poses_win(lines)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_replay_comments_blanks_and_indents_inside_a_run(tmp_path, newline):
    rng = np.random.default_rng(7)
    run = _obs_lines(rng, 200)
    run[20] = "# a comment"
    run[40] = ""
    run[60] = "   \t "
    run[80] = "  " + run[80]
    run[100] = run[100].replace(" ", "\t", 2)
    # a UPD run split by a comment line, then more observations
    upd = _pose_lines(rng, "UPD", rng.integers(0, 6, 2 * _MIN_RUN).tolist())
    run += upd[:_MIN_RUN + 2] + ["# a comment"] + upd[_MIN_RUN + 2:] + _obs_lines(rng, 40)
    _assert_replays_alike(tmp_path, _pose_lines(rng, "KF", range(6)) + run, newline)


def test_replay_ids_only_python_parses(tmp_path):
    """numpy rejects these ids and the block is replayed line by line."""
    rng = np.random.default_rng(8)
    run = _obs_lines(rng, 100)
    run[10] = "OBS 1_000 0 1 2 3 0.5 1 2 3 4 5"
    run[11] = "OBS ٣ 1 1 2 3 0.5 1 2 3 4 5"   # Arabic-Indic 3
    run[12] = f"OBS 3 2 1 2 3 0.5 1 2 3 {2 ** 70} 5"
    lines = _pose_lines(rng, "KF", range(6)) + run
    _assert_replays_alike(tmp_path, lines)
    assert 1000 in replay_log(lines).fuse_all()
    # int() takes an id of 2^63, which add_observation then rejects
    lines.insert(20, f"OBS {2 ** 63} 0 1 2 3 0.5 1 2 3 4 5")
    _assert_replays_alike(tmp_path, lines, valid=False)


@pytest.mark.parametrize("bad", [
    "OBS 1 0 1 2 3 0.5 1 2 3 4 5 6",
    "OBS 1 0 1 2 3 0.5 1 2 3 4 5 # c",
    b"OBS 1 0 1 2 3 0.5 1 2 3 4 5 caf\xe9",
    "OBS 1 77 1 2 3 0.5 1 2 3 4 5",
    "OBS 1 0 1 2 3 1.5 1 2 3 4 5",
    "OBS 1 0 1 2 nan 0.5 1 2 3 4 5",
    "OBS 1 0 1 2 3 0.5 1 2 3 4.0 5",
    b"OBS\x00 1 0 1 2 3 0.5 1 2 3 4 5",
    "OBSX 1 0 1 2 3 0.5 1 2 3 4 5",
], ids=["13-fields", "trailing-comment", "not-utf8", "unknown-kf", "quality-1.5",
        "nan", "float-pixel", "nul-in-tag", "long-tag"])
def test_replay_error_inside_a_run(tmp_path, bad):
    rng = np.random.default_rng(9)
    run = _obs_lines(rng, 300)
    lines = _pose_lines(rng, "KF", range(6)) + run[:150] + [bad] + run[150:]
    _assert_replays_alike(tmp_path, lines, valid=False)
    with pytest.raises(EventLogError) as exc:
        replay_log_file(tmp_path / "events.txt")
    assert exc.value.line_no == 157


@pytest.mark.parametrize("first, second", [
    ("OBS 1 0 1 2 3 1.5 1 2 3 4 5", "OBS 1 0 1 2 3 0.5 1 2 3 4 5 6"),
    ("OBS 1 0 1 2 3 0.5 1 2 3 4 5 6", "OBS 1 0 1 2 3 1.5 1 2 3 4 5"),
    ("OBS 1 9 1 2 3 0.5 1 2 3 4 5", "OBS 1 0 1 2 3 -0.5 1 2 3 4 5"),
])
def test_replay_first_bad_line_of_a_block_wins(tmp_path, first, second):
    rng = np.random.default_rng(10)
    run = _obs_lines(rng, 100)
    lines = _pose_lines(rng, "KF", range(6)) + run[:30] + [first] + run[30:60] + [second]
    _assert_replays_alike(tmp_path, lines, valid=False)
    with pytest.raises(EventLogError) as exc:
        replay_log(lines)
    assert exc.value.line_no == 37


def test_add_observations_matches_one_call_per_row():
    rng = np.random.default_rng(12)
    one, many = GlobalMap(), GlobalMap()
    for k in range(4):
        T = pose(random_rotation(rng), rng.normal(size=3))
        one.add_keyframe(k, T)
        many.add_keyframe(k, T)
    n = 500
    lm, kf = rng.integers(0, 60, n), rng.integers(0, 4, n)
    p_w, q = rng.normal(size=(n, 3)), rng.uniform(0, 1, n)
    color = rng.integers(0, 256, (n, 3))
    for i in range(n):
        one.add_observation(int(lm[i]), int(kf[i]), p_w[i], float(q[i]), color=color[i])
    many.add_observations(lm[:200], kf[:200], p_w[:200], q[:200], color[:200])
    many.add_observations(lm[200:], kf[200:], p_w[200:], q[200:], color[200:])
    assert _table_bytes(many) == _table_bytes(one)
    assert one.n_observations + one.n_replaced == n
    for a, b in zip(many._fuse(), one._fuse()):
        assert a.tobytes() == b.tobytes()
    # a bad row stores nothing, and the first bad row names the error
    before = many.n_observations, many.n_replaced, many.n_landmarks
    with pytest.raises(UwvioError, match="^keyframe 9 not in map$") as exc:
        many.add_observations([1000, 1001, 1002], [0, 9, 1], np.zeros((3, 3)),
                              [0.5, 0.5, 2.0], np.zeros((3, 3)))
    assert exc.value.exit_code == 1
    with pytest.raises(UwvioError, match=r"^quality 2.0 outside \[0, 1\]$") as exc:
        many.add_observations([1000, 1001, 1002], [0, 1, 1], np.zeros((3, 3)),
                              [0.5, 2.0, np.nan], np.zeros((3, 3)))
    assert exc.value.exit_code == 1
    # a keyframe id is looked up as given, as add_observation looks it up
    for kf in (1.5, 1.9, "a"):
        with pytest.raises(UwvioError, match=f"^keyframe {kf} not in map$") as exc:
            many.add_observations([1000, 1001], [0, kf], np.zeros((2, 3)), [0.5, 0.5],
                                  np.zeros((2, 3)))
        assert exc.value.exit_code == 1
        with pytest.raises(UwvioError, match=f"^keyframe {kf} not in map$"):
            many.add_observation(1000, kf, [0.0, 0.0, 0.0], 0.5)
    assert (many.n_observations, many.n_replaced, many.n_landmarks) == before


def _table_bytes(m):
    """Everything a map stores, as bytes: its counts, keyframe ids, landmark
    slots, the table's columns and the fusion of every landmark."""
    fused = m._fuse()
    n = m.n_observations
    return (n, m.n_replaced, list(m.keyframes), list(m._lm_slot.items()),
            [a[:n].tobytes() for a in (m._kf, m._lm, m._p_f, m._quality, m._color)],
            [a.tobytes() for a in fused])


def _random_map(rng, n_kf=5):
    m = GlobalMap()
    for k in range(n_kf):
        m.add_keyframe(k, pose(random_rotation(rng), rng.normal(size=3)))
    return m


@pytest.mark.parametrize("n", [_CHUNK - 1, _CHUNK, _CHUNK + 1])
def test_staged_runs_match_add_observations(n):
    rng = np.random.default_rng(n)
    staged, batch = _random_map(rng), GlobalMap()
    for k, T in staged.keyframes.items():
        batch.add_keyframe(k, T)
    lm, kf = rng.integers(0, n // 3, n), rng.integers(0, 5, n)   # most pairs repeat
    p_w, q = rng.normal(size=(n, 3)), rng.uniform(0, 1, n)
    color = rng.integers(0, 256, (n, 3))
    for i in range(n):
        staged.add_observation(int(lm[i]), int(kf[i]), p_w[i], float(q[i]), color=color[i])
    batch.add_observations(lm, kf, p_w, q, color)
    assert staged.n_replaced > 0
    assert _table_bytes(staged) == _table_bytes(batch)


def test_staged_observation_keeps_the_pose_of_its_call():
    rng = np.random.default_rng(21)
    staged = _random_map(rng, n_kf=2)
    stored = GlobalMap()
    for k, T in staged.keyframes.items():
        stored.add_keyframe(k, T)
    before = staged.keyframes[1]
    p_w = np.array([1.0, -2.0, 0.5])
    staged.add_observation(7, 1, p_w, 0.5)
    stored.add_observations([7], [1], [p_w], [0.5], [(0, 0, 0)])
    after = pose(random_rotation(rng), rng.normal(size=3))
    for m in (staged, stored):
        m.update_keyframe_poses({1: after})
    assert _table_bytes(staged) == _table_bytes(stored)
    expected = after.R @ (before.R.T @ (p_w - before.t)) + after.t
    assert np.allclose(staged.fuse_landmark(7).p_w, expected, rtol=0, atol=1e-12)


def test_sorted_runs_match_a_dict(monkeypatch):
    """Whatever the sizes of the added batches, and with keys also set one
    at a time, the index answers like one dict, its runs stay few, and
    `items` merges everything into one sorted run."""
    monkeypatch.setattr(global_map, "_CHUNK", 300)
    rng = np.random.default_rng(30)
    runs, expected = _SortedRuns(), {}
    keys = rng.permutation(np.arange(-5000, 5000, dtype=np.int64) * 7919)
    lo, hi = -7919 * 300, 7919 * 40
    at = 0
    steps = ([("add", 1)] * 40 + [("add", n) for n in rng.integers(1, 300, 40).tolist()]
             + [("set", n) for n in rng.integers(1, 2 * _LARGE, 12).tolist()]
             + [("update", n) for n in rng.integers(1, 2 * _LARGE, 8).tolist()]
             + [("add", 1)] * 40 + [("set", 3)])
    for how, size in steps:
        batch = keys[at:at + size]
        if how == "add":
            runs.add(batch, np.arange(at, at + len(batch)))
        elif how == "update":
            runs.update(batch.tolist(), range(at, at + len(batch)))
            assert len(runs._dict) < 300
        else:
            for key, value in zip(batch.tolist(), range(at, at + len(batch))):
                runs.set(key, value)
        expected.update(zip(batch.tolist(), range(at, at + len(batch))))
        at += len(batch)
        lengths = [len(k) for k, _ in runs._runs]
        assert all(a > 8 * b for a, b in zip(lengths, lengths[1:]))
        if how != "add":      # the dict is searched, or first added as a run
            assert sorted(runs.between(lo, hi)) == sorted(
                v for k, v in expected.items() if lo <= k < hi)
            assert len(runs._dict) < _LARGE
    runs.add(keys[:0], np.arange(0))
    assert runs._dict
    assert len(expected) == sum(len(k) for k, _ in runs._runs) + len(runs._dict)
    probe = np.concatenate([keys[:at], keys[at:at + 50]])
    assert runs.find(probe).tolist() == [expected.get(k, -1) for k in probe.tolist()]
    assert [runs.get(k) for k in probe.tolist()] == [expected.get(k) for k in probe.tolist()]
    assert sorted(runs.between(lo, hi)) == sorted(v for k, v in expected.items() if lo <= k < hi)
    k, v = runs.items()
    assert len(runs._runs) == 1 and not runs._dict
    assert k.tolist() == sorted(expected) and v.tolist() == [expected[x] for x in k.tolist()]


@pytest.mark.parametrize("order", ["single-large-small", "large-single-small",
                                   "small-large-single", "quiet-small-large",
                                   "large-quiet-single"])
def test_write_paths_build_one_map(order):
    """Single observations (read back often, or not at all), small blocks
    and large blocks all find the pairs the others stored, also after a
    single-landmark fusion moved pairs into the sorted runs, and the map
    equals one built one call per row."""
    rng = np.random.default_rng(31)
    mixed, one = _random_map(rng), GlobalMap()
    for k, T in mixed.keyframes.items():
        one.add_keyframe(k, T)
    n = 3 * _LARGE
    lm, kf = rng.integers(0, n // 4, 3 * n), rng.integers(0, 5, 3 * n)
    p_w, q = rng.normal(size=(3 * n, 3)), rng.uniform(0, 1, 3 * n)
    color = rng.integers(0, 256, (3 * n, 3))
    for i in range(3 * n):
        one.add_observation(int(lm[i]), int(kf[i]), p_w[i], float(q[i]), color=color[i])
    for part, how in enumerate(order.split("-")):
        rows = slice(part * n, (part + 1) * n)
        if how in ("single", "quiet"):
            for i in range(rows.start, rows.stop):
                mixed.add_observation(int(lm[i]), int(kf[i]), p_w[i], float(q[i]),
                                      color=color[i])
                if how == "single" and i % 13 == 0:
                    assert mixed.n_observations + mixed.n_replaced == i + 1
                if how == "single" and i % 97 == 0:
                    mixed.fuse_landmark(int(lm[i]))
        elif how == "large":
            mixed.add_observations(lm[rows], kf[rows], p_w[rows], q[rows], color[rows])
        else:
            for s in range(rows.start, rows.stop, _LARGE // 4):
                block = slice(s, min(s + _LARGE // 4, rows.stop))
                mixed.add_observations(lm[block], kf[block], p_w[block], q[block],
                                       color[block])
    assert mixed.n_replaced > 0
    assert _table_bytes(mixed) == _table_bytes(one)
    for lm_id in np.unique(lm).tolist()[::7]:
        a, b = mixed.fuse_landmark(lm_id), one.fuse_landmark(lm_id)
        assert (a.p_w.tobytes(), a.color.tobytes(), a.quality, a.n_obs) == (
            b.p_w.tobytes(), b.color.tobytes(), b.quality, b.n_obs)


def test_large_block_of_stored_pairs_only():
    """A large block whose every pair is already stored replaces rows and
    adds none."""
    rng = np.random.default_rng(32)
    m = _random_map(rng)
    n = 2 * _LARGE
    lm, kf = rng.integers(0, 40, n), rng.integers(0, 5, n)
    m.add_observations(lm, kf, rng.normal(size=(n, 3)), np.full(n, 0.5), np.zeros((n, 3)))
    stored = m.n_observations
    m.add_observations(lm[::-1], kf[::-1], rng.normal(size=(n, 3)), np.full(n, 0.25),
                       np.zeros((n, 3)))
    assert (m.n_observations, m.n_replaced) == (stored, 2 * n - stored)
    assert set(m._quality[:stored].tolist()) == {0.25}


def test_large_batch_leaves_room_for_the_next_observation():
    """A large batch grows the table with headroom, so the next single
    observation is stored without copying the columns."""
    rng = np.random.default_rng(33)
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    n = 100_000
    m.add_observations(np.arange(n), np.zeros(n, dtype=int), rng.normal(size=(n, 3)),
                       np.full(n, 0.5), np.zeros((n, 3)))
    kf = m._kf
    m.add_observation(n, 0, [1.0, 2.0, 3.0], 0.5)
    assert m.n_observations == n + 1
    assert m._kf is kf


def test_add_observations_after_staged_rows_wins():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(0, 0, [1.0, 0.0, 0.0], 0.5)
    m.add_observation(1, 0, [2.0, 0.0, 0.0], 0.5)
    m.add_observations([0], [0], [[3.0, 0.0, 0.0]], [1.0], [[0, 0, 0]])
    assert [f.p_w.tolist() for f in m.fuse_all().values()] == [[3.0, 0.0, 0.0],
                                                               [2.0, 0.0, 0.0]]
    assert m.n_replaced == 1


def test_replay_stores_rows_applied_line_by_line():
    """An indented OBS line is applied by `add_observation`; `replay_log`
    stores it before returning."""
    m = replay_log(["KF 0 0 0 0 0 0 0 1", "  OBS 1 0 1.5 2 3 0.5 1 2 3 4 5"])
    assert (m.n_observations, m.n_replaced, m.n_landmarks) == (1, 0, 1)
    f = m.fuse_landmark(1)
    assert (f.p_w.tolist(), f.quality, f.color.tolist()) == ([1.5, 2.0, 3.0], 0.5, [1, 2, 3])


def test_add_observation_copies_its_arguments():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    p_w, color = np.array([1.0, 2.0, 3.0]), np.array([10, 20, 30])
    m.add_observation(0, 0, p_w, 0.5, color=color)
    p_w[:] = 99.0
    color[:] = 0
    fused = m.fuse_landmark(0)
    assert fused.p_w.tolist() == [1.0, 2.0, 3.0]
    assert fused.color.tolist() == [10, 20, 30]


def test_kept_fusion_is_dropped_by_every_write(tmp_path):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_keyframe(1, identity_pose())
    m.add_observation(0, 0, [1.0, 0.0, 0.0], 1.0)
    assert m.fuse_all()[0].p_w.tolist() == [1.0, 0.0, 0.0]
    assert m._fused is not None
    m.add_observation(0, 1, [3.0, 0.0, 0.0], 1.0)
    assert m._fused is None
    assert m.fuse_landmark(0).p_w.tolist() == [2.0, 0.0, 0.0]
    m.export_fused_cloud(tmp_path / "cloud.ply")
    m.add_observations([0], [1], [[5.0, 0.0, 0.0]], [1.0], [[0, 0, 0]])
    assert m._fused is None
    assert m.fuse_all()[0].p_w.tolist() == [3.0, 0.0, 0.0]
    m.update_keyframe_poses({1: pose(t=[0.0, 2.0, 0.0])})
    assert m._fused is None
    assert m.fuse_landmark(0).p_w.tolist() == [3.0, 1.0, 0.0]


def test_fused_points_do_not_share_the_kept_fusion(tmp_path):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    for lm in range(3):
        m.add_observation(lm, 0, [lm, 1.0, 2.0], 0.5, color=(lm, 5, 6))
    m.export_fused_cloud(tmp_path / "before.ply")
    for f in [m.fuse_landmark(1), *m.fuse_all().values()]:
        f.p_w[:] = -1.0
        f.color[:] = 0
    assert m.fuse_landmark(1).p_w.tolist() == [1.0, 1.0, 2.0]
    assert [f.color.tolist() for f in m.fuse_all().values()] == [[0, 5, 6], [1, 5, 6],
                                                                 [2, 5, 6]]
    m.export_fused_cloud(tmp_path / "after.ply")
    assert (tmp_path / "after.ply").read_bytes() == (tmp_path / "before.ply").read_bytes()


def test_fuse_landmark_equals_kept_fusion_bit_for_bit():
    """One landmark's kernel run and the kept fusion of every landmark agree
    to the bit, over rows spanning several transform chunks."""
    rng = np.random.default_rng(22)
    m = _random_map(rng, n_kf=9)
    n = 2 * _CHUNK + 500
    lm = rng.integers(-3000, 3000, n)
    q = rng.uniform(0, 1, n)
    q[lm == lm[0]] = 0.0                       # one all-zero-quality landmark
    m.add_observations(lm, rng.integers(0, 9, n), rng.normal(size=(n, 3)) * 5, q,
                       rng.integers(0, 256, (n, 3)))
    def as_bytes(f):
        return f.p_w.tobytes(), f.color.tobytes(), f.quality, f.n_obs
    ids = np.unique(lm).tolist()
    alone = {lm: as_bytes(m.fuse_landmark(lm)) for lm in ids}
    assert m._fused is None
    fused = {lm: as_bytes(f) for lm, f in m.fuse_all().items()}
    assert m._fused is not None
    assert fused == alone
    assert {lm: as_bytes(m.fuse_landmark(lm)) for lm in ids} == alone


@pytest.mark.parametrize("args", [
    ([5, 6], [0, 0], np.zeros((2, 2)), [0.5, 0.5], np.zeros((2, 3))),
    ([5, 6], [0, 0], np.zeros((2, 3)), [0.5, 0.5], np.zeros((2, 4))),
    ([5, 6], [0, 0], np.zeros((3, 3)), [0.5, 0.5], np.zeros((2, 3))),
    ([5, 6], [0], np.zeros((2, 3)), [0.5, 0.5], np.zeros((2, 3))),
    ([5, 6], [0, 0], np.zeros((2, 3)), [0.5], np.zeros((2, 3))),
    (5, 0, [1.0, 2.0, 3.0], 0.5, [0, 0, 0]),
    ([5, 6], [0, 0], [[0, 0, 0], [0, 0]], [0.5, 0.5], np.zeros((2, 3))),
    ([5, 6], [0, 0], np.zeros((2, 3)), [0.5, 0.5], [["a", "b", "c"]] * 2),
    ([5], [0.5], np.zeros((1, 3)), [0.5], np.zeros((1, 3))),       # no keyframe 0.5
    ([5, 6], np.array([0, 0.9]), np.zeros((2, 3)), [0.5, 0.5], np.zeros((2, 3))),
    ([5, 6], [0, [1]], np.zeros((2, 3)), [0.5, 0.5], np.zeros((2, 3))),
])
def test_add_observations_bad_shape_changes_nothing(args):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5)
    before = _table_bytes(m)
    with pytest.raises(UwvioError) as exc:
        m.add_observations(*args)
    assert exc.value.exit_code == 1
    assert _table_bytes(m) == before
    assert list(m.fuse_all()) == [1]


@pytest.mark.parametrize("p_w, color", [
    ([5], (1, 2, 3)), (5.0, (1, 2, 3)), ([1, 2, 3, 4], (1, 2, 3)), ([[1, 2, 3]], (1, 2, 3)),
    (np.zeros((3, 1)), (1, 2, 3)), ("abc", (1, 2, 3)), ([1, 2, "x"], (1, 2, 3)),
    ([1, 2, 3], (1, 2)), ([1, 2, 3], 7), ([1, 2, 3], ("r", "g", "b")),
])
@pytest.mark.parametrize("landmark", [1, 2])    # replaces a pair, or adds a landmark
def test_add_observation_bad_values_change_nothing(p_w, color, landmark):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5, color=(4, 5, 6))
    m.add_observation(1, 0, [1.0, 2.0, 4.0], 0.25, color=(4, 5, 7))   # both pending
    with pytest.raises(UwvioError, match="point and colour must hold 3 numbers") as exc:
        m.add_observation(landmark, 0, p_w, 0.75, color=color)
    assert exc.value.exit_code == 1
    assert (m.n_observations, m.n_replaced, m.n_landmarks) == (1, 1, 1)
    f = m.fuse_landmark(1)
    assert (f.p_w.tolist(), f.color.tolist(), f.quality) == ([1.0, 2.0, 4.0], [4, 5, 7], 0.25)


@pytest.mark.parametrize("bad", [1.5, np.float64(-0.5), float("nan"), float("inf"),
                                 2 ** 63, -2 ** 63 - 1, "7", None])
def test_add_observation_rejects_non_integral_landmark_id(bad):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5)
    before = _table_bytes(m)
    with pytest.raises(UwvioError, match="landmark id .* not an integer") as exc:
        m.add_observation(bad, 0, [4.0, 5.0, 6.0], 0.5)
    assert exc.value.exit_code == 1
    assert _table_bytes(m) == before
    assert m.n_landmarks == 1
    assert list(m.fuse_all()) == [1]


@pytest.mark.parametrize("bad", [[2, 1.5], [np.nan], [np.inf], [2.0 ** 63],
                                 np.array([2 ** 64 - 1], dtype=np.uint64),
                                 np.array([2, 2.5], dtype=object), ["a"]])
def test_add_observations_rejects_non_integral_landmark_ids(bad):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5)
    before = _table_bytes(m)
    n = len(bad)
    with pytest.raises(UwvioError, match="landmark id .* not an integer") as exc:
        m.add_observations(bad, [0] * n, np.ones((n, 3)), [0.5] * n, np.zeros((n, 3)))
    assert exc.value.exit_code == 1
    assert _table_bytes(m) == before
    assert list(m.fuse_all()) == [1]


def test_integral_landmark_ids_of_any_type_are_one_landmark():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_keyframe(1, identity_pose())
    m.add_observation(3.0, 0, [1.0, 2.0, 3.0], 0.5)
    m.add_observations(np.array([3.0, -2.0 ** 63]), [1, 1], np.ones((2, 3)), [0.5, 0.5],
                       np.zeros((2, 3)))
    m.add_observations(np.array([4], dtype=np.uint8), [0], np.ones((1, 3)), [0.5],
                       np.zeros((1, 3)))
    assert sorted(m.fuse_all()) == [-2 ** 63, 3, 4]
    assert m.fuse_landmark(3).n_obs == 2


@pytest.mark.parametrize("p_w, color", [
    ([1, 2, float("nan")], (0, 0, 0)), ((np.inf, 2.0, 3.0), (0, 0, 0)),
    (np.array([1.0, -np.inf, 3.0]), (0, 0, 0)), ([1, 2, 3], (0, float("nan"), 0)),
    ([1.0, 2.0, 3.0], np.array([255.0, 0.0, np.inf])),
])
@pytest.mark.parametrize("landmark", [1, 2])    # replaces a pair, or adds a landmark
def test_add_observation_rejects_non_finite_values(p_w, color, landmark):
    def staged_map():
        m = GlobalMap()
        m.add_keyframe(0, identity_pose())
        m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5, color=(4, 5, 6))
        m.add_observation(1, 0, [1.0, 2.0, 4.0], 0.25, color=(4, 5, 7))
        return m
    m = staged_map()
    with pytest.raises(UwvioError, match="point and colour must be finite") as exc:
        m.add_observation(landmark, 0, p_w, 0.75, color=color)
    assert exc.value.exit_code == 1
    assert _table_bytes(m) == _table_bytes(staged_map())
    f = m.fuse_landmark(1)
    assert (f.p_w.tolist(), f.color.tolist(), f.quality) == ([1.0, 2.0, 4.0], [4, 5, 7], 0.25)


@pytest.mark.parametrize("p_w, color, message", [
    ([[0, 0, 0], [1, np.inf, 0], [0, 0, 0]], np.zeros((3, 3)), "must be finite"),
    (np.zeros((3, 3)), [[0, 0, 0], [0, 0, 0], [np.nan, 0, 0]], "must be finite"),
    # the first row at fault names the error
    ([[0, 0, np.nan], [0, 0, 0], [0, 0, 0]], np.zeros((3, 3)), "must be finite"),
    ([[0, 0, 0], [0, 0, 0], [0, 0, np.nan]], np.zeros((3, 3)), "^keyframe 9 not in map$"),
])
def test_add_observations_rejects_non_finite_values(p_w, color, message):
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5)
    before = _table_bytes(m)
    kf = [0, 9, 0] if "keyframe" in message else [0, 0, 0]
    with pytest.raises(UwvioError, match=message) as exc:
        m.add_observations([1, 2, 3], kf, p_w, [0.5, 0.5, 0.5], color)
    assert exc.value.exit_code == 1
    assert _table_bytes(m) == before


def _kf_lines(ids):
    return [f"KF {k} {k}.5 -1 2 0 0 0.25 1" for k in ids]


@pytest.mark.parametrize("bad, message", [
    ("KF 20 0 0 0 0 0 0 1", "keyframe 20 already present"),          # twice in a run
    ("KF 1 0 0 0 0 0 0 1", "keyframe 1 already present"),            # already in the map
    ("KF 99 0 0 0 0 0 0 0", "zero quaternion"),
    ("KF 99 0 0 0 0 0 nan 1", "non-finite value"),
    ("KF 99 0 0 0 0 0 inf 1", "non-finite value"),
    ("UPD 99 0 0 0 0 0 0 1", "keyframe 99 not in map"),              # mid-run
    ("UPD 2 0 0 0 0 0 0 0", "zero quaternion"),
])
def test_replay_pose_run_errors(tmp_path, bad, message):
    """A bad line in the middle of a KF or UPD run long enough to be parsed
    as one block raises with its own line number and text."""
    rng = np.random.default_rng(13)
    n = _MIN_RUN
    lines = _kf_lines(range(n)) + _obs_lines(rng, 3, n_kf=n)
    if bad.startswith("KF"):
        lines += _kf_lines(range(n, n + n // 2)) + [bad] + _kf_lines(range(2 * n, 3 * n))
    else:
        lines += _pose_lines(rng, "UPD", range(n // 2)) + [bad]
        lines += _pose_lines(rng, "UPD", range(n // 2, n))
    line_no = lines.index(bad) + 1
    _assert_replays_alike(tmp_path, lines, valid=False)
    with pytest.raises(EventLogError, match=f"^line {line_no}: {message}$"):
        replay_log(lines)


def test_replay_pose_runs_longer_than_a_block(tmp_path):
    rng = np.random.default_rng(14)
    n = _CHUNK + 5
    lines = _pose_lines(rng, "KF", range(n)) + _obs_lines(rng, 50, n_kf=n)
    ids = rng.integers(0, n, _CHUNK + 3).tolist()
    ids[_CHUNK] = ids[_CHUNK - 1]   # one keyframe on both sides of the block edge
    lines += _pose_lines(rng, "UPD", ids) + _obs_lines(rng, 50, n_kf=n)
    _assert_replays_alike(tmp_path, lines)
    _assert_later_poses_win(lines)


def test_clean_logs_never_apply_a_line_alone(tmp_path, monkeypatch):
    """Clean runs of `_MIN_RUN` or more KF, OBS and UPD lines are applied
    block by block: for them the line-at-a-time path is a fallback for
    input that numpy or a check rejects, not a route that clean input
    takes. Shorter runs, and comments, are applied line by line."""
    def refuse(gmap, line_no, line):
        raise AssertionError(f"line {line_no} was applied alone: {line!r}")

    rng = np.random.default_rng(15)
    n = _MIN_RUN
    synthetic = tmp_path / "synthetic.txt"
    lines = _pose_lines(rng, "KF", range(n)) + _obs_lines(rng, _CHUNK + n, n_kf=n)
    lines += _pose_lines(rng, "UPD", range(n - 1, -1, -1))
    lines += _pose_lines(rng, "KF", range(n, 2 * n)) + _obs_lines(rng, n, n_kf=2 * n)
    lines += _pose_lines(rng, "UPD", range(2 * n))
    synthetic.write_text("\n".join(lines) + "\n")
    fixture = write_drift_loop_log(tmp_path / "drift_loop_events.txt", seed=0)
    expected = [_outcome(replay_log_file, path) for path in (fixture, synthetic)]
    monkeypatch.setattr(global_map, "_apply_line", refuse)
    assert [_outcome(replay_log_file, path) for path in (fixture, synthetic)] == expected
    assert isinstance(_outcome(replay_log, lines), list)
    assert isinstance(_outcome(replay_log, _kf_lines(range(n))), list)
    with pytest.raises(AssertionError, match="line 1 was applied alone"):
        replay_log(_kf_lines(range(n - 1)))
    with pytest.raises(AssertionError, match=f"line {n + 1} was applied alone"):
        replay_log(_kf_lines(range(n)) + ["# comment"])


# lines that a check rejects, each with the kind of run it falls in
_BAD_LINES = ["KF {kf} 0 0 0 0 0 0 1", "KF {new} 0 0 0 0 0 0 0", "KF {new} 0 0 0 nan 0 0 1",
              "OBS 1 {missing} 1 2 3 0.5 1 2 3 4 5", "OBS 1 0 1 2 inf 0.5 1 2 3 4 5",
              "OBS 1 0 1 2 3 1.5 1 2 3 4 5", "UPD {missing} 0 0 0 0 0 0 1",
              "UPD {kf} 0 0 0 0 0 0 0", "UPD {kf} 1 2 3", "BAD 1 2 3"]


@st.composite
def _event_logs(draw):
    """A log of KF, OBS and UPD runs, comments and blank lines, with at most
    one line that a check rejects."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    lines, n_kf = _pose_lines(rng, "KF", range(2)), 2
    for kind in draw(st.lists(st.sampled_from(["KF", "OBS", "UPD", "#", ""]), max_size=12)):
        size = draw(st.integers(1, 3 * _MIN_RUN))
        if kind == "KF":
            lines += _pose_lines(rng, "KF", range(n_kf, n_kf + size))
            n_kf += size
        elif kind == "OBS":
            lines += _obs_lines(rng, size, n_kf=n_kf)
        elif kind == "UPD":
            lines += _pose_lines(rng, "UPD", rng.integers(0, n_kf, size).tolist())
        else:
            lines.append(kind + " a comment" if kind else "")
    if draw(st.booleans()):
        bad = draw(st.sampled_from(_BAD_LINES)).format(
            kf=int(rng.integers(0, n_kf)), new=n_kf + 1000, missing=n_kf + 2000)
        # mostly inside or at the end of a run of its own kind
        inside = [i for i in range(2, len(lines) + 1) if lines[i - 1][:3] == bad[:3]]
        at = draw(st.sampled_from(inside) if inside and draw(st.booleans())
                  else st.integers(2, len(lines)))
        lines.insert(at, bad)
    return lines


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(_event_logs())
def test_replay_runs_match_line_by_line(lines):
    """Block-parsed runs give the map, fused bytes and error that applying
    one line at a time gives, from bytes lines as from str lines."""
    for events in (lines, [line.encode() + b"\n" for line in lines]):
        assert _outcome(replay_log, events) == _outcome(_replay_line_by_line, events)


class _ReferenceMap:
    """The seed's map: a dict of dicts with per-landmark loops, kept as the
    reference `GlobalMap` is checked against."""

    def __init__(self):
        self.poses = {}
        self.obs = {}            # landmark id -> {keyframe id: (p_f, quality, colour)}
        self.n_replaced = 0

    def add_keyframe(self, kf_id, T):
        self.poses[kf_id] = T

    def add_observation(self, lm_id, kf_id, p_w, quality, color):
        T = self.poses[kf_id]
        rows = self.obs.setdefault(lm_id, {})
        self.n_replaced += kf_id in rows
        rows[kf_id] = (T.R.T @ (np.asarray(p_w, dtype=float) - T.t), float(quality),
                       np.asarray(color, dtype=float))

    def update_keyframe_poses(self, updates):
        self.poses.update(updates)

    @property
    def n_observations(self):
        return sum(len(rows) for rows in self.obs.values())

    @property
    def n_landmarks(self):
        return len(self.obs)

    def fuse_landmark(self, lm_id):
        """Position, colour, mean quality and count; all-zero qualities
        weigh every observation alike."""
        rows = self.obs[lm_id]
        unweighted = not any(q for _, q, _ in rows.values())
        p_sum, c_sum, q_sum = np.zeros(3), np.zeros(3), 0.0
        for kf_id, (p_f, q, color) in rows.items():
            T = self.poses[kf_id]
            w = 1.0 if unweighted else q
            p_sum += w * (T.R @ p_f + T.t)
            c_sum += w * color
            q_sum += q
        denom = len(rows) if unweighted else q_sum
        return (p_sum / denom, np.clip(np.rint(c_sum / denom), 0, 255), q_sum / len(rows),
                len(rows))

    def fuse_all(self):
        return {lm_id: self.fuse_landmark(lm_id) for lm_id in sorted(self.obs)}


def _assert_fused_alike(f, expected):
    p_w, color, quality, n_obs = expected
    assert f.n_obs == n_obs
    assert np.allclose(f.p_w, p_w, rtol=0, atol=1e-12)
    assert np.allclose(f.color, color, rtol=0, atol=1e-12)
    assert f.quality == pytest.approx(quality, rel=0, abs=1e-12)


_MAP_OPS = ["keyframe", "single", "batch", "update", "fuse_landmark", "fuse_all", "counts"]


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.lists(st.sampled_from(_MAP_OPS), max_size=16))
def test_map_matches_reference_map(seed, ops):
    """Random API sequences give the counts and fused values of the
    reference map, with single observations enough to cross the pending
    flush and batches on both sides of `_LARGE`."""
    rng = np.random.default_rng(seed)
    n_lm = int(rng.integers(1, 50))
    m, ref = GlobalMap(), _ReferenceMap()

    def counts(x):
        return x.n_observations, x.n_replaced, x.n_landmarks

    def random_pose():
        return pose(random_rotation(rng), rng.normal(size=3) * 3)

    def observations(n):
        kf_ids = list(ref.poses)
        return (rng.integers(-n_lm, n_lm, n) * 7919, rng.choice(kf_ids, n),
                rng.normal(size=(n, 3)) * 5, rng.choice([0.0, 0.3, 1.0, 0.55], n),
                rng.integers(0, 256, (n, 3)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(global_map, "_CHUNK", _LARGE + 22)
        for op in ["keyframe", "single"] + ops + ["counts", "fuse_all"]:
            if op == "keyframe":
                for _ in range(int(rng.integers(1, 4))):
                    kf_id, T = 3 * len(ref.poses) + 1, random_pose()
                    m.add_keyframe(kf_id, T)
                    ref.add_keyframe(kf_id, T)
            elif op == "single":
                every = int(rng.choice([0, 1, 25]))      # calls between reads of the counts
                for i, row in enumerate(zip(*observations(int(rng.integers(1, 2 * _LARGE))))):
                    lm_id, kf_id, p_w, q, color = (int(row[0]), int(row[1]), *row[2:])
                    m.add_observation(lm_id, kf_id, p_w, float(q), color=color)
                    ref.add_observation(lm_id, kf_id, p_w, q, color)
                    if every and i % every == 0:
                        assert counts(m) == counts(ref)
            elif op == "batch":
                batch = observations(int(rng.integers(1, 3 * _LARGE)))
                m.add_observations(*batch)
                for row in zip(*batch):
                    ref.add_observation(int(row[0]), int(row[1]), *row[2:])
            elif op == "update":
                kf_ids = list(ref.poses)
                updates = {int(k): random_pose()
                           for k in rng.choice(kf_ids, int(rng.integers(1, len(kf_ids) + 1)))}
                m.update_keyframe_poses(updates)
                ref.update_keyframe_poses(updates)
            elif op == "fuse_landmark":
                for lm_id in rng.choice(list(ref.obs), min(5, len(ref.obs))).tolist():
                    _assert_fused_alike(m.fuse_landmark(lm_id), ref.fuse_landmark(lm_id))
            elif op == "fuse_all":
                fused, expected = m.fuse_all(), ref.fuse_all()
                assert list(fused) == list(expected)
                for lm_id, f in fused.items():
                    _assert_fused_alike(f, expected[lm_id])
            else:
                assert counts(m) == counts(ref)


def test_non_finite_poses_change_nothing():
    m = GlobalMap()
    m.add_keyframe(0, identity_pose())
    m.add_keyframe(1, pose(rotation_about_z(0.4), [1.0, 2.0, 3.0]))
    m.add_observation(1, 0, [1.0, 2.0, 3.0], 0.5)
    m.add_observation(1, 1, [2.0, 2.0, 3.0], 0.5)
    before = _table_bytes(m), m._R[:2].tobytes(), m._t[:2].tobytes(), dict(m.keyframes)
    nan_t = RigidTransform(q=[0, 0, 0, 1], t=[np.nan, 0, 0])
    inf_t = RigidTransform(q=[0, 0, 0, 1], t=[0, np.inf, 0])
    for message, call, *args in [
            ("^keyframe 2 pose is not finite$", m.add_keyframe, 2, nan_t),
            ("^keyframe 1 pose is not finite$", m.update_keyframe_poses,
             {0: pose(t=[5.0, 0.0, 0.0]), 1: inf_t})]:
        with pytest.raises(UwvioError, match=message) as exc:
            call(*args)
        assert exc.value.exit_code == 1
        assert (_table_bytes(m), m._R[:2].tobytes(), m._t[:2].tobytes(),
                dict(m.keyframes)) == before
    for q in ([0, 0, np.inf, 1], [np.nan, 0, 0, 1]):
        with pytest.raises(ValueError, match="^non-finite quaternion$"):
            m.add_keyframe(2, RigidTransform(q=q, t=[0.0, 0.0, 0.0]))
    assert (_table_bytes(m), dict(m.keyframes)) == before[::3]
    assert np.allclose(m.fuse_landmark(1).p_w, [1.5, 2.0, 3.0], rtol=0, atol=1e-12)
