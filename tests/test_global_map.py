import numpy as np
import pytest

from uwvio import ply
from uwvio.errors import (DuplicateKeyframe, EventLogError, InvalidQuality,
                          UnknownKeyframe, UnknownLandmark, UwvioError)
from uwvio.fixtures import drift_loop_scene, write_drift_loop_log
from uwvio.geometry import RigidTransform, matrix_to_quat, random_rotation, rotation_about_z
from uwvio.global_map import (_CHUNK, GlobalMap, _finite, _parse_pose, replay_log,
                              replay_log_file)


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
                    raise UnknownKeyframe(f"keyframe {kf_id} not in map")
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
    fused = m._fuse() if m.landmarks else ()
    return ([(lm, list(rows.items())) for lm, rows in m.landmarks.items()],
            m.n_observations, [(a.dtype, a.shape, a.tobytes()) for a in fused])


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
    m = replay_log(lines)
    row = m.landmarks[99999][2]
    assert m._p_f[row].tolist() == (m.keyframes[2].R.T @ (
        [_CHUNK + 7.5, 1.25, -3] - m.keyframes[2].t)).tolist()


def test_replay_runs_between_keyframes_and_updates(tmp_path):
    rng = np.random.default_rng(6)
    lines = _pose_lines(rng, "KF", range(3))
    for step in range(4):
        lines += _obs_lines(rng, 30, n_kf=3 + step)
        lines += _pose_lines(rng, "UPD", range(step + 1))
        lines += _pose_lines(rng, "KF", [3 + step])
    lines += _obs_lines(rng, 30, n_kf=7)
    _assert_replays_alike(tmp_path, lines)


@pytest.mark.parametrize("newline", ["\n", "\r\n"])
def test_replay_comments_blanks_and_indents_inside_a_run(tmp_path, newline):
    rng = np.random.default_rng(7)
    run = _obs_lines(rng, 200)
    run[20] = "# a comment"
    run[40] = ""
    run[60] = "   \t "
    run[80] = "  " + run[80]
    run[100] = run[100].replace(" ", "\t", 2)
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
    assert 1000 in replay_log(lines).landmarks
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
    assert [list(r.items()) for r in many.landmarks.values()] == \
        [list(r.items()) for r in one.landmarks.values()]
    assert list(many.landmarks) == list(one.landmarks)
    assert (many.n_observations, many.n_replaced) == (one.n_observations, one.n_replaced)
    assert one.n_observations + one.n_replaced == n
    for a, b in zip(many._fuse(), one._fuse()):
        assert a.tobytes() == b.tobytes()
    # a bad row stores nothing, and the first bad row names the error
    before = many.n_observations, many.n_replaced, len(many.landmarks)
    with pytest.raises(UnknownKeyframe, match="keyframe 9 "):
        many.add_observations([1000, 1001, 1002], [0, 9, 1], np.zeros((3, 3)),
                              [0.5, 0.5, 2.0], np.zeros((3, 3)))
    with pytest.raises(InvalidQuality, match="quality 2.0 "):
        many.add_observations([1000, 1001, 1002], [0, 1, 1], np.zeros((3, 3)),
                              [0.5, 2.0, np.nan], np.zeros((3, 3)))
    assert (many.n_observations, many.n_replaced, len(many.landmarks)) == before
