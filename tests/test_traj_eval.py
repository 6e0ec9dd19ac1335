import numpy as np
import pytest

from uwvio.errors import (DegenerateConfiguration, InputError,
                          InsufficientDetections, NoMatches)
from uwvio.fixtures import circle_trajectory
from uwvio.geometry import (Sim3Transform, matrix_to_quat, quat_slerp,
                            quat_to_matrix, random_rotation, rotation_about_z)
from uwvio.traj_eval import (TagDetections, Trajectory, associate, ate_rmse,
                             evaluate_ate, load_tag_csv, load_tum, save_tum,
                             tag_statistics, tag_world_positions, umeyama_sim3)


def make_traj(t, pos, quats=None):
    n = len(t)
    if quats is None:
        quats = np.tile([0.0, 0.0, 0.0, 1.0], (n, 1))
    return Trajectory(t=np.asarray(t, float), positions=np.asarray(pos, float),
                      quats=quats)


def random_traj(n, seed=0):
    rng = np.random.default_rng(seed)
    t = np.cumsum(rng.uniform(0.02, 0.1, n))
    pos = rng.normal(size=(n, 3)) * 5
    quats = np.array([matrix_to_quat(random_rotation(rng)) for _ in range(n)])
    return make_traj(t, pos, quats)


# --- TUM I/O ---------------------------------------------------------------

def test_tum_round_trip(tmp_path):
    traj = random_traj(50)
    path = tmp_path / "traj.txt"
    save_tum(traj, path)
    back = load_tum(path)
    assert np.allclose(back.t, traj.t, atol=1e-9)
    assert np.allclose(back.positions, traj.positions, atol=1e-9)
    # quaternions may flip sign; compare rotations
    for qa, qb in zip(traj.quats, back.quats):
        assert np.allclose(quat_to_matrix(qa), quat_to_matrix(qb), atol=1e-6)


def test_tum_rejects_bad_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("0.0 1 2 3 0 0 0\n")
    with pytest.raises(InputError):
        load_tum(path)


def test_load_tum_matches_line_parser(tmp_path):
    rng = np.random.default_rng(13)
    rows = np.column_stack([np.cumsum(rng.uniform(0.01, 0.1, 300)),
                            rng.normal(size=(300, 7)) * 3])
    lines = [" ".join(repr(v) for v in row) for row in rows.tolist()]
    lines[10:10] = ["", "# comment", "  \t"]
    path = tmp_path / "traj.txt"
    path.write_text("\n".join(lines) + "\n")
    traj = load_tum(path)
    # the per-line parser the table reader replaced
    ref = np.array([[float(v) for v in line.split()] for line in lines
                    if line.strip() and not line.startswith("#")])
    assert np.array_equal(traj.t, ref[:, 0])
    assert np.array_equal(traj.positions, ref[:, 1:4])
    assert np.array_equal(traj.quats, np.array([q / np.linalg.norm(q) for q in ref[:, 4:]]))


@pytest.mark.parametrize("loader, text, where", [
    (load_tum, "# c\n\n0 1 2 3 0 0 0 1\n\n1 1 2 3 0 0 1\n", ":5: expected 8 fields, got 7"),
    (load_tum, "0 1 2 3 0 0 0 1 9\n", ":1: expected 8 fields, got 9"),
    (load_tag_csv, "t,tag_id,px,py,pz\n  \n0.5,3,1,2,3\n0.6,3,1,2\n",
     ":4: expected 5 fields, got 4"),
    (load_tum, "0 1 2 3 0 x 0 1\n", ":1: could not convert string 'x' to float64 in column 6"),
    (load_tum, "# c\n\n0 1 2 3 0 0 0 1\n  # c\n1 1 2 y 0 0 0 1\n",
     ":5: could not convert string 'y' to float64 in column 4"),
    (load_tag_csv, "t,tag_id,px,py,pz\n  \n0.5,3,1,2,3\n0.6,q,1,2,3\n",
     ":4: could not convert string 'q' to int64 in column 2"),
])
def test_field_count_error_names_line(tmp_path, loader, text, where):
    path = tmp_path / "table.txt"
    path.write_text(text)
    with pytest.raises(InputError, match=f"^{path}{where}$"):
        loader(path)


@pytest.mark.parametrize("line, reason", [
    ("0.2 1 2 nan 0 0 0 1", "non-finite value"),
    ("0.2 1 2 3 0 0 0 0", "zero quaternion"),
    ("0.0 1 2 3 0 0 0 1", "strictly increasing"),
])
def test_tum_rejects_bad_values(tmp_path, line, reason):
    path = tmp_path / "traj.txt"
    path.write_text(f"0.1 1 2 3 0 0 0 1\n{line}\n")
    # a bad field names its file line; a bad trajectory names only the file
    where = ":2: " if reason == "non-finite value" else ": .*"
    with pytest.raises(InputError, match=f"^{path}{where}{reason}"):
        load_tum(path)


def test_tum_quaternion_beyond_float_squares(tmp_path):
    path = tmp_path / "traj.txt"
    path.write_text("0 1 2 3 1e200 0 0 1e200\n1 1 2 3 1e-200 0 0 1e-200\n")
    r = np.sqrt(0.5)
    assert np.allclose(load_tum(path).quats, [[r, 0, 0, r]] * 2, rtol=0, atol=1e-15)


@pytest.mark.parametrize("cell", ["nan", "-inf"])
def test_tag_csv_non_finite_value_names_line(tmp_path, cell):
    path = tmp_path / "tags.csv"
    path.write_text(f"t,tag_id,px,py,pz\n# c\n0.5,3,1,2,3\n\n0.6,3,1,{cell},3\n")
    with pytest.raises(InputError, match=f"^{path}:5: non-finite value$"):
        load_tag_csv(path)


def test_non_monotonic_timestamps_rejected():
    with pytest.raises(InputError):
        make_traj([0.0, 1.0, 1.0], np.zeros((3, 3)))


# --- association -----------------------------------------------------------

def test_associate_exact_match():
    pairs = associate([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], max_dt=0.01)
    assert pairs.tolist() == [[0, 0], [1, 1], [2, 2]]


def test_associate_prefers_nearest():
    # 1.004 is closer to b[1]=1.005 than b[0]=0.995
    pairs = associate([1.004], [0.995, 1.005], max_dt=0.02)
    assert pairs.tolist() == [[0, 1]]


def test_associate_each_pose_used_once():
    pairs = associate([0.0, 0.001], [0.0008], max_dt=0.02)
    assert len(pairs) == 1
    assert pairs[0][0] == 1  # 0.001 is nearer to 0.0008 than 0.0


def test_associate_respects_max_dt():
    with pytest.raises(NoMatches):
        associate([0.0], [1.0], max_dt=0.02)


def test_associate_dense_offset():
    t_a = np.arange(100) * 0.1
    t_b = t_a + 0.003
    pairs = associate(t_a, t_b, max_dt=0.02)
    assert pairs.tolist() == [[i, i] for i in range(100)]


def _associate_loop(t_a, t_b, max_dt):
    """The per-pose greedy matcher that `associate` replaced."""
    candidates = []
    for i, ta in enumerate(t_a):
        j = int(np.searchsorted(t_b, ta))
        for jj in (j - 1, j):
            if 0 <= jj < len(t_b) and abs(ta - t_b[jj]) <= max_dt:
                candidates.append((abs(ta - t_b[jj]), i, jj))
    used_a, used_b, pairs = set(), set(), []
    for _, i, j in sorted(candidates):
        if i not in used_a and j not in used_b:
            used_a.add(i)
            used_b.add(j)
            pairs.append([i, j])
    return sorted(pairs)


def test_associate_matches_greedy_loop():
    rng = np.random.default_rng(11)
    t_a = np.unique(rng.uniform(0, 20, 400))
    # a second stamp near many of t_a makes poses compete for partners
    t_b = np.unique(np.concatenate([rng.uniform(0, 20, 300), t_a[::3] + 0.004,
                                    t_a[1::3] - 0.004]))
    pairs = associate(t_a, t_b, max_dt=0.05)
    assert pairs.shape[1] == 2
    assert pairs.tolist() == _associate_loop(t_a, t_b, 0.05)
    # whole-second stamps: many candidates tie on dt
    t_a = np.unique(rng.integers(0, 300, 100)).astype(float)
    t_b = np.unique(rng.integers(0, 300, 100)).astype(float)
    assert associate(t_a, t_b, max_dt=3).tolist() == _associate_loop(t_a, t_b, 3)


# --- Umeyama / ATE ----------------------------------------------------------

def apply_sim3(s, R, t, pts):
    return s * pts @ R.T + t


def test_umeyama_recovers_known_sim3():
    rng = np.random.default_rng(3)
    src = rng.normal(size=(40, 3)) * 2
    R = random_rotation(rng)
    s, t = 1.7, np.array([0.5, -2.0, 3.0])
    dst = apply_sim3(s, R, t, src)
    T = umeyama_sim3(src, dst)
    assert T.s == pytest.approx(s, abs=1e-12)
    assert np.allclose(T.R, R, atol=1e-12)
    assert np.allclose(T.t, t, atol=1e-12)
    assert ate_rmse(dst, src, T) < 1e-12


def test_umeyama_fix_scale():
    rng = np.random.default_rng(4)
    src = rng.normal(size=(30, 3))
    R = random_rotation(rng)
    dst = apply_sim3(2.0, R, np.zeros(3), src)
    T = umeyama_sim3(src, dst, fix_scale=True)
    assert T.s == 1.0
    assert np.allclose(T.R, R, atol=1e-9)  # rotation still recovered


def test_umeyama_reflection_guard():
    # reflected targets must still produce a proper rotation (det +1)
    rng = np.random.default_rng(5)
    src = rng.normal(size=(20, 3))
    dst = src * np.array([1, 1, -1])
    T = umeyama_sim3(src, dst)
    assert np.linalg.det(T.R) == pytest.approx(1.0, abs=1e-9)


def test_umeyama_degenerate_collinear():
    src = np.outer(np.arange(5, dtype=float), [1.0, 0, 0])
    with pytest.raises(DegenerateConfiguration):
        umeyama_sim3(src, src)


def test_umeyama_translation_equivariance():
    rng = np.random.default_rng(6)
    src = rng.normal(size=(25, 3))
    dst = rng.normal(size=(25, 3))
    T1 = umeyama_sim3(src, dst)
    shift = np.array([10.0, -5.0, 2.0])
    T2 = umeyama_sim3(src, dst + shift)
    assert T2.s == pytest.approx(T1.s, rel=1e-12)
    assert np.allclose(T2.R, T1.R, atol=1e-12)
    assert np.allclose(T2.t, T1.t + shift, atol=1e-10)


def test_umeyama_is_least_squares_optimal():
    """Perturbing the fit in any tried direction must not reduce the cost."""
    rng = np.random.default_rng(7)
    src = rng.normal(size=(30, 3))
    dst = apply_sim3(1.3, random_rotation(rng), np.ones(3), src)
    dst += rng.normal(size=dst.shape) * 0.2
    T = umeyama_sim3(src, dst)

    def cost(s, R, t):
        return np.sum((apply_sim3(s, R, t, src) - dst) ** 2)

    best = cost(T.s, T.R, T.t)
    for _ in range(50):
        ds = rng.normal() * 1e-3
        dt = rng.normal(size=3) * 1e-3
        dR = quat_to_matrix(matrix_to_quat(
            T.R @ rotation_about_z(rng.normal() * 1e-3)))
        assert cost(T.s + ds, dR, T.t + dt) >= best - 1e-12


def test_ate_known_offset():
    ref = np.zeros((10, 3))
    est = np.tile([3.0, 4.0, 0.0], (10, 1))
    assert ate_rmse(ref, est) == pytest.approx(5.0)


def test_evaluate_ate_end_to_end():
    t, pos, quats = circle_trajectory(n=100)
    ref = make_traj(t, pos, quats)
    T_true = Sim3Transform(s=1.4, R=random_rotation(np.random.default_rng(8)),
                           t=np.array([1.0, 2.0, 3.0]))
    # estimated trajectory lives in a scaled/rotated/shifted frame
    inv = T_true.inverse()
    est = make_traj(t + 0.002, inv.apply(pos), quats)
    ate, T, n_pairs = evaluate_ate(ref, est)
    assert n_pairs == 100
    assert ate < 1e-9
    assert T.s == pytest.approx(T_true.s, rel=1e-9)


# --- tag displacement -------------------------------------------------------

def test_tag_world_positions_static_camera():
    # camera fixed at origin, identity orientation: world == camera frame
    traj = make_traj([0.0, 1.0], np.zeros((2, 3)))
    dets = TagDetections(t=[0.5], tag_id=[1], p_cm=[[1.0, 2.0, 3.0]])
    by_tag, unmatched = tag_world_positions(traj, dets)
    assert not unmatched
    assert np.allclose(by_tag[1][0], [1.0, 2.0, 3.0])


def test_tag_world_positions_moving_camera():
    # camera translating along x; detection mid-segment interpolates the pose
    traj = make_traj([0.0, 1.0], [[0, 0, 0], [2.0, 0, 0]])
    dets = TagDetections(t=[0.25], tag_id=[0], p_cm=[[0.0, 1.0, 0.0]])
    by_tag, _ = tag_world_positions(traj, dets)
    assert np.allclose(by_tag[0][0], [0.5, 1.0, 0.0])


def test_tag_rotation_applied():
    q = matrix_to_quat(rotation_about_z(np.pi / 2))
    traj = Trajectory(t=np.array([0.0, 1.0]), positions=np.zeros((2, 3)),
                      quats=np.tile(q, (2, 1)))
    dets = TagDetections(t=[0.5], tag_id=[0], p_cm=[[1.0, 0.0, 0.0]])
    by_tag, _ = tag_world_positions(traj, dets)
    assert np.allclose(by_tag[0][0], [0.0, 1.0, 0.0], atol=1e-12)


def test_tag_unmatched_outside_trajectory():
    traj = make_traj([0.0, 1.0], np.zeros((2, 3)))
    dets = TagDetections(t=[5.0], tag_id=[0], p_cm=[np.zeros(3)])
    by_tag, unmatched = tag_world_positions(traj, dets)
    assert not by_tag
    assert len(unmatched) == 1


def _world_positions_loop(traj, dets, max_dt):
    """The per-detection interpolation that `tag_world_positions` replaced."""
    by_tag, unmatched = {}, []
    for t, tag, p in zip(dets.t, dets.tag_id.tolist(), dets.p_cm):
        idx = int(np.searchsorted(traj.t, t))
        if idx == 0 or idx == len(traj):
            edge = 0 if idx == 0 else len(traj) - 1
            if abs(traj.t[edge] - t) > max_dt:
                unmatched.append(t)
                continue
            pos, R = traj.positions[edge], quat_to_matrix(traj.quats[edge])
        else:
            t0, t1 = traj.t[idx - 1], traj.t[idx]
            alpha = (t - t0) / (t1 - t0)
            pos = (1 - alpha) * traj.positions[idx - 1] + alpha * traj.positions[idx]
            R = quat_to_matrix(quat_slerp(traj.quats[idx - 1], traj.quats[idx], alpha))
        by_tag.setdefault(tag, []).append(R @ p + pos)
    return {tag: np.array(pts) for tag, pts in by_tag.items()}, unmatched


def test_tag_world_positions_match_per_detection_loop():
    rng = np.random.default_rng(14)
    traj = random_traj(120, seed=14)
    t = np.concatenate([rng.uniform(traj.t[0], traj.t[-1], 400), traj.t[::7],
                        traj.t[0] - rng.uniform(0, 0.04, 20),
                        traj.t[-1] + rng.uniform(0, 0.04, 20)])
    dets = TagDetections(t=t, tag_id=rng.integers(0, 9, len(t)),
                         p_cm=rng.normal(size=(len(t), 3)) * 4)
    by_tag, unmatched = tag_world_positions(traj, dets, max_dt=0.02)
    ref, ref_unmatched = _world_positions_loop(traj, dets, 0.02)
    assert sorted(by_tag) == sorted(ref)
    for tag, pts in ref.items():
        assert np.array_equal(by_tag[tag], pts)
    assert 0 < len(unmatched) < 40
    assert unmatched.t.tolist() == ref_unmatched


def test_tag_statistics_oracle():
    pts = np.array([[0.0, 0, 0], [2.0, 0, 0], [0.0, 2, 0], [2.0, 2, 0]])
    stats = tag_statistics({3: pts})
    tag = stats.per_tag[3]
    assert tag["n"] == 4
    assert np.allclose(tag["mean"], [1.0, 1.0, 0.0])
    # sample std of [0,2,0,2] about mean 1 is sqrt(4/3)
    assert np.allclose(tag["std_xyz"], [np.sqrt(4 / 3), np.sqrt(4 / 3), 0.0])
    # every point is sqrt(2) from the mean
    assert tag["avg_dist_error"] == pytest.approx(np.sqrt(2))
    assert np.allclose(tag["quantiles"], np.sqrt(2))
    assert stats.avg_dist_error == pytest.approx(np.sqrt(2))
    assert stats.n_detections == 4


def test_tag_statistics_requires_two_detections():
    with pytest.raises(InsufficientDetections):
        tag_statistics({0: np.zeros((1, 3))})
    with pytest.raises(InsufficientDetections):
        tag_statistics({})


def test_tag_world_positions_empty_trajectory():
    traj = make_traj(np.zeros(0), np.zeros((0, 3)))
    with pytest.raises(NoMatches):
        tag_world_positions(traj, TagDetections(t=[0.5], tag_id=[1], p_cm=[[0.0, 0, 1]]))


def test_tag_csv(tmp_path):
    path = tmp_path / "tags.csv"
    path.write_text("t,tag_id,px,py,pz\n0.5,3,1.0,2.0,3.0\n0.7,3,1.1,2.1,3.1\n")
    dets = load_tag_csv(path)
    assert len(dets) == 2
    assert dets.tag_id[0] == 3
    assert dets.t[0] == 0.5
    assert np.allclose(dets.p_cm[1], [1.1, 2.1, 3.1])
