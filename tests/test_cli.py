import importlib
import json
import pkgutil

import numpy as np
import pytest

import uwvio
from uwvio import errors, fixtures, mp4, ply, register, sync, traj_eval
from uwvio.cli import load_config, main
from uwvio.geometry import rotation_about_z, RigidTransform


def read_json(path):
    with open(path) as f:
        return json.load(f)


def run(argv):
    return main([str(a) for a in argv])


def test_extract(tmp_path, capsys):
    mp4_path = fixtures.fixture_mp4(tmp_path / "f.mp4", n_payloads=3,
                                    accel_count=20, gyro_count=20, shut_count=4)
    out = tmp_path / "out"
    assert run(["--out-dir", out, "extract", mp4_path]) == 0
    report = read_json(out / "extract_report.json")
    assert report["payloads"] == 3
    assert report["imu_samples"] == 60
    assert report["frames"] == 12
    assert report["axis_order"] == "zxy"
    assert report["warnings"] == []
    assert (out / "imu.csv").exists()
    assert (out / "frames.csv").exists()
    assert (out / "manifest.txt").exists()
    stdout = capsys.readouterr().out
    assert "payloads: 3" in stdout


def test_extract_reports_payload_gap_warnings(tmp_path, capsys):
    # the fourth payload starts 3.03 s after the third: two payloads dropped
    payload = fixtures.gpmf_payload(accel_raw=np.ones((20, 3)), gyro_raw=np.ones((20, 3)),
                                    shutter=np.full(4, 0.01))
    path = mp4.write_fixture_mp4(tmp_path / "gap.mp4", [payload] * 5,
                                 durations=[1010, 1010, 3030, 1010, 1010])
    reports = []
    for name in ("a", "b"):
        assert run(["--out-dir", tmp_path / name, "extract", path]) == 0
        reports.append((tmp_path / name / "extract_report.json").read_bytes())
    warning = ("payload gap of 3.030s after payload 2 (nominal 1.010s); "
               "possible dropped payloads")
    assert read_json(tmp_path / "a" / "extract_report.json")["warnings"] == [warning]
    assert reports[0] == reports[1]
    assert f"warning: {warning}\n" in capsys.readouterr().err
    assert f"warning: {warning}\n" in (tmp_path / "a" / "manifest.txt").read_text()


def test_extract_zero_scal_exit_code_2(tmp_path, capsys):
    payload = fixtures.gpmf_payload(accel_raw=np.ones((20, 3)), gyro_raw=np.ones((20, 3)),
                                    shutter=np.full(4, 0.01), accel_scale=0)
    path = mp4.write_fixture_mp4(tmp_path / "zero.mp4", [payload] * 2)
    out = tmp_path / "out"
    assert run(["-q", "--out-dir", out, "extract", path]) == 2
    assert _one_error_line(capsys)
    assert not (out / "imu.csv").exists()


def test_extract_not_mp4_exit_code_2(tmp_path):
    bad = tmp_path / "bad.mp4"
    bad.write_bytes(b"this is not a movie file at all")
    assert run(["--out-dir", tmp_path, "extract", bad]) == 2


def test_extract_missing_file_exit_code_2(tmp_path):
    assert run(["--out-dir", tmp_path, "extract", tmp_path / "nope.mp4"]) == 2


SHORT_DATA = "only 12 min of data; noise fits below 1 h are unreliable"


def _write_noise_csv(path, duration=700.0, rate=20.0, seed=0):
    from uwvio.allan import simulate_imu_noise
    x = simulate_imu_noise(2e-3, 1e-4, rate, duration, seed=seed, axes=3)
    g = simulate_imu_noise(1e-3, 5e-5, rate, duration, seed=seed + 1, axes=3)
    t = np.arange(len(x)) / rate
    data = np.column_stack([t, x, g])
    np.savetxt(path, data, delimiter=",", fmt="%.9f",
               header="t,ax,ay,az,gx,gy,gz", comments="")
    return path


def test_allan_subcommand(tmp_path, capsys):
    csv = _write_noise_csv(tmp_path / "imu.csv")
    out = tmp_path / "out"
    assert run(["--out-dir", out, "allan", csv, "--sensor", "accel",
                "--walk-window-min", "30"]) == 0
    report = read_json(out / "allan_accel_report.json")
    assert report["warnings"] == [SHORT_DATA]
    assert capsys.readouterr().err == f"warning: {SHORT_DATA}\n"
    assert report["sensor"] == "accel"
    assert report["rate_hz"] == pytest.approx(20.0)
    assert report["sigma_w_avg"] == pytest.approx(2e-3, rel=0.15)
    assert (out / "allan_accel.csv").exists()
    curve = np.loadtxt(out / "allan_accel.csv", delimiter=",", skiprows=1)
    assert curve.shape[1] == 5  # tau, 3 axes, average


def test_allan_quiet_run_and_hour_long_run(tmp_path, capsys):
    short = _write_noise_csv(tmp_path / "short.csv")
    assert run(["-q", "--out-dir", tmp_path / "q", "allan", short,
                "--walk-window-min", "30"]) == 0
    assert read_json(tmp_path / "q" / "allan_accel_report.json")["warnings"] == [SHORT_DATA]
    assert capsys.readouterr().err == ""
    hour = _write_noise_csv(tmp_path / "hour.csv", duration=3601.0)
    assert run(["--out-dir", tmp_path / "h", "allan", hour]) == 0
    assert read_json(tmp_path / "h" / "allan_accel_report.json")["warnings"] == []
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("stamps", [np.zeros(10), np.repeat(np.arange(14_000) / 20.0, 2)],
                         ids=["all-zero", "each-repeated"])
def test_allan_non_increasing_timestamps_exit_code_2(tmp_path, capsys, stamps):
    csv = tmp_path / "imu.csv"
    np.savetxt(csv, np.column_stack([stamps] + [np.zeros(len(stamps))] * 6),
               delimiter=",", fmt="%.6f", header="t,ax,ay,az,gx,gy,gz", comments="")
    assert run(["--out-dir", tmp_path, "allan", csv]) == 2
    assert capsys.readouterr().err == (
        f"error: {csv}: IMU timestamps must be strictly increasing\n")


@pytest.mark.parametrize("cell, error", [("nan", "non-finite value"),
                                         ("x", "could not convert string 'x' to float64")])
@pytest.mark.parametrize("bad, other", [("accel", "gyro"), ("gyro", "accel")])
def test_allan_reads_only_its_sensor(tmp_path, capsys, bad, other, cell, error):
    csv = _write_noise_csv(tmp_path / "imu.csv")
    assert run(["-q", "--out-dir", tmp_path / "clean", "allan", csv, "--sensor", other]) == 0
    lines = csv.read_text().splitlines()
    fields = lines[5].split(",")
    col = {"accel": 3, "gyro": 6}[bad]
    fields[col - 1] = cell
    lines[5] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    # a bad cell of the other sensor is not read ...
    assert run(["-q", "--out-dir", tmp_path / "out", "allan", csv, "--sensor", other]) == 0
    for name in (f"allan_{other}.csv", f"allan_{other}_report.json"):
        assert (tmp_path / "out" / name).read_bytes() == (tmp_path / "clean" / name).read_bytes()
    capsys.readouterr()
    # ... but fails the sensor it belongs to, naming its line
    assert run(["-q", "--out-dir", tmp_path / "out", "allan", csv, "--sensor", bad]) == 2
    assert capsys.readouterr().err.startswith(f"error: {csv}:6: {error}")


def test_allan_too_short_exit_code_1(tmp_path):
    csv = tmp_path / "imu.csv"
    t = np.arange(100) / 20.0  # 5 seconds only
    data = np.column_stack([t] + [np.zeros(100)] * 6)
    np.savetxt(csv, data, delimiter=",", fmt="%.6f",
               header="t,ax,ay,az,gx,gy,gz", comments="")
    assert run(["--out-dir", tmp_path, "allan", csv]) == 1


def test_map_subcommand(tmp_path, capsys):
    log = fixtures.write_drift_loop_log(tmp_path / "events.txt",
                                        n_keyframes=10, n_landmarks=20)
    # five observations seen again replace their rows
    obs = [line for line in log.read_text().splitlines() if line.startswith("OBS")]
    with open(log, "a") as f:
        f.write("".join(line + "\n" for line in obs[:5]))
    out = tmp_path / "out"
    assert run(["--out-dir", out, "map", log]) == 0
    report = read_json(out / "map_report.json")
    assert report["keyframes"] == 10
    assert report["landmarks"] == 20
    assert report["observations"] == 80
    assert report["obs_lines"] == 85
    assert report["replaced"] == 5
    assert report["fused_points"] == 20
    assert report["ply"] == "fused_map.ply"
    assert report["warnings"] == []
    cloud = ply.read_ply(out / "fused_map.ply")
    assert len(cloud["points"]) == 20


@pytest.mark.parametrize("log", ["", "KF 0 0 0 0 0 0 0 1\n"], ids=["empty", "keyframe-only"])
def test_map_without_observations(tmp_path, log):
    path = tmp_path / "events.txt"
    path.write_text(log)
    out = tmp_path / "out"
    assert run(["-q", "--out-dir", out, "map", path]) == 0
    assert read_json(out / "map_report.json")["fused_points"] == 0
    assert ply.read_ply(out / "fused_map.ply")["points"].shape == (0, 3)


def test_map_bad_log_exit_code_2(tmp_path):
    log = tmp_path / "events.txt"
    log.write_text("KF 0 0 0 0 0 0 0 1\nNOPE\n")
    assert run(["--out-dir", tmp_path, "map", log]) == 2


@pytest.mark.parametrize("line, reason", [
    (b"KF 1 0 0 0 nan 0 0 1", "non-finite value"),
    (b"OBS 7 0 1 inf 3 0.5 0 0 0 0 0", "non-finite value"),
    (b"OBS 7 0 1 2 3 0.5 0 0 0 0 0 # caf\xe9", "can't decode byte 0xe9"),
    (b"UPD 5 0 0 0 0 0 0 1", "keyframe 5 not in map"),
], ids=["kf-nan", "obs-inf", "not-utf8", "upd-unknown"])
def test_map_bad_value_exit_code_2(tmp_path, capsys, line, reason):
    log = tmp_path / "events.txt"
    log.write_bytes(b"KF 0 0 0 0 0 0 0 1\n" + line + b"\n")
    out = tmp_path / "out"
    assert run(["-q", "--out-dir", out, "map", log]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: line 2: ") and reason in err
    assert not (out / "fused_map.ply").exists()


def test_eval_ate_subcommand(tmp_path):
    t, pos, quats = fixtures.circle_trajectory(n=100)
    ref = traj_eval.Trajectory(t=t, positions=pos, quats=quats)
    est = traj_eval.Trajectory(t=t, positions=pos * 1.5 + [1, 2, 3], quats=quats)
    ref_path, est_path = tmp_path / "ref.txt", tmp_path / "est.txt"
    traj_eval.save_tum(ref, ref_path)
    traj_eval.save_tum(est, est_path)
    out = tmp_path / "out"
    assert run(["--out-dir", out, "eval-ate", est_path, ref_path]) == 0
    report = read_json(out / "ate_report.json")
    assert report["n_pairs"] == 100
    assert report["ate_rmse_m"] < 1e-6
    assert report["scale"] == pytest.approx(1 / 1.5, rel=1e-6)
    assert report["warnings"] == []
    # SE(3) mode cannot absorb the scale difference
    assert run(["--out-dir", out, "eval-ate", est_path, ref_path,
                "--mode", "se3"]) == 0
    report = read_json(out / "ate_report.json")
    assert report["scale"] == 1.0
    assert report["ate_rmse_m"] > 0.1


def test_eval_tags_subcommand(tmp_path):
    t, pos, quats = fixtures.circle_trajectory(n=200)
    traj = traj_eval.Trajectory(t=t, positions=pos, quats=quats)
    traj_path = tmp_path / "traj.txt"
    traj_eval.save_tum(traj, traj_path)
    # noiseless detections of one static world point, seen from exact poses
    world = np.array([1.0, 2.0, 0.5])
    csv = tmp_path / "tags.csv"
    with open(csv, "w") as f:
        f.write("t,tag_id,px,py,pz\n")
        for i in range(0, 200, 10):
            R = rotation_about_z(2 * np.pi * t[i] / 60.0)
            p_cm = R.T @ (world - pos[i])
            f.write(f"{t[i]:.9f},7,{p_cm[0]:.12f},{p_cm[1]:.12f},{p_cm[2]:.12f}\n")
    out = tmp_path / "out"
    assert run(["--out-dir", out, "eval-tags", traj_path, csv]) == 0
    assert read_json(out / "tags_report.json")["warnings"] == []
    # one detection a second past the trajectory end has no pose
    with open(csv, "a") as f:
        f.write(f"{t[-1] + 1.0:.9f},7,0.0,0.0,1.0\n")
    assert run(["--out-dir", out, "eval-tags", traj_path, csv]) == 0
    report = read_json(out / "tags_report.json")
    assert report["n_detections"] == 20
    assert report["avg_dist_error"] < 1e-6  # noiseless => zero displacement
    assert report["n_unmatched"] == 1
    assert report["unmatched"] == [[pytest.approx(t[-1] + 1.0), 7]]
    assert report["warnings"] == [f"detection of tag 7 at t={t[-1] + 1.0:.3f} "
                                  "has no trajectory pose within tolerance"]
    assert (out / "tag_quantiles.csv").exists()


TUM_POSES = "0.0 0 0 0 0 0 0 1\n0.1 1 0 0 0 0 0 1\n0.2 2 0 0 0 0 0 1\n"


def test_warnings_logged_when_command_fails(tmp_path, capsys):
    traj_path, tags_path = tmp_path / "traj.txt", tmp_path / "tags.csv"
    traj_path.write_text(TUM_POSES)
    tags_path.write_text("t,tag_id,px,py,pz\n5,1,0,0,1\n")
    assert run(["--out-dir", tmp_path, "eval-tags", traj_path, tags_path]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "warning: detection of tag 1 at t=5.000 has no trajectory pose within tolerance",
        "error: no tag detection has a trajectory pose"]


def _one_error_line(capsys):
    err = capsys.readouterr().err.splitlines()
    return len(err) == 1 and err[0].startswith("error: ")


@pytest.mark.parametrize("command, traj, tags", [
    ("eval-ate", TUM_POSES + "0.3 3 0 x 0 0 0 1\n", None),
    ("eval-ate", TUM_POSES + "0.3 3 0 0 0 0 0 0\n", None),
    ("eval-ate", TUM_POSES.encode() + b"0.3 3 0 0 0 0 0 1\xff\n", None),
    ("eval-tags", TUM_POSES, "t,tag_id,px,py,pz\n0.1,x,0,0,1\n"),
    ("eval-tags", TUM_POSES, "t,tag_id,px,py,pz\n0.1,1.5,0,0,1\n"),
    ("eval-tags", TUM_POSES, b"t,tag_id,px,py,pz\n0.1,1,0,0,1\xff\n"),
], ids=["non-numeric", "zero-quaternion", "ate-0xff", "tag-id-x", "tag-id-1.5",
        "tags-0xff"])
def test_eval_malformed_input_exit_code_2(tmp_path, capsys, command, traj, tags):
    traj_path, tags_path = tmp_path / "traj.txt", tmp_path / "tags.csv"
    for path, content in ((traj_path, traj), (tags_path, tags)):
        if content is not None:
            path.write_bytes(content if isinstance(content, bytes) else content.encode())
    second = tags_path if command == "eval-tags" else traj_path
    assert run(["-q", "--out-dir", tmp_path, command, traj_path, second]) == 2
    assert _one_error_line(capsys)


def test_allan_malformed_csv_exit_code_2(tmp_path, capsys):
    csv = _write_noise_csv(tmp_path / "imu.csv")
    lines = csv.read_text().splitlines()
    lines[5] = lines[5].replace(",", ",x", 1)
    csv.write_text("\n".join(lines) + "\n")
    assert run(["-q", "--out-dir", tmp_path, "allan", csv]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_allan_non_finite_cell_exit_code_2(tmp_path, capsys, cell):
    csv = _write_noise_csv(tmp_path / "imu.csv")
    lines = csv.read_text().splitlines()
    fields = lines[5].split(",")
    fields[2] = cell
    lines[5] = ",".join(fields)
    csv.write_text("\n".join(lines) + "\n")
    assert run(["-q", "--out-dir", tmp_path, "allan", csv]) == 2
    assert capsys.readouterr().err == f"error: {csv}:6: non-finite value\n"


def test_extract_empty_streams_exit_code_2(tmp_path, capsys):
    empty = np.zeros((0, 3))
    payload = fixtures.gpmf_payload(accel_raw=empty, gyro_raw=empty, shutter=empty)
    path = mp4.write_fixture_mp4(tmp_path / "empty.mp4", [payload] * 2)
    assert run(["-q", "--out-dir", tmp_path, "extract", path]) == 2
    assert capsys.readouterr().err == (
        "error: streams never seen: ACCL, GYRO, SHUT\n")


@pytest.mark.parametrize("content", [None, b"max-dt: 0.5\xff\n"],
                         ids=["missing", "not-utf8"])
def test_unreadable_config_exit_code_2(tmp_path, capsys, content):
    cfg = tmp_path / "cfg"
    if content is not None:
        cfg.write_bytes(content)
    assert run(["--out-dir", tmp_path, "--config", cfg, "fixtures"]) == 2
    assert _one_error_line(capsys)


@pytest.mark.parametrize("lines, error", [
    ("voxle: 0\n", ":1: unknown key 'voxle'"),
    ("max-dt: 0.05\nmax_dt: -1\n", ":2: unknown key 'max_dt'"),
    ("# keys of other commands\nvoxel: 0.3\naxis-order: xyz\n", None),
], ids=["misspelt", "underscore", "other-commands"])
def test_config_keys(tmp_path, capsys, lines, error):
    fx = tmp_path / "fx"
    assert run(["-q", "--out-dir", fx, "fixtures"]) == 0
    cfg = tmp_path / "cfg"
    cfg.write_text(lines)
    code = run(["-q", "--out-dir", tmp_path / "out", "--config", cfg, "eval-tags",
                fx / "circle_traj.txt", fx / "tags.csv"])
    if error is None:
        assert code == 0
    else:
        assert code == 2
        assert capsys.readouterr().err == f"error: {cfg}{error}\n"


def test_non_numeric_config_value_exit_code_2(tmp_path, capsys):
    cfg = tmp_path / "cfg"
    cfg.write_text("voxel: abc\n")
    assert run(["--out-dir", tmp_path, "--config", cfg, "register",
                tmp_path / "src.ply", tmp_path / "tgt.ply"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "voxel" in err and "'abc'" in err


OPTION_RULES = {
    "axis-order": "a permutation of xyz",
    "white-window-max": "a finite number > 0",
    "walk-window-min": "a finite number > 0",
    "max-dt": "a finite number >= 0",
    "voxel": "a finite number > 0",
}


@pytest.mark.parametrize("source", ["flag", "config"])
@pytest.mark.parametrize("command, key, value", [
    ("extract", "axis-order", "abc"),
    ("extract", "axis-order", "xxy"),
    ("allan", "white-window-max", "0"),
    ("allan", "white-window-max", "inf"),
    ("allan", "walk-window-min", "-5"),
    ("allan", "walk-window-min", "nan"),
    ("eval-ate", "max-dt", "-1"),
    ("eval-ate", "max-dt", "nan"),
    ("eval-tags", "max-dt", "-1"),
    ("register", "voxel", "0"),
    ("register", "voxel", "-0.1"),
    ("register", "voxel", "nan"),
])
def test_bad_option_value_exit_code_2(tmp_path, capsys, source, command, key, value):
    # options are read before any input file, so the inputs need not exist
    inputs = [tmp_path / "a", tmp_path / "b"][:1 if command in ("extract", "allan") else 2]
    if source == "flag":
        argv, where = [command, *inputs, f"--{key}", value], f"--{key}"
    else:
        cfg = tmp_path / "cfg"
        cfg.write_text(f"{key}: {value}\n")
        argv, where = ["--config", cfg, command, *inputs], f"{cfg}: {key}"
    assert run(["--out-dir", tmp_path / "out", *argv]) == 2
    assert capsys.readouterr().err == (
        f"error: {where}: expected {OPTION_RULES[key]}, got {value!r}\n")


def test_register_subcommand(tmp_path):
    base = fixtures.structured_scene(n_points=8000, extent=10.0, seed=0)
    T = RigidTransform.from_matrix(rotation_about_z(0.3), np.array([1.0, 0.5, 0.1]))
    src_path, tgt_path = tmp_path / "src.ply", tmp_path / "tgt.ply"
    # one source point with no neighbor within the FPFH radius
    ply.write_ply(src_path, np.vstack([T.inverse().apply(base), [[0.0, 0.0, 12.0]]]))
    ply.write_ply(tgt_path, base)
    out = tmp_path / "out"
    assert run(["--out-dir", out, "register", src_path, tgt_path,
                "--voxel", "0.3"]) == 0
    report = read_json(out / "register_report.json")
    assert report["fitness"] > 0.9
    assert report["inlier_rmse"] < 0.1
    M = np.array(report["transform_row_major"]).reshape(4, 4)
    assert np.allclose(M[:3, :3], T.R, atol=1e-2)
    assert np.allclose(M[:3, 3], T.t, atol=0.05)
    degenerate = []
    for key, path in (("n_source_down", src_path), ("n_target_down", tgt_path)):
        cloud = register.PointCloud(points=ply.read_ply(path)["points"])
        down = register.voxel_downsample(cloud, 0.3)
        assert report[key] == len(down)
        degenerate.append(int(register.estimate_normals(down).degenerate.sum()))
    assert report["degenerate_normals"] == degenerate
    assert report["isolated_points"] == [1, 0]
    assert report["warnings"] == []
    # RANSAC ran at least the hypotheses its best consensus calls for
    n, inliers = report["n_putative"], report["ransac_inliers"]
    assert register.MIN_INLIER_RATIO * n <= inliers <= n
    needed = np.log(1 - register.RANSAC_CONFIDENCE) / np.log1p(-(inliers / n) ** 3)
    assert np.ceil(needed) <= report["ransac_iterations"] <= register.RANSAC_MAX_ITER
    assert 1 <= report["ransac_fits"] <= report["ransac_iterations"]
    assert 1 <= report["icp_iterations"] <= register.ICP_MAX_ITER
    assert report["icp_stop"] in ("tolerance", "rmse_rise", "max_iter")
    assert (out / "aligned_source.ply").exists()


def test_register_16_bit_colours_are_not_written(tmp_path):
    """Source colours that do not fit uchar leave aligned_source.ply without
    colours, and the report names the source, instead of storing them
    modulo 256."""
    base = fixtures.structured_scene(n_points=8000, extent=10.0, seed=0)
    T = RigidTransform.from_matrix(rotation_about_z(0.3), np.array([1.0, 0.5, 0.1]))
    rgb = np.random.default_rng(1).integers(256, 65536, size=(len(base), 3))
    props = [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
             ("red", "<u2"), ("green", "<u2"), ("blue", "<u2")]
    src_path, tgt_path = tmp_path / "src.ply", tmp_path / "tgt.ply"
    for path, points in ((src_path, T.inverse().apply(base)), (tgt_path, base)):
        rec = np.empty(len(points), dtype=props)
        for i, axis in enumerate("xyz"):
            rec[axis] = points[:, i]
        for i, channel in enumerate(("red", "green", "blue")):
            rec[channel] = rgb[:, i]
        header = "".join(f"property {'float' if t == '<f4' else 'ushort'} {name}\n"
                         for name, t in props)
        path.write_bytes(f"ply\nformat binary_little_endian 1.0\nelement vertex "
                         f"{len(points)}\n{header}end_header\n".encode() + rec.tobytes())
    out = tmp_path / "out"
    assert run(["-q", "--out-dir", out, "register", src_path, tgt_path, "--voxel", "0.3"]) == 0
    assert read_json(out / "register_report.json")["warnings"] == [
        f"{src_path}: colours outside [0, 255]; aligned_source.ply written without colours"]
    aligned = ply.read_ply(out / "aligned_source.ply")
    assert "colors" not in aligned and len(aligned["points"]) == len(base)


@pytest.mark.parametrize("header", [
    "format ascii 1.0\nelement vertex x\n",
    "format\nelement vertex 1\n",
    "format binary_little_endian 1.0\nelement vertex 1000000000000\n",
], ids=["count-x", "bare-format", "count-1e12"])
def test_register_malformed_ply_exit_code_2(tmp_path, capsys, header):
    bad, good = tmp_path / "bad.ply", tmp_path / "good.ply"
    bad.write_text(f"ply\n{header}property float x\nproperty float y\n"
                   "property float z\nend_header\n1 2 3\n")
    ply.write_ply(good, np.zeros((1, 3)))
    assert run(["-q", "--out-dir", tmp_path, "register", bad, good]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: ")


def _register_both_ways(tmp_path, capsys, bad_points):
    """The stderr of `register` with the bad cloud as source, then as target."""
    bad, good = tmp_path / "bad.ply", tmp_path / "good.ply"
    ply.write_ply(good, np.random.default_rng(0).uniform(-1, 1, size=(100, 3)))
    ply.write_ply(bad, bad_points)
    errs = []
    for pair in ([bad, good], [good, bad]):
        assert run(["-q", "--out-dir", tmp_path, "register", *pair, "--voxel", "0.3"]) == 2
        errs.append(capsys.readouterr().err)
    return bad, errs


def test_register_huge_coordinate_exit_code_2(tmp_path, capsys):
    # 3e38 / 0.3 has no int64 voxel index
    points = np.random.default_rng(0).uniform(-1, 1, size=(100, 3))
    points[0, 0] = 3e38
    bad, errs = _register_both_ways(tmp_path, capsys, points)
    assert errs == [f"error: {bad}: coordinate magnitude 3e+38 over voxel 0.3 "
                    "overflows an int64 cell index\n"] * 2


def test_register_empty_ply_exit_code_2(tmp_path, capsys):
    bad, errs = _register_both_ways(tmp_path, capsys, np.zeros((0, 3)))
    assert errs == [f"error: {bad}: cannot downsample an empty cloud\n"] * 2


def test_only_errors_module_defines_exceptions():
    """Every error is an `InputError` (exit 2) or a `UwvioError` (exit 1)."""
    defined = {name for info in pkgutil.iter_modules(uwvio.__path__)
               for name, obj in vars(importlib.import_module(f"uwvio.{info.name}")).items()
               if isinstance(obj, type) and issubclass(obj, BaseException)
               and obj.__module__ == f"uwvio.{info.name}"}
    assert defined == {"UwvioError", "InputError", "EventLogError"}
    assert {errors.UwvioError.exit_code, errors.InputError.exit_code} == {1, 2}


def test_fixtures_subcommand(tmp_path):
    out = tmp_path / "fx"
    assert run(["--out-dir", out, "fixtures"]) == 0
    names = ["fixture.mp4", "drift_loop_events.txt", "circle_traj.txt", "tags.csv"]
    for name in names:
        assert (out / name).exists()
    assert read_json(out / "fixtures_report.json") == {"files": names, "warnings": []}


def test_config_file_and_flag_override(tmp_path):
    cfg = tmp_path / "cfg"
    cfg.write_text("# comment\nmax-dt: 0.5\n")
    assert load_config(cfg) == {"max-dt": "0.5"}
    # config widens the association window enough to match offset stamps
    t, pos, quats = fixtures.circle_trajectory(n=50)
    ref = traj_eval.Trajectory(t=t, positions=pos, quats=quats)
    est = traj_eval.Trajectory(t=t + 0.3, positions=pos, quats=quats)
    ref_path, est_path = tmp_path / "r.txt", tmp_path / "e.txt"
    traj_eval.save_tum(ref, ref_path)
    traj_eval.save_tum(est, est_path)
    out = tmp_path / "out"
    # default 0.02 s tolerance: no matches -> error exit
    assert run(["--out-dir", out, "eval-ate", est_path, ref_path]) == 1
    assert run(["--out-dir", out, "--config", cfg,
                "eval-ate", est_path, ref_path]) == 0
    # explicit flag overrides the config back to a tight tolerance
    assert run(["--out-dir", out, "--config", cfg, "eval-ate",
                est_path, ref_path, "--max-dt", "0.01"]) == 1


def test_determinism_across_out_dirs(tmp_path):
    """Same seed and inputs produce byte-identical reports."""
    mp4_path = fixtures.fixture_mp4(tmp_path / "f.mp4", n_payloads=3,
                                    accel_count=20, gyro_count=20, shut_count=4)
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert run(["--out-dir", out, "--seed", "0", "extract", mp4_path]) == 0
        outs.append((out / "extract_report.json").read_bytes())
    assert outs[0] == outs[1]
