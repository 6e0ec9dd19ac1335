"""The four benchmark workloads: seeded input generation, the job each child
runs, and the checks of its outputs against the generated truth.

Inputs are written with the toolkit's own fixture writers (MP4/GPMF, PLY,
TUM) and noise simulator; the checks use only numpy and this file, so a
defect in the code under test cannot hide itself from them.
"""

import json
import math
from pathlib import Path

import numpy as np

WORKLOADS = ("ingest", "map-replay", "map-closure", "evaluate")

SIZES = {
    "full": {
        # 600 payloads of 1.01 s is the shortest recording `allan` accepts
        "ingest": dict(payloads=600, imu_per_payload=202, shut_per_payload=30),
        "map-replay": dict(keyframes=500, landmarks=6250, views=4, repeats=4),
        "map-closure": dict(keyframes=500, landmarks=4000, views=4,
                            closures=12, sampled=32),
        # 31 % overlap: low enough that RANSAC runs thousands of hypotheses
        "evaluate": dict(scene_points=16_000, source_x_max=3.9, target_x_min=2.7,
                         voxel=0.1, poses=20_000, tags=50, detections_per_tag=40),
    },
    "toy": {
        "ingest": dict(payloads=600, imu_per_payload=50, shut_per_payload=2),
        "map-replay": dict(keyframes=20, landmarks=100, views=4, repeats=2),
        "map-closure": dict(keyframes=20, landmarks=100, views=4,
                            closures=2, sampled=8),
        "evaluate": dict(scene_points=3000, source_x_max=4.8, target_x_min=1.2,
                         voxel=0.3, poses=500, tags=5, detections_per_tag=10),
    },
}

# ingest: simulated sensor noise (white density, rate random walk) and the
# Allan fit windows that recover both from a 10-minute recording
ACCEL_NOISE = (2e-3, 1e-3)
GYRO_NOISE = (1e-3, 5e-4)
ACCEL_SCALE, GYRO_SCALE = 418, 939
PAYLOAD_TICKS = 1010          # 1.01 s per payload at timescale 1000
WHITE_WINDOW_MAX = "0.2"
WALK_WINDOW_MIN = "10"

# evaluate: low-overlap registration pair, trajectory and tag noise. The pair
# and register's --seed (its RANSAC stream) are the same for every workload
# seed: ICP and RANSAC iteration counts swing with both (single jobs spread
# 30 % over 10 scene seeds, 13 % over 8 RANSAC seeds on one scene), which
# would drown run-to-run comparisons on top of the machine's own noise.
SCENE_SEED = REGISTER_SEED = 0
SCENE_EXTENT = 6.0
SCENE_NOISE = 0.01
OFFSET_DEG, OFFSET_T = 30.0, (2.0, 0.0, 0.0)
POSE_DT, STAMP_JITTER = 0.05, 0.004
ATE_SIGMA, TAG_SIGMA = 0.05, 0.05

TOLERANCE = dict(sigma_w_rel=0.10, white_slope=0.05, sigma_b_factor=2.0,
                 replay_rel=1e-6, closure_rel=1e-12, rot_deg=0.5,
                 trans_m=0.02, fitness=0.1, ate_rel=0.10, tags_rel=0.15)


def _rng(seed, workload):
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _write(path, text):
    with open(path, "w") as f:
        f.write(text)


def save_arrays(directory, **arrays):
    """One .npy per array: unlike .npz, the bytes carry no timestamp."""
    Path(directory).mkdir()
    for name, array in arrays.items():
        np.save(Path(directory) / f"{name}.npy", array)


def load_arrays(directory):
    return {p.stem: np.load(p) for p in Path(directory).glob("*.npy")}


# --- small independent geometry ---------------------------------------------

def quat_matrices(q):
    """Rotation matrices (n, 3, 3) of quaternions (n, 4) stored (x, y, z, w)."""
    q = q / np.linalg.norm(q, axis=1, keepdims=True)
    x, y, z, w = q.T
    return np.stack([
        np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - z * w), 2 * (x * z + y * w)], -1),
        np.stack([2 * (x * y + z * w), 1 - 2 * (x * x + z * z), 2 * (y * z - x * w)], -1),
        np.stack([2 * (x * z - y * w), 2 * (y * z + x * w), 1 - 2 * (x * x + y * y)], -1),
    ], axis=1)


def _yaw_quats(yaw):
    return np.column_stack([np.zeros_like(yaw), np.zeros_like(yaw),
                            np.sin(yaw / 2), np.cos(yaw / 2)])


def _rot_z(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), -math.sin(a), 0.0],
                     [math.sin(a), math.cos(a), 0.0], [0.0, 0.0, 1.0]])


def _random_poses(rng, n):
    q = rng.standard_normal((n, 4))
    return q / np.linalg.norm(q, axis=1, keepdims=True), rng.normal(size=(n, 3)) * 5


def _perturbed(rng, q, t):
    """A pose-graph correction: every keyframe moved and turned slightly."""
    q = q + rng.normal(size=q.shape) * 0.02
    return q / np.linalg.norm(q, axis=1, keepdims=True), t + rng.normal(size=t.shape) * 0.2


def _observations(rng, size):
    """Landmarks, each seen from `views` distinct keyframes: (lm, kf) pairs."""
    n_lm, n_kf, views = size["landmarks"], size["keyframes"], size["views"]
    kf = np.argsort(rng.random((n_lm, n_kf)), axis=1)[:, :views].reshape(-1)
    lm = np.repeat(np.arange(n_lm), views)
    centers = rng.uniform(-20, 20, size=(n_lm, 3))
    return lm, kf, centers


def fused_means(lm, kf, p_w, quality, q0, t0, q1, t1, n_landmarks):
    """Brute-force quality-weighted world means: each observation cached in
    its keyframe's frame under poses (q0, t0), then moved to poses (q1, t1)."""
    r0, r1 = quat_matrices(q0)[kf], quat_matrices(q1)[kf]
    p_f = np.einsum("nji,nj->ni", r0, p_w - t0[kf])
    world = np.einsum("nij,nj->ni", r1, p_f) + t1[kf]
    num = np.zeros((n_landmarks, 3))
    np.add.at(num, lm, world * quality[:, None])
    den = np.bincount(lm, weights=quality, minlength=n_landmarks)
    return num / den[:, None]


def read_ply_vertices(path):
    """Vertex records of a binary little-endian PLY, read without uwvio."""
    types = {"float": "<f4", "uchar": "u1", "double": "<f8", "int": "<i4"}
    with open(path, "rb") as f:
        fields, count = [], 0
        for line in iter(f.readline, b""):
            tokens = line.decode("ascii").split()
            if tokens[:2] == ["element", "vertex"]:
                count = int(tokens[2])
            elif tokens and tokens[0] == "property":
                fields.append((tokens[2], types[tokens[1]]))
            elif tokens == ["end_header"]:
                break
        return np.frombuffer(f.read(), dtype=np.dtype(fields), count=count)


# --- generation -------------------------------------------------------------

def generate(workload, seed, size, work_dir):
    """Write the inputs into ``work_dir``; returns their spec: the child's job,
    the truth its outputs are checked against, and the input sizes."""
    work_dir = Path(work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, workload)
    size = SIZES[size][workload]
    spec = {"workload": workload, "seed": seed, "dir": str(work_dir)}
    spec.update(_GENERATORS[workload](rng, size, work_dir, seed))
    return spec


def _cli(seed, out_dir, *argv):
    return ["--out-dir", str(out_dir), "--seed", str(seed), "-q", *argv]


def _gen_ingest(rng, size, work_dir, seed):
    from uwvio import allan, fixtures, mp4
    n_pay, per = size["payloads"], size["imu_per_payload"]
    rate = per / (PAYLOAD_TICKS / 1000)
    n = n_pay * per
    seeds = rng.integers(0, 2**31, size=2)
    accel = allan.simulate_imu_noise(*ACCEL_NOISE, rate, n / rate, int(seeds[0]), axes=3)
    gyro = allan.simulate_imu_noise(*GYRO_NOISE, rate, n / rate, int(seeds[1]), axes=3)
    accel[:, 0] += 9.81      # gravity on device channel 0 (z in zxy order)
    accel_raw = np.rint(accel * ACCEL_SCALE).astype(np.int64)
    gyro_raw = np.rint(gyro * GYRO_SCALE).astype(np.int64)
    shutter = np.full(size["shut_per_payload"], 1 / 240, dtype=np.float32)
    payloads = [fixtures.gpmf_payload(accel_raw=accel_raw[i * per:(i + 1) * per],
                                      gyro_raw=gyro_raw[i * per:(i + 1) * per],
                                      shutter=shutter,
                                      accel_scale=ACCEL_SCALE, gyro_scale=GYRO_SCALE)
                for i in range(n_pay)]
    recording = work_dir / "recording.mp4"
    mp4.write_fixture_mp4(recording, payloads, durations=[PAYLOAD_TICKS] * n_pay)
    out = work_dir / "out"
    allan_args = ["--white-window-max", WHITE_WINDOW_MAX,
                  "--walk-window-min", WALK_WINDOW_MIN]
    return {
        "job": {"kind": "cli", "out": str(out), "argv": [
            _cli(seed, out, "extract", str(recording)),
            _cli(seed, out, "allan", str(out / "imu.csv"), "--sensor", "accel", *allan_args),
            _cli(seed, out, "allan", str(out / "imu.csv"), "--sensor", "gyro", *allan_args),
        ]},
        "truth": {"payloads": n_pay, "rows": n, "frames": n_pay * size["shut_per_payload"],
                  "accel": ACCEL_NOISE, "gyro": GYRO_NOISE},
        "sizes": {"payloads": n_pay, "imu_rows": n,
                  "frames": n_pay * size["shut_per_payload"],
                  "mp4_bytes": recording.stat().st_size},
    }


def _pose_lines(tag, q, t):
    return [f"{tag} {k} {a!r} {b!r} {c!r} {x!r} {y!r} {z!r} {w!r}"
            for k, ((a, b, c), (x, y, z, w)) in enumerate(zip(t.tolist(), q.tolist()))]


def _gen_map_replay(rng, size, work_dir, seed):
    q0, t0 = _random_poses(rng, size["keyframes"])
    lm, kf, centers = _observations(rng, size)
    n_pairs, reps = len(lm), size["repeats"]
    # every (landmark, keyframe) pair is observed `repeats` times; the map
    # keeps the last observation of each pair
    p_w = centers[np.tile(lm, reps)] + rng.normal(size=(n_pairs * reps, 3)) * 0.05
    quality = rng.uniform(0.1, 1.0, n_pairs * reps)
    color = rng.integers(0, 256, size=(n_pairs * reps, 3))
    pixel = rng.integers(0, 1920, size=(n_pairs * reps, 2))
    q1, t1 = _perturbed(rng, q0, t0)
    lines = _pose_lines("KF", q0, t0)
    lines += [f"OBS {a} {b} {x!r} {y!r} {z!r} {q!r} {r} {g} {bl} {u} {v}"
              for a, b, (x, y, z), q, (r, g, bl), (u, v) in zip(
                  np.tile(lm, reps).tolist(), np.tile(kf, reps).tolist(),
                  p_w.tolist(), quality.tolist(), color.tolist(), pixel.tolist())]
    lines += _pose_lines("UPD", q1, t1)
    log = work_dir / "events.txt"
    _write(log, "\n".join(lines) + "\n")
    last = slice(n_pairs * (reps - 1), None)
    save_arrays(work_dir / "truth", lm=lm, kf=kf, p_w=p_w[last],
                quality=quality[last], q0=q0, t0=t0, q1=q1, t1=t1)
    out = work_dir / "out"
    return {
        "job": {"kind": "cli", "out": str(out),
                "argv": [_cli(seed, out, "map", str(log))]},
        "truth": {"landmarks": size["landmarks"], "arrays": str(work_dir / "truth")},
        "sizes": {"keyframes": size["keyframes"], "landmarks": size["landmarks"],
                  "log_lines": len(lines), "observations_added": n_pairs * reps,
                  "observations": n_pairs},
    }


def _gen_map_closure(rng, size, work_dir, seed):
    q0, t0 = _random_poses(rng, size["keyframes"])
    lm, kf, centers = _observations(rng, size)
    p_w = centers[lm] + rng.normal(size=(len(lm), 3)) * 0.05
    quality = rng.uniform(0.1, 1.0, len(lm))
    color = rng.integers(0, 256, size=(len(lm), 3))
    closures = [_perturbed(rng, q0, t0) for _ in range(size["closures"])]
    sampled = np.sort(rng.choice(size["landmarks"], size["sampled"], replace=False))
    inputs = work_dir / "map"
    save_arrays(inputs, lm=lm, kf=kf, p_w=p_w, quality=quality, color=color,
                q0=q0, t0=t0, cq=np.array([c[0] for c in closures]),
                ct=np.array([c[1] for c in closures]), sampled=sampled)
    out = work_dir / "out"
    return {
        "job": {"kind": "closure", "out": str(out), "inputs": str(inputs)},
        "truth": {"landmarks": size["landmarks"], "arrays": str(inputs)},
        "sizes": {"keyframes": size["keyframes"], "landmarks": size["landmarks"],
                  "observations": len(lm), "closures": size["closures"]},
    }


def _gen_evaluate(rng, size, work_dir, seed):
    from uwvio import fixtures, ply
    scene = fixtures.structured_scene(n_points=size["scene_points"],
                                      extent=SCENE_EXTENT, seed=SCENE_SEED)
    src_w = scene[scene[:, 0] <= size["source_x_max"]]
    tgt_w = scene[scene[:, 0] >= size["target_x_min"]]
    rot, off = _rot_z(OFFSET_DEG), np.array(OFFSET_T)
    noise = np.random.default_rng(SCENE_SEED)
    source = (src_w - off) @ rot + noise.normal(size=src_w.shape) * SCENE_NOISE
    target = tgt_w + noise.normal(size=tgt_w.shape) * SCENE_NOISE
    ply.write_ply(work_dir / "source.ply", source)
    ply.write_ply(work_dir / "target.ply", target)

    # reference: a 20 Hz figure-eight with heading yaw; estimate: the same
    # poses with jittered stamps and 5 cm noise, seen through a Sim(3) offset
    n = size["poses"]
    t = np.arange(n) * POSE_DT
    w = 2 * np.pi / (n * POSE_DT)
    pos = np.column_stack([20 * np.sin(w * t), 10 * np.sin(2 * w * t),
                           -5 + np.sin(3 * w * t)])
    yaw = np.arctan2(20 * w * np.cos(2 * w * t), 20 * w * np.cos(w * t))
    quats = _yaw_quats(yaw)
    s, rq = rng.uniform(0.7, 1.3), rng.standard_normal((1, 4))
    r_off, t_off = quat_matrices(rq)[0], rng.normal(size=3) * 10
    noisy = pos + rng.normal(size=pos.shape) * ATE_SIGMA
    est = (noisy - t_off) @ r_off / s
    t_est = t + rng.uniform(-STAMP_JITTER, STAMP_JITTER, n)
    _write_tum(work_dir / "ref.txt", t, pos, quats)
    _write_tum(work_dir / "est.txt", t_est, est, quats)

    # tags seen at pose stamps, so no interpolation enters the truth
    n_tags, per_tag = size["tags"], size["detections_per_tag"]
    tags = rng.uniform(-15, 15, size=(n_tags, 3))
    rows = []
    for tag in range(n_tags):
        idx = rng.choice(n, per_tag, replace=False)
        world = tags[tag] + rng.normal(size=(per_tag, 3)) * TAG_SIGMA
        r = quat_matrices(quats[idx])
        p_cm = np.einsum("nji,nj->ni", r, world - pos[idx])
        rows += [f"{t[i]:.9f},{tag},{x!r},{y!r},{z!r}"
                 for i, (x, y, z) in zip(idx.tolist(), p_cm.tolist())]
    _write(work_dir / "tags.csv", "t,tag_id,px,py,pz\n" + "\n".join(rows) + "\n")

    out = work_dir / "out"
    d = work_dir
    return {
        "job": {"kind": "cli", "out": str(out), "argv": [
            _cli(REGISTER_SEED, out, "register", str(d / "source.ply"),
                 str(d / "target.ply"), "--voxel", str(size["voxel"])),
            _cli(seed, out, "eval-ate", str(d / "est.txt"), str(d / "ref.txt")),
            _cli(seed, out, "eval-tags", str(d / "ref.txt"), str(d / "tags.csv")),
        ]},
        "truth": {"rotation": rot.tolist(), "translation": list(OFFSET_T),
                  "overlap": float(np.mean(src_w[:, 0] >= size["target_x_min"])),
                  "poses": n,
                  "ate": ATE_SIGMA * math.sqrt(3),
                  "tag_error": TAG_SIGMA * math.sqrt(1 - 1 / per_tag)
                  * 2 * math.sqrt(2 / math.pi)},
        "sizes": {"source_points": len(source), "target_points": len(target),
                  "poses": n, "detections": n_tags * per_tag},
    }


def _write_tum(path, t, pos, quats):
    lines = [f"{ti:.9f} {x!r} {y!r} {z!r} {qx!r} {qy!r} {qz!r} {qw!r}"
             for ti, (x, y, z), (qx, qy, qz, qw) in zip(t.tolist(), pos.tolist(),
                                                        quats.tolist())]
    _write(path, "\n".join(lines) + "\n")


_GENERATORS = {"ingest": _gen_ingest, "map-replay": _gen_map_replay,
               "map-closure": _gen_map_closure, "evaluate": _gen_evaluate}


# --- checks -----------------------------------------------------------------

def check(spec, child_result):
    """List of failed checks (empty when every output is within tolerance)."""
    out = Path(spec["job"]["out"])
    try:
        return _CHECKS[spec["workload"]](spec["truth"], out, child_result)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {exc!r}"]


def _report(out, name):
    return json.loads((out / name).read_text())


def _count_rows(path):
    with open(path, "rb") as f:
        return f.read().count(b"\n") - 1     # minus the header line


def _check_ingest(truth, out, _):
    tol, bad = TOLERANCE, []
    rep = _report(out, "extract_report.json")
    counts = {"payloads": rep["payloads"], "rows": rep["imu_samples"],
              "frames": rep["frames"], "imu.csv rows": _count_rows(out / "imu.csv"),
              "frames.csv rows": _count_rows(out / "frames.csv")}
    want = {"payloads": truth["payloads"], "rows": truth["rows"],
            "frames": truth["frames"], "imu.csv rows": truth["rows"],
            "frames.csv rows": truth["frames"]}
    bad += [f"{k}: {counts[k]} != {want[k]}" for k in want if counts[k] != want[k]]
    for sensor in ("accel", "gyro"):
        sigma_w, sigma_b = truth[sensor]
        rep = _report(out, f"allan_{sensor}_report.json")
        for axis, (w, slope) in enumerate(zip(rep["sigma_w"], rep["white_slope"])):
            if abs(w / sigma_w - 1) >= tol["sigma_w_rel"]:
                bad.append(f"{sensor} axis {axis}: sigma_w {w:.3e} vs {sigma_w:.3e}")
            if abs(slope + 0.5) > tol["white_slope"]:
                bad.append(f"{sensor} axis {axis}: white slope {slope:.3f}")
        ratio = rep["sigma_b_avg"] / sigma_b
        if not 1 / tol["sigma_b_factor"] <= ratio <= tol["sigma_b_factor"]:
            bad.append(f"{sensor}: sigma_b_avg {ratio:.2f} x truth")
    return bad


def _check_map_replay(truth, out, _):
    t = load_arrays(truth["arrays"])
    cloud = read_ply_vertices(out / "fused_map.ply")
    if len(cloud) != truth["landmarks"]:
        return [f"fused points {len(cloud)} != landmarks {truth['landmarks']}"]
    expected = fused_means(t["lm"], t["kf"], t["p_w"], t["quality"], t["q0"],
                           t["t0"], t["q1"], t["t1"], truth["landmarks"])
    got = np.column_stack([cloud["x"], cloud["y"], cloud["z"]]).astype(float)
    # the PLY stores float32, so compare within float32 rounding
    err = np.abs(got - expected) / np.maximum(np.abs(expected), 1.0)
    worst = float(err.max())
    return [] if worst < TOLERANCE["replay_rel"] else [f"fused point error {worst:.2e}"]


def _check_map_closure(truth, out, child_result):
    t = load_arrays(truth["arrays"])
    snapshots = np.asarray(child_result["snapshots"], dtype=float)
    if snapshots.shape != (len(t["cq"]), len(t["sampled"]), 3):
        return [f"snapshot shape {snapshots.shape}"]
    bad = []
    for c, (q1, t1) in enumerate(zip(t["cq"], t["ct"])):
        expected = fused_means(t["lm"], t["kf"], t["p_w"], t["quality"], t["q0"],
                               t["t0"], q1, t1, truth["landmarks"])[t["sampled"]]
        err = (np.linalg.norm(snapshots[c] - expected, axis=1)
               / np.maximum(np.linalg.norm(expected, axis=1), 1.0))
        if err.max() >= TOLERANCE["closure_rel"]:
            bad.append(f"closure {c}: relative error {err.max():.2e}")
    n = len(read_ply_vertices(out / "fused_map.ply"))
    if n != truth["landmarks"]:
        bad.append(f"fused points {n} != landmarks {truth['landmarks']}")
    return bad


def _check_evaluate(truth, out, _):
    tol, bad = TOLERANCE, []
    rep = _report(out, "register_report.json")
    m = np.asarray(rep["transform_row_major"], dtype=float).reshape(4, 4)
    rot_err = math.degrees(math.acos(np.clip(
        (np.trace(m[:3, :3] @ np.asarray(truth["rotation"]).T) - 1) / 2, -1, 1)))
    trans_err = float(np.linalg.norm(m[:3, 3] - truth["translation"]))
    if rot_err >= tol["rot_deg"]:
        bad.append(f"rotation error {rot_err:.3f} deg")
    if trans_err >= tol["trans_m"]:
        bad.append(f"translation error {trans_err * 100:.2f} cm")
    if abs(rep["fitness"] - truth["overlap"]) >= tol["fitness"]:
        bad.append(f"fitness {rep['fitness']:.3f} vs overlap {truth['overlap']:.3f}")
    rep = _report(out, "ate_report.json")
    if rep["n_pairs"] != truth["poses"]:
        bad.append(f"ATE pairs {rep['n_pairs']} != {truth['poses']}")
    if abs(rep["ate_rmse_m"] / truth["ate"] - 1) >= tol["ate_rel"]:
        bad.append(f"ATE {rep['ate_rmse_m']:.4f} m vs {truth['ate']:.4f} m")
    rep = _report(out, "tags_report.json")
    if rep["n_unmatched"] != 0:
        bad.append(f"{rep['n_unmatched']} unmatched tag detections")
    if abs(rep["avg_dist_error"] / truth["tag_error"] - 1) >= tol["tags_rel"]:
        bad.append(f"tag error {rep['avg_dist_error']:.4f} m vs {truth['tag_error']:.4f} m")
    return bad


_CHECKS = {"ingest": _check_ingest, "map-replay": _check_map_replay,
           "map-closure": _check_map_closure, "evaluate": _check_evaluate}
