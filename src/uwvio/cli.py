"""Command-line entry point wiring the toolkit's pipelines together.

One binary with subcommands: extract, allan, map, eval-ate, eval-tags,
register, fixtures. Logging goes to stderr; data to files and stdout, so
pipelines stay clean. Every subcommand writes a machine-readable JSON
report next to its human-readable output and is deterministic for a given
seed, config, and inputs. Exit codes: 0 success, 1 computational failure,
2 input/parse error.
"""

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from . import allan as allan_mod
from . import fixtures, global_map, gpmf, mp4, ply, register, sync, traj_eval
from .errors import InputError, SeriesTooShort, UwvioError

# device channel order of ACCL/GYRO relative to the camera (x, y, z) frame;
# Hero-family firmware delivers z, x, y first
DEFAULT_AXIS_ORDER = "zxy"


def _log(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def load_config(path):
    """Simple `key: value` config file; '#' starts a comment line."""
    config = {}
    try:
        with open(path) as f:
            lines = f.readlines()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: {exc}") from None
    for line_no, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        if ":" not in text:
            raise InputError(f"{path}:{line_no}: expected 'key: value'")
        key, _, value = text.partition(":")
        config[key.strip()] = value.strip()
    return config


def _resolve(args, key, default, cast=str):
    """Flag value if given, else config value, else default."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is not None:
        return value
    if args.config_values and key in args.config_values:
        value = args.config_values[key]
        try:
            return cast(value)
        except ValueError:
            raise InputError(f"{args.config}: {key}: cannot read {value!r} "
                             f"as {cast.__name__}") from None
    return default


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(out_dir, name, payload):
    path = Path(out_dir) / name
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")
    return path


def cmd_extract(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    axis_order = _resolve(args, "axis-order", DEFAULT_AXIS_ORDER)
    with open(args.mp4_path, "rb") as f:
        tree = mp4.parse_box_tree(f)
        table = mp4.find_gpmf_track(tree, f)
        payloads = mp4.extract_payloads(table, f)
        _log(args, f"{len(payloads)} telemetry payloads, "
                   f"timescale {table.timescale}")
        streams = sync.payload_streams_from_klv(payloads, axis_order=axis_order)
    dataset = sync.build_dataset(
        streams, meta={"recording": Path(args.mp4_path).name}, axis_order=axis_order)
    for warning in dataset.meta["warnings"]:
        _log(args, f"warning: {warning}")
    imu_csv = out_dir / "imu.csv"
    frames_csv = out_dir / "frames.csv"
    manifest = out_dir / "manifest.txt"
    sync.export_imu_csv(dataset, imu_csv)
    sync.export_frames_csv(dataset, frames_csv)
    sync.export_manifest(dataset, manifest)
    summary = {
        "payloads": len(payloads),
        "imu_samples": int(dataset.meta["n_imu_samples"]),
        "imu_rate_hz": round(float(dataset.meta["imu_rate_hz"]), 3),
        "frames": int(dataset.meta["n_frames"]),
        "duration_s": round(float(dataset.meta["duration_s"]), 6),
        "axis_order": axis_order,
        "files": [imu_csv.name, frames_csv.name, manifest.name],
        "warnings": dataset.meta["warnings"],
    }
    _write_report(out_dir, "extract_report.json", summary)
    print(f"payloads: {summary['payloads']}")
    print(f"imu samples: {summary['imu_samples']} "
          f"(~{summary['imu_rate_hz']} Hz)")
    print(f"frames: {summary['frames']}")
    print(f"wrote {imu_csv}, {frames_csv}, {manifest}")
    return 0


def cmd_allan(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t, accel, gyro = sync.load_imu_csv(args.imu_csv)
    if len(t) < 2:
        raise SeriesTooShort("IMU log holds fewer than 2 samples")
    rate = 1.0 / float(np.median(np.diff(t)))
    duration = t[-1] - t[0]
    if duration < 600:
        raise SeriesTooShort(
            f"{duration:.0f} s of data; at least 10 minutes required")
    if duration < 3600:
        _log(args, f"warning: only {duration / 60:.0f} min of data; "
                   "noise fits below 1 h are unreliable")
    series = {"accel": accel, "gyro": gyro}[args.sensor]
    curve = allan_mod.allan_deviation(series, rate)
    white_hi = _resolve(args, "white-window-max", 1.0, float)
    walk_lo = _resolve(args, "walk-window-min", 100.0, float)
    params = allan_mod.fit_noise_params(
        curve, white_window=(None, white_hi), walk_window=(walk_lo, None))
    curve_csv = out_dir / f"allan_{args.sensor}.csv"
    allan_mod.export_curve_csv(curve, curve_csv)
    report = {
        "sensor": args.sensor,
        "rate_hz": round(rate, 3),
        "n_samples": curve.n_samples,
        "sigma_w": params.sigma_w,
        "sigma_b": params.sigma_b,
        "sigma_w_avg": params.sigma_w_avg,
        "sigma_b_avg": params.sigma_b_avg,
        "white_slope": params.white_slope,
        "curve_csv": curve_csv.name,
    }
    _write_report(out_dir, f"allan_{args.sensor}_report.json", report)
    print(f"sensor: {args.sensor}  rate: {rate:.2f} Hz  "
          f"samples: {curve.n_samples}")
    for i, name in enumerate("xyz"[:len(params.sigma_w)]):
        print(f"axis {name}: sigma_w={params.sigma_w[i]:.6e}  "
              f"sigma_b={params.sigma_b[i]:.6e}  "
              f"white slope={params.white_slope[i]:+.3f}")
    print(f"average: sigma_w={params.sigma_w_avg:.6e}  "
          f"sigma_b={params.sigma_b_avg:.6e}")
    print(f"wrote {curve_csv}")
    return 0


def cmd_map(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    gmap = global_map.replay_log_file(args.event_log)
    out_ply = Path(args.out_ply) if args.out_ply else out_dir / "fused_map.ply"
    count = gmap.export_fused_cloud(out_ply)
    report = {
        "keyframes": len(gmap.keyframes),
        "landmarks": len(gmap.landmarks),
        "observations": gmap.n_observations,
        "obs_lines": gmap.n_observations + gmap.n_replaced,
        "replaced": gmap.n_replaced,
        "fused_points": count,
        "ply": out_ply.name,
    }
    _write_report(out_dir, "map_report.json", report)
    print(f"keyframes: {report['keyframes']}  landmarks: {report['landmarks']}  "
          f"observations: {report['observations']}")
    print(f"wrote {count} fused points to {out_ply}")
    return 0


def cmd_eval_ate(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est = traj_eval.load_tum(args.traj_est)
    ref = traj_eval.load_tum(args.traj_ref)
    max_dt = _resolve(args, "max-dt", traj_eval.DEFAULT_MAX_DT, float)
    ate, transform, n_pairs = traj_eval.evaluate_ate(
        ref, est, max_dt=max_dt, fix_scale=(args.mode == "se3"))
    report = {
        "mode": args.mode,
        "ate_rmse_m": ate,
        "n_pairs": n_pairs,
        "scale": transform.s,
        "rotation": transform.R,
        "translation": transform.t,
    }
    _write_report(out_dir, "ate_report.json", report)
    print(f"pairs: {n_pairs}  mode: {args.mode}")
    print(f"alignment scale: {transform.s:.6f}")
    print(f"ATE RMSE: {ate:.6f} m")
    return 0


def cmd_eval_tags(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    traj = traj_eval.load_tum(args.traj)
    detections = traj_eval.load_tag_csv(args.detections_csv)
    max_dt = _resolve(args, "max-dt", traj_eval.DEFAULT_MAX_DT, float)
    by_tag, unmatched = traj_eval.tag_world_positions(traj, detections, max_dt)
    unmatched = list(zip(unmatched.t.tolist(), unmatched.tag_id.tolist()))
    for t, tag in unmatched:
        _log(args, f"warning: detection of tag {tag} at t={t:.3f} "
                   "has no trajectory pose within tolerance")
    stats = traj_eval.tag_statistics(by_tag)
    quantile_csv = out_dir / "tag_quantiles.csv"
    with open(quantile_csv, "w") as f:
        f.write("tag_id,n,min,q1,median,q3,max\n")
        for tag, s in stats.per_tag.items():
            q = s["quantiles"]
            f.write(f"{tag},{s['n']},{q[0]:.9f},{q[1]:.9f},{q[2]:.9f},"
                    f"{q[3]:.9f},{q[4]:.9f}\n")
    report = {
        "per_tag": {str(tag): {"n": s["n"],
                               "std_xyz": s["std_xyz"],
                               "avg_dist_error": s["avg_dist_error"]}
                    for tag, s in stats.per_tag.items()},
        "std_xyz": stats.std_xyz,
        "avg_dist_error": stats.avg_dist_error,
        "n_detections": stats.n_detections,
        "n_unmatched": len(unmatched),
        "unmatched": unmatched,
        "quantile_csv": quantile_csv.name,
    }
    _write_report(out_dir, "tags_report.json", report)
    print(f"{'tag':>6} {'n':>5} {'std_x':>9} {'std_y':>9} {'std_z':>9} "
          f"{'avg_dist':>9}")
    for tag, s in stats.per_tag.items():
        sx, sy, sz = s["std_xyz"]
        print(f"{tag:>6} {s['n']:>5} {sx:>9.4f} {sy:>9.4f} {sz:>9.4f} "
              f"{s['avg_dist_error']:>9.4f}")
    sx, sy, sz = stats.std_xyz
    print(f"{'all':>6} {stats.n_detections:>5} {sx:>9.4f} {sy:>9.4f} "
          f"{sz:>9.4f} {stats.avg_dist_error:>9.4f}")
    print(f"wrote {quantile_csv}")
    return 0


def cmd_register(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    voxel = _resolve(args, "voxel", register.DEFAULT_VOXEL, float)
    src = ply.read_ply(args.source_ply)
    tgt = ply.read_ply(args.target_ply)
    source = register.PointCloud(points=src["points"], colors=src.get("colors"))
    target = register.PointCloud(points=tgt["points"], colors=tgt.get("colors"))
    out = register.register_pipeline(source, target, voxel=voxel,
                                     seed=args.seed)
    res = out.result
    aligned_ply = out_dir / "aligned_source.ply"
    ply.write_ply(aligned_ply, res.transform.apply(source.points),
                  colors=source.colors)
    matrix = res.transform.matrix()
    report = {
        "voxel": voxel,
        "fitness": res.fitness,
        "inlier_rmse": res.inlier_rmse,
        "n_inliers": res.n_inliers,
        "n_putative": out.n_putative,
        "n_source_down": out.n_source_down,
        "n_target_down": out.n_target_down,
        "isolated_points": list(out.isolated_points),
        "ransac_iterations": out.coarse.iterations,
        "ransac_inliers": out.coarse.n_inliers,
        "transform_row_major": matrix.reshape(-1),
        "aligned_ply": aligned_ply.name,
    }
    _write_report(out_dir, "register_report.json", report)
    print("transform (row-major 4x4):")
    for row in matrix:
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print(f"fitness: {res.fitness:.4f}")
    print(f"inlier_rmse: {res.inlier_rmse:.4f} m")
    print(f"inliers: {res.n_inliers}")
    print(f"wrote {aligned_ply}")
    return 0


def cmd_fixtures(args):
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    mp4_path = out_dir / "fixture.mp4"
    fixtures.fixture_mp4(mp4_path, seed=args.seed)
    log_path = out_dir / "drift_loop_events.txt"
    fixtures.write_drift_loop_log(log_path, seed=args.seed)
    t, pos, quats = fixtures.circle_trajectory()
    traj_path = out_dir / "circle_traj.txt"
    traj_eval.save_tum(traj_eval.Trajectory(t=t, positions=pos, quats=quats),
                       traj_path)
    tags_path = out_dir / "tags.csv"
    rng = np.random.default_rng(args.seed)
    with open(tags_path, "w") as f:
        f.write("t,tag_id,px,py,pz\n")
        for tag in range(5):
            for k in range(6):
                ti = float(rng.uniform(t[0], t[-1]))
                p = rng.uniform(-1, 1, size=3) + [0, 0, 2.0]
                f.write(f"{ti:.6f},{tag},{p[0]:.6f},{p[1]:.6f},{p[2]:.6f}\n")
    for p in (mp4_path, log_path, traj_path, tags_path):
        print(f"wrote {p}")
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="uwvio",
        description="GoPro underwater visual-inertial toolkit")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized step (default 0)")
    parser.add_argument("--out-dir", default=".",
                        help="directory for outputs and reports")
    parser.add_argument("--config", default=None,
                        help="key: value config file; flags override it")
    parser.add_argument("-q", "--quiet", action="store_true",
                        help="suppress progress logging on stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="MP4 -> IMU CSV + frame-timestamp CSV")
    p.add_argument("mp4_path")
    p.add_argument("--axis-order", default=None,
                   help=f"device channel order of ACCL/GYRO "
                        f"(default {DEFAULT_AXIS_ORDER})")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("allan", help="Allan deviation + noise parameter fit")
    p.add_argument("imu_csv")
    p.add_argument("--sensor", choices=("accel", "gyro"), default="accel")
    p.add_argument("--white-window-max", type=float, default=None,
                   help="upper tau bound (s) of the slope -1/2 fit (default 1)")
    p.add_argument("--walk-window-min", type=float, default=None,
                   help="lower tau bound (s) of the slope +1/2 fit (default 100)")
    p.set_defaults(func=cmd_allan)

    p = sub.add_parser("map", help="replay a VIO event log into a fused PLY map")
    p.add_argument("event_log")
    p.add_argument("--out-ply", default=None)
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("eval-ate", help="ATE RMSE after Sim(3)/SE(3) alignment")
    p.add_argument("traj_est", help="estimated trajectory (TUM format)")
    p.add_argument("traj_ref", help="reference trajectory (TUM format)")
    p.add_argument("--mode", choices=("sim3", "se3"), default="sim3")
    p.add_argument("--max-dt", type=float, default=None,
                   help="association tolerance in seconds (default 0.02)")
    p.set_defaults(func=cmd_eval_ate)

    p = sub.add_parser("eval-tags", help="tag displacement statistics")
    p.add_argument("traj", help="trajectory (TUM format)")
    p.add_argument("detections_csv", help="CSV t,tag_id,px,py,pz")
    p.add_argument("--max-dt", type=float, default=None)
    p.set_defaults(func=cmd_eval_tags)

    p = sub.add_parser("register", help="global + ICP registration of two PLY maps")
    p.add_argument("source_ply")
    p.add_argument("target_ply")
    p.add_argument("--voxel", type=float, default=None,
                   help="voxel size in meters (default 0.10)")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("fixtures", help="emit synthetic test fixture files")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.config_values = load_config(args.config) if args.config else {}
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return args.func(args)
    except UwvioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
