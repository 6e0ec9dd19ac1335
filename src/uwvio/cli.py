"""Command-line entry point wiring the toolkit's pipelines together.

One binary with subcommands: extract, allan, map, eval-ate, eval-tags,
register, fixtures. Logging goes to stderr; data to files and stdout, so
pipelines stay clean. Every subcommand writes a machine-readable JSON
report, which lists the warnings the run raised, next to its human-readable
output and is deterministic for a given seed, config, and inputs. Exit
codes: 0 success, 1 computational failure, 2 input/parse error.
"""

import argparse
import json
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import allan as allan_mod
from . import global_map, mp4, ply, register, sync, traj_eval
from .errors import InputError, UwvioError

# device channel order of ACCL/GYRO relative to the camera (x, y, z) frame;
# Hero-family firmware delivers z, x, y first
DEFAULT_AXIS_ORDER = "zxy"


def _log(args, message):
    if not args.quiet:
        print(message, file=sys.stderr)


def load_config(path):
    """Simple `key: value` config file; '#' starts a comment line. A key
    that no subcommand reads is an `InputError` naming its line."""
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
        key, _, value = (part.strip() for part in text.partition(":"))
        if key not in _OPTIONS:
            raise InputError(f"{path}:{line_no}: unknown key {key!r}")
        config[key] = value
    return config


def _float(text):
    try:
        return float(text)
    except ValueError:
        return math.nan


def _positive(text):
    value = _float(text)
    if not 0 < value < math.inf:
        raise ValueError(f"expected a finite number > 0, got {text!r}")
    return value


def _non_negative(text):
    value = _float(text)
    if not 0 <= value < math.inf:
        raise ValueError(f"expected a finite number >= 0, got {text!r}")
    return value


def _axis_order(text):
    if sorted(text) != list("xyz"):
        raise ValueError(f"expected a permutation of xyz, got {text!r}")
    return text


# options that a flag or a config line can set: (default, converter); a
# converter turns the given text into the value or raises ValueError
_OPTIONS = {
    "axis-order": (DEFAULT_AXIS_ORDER, _axis_order),
    "white-window-max": (allan_mod.WHITE_WINDOW[1], _positive),
    "walk-window-min": (allan_mod.WALK_WINDOW[0], _positive),
    "max-dt": (traj_eval.DEFAULT_MAX_DT, _non_negative),
    "voxel": (register.DEFAULT_VOXEL, _positive),
}


def _resolve(args, key):
    """Value of option ``key``: its flag if given, else its config line, else
    its default. Given text that the option's converter rejects is an
    `InputError` naming the option."""
    default, convert = _OPTIONS[key]
    text, source = getattr(args, key.replace("-", "_")), f"--{key}"
    if text is None and key in args.config_values:
        text, source = args.config_values[key], f"{args.config}: {key}"
    if text is None:
        return default
    try:
        return convert(text)
    except ValueError as exc:
        raise InputError(f"{source}: {exc}") from None


def _json_default(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _write_report(out_dir, name, payload):
    with open(out_dir / name, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True, default=_json_default)
        f.write("\n")


def cmd_extract(args, out_dir):
    axis_order = _resolve(args, "axis-order")
    with open(args.mp4_path, "rb") as f:
        tree = mp4.parse_box_tree(f)
        table = mp4.find_gpmf_track(tree, f)
        payloads = mp4.extract_payloads(table, f)
        _log(args, f"{len(payloads)} telemetry payloads, "
                   f"timescale {table.timescale}")
        streams = sync.payload_streams_from_klv(payloads, axis_order=axis_order)
    dataset = sync.build_dataset(streams, meta={"recording": Path(args.mp4_path).name})
    imu_csv = out_dir / "imu.csv"
    frames_csv = out_dir / "frames.csv"
    manifest = out_dir / "manifest.txt"
    sidecar = sync.export_imu_csv(dataset, imu_csv)
    sync.export_frames_csv(dataset, frames_csv)
    sync.export_manifest(dataset, manifest)
    written = [p for p in (imu_csv, sidecar, frames_csv, manifest) if p]
    summary = {
        "payloads": len(payloads),
        "imu_samples": int(dataset.meta["n_imu_samples"]),
        "imu_rate_hz": round(float(dataset.meta["imu_rate_hz"]), 3),
        "frames": int(dataset.meta["n_frames"]),
        "duration_s": round(float(dataset.meta["duration_s"]), 6),
        "axis_order": axis_order,
        "files": [p.name for p in written],
    }
    print(f"payloads: {summary['payloads']}")
    print(f"imu samples: {summary['imu_samples']} "
          f"(~{summary['imu_rate_hz']} Hz)")
    print(f"frames: {summary['frames']}")
    print(f"wrote {', '.join(map(str, written))}")
    return "extract_report.json", summary


def cmd_allan(args, out_dir):
    white_hi = _resolve(args, "white-window-max")
    walk_lo = _resolve(args, "walk-window-min")
    t, series, source = sync.load_imu_csv(args.imu_csv, args.sensor)
    if len(t) < 2:
        raise UwvioError("IMU log holds fewer than 2 samples")
    rate = 1.0 / float(np.median(np.diff(t)))
    duration = t[-1] - t[0]
    if duration < 600:
        raise UwvioError(
            f"{duration:.0f} s of data; at least 10 minutes required")
    if duration < 3600:
        warnings.warn(f"only {duration / 60:.0f} min of data; "
                      "noise fits below 1 h are unreliable")
    curve = allan_mod.allan_deviation(series, rate)
    params = allan_mod.fit_noise_params(
        curve, white_window=(None, white_hi), walk_window=(walk_lo, None))
    curve_csv = out_dir / f"allan_{args.sensor}.csv"
    allan_mod.export_curve_csv(curve, curve_csv)
    report = {
        "sensor": args.sensor,
        "source": source,
        "rate_hz": round(rate, 3),
        "n_samples": curve.n_samples,
        "sigma_w": params.sigma_w,
        "sigma_b": params.sigma_b,
        "sigma_w_avg": params.sigma_w_avg,
        "sigma_b_avg": params.sigma_b_avg,
        "white_slope": params.white_slope,
        "curve_csv": curve_csv.name,
    }
    print(f"sensor: {args.sensor}  rate: {rate:.2f} Hz  "
          f"samples: {curve.n_samples}")
    for i, name in enumerate("xyz"[:len(params.sigma_w)]):
        print(f"axis {name}: sigma_w={params.sigma_w[i]:.6e}  "
              f"sigma_b={params.sigma_b[i]:.6e}  "
              f"white slope={params.white_slope[i]:+.3f}")
    print(f"average: sigma_w={params.sigma_w_avg:.6e}  "
          f"sigma_b={params.sigma_b_avg:.6e}")
    print(f"wrote {curve_csv}")
    return f"allan_{args.sensor}_report.json", report


def cmd_map(args, out_dir):
    gmap = global_map.replay_log_file(args.event_log)
    out_ply = out_dir / "fused_map.ply"
    count = gmap.export_fused_cloud(out_ply)
    report = {
        "keyframes": len(gmap.keyframes),
        "landmarks": gmap.n_landmarks,
        "observations": gmap.n_observations,
        "obs_lines": gmap.n_observations + gmap.n_replaced,
        "replaced": gmap.n_replaced,
        "fused_points": count,
        "ply": out_ply.name,
    }
    print(f"keyframes: {report['keyframes']}  landmarks: {report['landmarks']}  "
          f"observations: {report['observations']}")
    print(f"wrote {count} fused points to {out_ply}")
    return "map_report.json", report


def cmd_eval_ate(args, out_dir):
    max_dt = _resolve(args, "max-dt")
    est = traj_eval.load_tum(args.traj_est)
    ref = traj_eval.load_tum(args.traj_ref)
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
    print(f"pairs: {n_pairs}  mode: {args.mode}")
    print(f"alignment scale: {transform.s:.6f}")
    print(f"ATE RMSE: {ate:.6f} m")
    return "ate_report.json", report


def cmd_eval_tags(args, out_dir):
    max_dt = _resolve(args, "max-dt")
    traj = traj_eval.load_tum(args.traj)
    detections = traj_eval.load_tag_csv(args.detections_csv)
    by_tag, unmatched = traj_eval.tag_world_positions(traj, detections, max_dt)
    unmatched = list(zip(unmatched.t.tolist(), unmatched.tag_id.tolist()))
    for t, tag in unmatched:
        warnings.warn(f"detection of tag {tag} at t={t:.3f} "
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
    return "tags_report.json", report


def cmd_register(args, out_dir):
    voxel = _resolve(args, "voxel")
    src = ply.read_ply(args.source_ply)
    tgt = ply.read_ply(args.target_ply)
    source = register.PointCloud(points=src["points"], colors=src.get("colors"))
    target = register.PointCloud(points=tgt["points"], colors=tgt.get("colors"))
    for path, cloud in ((args.source_ply, source), (args.target_ply, target)):
        try:
            register.check_voxel_grid(cloud, voxel)
        except UwvioError as exc:
            raise InputError(f"{path}: {exc}") from None
    out = register.register_pipeline(source, target, voxel=voxel,
                                     seed=args.seed)
    res = out.result
    aligned_ply = out_dir / "aligned_source.ply"
    aligned = res.transform.apply(source.points)
    try:
        ply.write_ply(aligned_ply, aligned, colors=source.colors)
    except ValueError:   # colours that do not fit uchar, such as 16-bit ones
        warnings.warn(f"{args.source_ply}: colours outside [0, 255]; "
                      f"{aligned_ply.name} written without colours")
        ply.write_ply(aligned_ply, aligned)
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
        "degenerate_normals": list(out.degenerate_normals),
        "ransac_iterations": out.coarse.iterations,
        "ransac_fits": out.coarse.fits,
        "ransac_inliers": out.coarse.n_inliers,
        "icp_iterations": out.icp.iterations,
        "icp_stop": out.icp.stop,
        "transform_row_major": matrix.reshape(-1),
        "aligned_ply": aligned_ply.name,
    }
    print("transform (row-major 4x4):")
    for row in matrix:
        print("  " + " ".join(f"{v: .6f}" for v in row))
    print(f"fitness: {res.fitness:.4f}")
    print(f"inlier_rmse: {res.inlier_rmse:.4f} m")
    print(f"inliers: {res.n_inliers}")
    print(f"wrote {aligned_ply}")
    return "register_report.json", report


def cmd_fixtures(args, out_dir):
    from . import fixtures    # no other subcommand needs it
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
    files = (mp4_path, log_path, traj_path, tags_path)
    for p in files:
        print(f"wrote {p}")
    return "fixtures_report.json", {"files": [p.name for p in files]}


def _add_option(parser, key, text):
    parser.add_argument(f"--{key}", help=f"{text} (default {_OPTIONS[key][0]})")


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
    _add_option(p, "axis-order", "device channel order of ACCL/GYRO")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("allan", help="Allan deviation + noise parameter fit")
    p.add_argument("imu_csv")
    p.add_argument("--sensor", choices=sync.IMU_SENSORS, default="accel")
    _add_option(p, "white-window-max", "upper tau bound (s) of the slope -1/2 fit")
    _add_option(p, "walk-window-min", "lower tau bound (s) of the slope +1/2 fit")
    p.set_defaults(func=cmd_allan)

    p = sub.add_parser("map", help="replay a VIO event log into a fused PLY map")
    p.add_argument("event_log")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("eval-ate", help="ATE RMSE after Sim(3)/SE(3) alignment")
    p.add_argument("traj_est", help="estimated trajectory (TUM format)")
    p.add_argument("traj_ref", help="reference trajectory (TUM format)")
    p.add_argument("--mode", choices=("sim3", "se3"), default="sim3")
    _add_option(p, "max-dt", "association tolerance in seconds")
    p.set_defaults(func=cmd_eval_ate)

    p = sub.add_parser("eval-tags", help="tag displacement statistics")
    p.add_argument("traj", help="trajectory (TUM format)")
    p.add_argument("detections_csv", help="CSV t,tag_id,px,py,pz")
    _add_option(p, "max-dt", "association tolerance in seconds")
    p.set_defaults(func=cmd_eval_tags)

    p = sub.add_parser("register", help="global + ICP registration of two PLY maps")
    p.add_argument("source_ply")
    p.add_argument("target_ply")
    _add_option(p, "voxel", "voxel size in meters")
    p.set_defaults(func=cmd_register)

    p = sub.add_parser("fixtures", help="emit synthetic test fixture files")
    p.set_defaults(func=cmd_fixtures)
    return parser


def main(argv=None):
    """Runs one subcommand: makes the output directory, writes the report the
    command returns with the warnings raised while it ran, and logs each of
    them, also when the command fails. Returns the exit code."""
    args = build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            args.config_values = load_config(args.config) if args.config else {}
            out_dir = Path(args.out_dir)
            out_dir.mkdir(parents=True, exist_ok=True)
            name, report = args.func(args, out_dir)
            report["warnings"] = [str(w.message) for w in caught]
            _write_report(out_dir, name, report)
        except (UwvioError, OSError) as exc:
            error = exc
        finally:
            for w in caught:
                _log(args, f"warning: {w.message}")
    if error is None:
        return 0
    print(f"error: {error}", file=sys.stderr)
    return error.exit_code if isinstance(error, UwvioError) else 2


if __name__ == "__main__":
    sys.exit(main())
