"""Span tracing from outside the program.

`Tracer.install` replaces each layer-boundary function of uwvio (module
attributes, plus methods on `GlobalMap` and `GridIndex`) with a wrapper that
records a span: name, parent span, start and end. Spans live in flat arrays
until `save` writes them out; self time (span time minus the time of its
child spans) and call counts are kept per name as the spans close. Hooks
add counts read off the arguments and results at the same boundaries.

`layer_metrics` turns those per-job aggregates into the per-layer metrics.
"""

import importlib
import os
import time
from array import array
from collections import defaultdict

import numpy as np

# layer -> public functions (or Class.method) whose calls are spans
BOUNDARIES = {
    "mp4": ("parse_box_tree", "find_gpmf_track", "extract_payloads"),
    "gpmf": ("parse_klv", "extract_stream"),
    "sync": ("payload_streams_from_klv", "build_dataset", "export_imu_csv",
             "export_frames_csv", "export_manifest", "load_imu_csv"),
    "allan": ("allan_deviation", "fit_noise_params", "export_curve_csv"),
    "global_map": ("replay_log_file", "replay_log", "GlobalMap.add_keyframe",
                   "GlobalMap.add_observation", "GlobalMap.update_keyframe_poses",
                   "GlobalMap.fuse_landmark", "GlobalMap.fuse_all",
                   "GlobalMap.export_fused_cloud"),
    "ply": ("write_ply", "read_ply"),
    "register": ("register_pipeline", "voxel_downsample", "estimate_normals",
                 "compute_fpfh", "match_descriptors", "robust_global_registration",
                 "icp_refine", "score_registration"),
    "gridindex": ("GridIndex.__init__", "GridIndex.radius_neighbors",
                  "GridIndex.nearest_within"),
    "geometry": ("rigid_fit",),
    "traj_eval": ("load_tum", "load_tag_csv", "associate", "umeyama_sim3",
                  "ate_rmse", "evaluate_ate", "tag_world_positions",
                  "tag_statistics"),
    "cli": ("main",),
}


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _size(args, kwargs, i, name):
    return os.path.getsize(_arg(args, kwargs, i, name))


def _extract_payloads(c, args, kwargs, result, parent):
    c["mp4.payloads"] += len(result)
    c["mp4.bytes_read"] += sum(len(p.data) for p in result)


def _extract_stream(c, args, kwargs, result, parent):
    c["gpmf.streams_extracted"] += 1


def _export_imu(c, args, kwargs, result, parent):
    c["sync.csv_rows"] += len(_arg(args, kwargs, 0, "dataset").imu_t)
    c["sync.csv_bytes"] += _size(args, kwargs, 1, "path")


def _export_frames(c, args, kwargs, result, parent):
    c["sync.csv_rows"] += len(_arg(args, kwargs, 0, "dataset").frame_t)
    c["sync.csv_bytes"] += _size(args, kwargs, 1, "path")


def _allan_deviation(c, args, kwargs, result, parent):
    m = np.rint(result.taus * result.rate).astype(np.int64)
    c["allan.taus"] += len(m)
    c["allan.cluster_terms"] += int(np.sum(result.n_samples - 2 * m)) * result.adev.shape[1]


def _write_ply(c, args, kwargs, result, parent):
    c["ply.bytes_written"] += _size(args, kwargs, 0, "path")


def _read_ply(c, args, kwargs, result, parent):
    c["ply.bytes_read"] += _size(args, kwargs, 0, "path")


def _export_fused(c, args, kwargs, result, parent):
    c["global_map.landmarks_fused"] += result


def _register_pipeline(c, args, kwargs, result, parent):
    c["register.points_in"] += (len(_arg(args, kwargs, 0, "source"))
                                + len(_arg(args, kwargs, 1, "target")))
    c["register.points_down"] += result.n_source_down + result.n_target_down
    c["register.putative"] += result.n_putative
    c["register.registrations"] += 1


def _rigid_fit(c, args, kwargs, result, parent):
    if parent == "register.robust_global_registration":
        # hypotheses plus the final refit, whose input is the consensus set
        c["register.ransac_fit_calls"] += 1
        c["register.consensus_points"] = len(_arg(args, kwargs, 0, "src"))
    elif parent == "register.icp_refine":
        c["register.icp_fits"] += 1


def _radius_neighbors(c, args, kwargs, result, parent):
    if parent != "gridindex.GridIndex.nearest_within":
        c["gridindex.radius_queries"] += 1


def _nearest_within(c, args, kwargs, result, parent):
    c["gridindex.nearest_hits"] += result is not None


def _evaluate_ate(c, args, kwargs, result, parent):
    c["traj_eval.pairs"] += result[2]


HOOKS = {
    "mp4.extract_payloads": _extract_payloads,
    "gpmf.extract_stream": _extract_stream,
    "sync.export_imu_csv": _export_imu,
    "sync.export_frames_csv": _export_frames,
    "allan.allan_deviation": _allan_deviation,
    "ply.write_ply": _write_ply,
    "ply.read_ply": _read_ply,
    "global_map.GlobalMap.export_fused_cloud": _export_fused,
    "register.register_pipeline": _register_pipeline,
    "geometry.rigid_fit": _rigid_fit,
    "gridindex.GridIndex.radius_neighbors": _radius_neighbors,
    "gridindex.GridIndex.nearest_within": _nearest_within,
    "traj_eval.evaluate_ate": _evaluate_ate,
}


class Tracer:
    def __init__(self):
        self.names = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.calls = []
        self.total_s = []
        self.self_s = []
        self.counts = defaultdict(int)
        self._open = []        # [span index, name id, child seconds]

    def _name_id(self, name):
        self.names.append(name)
        self.calls.append(0)
        self.total_s.append(0.0)
        self.self_s.append(0.0)
        return len(self.names) - 1

    def wrap(self, name, fn):
        name_id = self._name_id(name)
        hook = HOOKS.get(name)
        names, opened = self.names, self._open
        clock = time.perf_counter
        counts = self.counts

        def traced(*args, **kwargs):
            index = len(self.span_start)
            parent = opened[-1] if opened else None
            self.span_name.append(name_id)
            self.span_parent.append(parent[0] if parent else -1)
            frame = [index, name_id, 0.0]
            opened.append(frame)
            start = clock()
            self.span_start.append(start)
            self.span_end.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                opened.pop()
                self.span_end[index] = end
                duration = end - start
                self.calls[name_id] += 1
                self.total_s[name_id] += duration
                self.self_s[name_id] += duration - frame[2]
                if parent:
                    parent[2] += duration
            if hook is not None:
                hook(counts, args, kwargs, result,
                     names[parent[1]] if parent else None)
            return result

        return traced

    def install(self):
        """Wrap every boundary, wherever a uwvio module holds a reference."""
        modules = {layer: importlib.import_module(f"uwvio.{layer}")
                   for layer in BOUNDARIES}
        wrapped = {}
        for layer, names in BOUNDARIES.items():
            for qualname in names:
                owner = modules[layer]
                attr = qualname
                if "." in qualname:
                    cls_name, attr = qualname.split(".")
                    owner = getattr(owner, cls_name)
                fn = owner.__dict__[attr]
                wrapper = self.wrap(f"{layer}.{qualname}", fn)
                setattr(owner, attr, wrapper)
                wrapped[id(fn)] = (fn, wrapper)
        # names imported with `from .x import f` are separate references
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def aggregates(self):
        """Per-name calls, total and self seconds, plus the hook counts."""
        return {"spans": {n: {"calls": c, "total_s": t, "self_s": s}
                          for n, c, t, s in zip(self.names, self.calls,
                                                self.total_s, self.self_s) if c},
                "counts": dict(self.counts)}

    def save(self, path):
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.int32),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))


# --- per-layer metrics -------------------------------------------------------

PER_LAYER = {
    "mp4.busy_s": "s", "mp4.payloads": "count", "mp4.bytes_read": "B",
    "gpmf.busy_s": "s", "gpmf.payloads_parsed": "count",
    "gpmf.streams_extracted": "count",
    "sync.build_s": "s", "sync.csv_write_s": "s", "sync.csv_read_s": "s",
    "sync.csv_rows": "count", "sync.csv_bytes": "B", "sync.csv_bytes_per_s": "B/s",
    "allan.avar_s": "s", "allan.fit_s": "s", "allan.export_s": "s",
    "allan.taus": "count", "allan.cluster_terms": "count",
    "allan.bytes_moved": "B", "allan.terms_per_s": "1/s",
    "global_map.replay_s": "s", "global_map.add_s": "s",
    "global_map.add_calls": "count", "global_map.replaced_ratio": "ratio",
    "global_map.update_s": "s", "global_map.fuse_s": "s",
    "global_map.observations_fused": "count", "global_map.landmarks_fused": "count",
    "ply.write_s": "s", "ply.read_s": "s", "ply.bytes_written": "B",
    "ply.bytes_read": "B",
    "register.downsample_s": "s", "register.normals_s": "s", "register.fpfh_s": "s",
    "register.match_s": "s", "register.ransac_s": "s", "register.icp_s": "s",
    "register.score_s": "s", "register.points_in": "count",
    "register.points_down": "count", "register.putative": "count",
    "register.ransac_fits": "count", "register.icp_fits": "count",
    "register.ransac_inlier_ratio": "ratio",
    "gridindex.build_s": "s", "gridindex.builds": "count",
    "gridindex.queries": "count", "gridindex.query_s": "s",
    "gridindex.hit_ratio": "ratio",
    "geometry.rigid_fit_calls": "count", "geometry.rigid_fit_s": "s",
    "traj_eval.load_s": "s", "traj_eval.associate_s": "s",
    "traj_eval.align_s": "s", "traj_eval.tags_s": "s", "traj_eval.pairs": "count",
    "cli.self_s": "s", "cli.cpu_s": "s",
}

# additive metric -> span names whose self seconds (`_s`) or calls it sums
_SELF_SUMS = {
    "mp4.busy_s": ("mp4.parse_box_tree", "mp4.find_gpmf_track", "mp4.extract_payloads"),
    "gpmf.busy_s": ("gpmf.parse_klv", "gpmf.extract_stream"),
    "sync.build_s": ("sync.payload_streams_from_klv", "sync.build_dataset"),
    "sync.csv_write_s": ("sync.export_imu_csv", "sync.export_frames_csv",
                         "sync.export_manifest"),
    "sync.csv_read_s": ("sync.load_imu_csv",),
    "allan.avar_s": ("allan.allan_deviation",),
    "allan.fit_s": ("allan.fit_noise_params",),
    "allan.export_s": ("allan.export_curve_csv",),
    "global_map.replay_s": ("global_map.replay_log_file", "global_map.replay_log"),
    "global_map.add_s": ("global_map.GlobalMap.add_keyframe",
                         "global_map.GlobalMap.add_observation"),
    "global_map.update_s": ("global_map.GlobalMap.update_keyframe_poses",),
    "global_map.fuse_s": ("global_map.GlobalMap.fuse_landmark",
                          "global_map.GlobalMap.fuse_all",
                          "global_map.GlobalMap.export_fused_cloud"),
    "ply.write_s": ("ply.write_ply",),
    "ply.read_s": ("ply.read_ply",),
    "register.downsample_s": ("register.voxel_downsample",),
    "register.normals_s": ("register.estimate_normals",),
    "register.fpfh_s": ("register.compute_fpfh",),
    "register.match_s": ("register.match_descriptors",),
    "register.ransac_s": ("register.robust_global_registration",),
    "register.icp_s": ("register.icp_refine",),
    "register.score_s": ("register.score_registration",),
    "gridindex.build_s": ("gridindex.GridIndex.__init__",),
    "gridindex.query_s": ("gridindex.GridIndex.radius_neighbors",
                          "gridindex.GridIndex.nearest_within"),
    "geometry.rigid_fit_s": ("geometry.rigid_fit",),
    "traj_eval.load_s": ("traj_eval.load_tum", "traj_eval.load_tag_csv"),
    "traj_eval.associate_s": ("traj_eval.associate",),
    "traj_eval.align_s": ("traj_eval.umeyama_sim3", "traj_eval.ate_rmse",
                          "traj_eval.evaluate_ate"),
    "traj_eval.tags_s": ("traj_eval.tag_world_positions", "traj_eval.tag_statistics"),
    "cli.self_s": ("cli.main",),
}
_CALL_SUMS = {
    "gpmf.payloads_parsed": "gpmf.parse_klv",
    "global_map.add_calls": "global_map.GlobalMap.add_observation",
    "gridindex.builds": "gridindex.GridIndex.__init__",
    "gridindex.nearest_calls": "gridindex.GridIndex.nearest_within",
    "geometry.rigid_fit_calls": "geometry.rigid_fit",
    "global_map.exports": "global_map.GlobalMap.export_fused_cloud",
}


def job_totals(aggregates, sizes, cpu_s):
    """Additive per-layer quantities of one traced job."""
    spans, counts = aggregates["spans"], aggregates["counts"]
    out = dict(counts)
    for metric, names in _SELF_SUMS.items():
        out[metric] = sum(spans[n]["self_s"] for n in names if n in spans)
    for metric, name in _CALL_SUMS.items():
        out[metric] = spans[name]["calls"] if name in spans else 0
    stored = sizes.get("observations", 0)
    out["global_map.replaced"] = out["global_map.add_calls"] - stored
    out["global_map.observations_fused"] = out["global_map.exports"] * stored
    out["cli.cpu_s"] = cpu_s
    return out


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(totals):
    """Per-layer metrics from the summed `job_totals` of one traced round."""
    t = dict.fromkeys(("register.ransac_fit_calls", "register.registrations",
                       "register.consensus_points", "gridindex.radius_queries",
                       "gridindex.nearest_hits"), 0)
    t.update(totals)
    t["sync.csv_bytes_per_s"] = _ratio(t.get("sync.csv_bytes", 0), t["sync.csv_write_s"])
    # computed, not measured: each cluster term reads three prefix sums and
    # writes, then reads back, one difference, all float64
    t["allan.bytes_moved"] = 40 * t.get("allan.cluster_terms", 0)
    t["allan.terms_per_s"] = _ratio(t.get("allan.cluster_terms", 0), t["allan.avar_s"])
    t["global_map.replaced_ratio"] = _ratio(t["global_map.replaced"],
                                            t["global_map.add_calls"])
    t["register.ransac_fits"] = t["register.ransac_fit_calls"] - t["register.registrations"]
    t["register.ransac_inlier_ratio"] = _ratio(t["register.consensus_points"],
                                               t.get("register.putative", 0))
    t["gridindex.queries"] = t["gridindex.nearest_calls"] + t["gridindex.radius_queries"]
    t["gridindex.hit_ratio"] = _ratio(t["gridindex.nearest_hits"],
                                      t["gridindex.nearest_calls"])
    return {name: {"value": t.get(name, 0), "unit": unit}
            for name, unit in PER_LAYER.items()}
