"""One benchmark job in a fresh interpreter.

usage: python3 child.py JOB_JSON RESULT_JSON

The first thing it does is import `uwvio.cli`; it then stamps the monotonic
clock, which all processes share, so the parent can time set-up from its own
stamp taken just before it started this process. It then runs the job, traced
if the job asks for it, and writes job time, CPU time and peak memory to
RESULT_JSON. Failures leave no RESULT_JSON and a nonzero exit code.
"""

import sys
import time

import uwvio.cli

READY = time.monotonic()

import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402


def cli_job(job):
    def run():
        for argv in job["argv"]:
            rc = uwvio.cli.main(argv)
            if rc != 0:
                sys.exit(f"uwvio {' '.join(argv)} exited with {rc}")
    return run


def closure_job(job):
    """Builds a map through the GlobalMap API, then applies each loop closure
    (one pose update for every keyframe) and exports the fused cloud.

    After each closure it keeps the fused positions of the sampled landmarks
    for the parent to check. Poses and observation arguments are prepared
    here, before the timed region."""
    from uwvio import global_map
    from uwvio.geometry import RigidTransform
    from workloads import load_arrays

    d = load_arrays(job["inputs"])
    poses = [RigidTransform(q=q, t=t) for q, t in zip(d["q0"], d["t0"])]
    observations = list(zip(d["lm"].tolist(), d["kf"].tolist(), d["p_w"],
                            d["quality"].tolist(), d["color"]))
    closures = [{k: RigidTransform(q=q, t=t) for k, (q, t) in enumerate(zip(cq, ct))}
                for cq, ct in zip(d["cq"], d["ct"])]
    sampled = d["sampled"].tolist()
    ply_path = Path(job["out"]) / "fused_map.ply"

    def run():
        gmap = global_map.GlobalMap()
        for kf, pose in enumerate(poses):
            gmap.add_keyframe(kf, pose)
        for lm, kf, p_w, quality, color in observations:
            gmap.add_observation(lm, kf, p_w, quality, color=color)
        snapshots = []
        for update in closures:
            gmap.update_keyframe_poses(update)
            gmap.export_fused_cloud(ply_path)
            snapshots.append([gmap.fuse_landmark(lm).p_w.tolist() for lm in sampled])
        return snapshots
    return run


def main():
    job_path, result_path = sys.argv[1:3]
    job = json.loads(Path(job_path).read_text())
    src = Path(job["src"]).resolve()
    if Path(uwvio.cli.__file__).resolve().parents[1] != src:
        sys.exit(f"uwvio was imported from {uwvio.cli.__file__}, not from {src}")
    if job["kind"] == "setup":
        Path(result_path).write_text(json.dumps({"ready": READY}))
        return
    Path(job["out"]).mkdir(parents=True, exist_ok=True)
    run = closure_job(job) if job["kind"] == "closure" else cli_job(job)

    tracer = None
    if job["trace"]:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()
        if job["kind"] == "closure":
            run = tracer.wrap("perfbench.closure_job", run)

    cpu0 = os.times()
    t0 = time.perf_counter()
    snapshots = run()
    job_s = time.perf_counter() - t0
    cpu1 = os.times()

    result = {
        "ready": READY,
        "job_s": job_s,
        "cpu_s": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "snapshots": snapshots,
    }
    if tracer is not None:
        result["trace"] = tracer.aggregates()
        tracer.save(job["spans"])
    Path(result_path).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
