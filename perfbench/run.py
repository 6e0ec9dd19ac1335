"""uwvio benchmark.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A closed loop with one client: one job at a time, each in a fresh child
process (child.py) that imports uwvio from this checkout's src/ and runs the
workload's CLI calls or GlobalMap API calls. Inputs are generated from the
seed before any job starts; after each job its outputs are checked against
the generated truth.

--trace 0 measures the named workload for S seconds and reports, as medians
over its jobs, `job_s` (job wall time, without process start-up), `setup_s`
(process start until `uwvio.cli` is imported; also sampled by children that
do nothing else) and `peak_rss_mb`.

--trace 1 runs, for every workload, one job untraced and one traced, until S
seconds have passed, and reports the per-layer metrics of tracing.py summed
over one traced job of each workload, plus the tracing overhead of each
workload. Spans go to .perfbench/spans-<workload>.npz.

The last line of stdout is the result JSON; the line before it holds the
environment stamp, sample counts, quartiles and the fail ratio, which is also
written to .perfbench/.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
JOB_TIMEOUT_S = 120
SETUP_PROBES = 8

sys.path.insert(0, str(HERE))
import tracing  # noqa: E402
import workloads  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full",
                        help="input sizes; 'toy' is for the smoke test")
    return parser.parse_args(argv)


def require_program():
    """Make this checkout's uwvio importable, or stop before measuring."""
    if not (SRC / "uwvio" / "cli.py").is_file():
        sys.exit(f"error: no uwvio sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def spawn(work, job):
    """Run child.py on `job` in `work`; returns its result with `setup_s`, or
    a dict holding only `failures`."""
    job_file, result_file = work / "job.json", work / "result.json"
    result_file.unlink(missing_ok=True)
    job_file.write_text(json.dumps(dict(job, src=str(SRC))))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with open(work / "child.err", "w+") as err:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(job_file), str(result_file)],
            stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=work)
        try:
            rc = proc.wait(timeout=JOB_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            rc = "timeout"
        err.seek(0)
        err_tail = err.read()[-2000:]
    if rc != 0 or not result_file.is_file():
        return {"failures": [f"child exited with {rc}: {err_tail.strip()}"]}
    result = json.loads(result_file.read_text())
    result["setup_s"] = result.pop("ready") - spawned
    return result


def run_job(spec, trace, tamper=None):
    """Run one job in a child process and check its outputs.

    Returns the child's measurements plus `setup_s` and the list of
    `failures`; `tamper(out_dir)` may corrupt the outputs before the check."""
    out = Path(spec["job"]["out"])
    shutil.rmtree(out, ignore_errors=True)
    result = spawn(Path(spec["dir"]), dict(
        spec["job"], trace=bool(trace),
        spans=str(OUT / f"spans-{spec['workload']}.npz")))
    if "failures" in result:
        return result
    if tamper is not None:
        tamper(out)
    result["failures"] = workloads.check(spec, result)
    return result


def _quartiles(values):
    if len(values) < 2:
        return {"n": len(values), "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def measure(workload, seed, seconds, size="full", tamper=None):
    """Untraced closed loop on one workload; returns (summary, metrics, jobs)."""
    work = OUT / "work" / f"{workload}-{os.getpid()}"
    try:
        spec = workloads.generate(workload, seed, size, work)
        jobs = []
        start = time.monotonic()
        while not jobs or time.monotonic() - start < seconds:
            jobs.append(run_job(spec, False, tamper))
        # a long job leaves few set-up samples; children that only import
        # uwvio.cli add more
        probes = [spawn(work, {"kind": "setup"}) for _ in range(SETUP_PROBES)]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    done = [j for j in jobs if "job_s" in j]
    units = {"job_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
    samples = {name: [j[name] for j in done] for name in units}
    samples["setup_s"] += [p["setup_s"] for p in probes if "setup_s" in p]
    stats = {name: _quartiles(samples[name]) for name in units} if done else {}
    metrics = {name: {"value": stats[name]["median"], "unit": unit}
               for name, unit in units.items()} if done else {}
    summary = {"sizes": spec["sizes"], "samples": stats}
    return summary, metrics, jobs


def measure_traced(seed, seconds, size="full"):
    """Untraced and traced job of every workload per round, until `seconds`
    have passed; returns (summary, per-layer metrics, jobs)."""
    work = OUT / "work" / f"trace-{os.getpid()}"
    rounds, jobs, accounting = [], [], {}
    try:
        specs = {w: workloads.generate(w, seed, size, work / w)
                 for w in workloads.WORKLOADS}
        start = time.monotonic()
        while not jobs or time.monotonic() - start < seconds:
            totals, overhead = {}, {}
            for w, spec in specs.items():
                plain, traced = run_job(spec, False), run_job(spec, True)
                jobs += [plain, traced]
                if "job_s" not in plain or "job_s" not in traced:
                    continue
                overhead[w] = traced["job_s"] - plain["job_s"]
                accounting[w] = {
                    "job_s": plain["job_s"], "traced_job_s": traced["job_s"],
                    "span_self_s": sum(s["self_s"] for s in traced["trace"]["spans"].values())}
                job = tracing.job_totals(traced["trace"], spec["sizes"], plain["cpu_s"])
                for key, value in job.items():
                    totals[key] = totals.get(key, 0) + value
            if totals:
                rounds.append((tracing.layer_metrics(totals), overhead))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {name: {"value": statistics.median(r[0][name]["value"] for r in rounds),
                      "unit": unit}
               for name, unit in tracing.PER_LAYER.items()} if rounds else {}
    for w in workloads.WORKLOADS:
        values = [r[1][w] for r in rounds if w in r[1]]
        if values:
            metrics[f"trace.{w}.overhead_s"] = {"value": statistics.median(values),
                                                "unit": "s"}
    # the last round's job times beside the summed self time of all its spans
    summary = {"sizes": {w: s["sizes"] for w, s in specs.items()},
               "rounds": len(rounds), "accounting": accounting}
    return summary, metrics, jobs


def environment(seed):
    import numpy
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or commit
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)), "seed": seed}


def main(argv=None, tamper=None):
    """Measure, print the summary and result lines; returns both."""
    args = parse_args(argv)
    require_program()
    OUT.mkdir(exist_ok=True)
    if args.trace:
        summary, metrics, jobs = measure_traced(args.seed, args.seconds, args.size)
    else:
        summary, metrics, jobs = measure(args.workload, args.seed, args.seconds,
                                         args.size, tamper)
    failed = [j["failures"] for j in jobs if j["failures"]]
    for failures in failed:
        print(f"{args.workload}: job failed: {'; '.join(failures)}", file=sys.stderr)
    summary = {"workload": args.workload, "trace": args.trace,
               "env": environment(args.seed), **summary,
               "attempted": len(jobs), "fail_ratio": len(failed) / len(jobs)}
    if not metrics:
        sys.exit("error: no job completed")
    result = {"correct": not failed, "attempted": len(jobs), "failed": len(failed),
              "metrics": metrics}
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"summary": summary, "result": result}, indent=1))
    print(json.dumps(summary))
    print(json.dumps(result))
    return summary, result


if __name__ == "__main__":
    main()
