"""Toy-size smoke test of the benchmark: run with
``python -m pytest perfbench/tests`` from the repository root."""

import json
import shutil
import struct
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*argv, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *argv, "--seconds", "0", "--size", "toy"],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def _units(metrics):
    return {name: m["unit"] for name, m in metrics.items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_untraced_run_prints_every_end_to_end_metric(workload):
    proc = _bench("--workload", workload, "--seed", "3", "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_prints_every_per_layer_metric():
    proc = _bench("--workload", "evaluate", "--seed", "3", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    summary, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    assert result["correct"]
    assert _units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for workload, acc in summary["accounting"].items():
        # self times of all spans add up to the traced job time
        assert acc["span_self_s"] == pytest.approx(acc["traced_job_s"], rel=0.05), workload


def test_tampered_output_counts_as_failed():
    def tamper(out_dir):
        # move the first fused point far away
        ply = out_dir / "fused_map.ply"
        data = bytearray(ply.read_bytes())
        first_x = data.index(b"end_header\n") + len(b"end_header\n")
        data[first_x:first_x + 4] = struct.pack("<f", 1e6)
        ply.write_bytes(bytes(data))

    summary, result = run.main(["--workload", "map-replay", "--seed", "3",
                                "--seconds", "0", "--size", "toy"], tamper=tamper)
    assert summary["fail_ratio"] > 0
    assert result["failed"] == result["attempted"] and not result["correct"]


def _tree(directory):
    return {p.relative_to(directory): p.read_bytes()
            for p in sorted(Path(directory).rglob("*")) if p.is_file()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_input_bytes(workload, tmp_path):
    run.require_program()
    trees = []
    for seed, name in ((5, "a"), (5, "b"), (6, "c")):
        spec = workloads.generate(workload, seed, "toy", tmp_path / name)
        assert spec["sizes"]
        trees.append(_tree(tmp_path / name))
    assert trees[0] == trees[1]
    assert trees[0] != trees[2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench("--workload", "ingest", "--seed", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
