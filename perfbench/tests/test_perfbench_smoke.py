"""Smoke test of the benchmark at tiny sizes: output contract and exact counts.

Run with ``python3 -m pytest perfbench/tests`` from the root of a checkout.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
TINY = ["--seconds", "0.5", "--size", "32", "--pairs", "2", "--max-iters", "3"]


def run(workload, trace, cwd=ROOT):
    proc = subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", "7", "--trace", str(trace), *TINY],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    return proc


def result(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["failed"] == 0 and out["attempted"] >= 2
    return out


def declared(kind):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("workload,channels", [("recovery112", 5), ("weak64", 5), ("batch_cli", 1)])
def test_sampler_calls_per_loss_evaluation(workload, channels):
    """One sampler call for the image plus one per one-hot channel (K = 4)
    when labels are supplied; the unsupervised cli batch samples only the image."""
    out = result(workload, trace=1)
    m = {k: v["value"] for k, v in out["metrics"].items()}
    assert m["solver.loss_evals"] > 0
    assert m["image.sample_calls"] == channels * m["solver.loss_evals"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("per_layer")


def test_end_to_end_metrics_match_declaration():
    out = result("recovery112", trace=0)
    assert out["correct"] is True
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared("end_to_end")
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and prints no result."""
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run("recovery112", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
