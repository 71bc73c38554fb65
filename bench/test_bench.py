"""Smoke tests of the benchmark itself.

    python3 -m pytest bench/test_bench.py

Each run is one round (`--seconds` far below a round's length), so the
whole file takes well under a minute.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload: str, trace: int = 0, seed: int = 3, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)],
        capture_output=True, text=True, cwd=cwd, timeout=300,
    )


def documents(proc) -> tuple[dict, dict]:
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def assert_metrics(result: dict, spec_metrics: list) -> None:
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in spec_metrics}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_printed_and_counts_repeat(workload):
    doc, result = documents(bench(workload))
    again, _ = documents(bench(workload))
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert_metrics(result, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert doc["exact_counts"] == again["exact_counts"]
    assert doc["report_digest"] == again["report_digest"]
    assert doc["round0_matches_count_pass"]
    assert doc["run"]["seed"] == 3 and doc["run"]["nproc"] >= 1


def test_traced_run_prints_per_layer_metrics():
    doc, result = documents(bench("bug-hunt", trace=1))
    assert result["correct"]
    assert_metrics(result, SPEC["per_layer"])
    layers = {name: m["value"] for name, m in result["metrics"].items()}
    assert layers["generator.shrink.calls"] > 0 and layers["trace.overhead"] > 0
    assert os.path.isfile(os.path.join(ROOT, doc["span_file"]))


def test_wrong_expected_verdict_fails_the_campaign(tmp_path):
    """A campaign expected to pass fails when it reports a counterexample."""
    sys.path[:0] = [HERE, os.path.join(ROOT, "src")]
    try:
        import workloads

        prog = workloads.load_program()
        for prepared in workloads.prepare(prog, "bug-hunt"):
            first = workloads.run_campaign(prog, prepared, 11, str(tmp_path))
            assert not first.failed and not first.missed
            flipped = replace(prepared, shape=replace(prepared.shape, expect_pass=True))
            assert workloads.run_campaign(prog, flipped, 11, str(tmp_path)).failed
    finally:
        del sys.path[:2]


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("campaign-dense", cwd=str(tmp_path))
    assert proc.returncode != 0
    assert proc.stdout == ""
