"""Smoke test of the benchmark harness itself, at tiny scale.

Runs every workload untraced and traced with every output check, and
checks that the harness refuses to run without the program's sources.
Takes about half a minute:

    python3 perfbench/smoke_test.py      # or: python3 -m pytest perfbench/smoke_test.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("attack", "publish", "sweep")


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def _check_result(proc: subprocess.CompletedProcess, metrics: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in metrics}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    return result["metrics"]


def test_untraced_reports_every_end_to_end_metric():
    bench = _bench()
    for workload in WORKLOADS:
        metrics = _check_result(_run(ROOT, workload, 0), bench["end_to_end"])
        assert all(m["value"] > 0 for m in metrics.values()), (workload, metrics)


def test_traced_reports_every_per_layer_metric():
    bench = _bench()
    dominant = {"attack": "feed_ingest", "publish": "geo_privacy", "sweep": "utility_eval"}
    for workload in WORKLOADS:
        m = {k: v["value"] for k, v in _check_result(_run(ROOT, workload, 1),
                                                    bench["per_layer"]).items()}
        layers = {k: v for k, v in m.items() if k.endswith(".self_s")
                  and not k.startswith("synth_fleet")}
        assert abs(sum(layers.values()) - m["trace.wall_s"]) < 1e-6 * m["trace.wall_s"] + 1e-9
        assert max(layers, key=layers.get) == f"{dominant[workload]}.self_s", (workload, layers)
        assert m["failed_op_ratio"] == 0.0
        if workload == "attack":
            assert m["trip_recall"] == m["trip_precision"] == 1.0


def test_refuses_to_run_without_sources():
    bare = ROOT / ".perfbench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = _run(bare, "attack", 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    for test in (test_untraced_reports_every_end_to_end_metric,
                 test_traced_reports_every_per_layer_metric,
                 test_refuses_to_run_without_sources):
        test()
        print(f"ok {test.__name__}")
