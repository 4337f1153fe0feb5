import importlib.util
import json
from pathlib import Path

from scootpriv import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_checks():
    # read-only import of the benchmark's output checks, by file path
    spec = importlib.util.spec_from_file_location("perfbench_checks", PERFBENCH / "checks.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_evaluate_report_passes_the_sweep_check(tmp_path):
    # the sweep workload's fleet and regions at a fifth of its scooters:
    # the report must keep its float columns and its all-zero R = 0 row
    fleet = json.loads((PERFBENCH / "fixtures" / "sweep_fleet.json").read_text())
    fleet.update(n_scooters=200, seed=3)
    config = tmp_path / "fleet.json"
    config.write_text(json.dumps(fleet))
    archive, report = tmp_path / "archive.jsonl", tmp_path / "report.csv"
    assert cli.main(["synth", "--config", str(config), "--output", str(archive)]) == 0
    r_grid = "0:1:0.05"
    assert cli.main([
        "evaluate", "--store", str(archive),
        "--boundary", str(PERFBENCH / "fixtures" / "city.geojson"),
        "--neighborhoods", str(PERFBENCH / "fixtures" / "tiles.geojson"),
        "--r-grid", r_grid, "--trials", "10", "--seed", "3", "--output", str(report),
    ]) == 0
    result = _load_checks().check_sweep(report, cli.parse_r_grid(r_grid))
    assert result["ok"], result["reason"]
