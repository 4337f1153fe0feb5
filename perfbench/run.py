"""scootpriv benchmark: one workload per invocation.

    python3 perfbench/run.py --workload attack --seed 1 --seconds 50 --trace 0

Workloads (synthetic fleets of 1,000 scooters over the README's LA box,
generated from ``--seed``; configs in ``fixtures/``):

  attack   4 h fleet -> reconstruct -> cluster --k 100
  publish  1 h fleet -> sanitize --radius-km 0.25 --ratio 6
  sweep    12 min fleet -> evaluate (city boundary, 10x10 tiles,
           --r-grid 0:1:0.05 --trials 25) on the last snapshot

BENCHMARK.json lists attack and sweep; publish runs by hand (README.md).

A run makes three set-ups, each a fresh interpreter that imports
scootpriv.cli and generates the archive with ``synth``; their median is
``setup_s``. It then runs the workload's CLI operation in one more fresh
interpreter, once to warm up and then repeatedly for ``--seconds`` (at
least twice), and checks the outputs. Between operations it times a
fixed reference task; ``wall_per_ref`` is the median of each
operation's wall time over the reference time around it, which cancels
the host's drift in speed. ``--trace 1`` splits the measured time
between an untraced and a traced process and reports per-layer metrics
instead, plus the tracing overhead. Every line but the last is for
people; the last line is the JSON result. See README.md for every
metric.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUPS = 3
MIN_OPS = 2
RUN_TIMEOUT_S = 170  # the whole run, all worker processes together


class HarnessError(RuntimeError):
    pass


def _child(role: str, args, work: Path, tag: str, extra: list[str], python_flags=()) -> dict:
    """Run one worker process to completion and return its result."""
    timeout = max(1.0, args.deadline - time.monotonic())
    result = work / f"{tag}.json"
    log = work / f"{tag}.log"
    cmd = [sys.executable, *python_flags, str(HERE / "worker.py"), role,
           "--workload", args.workload, "--seed", str(args.seed), "--work", str(work),
           "--result", str(result), "--scale", args.scale, *extra]
    with open(log, "w", encoding="utf-8") as out, open(work / f"{tag}.err", "w") as err:
        proc = subprocess.run(cmd, stdout=out, stderr=err, timeout=timeout)
    if proc.returncode != 0:
        tail = (work / f"{tag}.err").read_text(encoding="utf-8", errors="replace")[-2000:]
        raise HarnessError(f"{role} worker exited {proc.returncode}:\n{tail}")
    res = json.loads(result.read_text())
    res["stderr"] = (work / f"{tag}.err").read_text(encoding="utf-8", errors="replace")
    return res


def _median(values) -> float:
    return statistics.median(values)


def _tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    for p in (99, 90):
        if len(samples) * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(samples, n=100)[p - 1]:.4f} s"
    return "too few samples for a tail percentile"


def run(args) -> dict:
    work = OUT / "work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    spans_dir = OUT / "spans"
    try:
        setups = []
        for i in range(SETUPS):
            extra = ["--trace", str(args.trace)]
            if args.trace:
                extra += ["--spans", str(spans_dir / f"{args.workload}-{args.seed}-setup{i}.jsonl")]
            t0 = time.monotonic()
            res = _child("setup", args, work, f"setup{i}", extra,
                         python_flags=("-X", "importtime") if args.trace else ())
            res["setup_s"] = res["t_end"] - t0
            setups.append(res)
        if args.trace:
            half = args.seconds / 2
            plain = _child("ops", args, work, "ops_plain",
                           ["--seconds", str(half), "--min-ops", "1"])
            traced = _child("ops", args, work, "ops_traced",
                            ["--seconds", str(half), "--min-ops", "1", "--trace", "1",
                             "--spans", str(spans_dir / f"{args.workload}-{args.seed}-ops.jsonl")])
            ops = [plain, traced]
        else:
            ops = [_child("ops", args, work, "ops",
                          ["--seconds", str(args.seconds), "--min-ops", str(MIN_OPS)])]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return summarize(args, setups, ops)


def summarize(args, setups: list[dict], ops: list[dict]) -> dict:
    plain = ops[0]
    check = plain["check"]
    walls = plain["walls"]
    wall = _median(walls)
    attempted = len(setups) + sum(o["invocations"] for o in ops)
    failed = sum(s["rc"] != 0 for s in setups) + sum(o["failed"] for o in ops)
    # every process must produce byte-identical outputs from the same seed
    if len({o["digest"] for o in ops}) != 1:
        failed += ops[-1]["invocations"]
    archive = check["archive"]
    e2e = {
        "setup_s": _median(s["setup_s"] for s in setups),
        "wall_per_ref": _median(plain["ratios"]),
        "peak_rss_mb": plain["peak_rss_mb"],
    }
    extra = {
        "wall_s": wall,
        "obs_per_s": archive["observations"] / wall,
        "ref_task_s": _median(plain["refs"]),
        "failed_op_ratio": failed / attempted,
    }
    if args.workload == "attack":
        extra["trip_recall"] = check["trip_recall"]
        extra["trip_precision"] = check["trip_precision"]
    if args.workload == "sweep":
        extra["trial_points_per_s"] = check["trial_points"] / wall

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{archive['snapshots']} snapshots, {archive['observations']} observations")
    print(f"  {attempted} CLI invocations, {failed} failed"
          + (f" ({check.get('reason')})" if check.get("reason") else ""))
    print(f"  setup_s      {e2e['setup_s']:.4f} s    median of {len(setups)} set-ups")
    print(f"  wall_s       {wall:.4f} s    median of {len(walls)} samples; {_tail(walls)}")
    print(f"  wall_per_ref {e2e['wall_per_ref']:.4f}      median of {len(walls)}; "
          f"reference task {extra['ref_task_s']:.4f} s")
    print(f"  obs_per_s    {extra['obs_per_s']:.1f} 1/s")
    print(f"  peak_rss_mb  {e2e['peak_rss_mb']:.1f} MB")
    for name in ("trial_points_per_s", "trip_recall", "trip_precision"):
        if name in extra:
            print(f"  {name:<12} {extra[name]:.6g}")
        else:
            print(f"  {name:<12} n/a on {args.workload}")
    print(f"  failed_op_ratio {extra['failed_op_ratio']:.6g}  (base {attempted})")

    if not args.trace:
        values, section = e2e, "end_to_end"
    else:
        values, section = per_layer(setups, ops, extra), "per_layer"
    units = {m["name"]: m["unit"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())[section]}
    missing = set(units) - set(values)
    if missing:
        raise HarnessError(f"metrics not measured: {sorted(missing)}")
    metrics = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def per_layer(setups: list[dict], ops: list[dict], extra: dict) -> dict:
    plain, traced = ops
    layers = dict(traced["layers"])
    for key in setups[0]["layers"]:
        layers[key] = _median(s["layers"][key] for s in setups)
    layers["cli.import_s"] = _median(s["import_s"] for s in setups)
    shares = [tracing.import_shares(s["stderr"], ("numpy", "requests")) for s in setups]
    layers["cli.import_numpy_s"] = _median(s["numpy"] for s in shares)
    layers["cli.import_requests_s"] = _median(s["requests"] for s in shares)
    # the traced split comes from the median_low traced operation
    untraced_wall = statistics.median_low(plain["walls"])
    traced_wall = layers["trace.wall_s"]
    layers["trace.untraced_wall_s"] = untraced_wall
    layers["trace.overhead_s"] = traced_wall - untraced_wall
    layers.update(extra)
    layers.setdefault("trip_recall", 0.0)
    layers.setdefault("trip_precision", 0.0)
    layers.setdefault("trial_points_per_s", 0.0)

    self_times = {k: v for k, v in layers.items()
                  if k.endswith(".self_s") and not k.startswith("synth_fleet")}
    dominant = max(self_times, key=self_times.get)
    print(f"  traced wall_s {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s: "
          f"overhead {traced_wall - untraced_wall:+.4f} s")
    print("  layer self times (s): " + ", ".join(
        f"{k.split('.')[0]} {v:.4f}" for k, v in sorted(self_times.items(), key=lambda kv: -kv[1])))
    print(f"  sum of layer self times {sum(self_times.values()):.4f} s; "
          f"dominant layer {dominant.split('.')[0]}")
    return layers


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["attack", "publish", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--scale", choices=["full", "tiny"], default="full",
                   help="tiny: small fleets and few trials, for the smoke test")
    args = p.parse_args()
    args.deadline = time.monotonic() + RUN_TIMEOUT_S
    if not (ROOT / "src" / "scootpriv" / "cli.py").is_file():
        print(f"error: no scootpriv sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args)
    except (HarnessError, subprocess.TimeoutExpired, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
