"""One benchmark process: a set-up, or a measured phase of one workload.

``run.py`` starts every worker as a fresh interpreter, so import time is
real and ``ru_maxrss`` is this workload's own peak. A worker writes its
result as JSON to ``--result``.

Roles:
  setup  import scootpriv.cli and generate the workload's archive with
         ``synth``; the parent times the whole process as one set-up.
  ops    run the workload's CLI operation once to warm up, then
         repeatedly for ``--seconds`` (at least ``--min-ops`` times),
         then check the outputs. Between operations it times a fixed
         reference task, the yardstick for the host's current speed.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import resource
import statistics
import sys
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
FIXTURES = HERE / "fixtures"

K = 100
RADIUS_KM, RATIO = "0.25", "6"
R_GRID = "0:1:0.05"
TRIALS = 25
# --scale tiny: a fleet a fifth the size and 10 trials, for
# the harness's own smoke test
TINY_SCOOTERS, TINY_TRIALS = 200, 10

# The reference task runs between operations for this share of the
# previous operation's time.
REF_SHARE = 0.25
REF_RECORDS = 5_000
REF_POINTS, REF_SHIFTS = 1_000, 20


def _digest(paths) -> str:
    h = hashlib.sha256()
    for p in paths:
        with open(p, "rb") as f:
            for chunk in iter(lambda: f.read(1 << 20), b""):
                h.update(chunk)
    return h.hexdigest()


class Workload:
    """Files and CLI invocations of one workload inside a work directory."""

    def __init__(self, name: str, work: Path, seed: int, scale: str):
        self.name, self.work, self.seed = name, work, seed
        self.config = work / "fleet.json"
        self.archive = work / "archive.jsonl"
        self.truth = work / "truth.csv"
        self.trials = TINY_TRIALS if scale == "tiny" else TRIALS
        self.scale = scale

    def write_config(self) -> None:
        doc = json.loads((FIXTURES / f"{self.name}_fleet.json").read_text())
        doc["seed"] = self.seed
        if self.scale == "tiny":
            doc["n_scooters"] = TINY_SCOOTERS
        self.config.write_text(json.dumps(doc))

    def fleet(self) -> dict:
        return json.loads(self.config.read_text())

    def setup_argv(self) -> list[str]:
        return ["synth", "--config", str(self.config), "--output", str(self.archive),
                "--ground-truth", str(self.truth)]

    def op_argvs(self) -> list[list[str]]:
        w, seed = self.work, str(self.seed)
        if self.name == "attack":
            return [
                ["reconstruct", "--store", str(self.archive), "--output", str(w / "trips.csv")],
                ["cluster", "--trips", str(w / "trips.csv"), "--k", str(K), "--seed", seed,
                 "--output", str(w / "clusters.csv")],
            ]
        if self.name == "publish":
            return [["sanitize", "--store", str(self.archive), "--radius-km", RADIUS_KM,
                     "--ratio", RATIO, "--seed", seed, "--output", str(w / "sanitized.jsonl")]]
        return [["evaluate", "--store", str(self.archive),
                 "--boundary", str(FIXTURES / "city.geojson"),
                 "--neighborhoods", str(FIXTURES / "tiles.geojson"),
                 "--r-grid", R_GRID, "--trials", str(self.trials), "--ratio", RATIO,
                 "--seed", seed, "--output", str(w / "report.csv")]]

    def outputs(self) -> list[Path]:
        return [Path(argv[argv.index("--output") + 1]) for argv in self.op_argvs()]

    def check(self) -> dict:
        """Check the last operation's outputs; one ``ok`` flag per invocation."""
        import checks

        fleet = self.fleet()
        stats = checks.archive_stats(self.archive)
        want_snaps = int(fleet["duration_h"] * 3600 // fleet["snapshot_interval_s"]) + 1
        result = {"archive": stats}
        if stats["snapshots"] != want_snaps:
            result["ok"] = [False] * len(self.op_argvs())
            result["reason"] = f"archive has {stats['snapshots']} snapshots, want {want_snaps}"
            return result
        outs = self.outputs()
        if self.name == "attack":
            r = checks.check_attack(self.truth, outs[0], outs[1],
                                    fleet["snapshot_interval_s"], K)
            result.update(r, ok=[r["reconstruct_ok"], r["cluster_ok"]])
        elif self.name == "publish":
            r = checks.check_publish(self.archive, outs[0])
            result.update(r, ok=[r["ok"]])
        else:
            from scootpriv.cli import parse_r_grid

            grid = parse_r_grid(R_GRID)
            r = checks.check_sweep(outs[0], grid)
            result.update(r, ok=[r["ok"]])
            result["trial_points"] = self.trials * stats["last_snapshot"] * sum(g > 0 for g in grid)
        return result


def _import_cli():
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    from scootpriv import cli

    return cli, time.perf_counter() - start


@functools.cache
def _reference_inputs():
    """The reference task's fixed inputs: a JSON feed of made-up records,
    and points and a 40-edge polygon as arrays."""
    import numpy as np

    records = [{"id": f"ref-{i:05d}", "lat": 33.9 + (i % 997) * 2e-4,
                "lon": -118.5 + (i % 991) * 2e-4, "t": 1_600_000_000 + 60 * i,
                "battery": i % 100, "disabled": i % 7 == 0}
               for i in range(REF_RECORDS)]
    rng = np.random.default_rng(0)
    lats = 34.0 + 0.2 * rng.random(REF_POINTS)
    lons = -118.5 + 0.2 * rng.random(REF_POINTS)
    angles = np.linspace(0.0, 2.0 * np.pi, 41)
    ring = np.stack([34.1 + 0.08 * np.sin(angles), -118.4 + 0.08 * np.cos(angles)], axis=1)
    return json.dumps(records), lats, lons, ring.tolist()


def reference_task() -> float:
    """Wall time of a fixed task that never changes.

    It does the kinds of work the CLI does, in about equal parts: pure
    Python (JSON decode, building and dropping small objects,
    great-circle float math) and numpy on arrays of a thousand points
    (an even-odd containment test). A busy or slow host stretches the
    two parts by different amounts, so the mix tracks both workloads'
    operations better than either part alone.
    """
    import numpy as np

    doc, lats, lons, ring = _reference_inputs()
    start = time.perf_counter()
    records = json.loads(doc)
    by_id = {r["id"]: (r["lat"], r["lon"]) for r in records if not r["disabled"]}
    total = 0.0
    prev = None
    for lat, lon in by_id.values():
        if prev is not None:
            p1, p2 = math.radians(prev[0]), math.radians(lat)
            dl = math.radians(lon - prev[1])
            a = (math.sin((p2 - p1) / 2) ** 2
                 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2) ** 2)
            total += 2 * math.asin(math.sqrt(a))
        prev = (lat, lon)
    for k in range(REF_SHIFTS):
        shifted = lats + k * 1e-4
        inside = np.zeros(len(shifted), dtype=bool)
        for (ay, ax), (by, bx) in zip(ring[:-1], ring[1:]):
            if ay != by:
                straddles = (ay > shifted) != (by > shifted)
                inside ^= straddles & (lons < ax + (shifted - ay) * (bx - ax) / (by - ay))
        total += float(np.sin(np.radians(shifted[inside])).sum())
    return time.perf_counter() - start


def reference_time(budget_s: float) -> float:
    """Mean time of the reference task, repeated for about ``budget_s``."""
    times = [reference_task()]
    while sum(times) < budget_s:
        times.append(reference_task())
    return sum(times) / len(times)


def run_setup(args, cli, import_s: float) -> dict:
    wl = Workload(args.workload, Path(args.work), args.seed, args.scale)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    wl.write_config()
    rc = cli.main(wl.setup_argv())
    result = {"t_end": time.monotonic(), "import_s": import_s, "rc": rc}
    if tracer is not None:
        result["layers"] = tracing.setup_metrics(tracer)
        tracer.write_spans(Path(args.spans))
    return result


def held_bytes_per_obs(archive: Path) -> float:
    """Bytes tracemalloc sees held by the loaded snapshots, per observation."""
    import gc
    import tracemalloc

    from scootpriv.feed_ingest import SnapshotStore

    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        snaps = list(SnapshotStore(archive).iter_all())
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    obs = sum(len(s.observations) for s in snaps)
    return held / obs if obs else 0.0


def run_ops(args, cli, import_s: float) -> dict:
    wl = Workload(args.workload, Path(args.work), args.seed, args.scale)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
    argvs = wl.op_argvs()

    def operation() -> float:
        nonlocal invocations, rcs_failed
        wall = 0.0
        for argv in argvs:
            t0 = time.perf_counter()
            rc = cli.main(argv)
            wall += time.perf_counter() - t0
            invocations += 1
            rcs_failed += rc != 0
        digests.append(_digest(p for p in wl.outputs() if p.exists()))
        return wall

    walls, refs, invocations, rcs_failed, digests, per_op = [], [], 0, 0, [], []
    # warm-up: fills the file cache and finishes lazy imports; its outputs
    # are checked like any other, its time is not reported
    if tracer is not None:
        tracer.new_run("warmup")
    wall = operation()
    refs.append(reference_time(REF_SHARE * wall))
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.new_run(f"op{len(walls)}")
        wall = operation()
        walls.append(wall)
        if tracer is not None:
            per_op.append(tracing.op_metrics(tracer, wall))
        refs.append(reference_time(REF_SHARE * wall))
        elapsed = time.perf_counter() - start
        if len(walls) >= args.min_ops and elapsed + elapsed / len(walls) > args.seconds:
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.active = False
    check = wl.check()
    # an operation whose outputs differ from the first one's is a failure
    # of every invocation it made
    drifted = sum(d != digests[0] for d in digests) * len(argvs)
    failed = rcs_failed + drifted + sum(not ok for ok in check["ok"])
    result = {
        "import_s": import_s,
        "walls": walls,
        # each operation against the reference task timed on both sides of it
        "ratios": [w / ((a + b) / 2) for w, a, b in zip(walls, refs, refs[1:])],
        "refs": refs,
        "invocations": invocations,
        "failed": min(failed, invocations),
        "digest": digests[0],
        "check": check,
        "peak_rss_mb": peak_rss_mb,
    }
    if tracer is not None:
        # the split of one whole operation, the median one, so that its
        # layer self times add up to its wall time
        median_op = walls.index(statistics.median_low(walls))
        result["layers"] = dict(per_op[median_op], **{"trace.wall_s": walls[median_op]})
        result["layers"]["feed_ingest.held_bytes_per_obs"] = held_bytes_per_obs(wl.archive)
        tracer.write_spans(Path(args.spans))
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("role", choices=["setup", "ops"])
    p.add_argument("--workload", required=True, choices=["attack", "publish", "sweep"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--trace", type=int, default=0)
    p.add_argument("--spans", default=None)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--min-ops", type=int, default=1)
    p.add_argument("--scale", choices=["full", "tiny"], default="full")
    args = p.parse_args()
    cli, import_s = _import_cli()
    result = (run_setup if args.role == "setup" else run_ops)(args, cli, import_s)
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
