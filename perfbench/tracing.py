"""In-memory tracer that wraps scootpriv's public callables from outside.

Nothing in the package is edited: each instrumented callable is replaced
at its module or class attribute, so calls made from inside the CLI (and
from one layer into another) go through the wrapper too.

Three kinds of instrumentation:

* span       -- one recorded span per call (name, start, end, parent, run).
* aggregate  -- call count plus inclusive and self time, no span per call.
                Used for callables invoked tens of thousands of times.
                Calls nested inside an aggregate are aggregated as well.
* count      -- a bare call counter, for callables so small that timing
                each call would distort them; their time stays in the
                caller's self time.

Every timed call adds its duration to its caller's child time, so the
self times of all timed callables, plus the caller's own self time, add
up to the caller's wall time.
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.active = True
        self.run_id = "setup"
        self.totals: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, inclusive s, self s
        self.counters: dict = defaultdict(float)
        self._stack: list[list] = []  # open frames: [name, span_id, child_s, start]
        self._agg_depth = 0
        self._next_id = 0

    def new_run(self, run_id: str) -> None:
        """Start a fresh set of totals and counters; spans accumulate."""
        self.run_id = run_id
        self.totals = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters = defaultdict(float)

    def enter(self, name: str, record: bool) -> list:
        span_id = None
        if not record:
            self._agg_depth += 1
        elif not self._agg_depth:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, span_id, 0.0, time.perf_counter()]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, record: bool) -> None:
        end = time.perf_counter()
        name, span_id, child_s, start = frame
        self._stack.pop()
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        tot = self.totals[name]
        tot[0] += 1
        tot[1] += dur
        tot[2] += dur - child_s
        if not record:
            self._agg_depth -= 1
        elif span_id is not None:
            parent = next((f[1] for f in reversed(self._stack) if f[1] is not None), None)
            self.spans.append(
                {"id": span_id, "name": name, "start": start, "end": end,
                 "parent": parent, "run": self.run_id}
            )

    def incl(self, *names: str) -> float:
        return sum(self.totals[n][1] for n in names if n in self.totals)

    def self_time(self, *names: str) -> float:
        return sum(self.totals[n][2] for n in names if n in self.totals)

    def calls(self, *names: str) -> int:
        return sum(self.totals[n][0] for n in names if n in self.totals)

    def layer_self(self, layer: str) -> float:
        return sum(t[2] for n, t in self.totals.items() if n.split(".", 1)[0] == layer)

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def timed(tracer: Tracer, owner, attr: str, name: str, record: bool = True, count=None) -> None:
    """Replace owner.attr by a wrapper that times every call.

    ``count(counters, args, result)`` may add work counts after the call.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        frame = tracer.enter(name, record)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame, record)
        if count is not None:
            count(tracer.counters, args, result)
        return result

    setattr(owner, attr, wrapper)


def counted(tracer: Tracer, owner, attr: str, counter: str) -> None:
    """Replace owner.attr by a wrapper that only counts calls."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counters[counter] += 1
        return fn(*args, **kwargs)

    setattr(owner, attr, wrapper)


def timed_generator(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Time a generator's consumption: one span per ``next``.

    Calling a generator function returns at once; the work happens as it
    is consumed. Each resumption gets its own span, so the consumer's
    code between items is not counted, and calls made while producing an
    item nest under that item's span. Once the generator is exhausted the
    size of the file it read (``self.path``) is added to ``bytes_read``.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        gen = fn(self, *args, **kwargs)
        while True:
            if not tracer.active:
                yield from gen
                return
            frame = tracer.enter(name, True)
            try:
                item = next(gen)
            except StopIteration:
                tracer.exit(frame, True)
                tracer.counters["bytes_read"] += os.path.getsize(self.path)
                return
            except BaseException:
                tracer.exit(frame, True)
                raise
            tracer.exit(frame, True)
            tracer.counters["obs_read"] += len(item.observations)
            yield item

    setattr(owner, attr, wrapper)


def timed_append(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Time a file-appending method and add the file's growth to bytes_written."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(self, *args, **kwargs):
        if not tracer.active:
            return fn(self, *args, **kwargs)
        before = os.path.getsize(self.path) if os.path.exists(self.path) else 0
        frame = tracer.enter(name, True)
        try:
            return fn(self, *args, **kwargs)
        finally:
            tracer.exit(frame, True)
            tracer.counters["bytes_written"] += os.path.getsize(self.path) - before

    setattr(owner, attr, wrapper)


def _count_len(key: str):
    def count(counters, args, result):
        counters[key] += len(args[0])
    return count


def _count_result(key: str):
    def count(counters, args, result):
        counters[key] += len(result)
    return count


def _count_one(key: str):
    def count(counters, args, result):
        counters[key] += 1
    return count


def instrument(tracer: Tracer) -> None:
    """Wrap the public callables of every scootpriv layer."""
    from scootpriv import (
        cli, clustering, feed_ingest, geo_privacy, synth_fleet, trip_recon, utility_eval,
    )

    store = feed_ingest.SnapshotStore
    timed_generator(tracer, store, "iter_all", "feed_ingest.iter_all")
    timed_append(tracer, store, "append", "feed_ingest.append")
    timed_append(tracer, store, "write_meta", "feed_ingest.write_meta")
    timed(tracer, feed_ingest, "snapshot_from_record", "feed_ingest.snapshot_from_record")
    timed(tracer, feed_ingest, "read_snapshots", "feed_ingest.read_snapshots")

    timed(tracer, trip_recon, "reconstruct_trips", "trip_recon.reconstruct_trips",
          count=_count_result("trips_reconstructed"))
    timed(tracer, trip_recon, "filter_trips", "trip_recon.filter_trips",
          count=_count_result("trips_kept"))
    timed(tracer, trip_recon, "write_trips_csv", "trip_recon.write_trips_csv")
    timed(tracer, trip_recon, "read_trips_csv", "trip_recon.read_trips_csv")
    counted(tracer, trip_recon, "haversine_distance", "haversine_calls")

    timed(tracer, clustering, "kmeans", "clustering.kmeans", count=_count_len("cluster_points"))
    timed(tracer, clustering, "write_clusters_csv", "clustering.write_clusters_csv")

    timed(tracer, geo_privacy, "perturb", "geo_privacy.perturb", record=False,
          count=_count_one("perturb_points"))
    timed(tracer, geo_privacy, "perturb_many", "geo_privacy.perturb_many", record=False,
          count=_count_len("perturb_points"))
    timed(tracer, geo_privacy, "sample_polar_laplace", "geo_privacy.sample_polar_laplace",
          record=False)
    timed(tracer, geo_privacy, "substream", "geo_privacy.substream", record=False)
    timed(tracer, geo_privacy, "epsilon_from", "geo_privacy.epsilon_from", record=False)

    timed(tracer, utility_eval, "boundary_loss_experiment", "utility_eval.boundary_loss_experiment")
    timed(tracer, utility_eval, "neighborhood_loss_experiment",
          "utility_eval.neighborhood_loss_experiment")
    timed(tracer, utility_eval, "points_in_region", "utility_eval.points_in_region", record=False,
          count=_count_len("point_region_tests"))
    timed(tracer, utility_eval, "load_regions_geojson", "utility_eval.load_regions_geojson")
    timed(tracer, utility_eval, "merge_rows", "utility_eval.merge_rows")
    timed(tracer, utility_eval, "emit_report", "utility_eval.emit_report")

    timed(tracer, synth_fleet, "generate", "synth_fleet.generate")
    timed(tracer, synth_fleet, "write_archive", "synth_fleet.write_archive")
    timed(tracer, synth_fleet, "write_ground_truth_csv", "synth_fleet.write_ground_truth_csv")

    timed(tracer, cli, "main", "cli.main")


LAYERS = ("feed_ingest", "trip_recon", "clustering", "geo_privacy", "utility_eval",
          "synth_fleet")


def op_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one measured operation, from its totals."""
    t, c = tracer, tracer.counters
    load = t.incl("feed_ingest.iter_all")
    build = t.incl("feed_ingest.snapshot_from_record")
    reconstructed = c["trips_reconstructed"]
    perturbers = ("geo_privacy.perturb", "geo_privacy.perturb_many")
    perturb_calls = t.calls(*perturbers)
    experiments = ("utility_eval.boundary_loss_experiment",
                   "utility_eval.neighborhood_loss_experiment")
    m = {
        "feed_ingest.load_s": load,
        "feed_ingest.build_s": build,
        "feed_ingest.decode_s": load - build,
        "feed_ingest.append_s": t.incl("feed_ingest.append", "feed_ingest.write_meta"),
        "feed_ingest.bytes_written": c["bytes_written"],
        "feed_ingest.obs_read": c["obs_read"],
        "feed_ingest.bytes_read": c["bytes_read"],
        "trip_recon.reconstruct_s": t.incl("trip_recon.reconstruct_trips"),
        "trip_recon.filter_s": t.incl("trip_recon.filter_trips"),
        "trip_recon.csv_write_s": t.incl("trip_recon.write_trips_csv"),
        "trip_recon.csv_read_s": t.incl("trip_recon.read_trips_csv"),
        "trip_recon.haversine_calls": c["haversine_calls"],
        "trip_recon.trips_reconstructed": reconstructed,
        "trip_recon.trips_kept": c["trips_kept"],
        "trip_recon.keep_ratio": c["trips_kept"] / reconstructed if reconstructed else 0.0,
        "clustering.kmeans_s": t.incl("clustering.kmeans"),
        "clustering.points": c["cluster_points"],
        "clustering.write_s": t.incl("clustering.write_clusters_csv"),
        "geo_privacy.perturb_s": t.incl(*perturbers),
        "geo_privacy.sample_s": t.incl("geo_privacy.sample_polar_laplace"),
        "geo_privacy.displace_s": t.self_time(*perturbers),
        "geo_privacy.calls": perturb_calls,
        "geo_privacy.points": c["perturb_points"],
        "geo_privacy.points_per_call": c["perturb_points"] / perturb_calls if perturb_calls else 0.0,
        "utility_eval.boundary_s": t.incl(experiments[0]),
        "utility_eval.neighborhood_s": t.incl(experiments[1]),
        "utility_eval.containment_s": t.incl("utility_eval.points_in_region"),
        "utility_eval.containment_calls": t.calls("utility_eval.points_in_region"),
        "utility_eval.point_region_tests": c["point_region_tests"],
        "utility_eval.reduce_s": t.self_time(*experiments),
        "utility_eval.load_regions_s": t.incl("utility_eval.load_regions_geojson"),
        "utility_eval.emit_s": t.incl("utility_eval.emit_report"),
    }
    layer_total = 0.0
    for layer in LAYERS:
        m[f"{layer}.self_s"] = t.layer_self(layer)
        layer_total += m[f"{layer}.self_s"]
    # wall time not spent in any other layer's callables: argument
    # parsing, per-observation glue, and the harness's own call overhead
    m["cli.self_s"] = wall_s - layer_total
    return m


def setup_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one set-up (archive generation)."""
    return {
        "synth_fleet.generate_s": tracer.incl("synth_fleet.generate"),
        "synth_fleet.write_s": tracer.incl("synth_fleet.write_archive",
                                           "synth_fleet.write_ground_truth_csv"),
        "feed_ingest.setup_append_s": tracer.incl("feed_ingest.append", "feed_ingest.write_meta"),
        "feed_ingest.setup_bytes_written": tracer.counters["bytes_written"],
    }


def import_shares(importtime_log: str, modules: tuple[str, ...]) -> dict[str, float]:
    """Cumulative import seconds of top-level packages, from -X importtime output."""
    out = {m: 0.0 for m in modules}
    for line in importtime_log.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3:
            continue
        name = parts[2].strip()
        if name in out:
            try:
                out[name] = int(parts[1]) / 1e6
            except ValueError:
                pass
    return out
