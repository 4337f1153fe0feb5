"""Command-line entry point.

Subcommands compose through files only: scrape|synth -> reconstruct ->
cluster, and scrape|synth -> sanitize -> evaluate. Every randomized
command takes a seed and records it in the output's metadata header, so
reruns with identical flags are byte-identical.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error. A failure
prints one `error:` line, argparse's usage errors included; a flag's own
rule is its type, so it is checked before any input is read.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from collections import Counter, deque
from collections.abc import Iterator
from contextlib import closing
from dataclasses import replace
from pathlib import Path

from . import (
    __version__, clustering, feed_ingest, geo_privacy, synth_fleet, trip_recon, utility_eval,
)
# archives are read through feed_ingest.read_snapshots, looked up on the
# module at call time, so wrappers set on that attribute see every read
from .feed_ingest import MAX_INTERVAL_S, MIN_INTERVAL_S, Snapshot, SnapshotStore, StoreError
from .feed_ingest import poll_feed, write_json


# most points --r-grid may ask for; each one is a full Monte Carlo run
MAX_GRID_POINTS = 10_000


class UsageError(ValueError):
    pass


def parse_r_grid(spec: str) -> list[float]:
    """Parse "start:stop:step" into an ascending grid of radii >= 0 km:
    start + i * step for every i that stays within stop, which is
    included when the steps reach it to within 1e-9 km, each rounded to
    1e-10 km. A usage error: more than MAX_GRID_POINTS points, found before
    the grid is built, or rounded radii that repeat or round to 0 from a
    positive start."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}, want start:stop:step") from exc
    if not 0 < step < math.inf or not 0 <= start <= stop < math.inf:
        raise UsageError(f"bad grid spec {spec!r}")
    steps = (stop - start + 1e-9) / step
    if steps >= MAX_GRID_POINTS:
        raise UsageError(f"grid spec {spec!r} has more than {MAX_GRID_POINTS} points")
    grid = [round(start + i * step, 10) for i in range(math.floor(steps) + 1)]
    if grid[0] == 0 < start or any(a >= b for a, b in zip(grid, grid[1:])):
        raise UsageError(f"grid spec {spec!r} has radii that round to 0 or to one another")
    return grid


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse's errors are usage errors too
        raise UsageError(message)


def _flag(parse, rule: str, holds):
    """An argparse type: parse(text), rejected unless holds(value), which
    NaN fails for every float rule; argparse names the flag in the error."""
    def convert(text: str):
        if not holds(value := parse(text)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text!r}")
        return value
    convert.__name__ = parse.__name__  # "invalid float value: 'abc'"
    return convert


_FINITE = _flag(float, "finite", math.isfinite)
_NONNEG = _flag(float, "finite and >= 0", lambda v: 0 <= v < math.inf)
_RATIO = _flag(float, "finite and > 1", lambda v: 1 < v < math.inf)  # so ln(ratio)/R > 0
_POS_INT = _flag(int, ">= 1", lambda v: v >= 1)
_SEED = _flag(int, ">= 0", lambda v: v >= 0)
_INTERVAL = _flag(float, f"in [{MIN_INTERVAL_S:g}, {MAX_INTERVAL_S:g}] s",
                  lambda v: MIN_INTERVAL_S <= v <= MAX_INTERVAL_S)
_DURATION = _flag(float, ">= 0", lambda v: v >= 0)  # inf polls until interrupted
_URL = _flag(str, "an http(s) URL", lambda v: v.startswith(("http://", "https://")))
_OUTPUT = _flag(str, "a non-empty path", bool)  # "" resolves to the working directory


def _meta(command: str, **params) -> dict:
    return {"command": command, "version": __version__, **params}


def cmd_scrape(args) -> int:
    summary = poll_feed(
        endpoint=args.url,
        store=SnapshotStore(args.store),
        provider=args.provider,
        interval_s=args.interval,
        duration_s=args.duration,
    )
    print(
        f"stored {summary.snapshots_written} snapshots, "
        f"{summary.fetch_failures} fetch failures, {summary.parse_errors} parse errors, "
        f"{summary.skipped_unchanged} skipped as not newer"
    )
    return 0


def _read_one_provider(args) -> Iterator[Snapshot]:
    """The stream of snapshots of --provider, or of the archive's only
    provider: a second provider is a usage error where it is read, and so
    is a --provider the archive holds no snapshot of, once it ends."""
    first = None
    for snap in feed_ingest.read_snapshots(SnapshotStore(args.store), args.provider):
        if first is None:
            first = snap.provider
        elif snap.provider != first:
            providers = ", ".join(sorted((first, snap.provider)))
            raise UsageError(
                f"{args.store} holds providers {providers}; choose one with --provider"
            )
        yield snap
    if first is None and args.provider is not None:
        raise UsageError(f"--provider {args.provider} names no provider of {args.store}")


def _outputs(args, *dests: str):
    """feed_ingest.atomic_paths, the one commit of every command's output
    files, over the files these output flags name. Two naming one file
    are a usage error, raised here, so call it before any input is read."""
    paths = [getattr(args, dest) for dest in dests]
    flags = {}
    for dest, path in zip(dests, paths):
        flag = "--" + dest.replace("_", "-")
        if path and (other := flags.setdefault(Path(path).resolve(), flag)) != flag:
            raise UsageError(f"{other} and {flag} name one file, {path}")
    return feed_ingest.atomic_paths(*paths)


def cmd_reconstruct(args) -> int:
    outputs = _outputs(args, "output")
    f = trip_recon.TripFilter(
        min_distance_m=args.min_distance_m, max_duration_s=args.max_duration_s
    )
    trips = trip_recon.reconstruct_trips(_read_one_provider(args), min_move_m=args.min_move_m)
    kept = trip_recon.filter_trips(trips, f)
    with outputs as (output,):
        trip_recon.write_trips_csv(kept, output, meta=_meta(
            "reconstruct", provider=args.provider or "", min_distance_m=args.min_distance_m,
            max_duration_s=args.max_duration_s, min_move_m=args.min_move_m,
        ))
    dropped = Counter(map(f.rejects, trips))
    print(
        f"{len(kept)} trips kept of {len(trips)} reconstructed; {dropped['min_distance_m']} under "
        f"--min-distance-m, {dropped['max_duration_s']} over --max-duration-s"
    )
    return 0


def cmd_cluster(args) -> int:
    outputs = _outputs(args, "output", "geojson")
    trips = trip_recon.read_trips_csv(args.trips)
    points = [
        t.start_loc if args.endpoint == "start" else t.end_loc for t in trips
    ]
    # k-means can fill at most one cluster per distinct point
    distinct = len(set(points))
    if args.k > distinct:
        raise UsageError(
            f"k={args.k} exceeds the {distinct} distinct {args.endpoint} points "
            f"of {len(trips)} trips"
        )
    clusters = clustering.kmeans(points, k=args.k, seed=args.seed)
    if args.max_size is not None:
        clusters = clustering.select_small_clusters(clusters, args.max_size)
    with outputs as (output, geojson):
        clustering.write_clusters_csv(
            clusters,
            output,
            meta=_meta(
                "cluster", k=args.k, seed=args.seed, endpoint=args.endpoint,
                max_size=args.max_size if args.max_size is not None else "",
            ),
        )
        if geojson:
            clustering.write_clusters_geojson(clusters, geojson)
    print(f"{len(clusters)} clusters written")
    return 0


def _epsilon(flag: str, radius_km: float, ratio: float) -> float:
    """epsilon_from(R, ratio), whose every rejection is a usage error."""
    try:
        return geo_privacy.epsilon_from(radius_km, ratio)
    except ValueError as exc:
        raise UsageError(f"{flag} {radius_km:g} with --ratio {ratio:g}: {exc}") from exc


def cmd_sanitize(args) -> int:
    outputs = _outputs(args, "output")
    eps = _epsilon("--radius-km", args.radius_km, args.ratio)
    snaps = feed_ingest.read_snapshots(SnapshotStore(args.store))
    rng = geo_privacy.substream(args.seed, 0)

    def perturbed(snap: Snapshot) -> Snapshot:
        # one scalar draw per observation, in archive order
        locs = zip(snap.lats.tolist(), snap.lons.tolist())
        points = [geo_privacy.perturb(loc, eps, rng) for loc in locs]
        return replace(snap, lats=[lat for lat, _ in points], lons=[lon for _, lon in points])

    # the output replaces its file only once written, so it may name --store
    with outputs as (output,):
        n = feed_ingest.write_archive((perturbed(s) for s in snaps), output, meta=_meta(
            "sanitize", seed=args.seed, epsilon=eps, radius_km=args.radius_km, ratio=args.ratio,
        ))
    print(f"sanitized {n} snapshots at epsilon={eps:.4f}")
    return 0


def _pick_snapshot(args) -> Snapshot:
    """Snapshot --snapshot-index of the stream, indexed as a Python list
    is. Reading stops after snapshot k >= 0; a negative k reads to the
    end but holds only the last |k| snapshots."""
    k = args.snapshot_index
    need = k + 1 if k >= 0 else -k  # snapshots the index needs
    # islice and deque take C sizes; no archive holds sys.maxsize snapshots
    bound = min(need, sys.maxsize)
    # closed at once, so the archive is closed when reading stops
    with closing(_read_one_provider(args)) as stream:
        snaps = itertools.islice(stream, bound) if k >= 0 else stream
        # (running count, snapshot) pairs: the last count is the number read
        held = deque(enumerate(snaps, 1), maxlen=1 if k >= 0 else bound)
    count = held[-1][0] if held else 0
    if not count:
        raise StoreError(f"no snapshots in {args.store}")
    if count < need:
        raise UsageError(f"--snapshot-index {k} out of range for {count} snapshots")
    return held[0][1]


def cmd_evaluate(args) -> int:
    outputs = _outputs(args, "output", "dump_geojson")
    grid = parse_r_grid(args.r_grid)
    if max(grid) > 0:
        _epsilon("--r-grid reaching", max(grid), args.ratio)
    dump_eps = None
    if args.dump_radius_km != 0:
        dump_eps = _epsilon("--dump-radius-km", args.dump_radius_km, args.ratio)
    boundary, *rest = utility_eval.load_regions_geojson(args.boundary).regions
    if rest:
        raise UsageError(f"--boundary {args.boundary} holds {1 + len(rest)} features, want one: "
                         "a city in parts is one MultiPolygon feature")
    regions = (utility_eval.load_regions_geojson(args.neighborhoods)
               if args.neighborhoods else None)
    snapshot = _pick_snapshot(args)
    # regions that hold no scooter report no loss at any R: nothing was measured
    hoods = regions.regions if regions else ()
    for flag, path, held in (("--boundary", args.boundary, [boundary]),
                             ("--neighborhoods", args.neighborhoods, hoods)):
        if path and not any(
            utility_eval.points_in_region(snapshot.lats, snapshot.lons, r).any() for r in held
        ):
            raise UsageError(
                f"{flag} {path} holds none of the snapshot's {len(snapshot.ids)} scooters"
            )
    # one noisy fleet per R feeds both the boundary and any neighborhoods
    rows = utility_eval.neighborhood_loss_experiment(
        snapshot, regions, grid, args.trials, args.ratio, args.seed, boundary=boundary
    )
    meta = _meta(
        "evaluate", provider=args.provider or "", snapshot_index=args.snapshot_index,
        r_grid=args.r_grid, trials=args.trials, ratio=args.ratio, seed=args.seed,
    )
    with outputs as (output, dump_geojson):
        utility_eval.emit_report(rows, output, args.format, meta)
        if dump_geojson:
            dump_snap = snapshot
            if dump_eps is not None:
                rng = geo_privacy.substream(args.seed, 10**6)
                lats, lons = geo_privacy.perturb_many(snapshot.lats, snapshot.lons, dump_eps, rng)
                dump_snap = replace(snapshot, lats=lats, lons=lons)
            write_json(dump_geojson, utility_eval.snapshot_to_geojson(dump_snap))
    print(f"{len(rows)} grid rows written to {args.output}")
    return 0


def cmd_synth(args) -> int:
    outputs = _outputs(args, "output", "ground_truth")
    with open(args.config, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except feed_ingest.MALFORMED_INPUT as exc:  # not JSON, not UTF-8, or nested too deeply
            raise UsageError(f"{args.config}: not valid JSON: {exc}") from exc
    try:
        config = synth_fleet.config_from_json(doc)
        # an area with no samplable interior fails only when sampled
        snapshots, truth = synth_fleet.generate(config)
    except feed_ingest.MALFORMED_INPUT as exc:
        raise UsageError(f"invalid fleet config: {feed_ingest.malformed_message(exc)}") from exc
    with outputs as (output, ground_truth):
        synth_fleet.write_archive(
            snapshots, output, meta=_meta("synth", seed=config.seed, config=doc)
        )
        if ground_truth:
            synth_fleet.write_ground_truth_csv(
                truth, ground_truth, meta=_meta("synth", seed=config.seed)
            )
    print(
        f"{len(snapshots)} snapshots, {len(truth.trips)} true trips, "
        f"{len(truth.relocations)} relocations"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="scootpriv")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("scrape", help="poll a free_bike_status endpoint into an archive")
    s.add_argument("--url", type=_URL, required=True)
    s.add_argument("--provider", required=True)
    s.add_argument("--interval", type=_INTERVAL, default=60.0, help="poll interval seconds")
    s.add_argument("--store", required=True)
    s.add_argument("--duration", type=_DURATION, required=True, help="total seconds to run")
    s.set_defaults(func=cmd_scrape)

    s = sub.add_parser("reconstruct", help="diff an archive into filtered trips")
    s.add_argument("--store", required=True)
    s.add_argument("--provider", default=None)
    s.add_argument("--min-distance-m", type=_NONNEG, default=trip_recon.TripFilter.min_distance_m)
    s.add_argument("--max-duration-s", type=_POS_INT, default=trip_recon.TripFilter.max_duration_s)
    s.add_argument("--min-move-m", type=_NONNEG, default=trip_recon.DEFAULT_MIN_MOVE_M)
    s.add_argument("--output", type=_OUTPUT, required=True)
    s.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("cluster", help="k-means hotspots over trip endpoints")
    s.add_argument("--trips", required=True)
    s.add_argument("--k", type=_POS_INT, default=clustering.DEFAULT_K)
    s.add_argument("--endpoint", choices=["start", "end"], default="start")
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--max-size", type=_POS_INT, default=None, help="keep only clusters this small")
    s.add_argument("--output", type=_OUTPUT, required=True)
    s.add_argument("--geojson", type=_OUTPUT, default=None)
    s.set_defaults(func=cmd_cluster)

    s = sub.add_parser("sanitize", help="perturb every archived coordinate")
    s.add_argument("--store", required=True)
    s.add_argument("--radius-km", type=_FINITE, required=True, help="R; epsilon = ln(ratio)/R")
    s.add_argument("--ratio", type=_RATIO, default=6.0)
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--output", type=_OUTPUT, required=True)
    s.set_defaults(func=cmd_sanitize)

    s = sub.add_parser("evaluate", help="privacy-utility sweep over a radius grid")
    s.add_argument("--store", required=True)
    s.add_argument("--provider", default=None)
    s.add_argument("--snapshot-index", type=int, default=-1)
    s.add_argument("--boundary", required=True, help="GeoJSON city boundary")
    s.add_argument("--neighborhoods", default=None, help="GeoJSON neighborhood polygons")
    s.add_argument("--r-grid", default="0:1:0.05")
    s.add_argument("--trials", type=_POS_INT, default=100)
    s.add_argument("--ratio", type=_RATIO, default=6.0)
    s.add_argument("--seed", type=_SEED, default=0)
    s.add_argument("--output", type=_OUTPUT, required=True)
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--dump-geojson", type=_OUTPUT, default=None, help="write one (perturbed) snapshot as GeoJSON points")
    s.add_argument("--dump-radius-km", type=_FINITE, default=0.25, help="R for the dumped snapshot; 0 dumps the true locations")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("synth", help="generate a synthetic fleet archive + ground truth")
    s.add_argument("--config", required=True, help="JSON fleet config")
    s.add_argument("--output", type=_OUTPUT, required=True)
    s.add_argument("--ground-truth", type=_OUTPUT, default=None)
    s.set_defaults(func=cmd_synth)

    return p


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except (UsageError, utility_eval.RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # a document deep enough to decode can still be too deep to encode again
    except (OSError, ValueError, MemoryError, RecursionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
