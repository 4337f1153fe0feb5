"""Command-line entry point.

Subcommands compose through files only: scrape|synth -> reconstruct ->
cluster, and scrape|synth -> sanitize -> evaluate. Every randomized
command takes a seed and records it in the output's metadata header, so
reruns with identical flags are byte-identical.

Exit codes: 0 success, 1 runtime/I-O failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import (
    __version__, clustering, feed_ingest, geo_privacy, synth_fleet, trip_recon, utility_eval,
)
# archives are read through feed_ingest.read_snapshots, looked up on the
# module at call time, so wrappers set on that attribute see every read
from .feed_ingest import Snapshot, SnapshotStore, StoreError, poll_feed


class UsageError(ValueError):
    pass


def parse_r_grid(spec: str) -> list[float]:
    """Parse "start:stop:step" into an inclusive ascending grid of radii >= 0 km."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}, want start:stop:step") from exc
    if step <= 0 or stop < start or start < 0:
        raise UsageError(f"bad grid spec {spec!r}")
    n = round((stop - start) / step) + 1
    return [round(start + i * step, 10) for i in range(n)]


def _meta(command: str, **params) -> dict:
    return {"command": command, "version": __version__, **params}


def cmd_scrape(args) -> int:
    if not args.url.startswith(("http://", "https://")):
        raise UsageError(f"not an http(s) URL: {args.url!r}")
    if args.interval <= 0:
        raise UsageError("--interval must be positive")
    if args.duration < 0:
        raise UsageError("--duration must be >= 0")
    store = SnapshotStore(args.store)
    deadline = time.monotonic() + args.duration
    summary = poll_feed(
        endpoint=args.url,
        store=store,
        provider=args.provider,
        interval_s=args.interval,
        stop=lambda: time.monotonic() >= deadline,
    )
    print(
        f"stored {summary.snapshots_written} snapshots, "
        f"{summary.fetch_failures} fetch failures, "
        f"{summary.skipped_unchanged} unchanged skips"
    )
    return 0


def _read_one_provider(args) -> list[Snapshot]:
    """Snapshots of --provider, or of the archive's only provider."""
    snaps = feed_ingest.read_snapshots(SnapshotStore(args.store), args.provider)
    providers = sorted({s.provider for s in snaps})
    if len(providers) > 1:
        raise UsageError(
            f"{args.store} holds providers {', '.join(providers)}; choose one with --provider"
        )
    return snaps


def cmd_reconstruct(args) -> int:
    try:
        f = trip_recon.TripFilter(
            min_distance_m=args.min_distance_m, max_duration_s=args.max_duration_s
        )
    except ValueError as exc:
        raise UsageError(f"invalid trip filter: {exc}") from exc
    if args.min_move_m < 0:
        raise UsageError("--min-move-m must be >= 0")
    snaps = _read_one_provider(args)
    trips = trip_recon.reconstruct_trips(snaps, min_move_m=args.min_move_m)
    kept = trip_recon.filter_trips(trips, f)
    trip_recon.write_trips_csv(
        kept,
        args.output,
        meta=_meta(
            "reconstruct",
            provider=args.provider or "",
            min_distance_m=args.min_distance_m,
            max_duration_s=args.max_duration_s,
            min_move_m=args.min_move_m,
        ),
    )
    print(f"{len(kept)} trips kept of {len(trips)} reconstructed")
    return 0


def cmd_cluster(args) -> int:
    if args.k < 1:
        raise UsageError("k must be >= 1")
    if args.max_size is not None and args.max_size < 1:
        raise UsageError("--max-size must be >= 1")
    trips = trip_recon.read_trips_csv(args.trips)
    if args.k > len(trips):
        raise UsageError(f"k={args.k} exceeds trip count {len(trips)}")
    points = [
        t.start_loc if args.endpoint == "start" else t.end_loc for t in trips
    ]
    clusters = clustering.kmeans(points, k=args.k, seed=args.seed)
    if args.max_size is not None:
        clusters = clustering.select_small_clusters(clusters, args.max_size)
    clustering.write_clusters_csv(
        clusters,
        args.output,
        meta=_meta(
            "cluster", k=args.k, seed=args.seed, endpoint=args.endpoint,
            max_size=args.max_size if args.max_size is not None else "",
        ),
    )
    if args.geojson:
        clustering.write_clusters_geojson(clusters, args.geojson)
    print(f"{len(clusters)} clusters written")
    return 0


def _epsilon(flag: str, radius_km: float, ratio: float) -> float:
    """epsilon = ln(ratio)/R; a bad R or ratio, or an epsilon too small
    for the noise to stay within city scale, is a usage error."""
    try:
        eps = geo_privacy.epsilon_from(radius_km, ratio)
        geo_privacy.check_epsilon(eps)
    except ValueError as exc:
        raise UsageError(f"{flag} {radius_km:g} with --ratio {ratio:g}: {exc}") from exc
    return eps


def _resolve_epsilon(args) -> tuple[float, dict]:
    has_eps = args.epsilon is not None
    has_radius = args.radius_km is not None
    if has_eps == has_radius:
        raise UsageError("give exactly one of --epsilon or --radius-km (with --ratio)")
    if has_eps:
        try:
            geo_privacy.check_epsilon(args.epsilon)
        except ValueError as exc:
            raise UsageError(f"--epsilon: {exc}") from exc
        return args.epsilon, {"epsilon": args.epsilon}
    eps = _epsilon("--radius-km", args.radius_km, args.ratio)
    return eps, {"epsilon": eps, "radius_km": args.radius_km, "ratio": args.ratio}


def cmd_sanitize(args) -> int:
    eps, eps_meta = _resolve_epsilon(args)
    snaps = feed_ingest.read_snapshots(SnapshotStore(args.store))
    rng = geo_privacy.substream(args.seed, 0)

    def perturbed(snap: Snapshot) -> Snapshot:
        # one scalar draw per observation, in archive order
        points = [geo_privacy.perturb((o.lat, o.lon), eps, rng) for o in snap.observations]
        return snap.with_coords([lat for lat, _ in points], [lon for _, lon in points])

    feed_ingest.write_archive(
        (perturbed(s) for s in snaps),
        args.output,
        meta=_meta("sanitize", seed=args.seed, **eps_meta),
    )
    print(f"sanitized {len(snaps)} snapshots at epsilon={eps:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    grid = parse_r_grid(args.r_grid)
    if max(grid) > 0:
        _epsilon("--r-grid reaching", max(grid), args.ratio)
    dump_eps = None
    if args.dump_geojson and args.dump_radius_km != 0:
        dump_eps = _epsilon("--dump-radius-km", args.dump_radius_km, args.ratio)
    snaps = _read_one_provider(args)
    if not snaps:
        raise StoreError(f"no snapshots in {args.store}")
    if not -len(snaps) <= args.snapshot_index < len(snaps):
        raise UsageError(
            f"--snapshot-index {args.snapshot_index} out of range for {len(snaps)} snapshots"
        )
    snapshot = snaps[args.snapshot_index]
    boundary = utility_eval.load_regions_geojson(args.boundary)[0]
    boundary_rows = utility_eval.boundary_loss_experiment(
        snapshot, boundary, grid, args.trials, args.ratio, args.seed
    )
    if args.neighborhoods:
        regions = utility_eval.RegionSet(
            regions=tuple(utility_eval.load_regions_geojson(args.neighborhoods))
        )
        neighborhood_rows = utility_eval.neighborhood_loss_experiment(
            snapshot, regions, grid, args.trials, args.ratio, args.seed + 1
        )
        rows = utility_eval.merge_rows(boundary_rows, neighborhood_rows)
    else:
        rows = boundary_rows
    report = utility_eval.UtilityReport(
        rows=tuple(rows), trials=args.trials, ratio=args.ratio, master_seed=args.seed
    )
    utility_eval.emit_report(report, args.output, fmt=args.format)
    if args.dump_geojson:
        dump_snap = snapshot
        if dump_eps is not None:
            rng = geo_privacy.substream(args.seed, 10**6)
            dump_snap = snapshot.with_coords(
                *geo_privacy.perturb_many(*snapshot.coords(), dump_eps, rng)
            )
        with open(args.dump_geojson, "w", encoding="utf-8") as f:
            json.dump(utility_eval.snapshot_to_geojson(dump_snap), f, indent=2)
    print(f"{len(rows)} grid rows written to {args.output}")
    return 0


def cmd_synth(args) -> int:
    with open(args.config, encoding="utf-8") as f:
        doc = json.load(f)
    try:
        config = synth_fleet.config_from_json(doc)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid fleet config: {exc}") from exc
    snapshots, truth = synth_fleet.generate(config)
    synth_fleet.write_archive(
        snapshots, args.output, meta=_meta("synth", seed=config.seed, config=args.config)
    )
    if args.ground_truth:
        synth_fleet.write_ground_truth_csv(
            truth, args.ground_truth, meta=_meta("synth", seed=config.seed)
        )
    print(
        f"{len(snapshots)} snapshots, {len(truth.trips)} true trips, "
        f"{len(truth.relocations)} relocations"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="scootpriv")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("scrape", help="poll a free_bike_status endpoint into an archive")
    s.add_argument("--url", required=True)
    s.add_argument("--provider", required=True)
    s.add_argument("--interval", type=float, default=60.0, help="poll interval seconds")
    s.add_argument("--store", required=True)
    s.add_argument("--duration", type=float, required=True, help="total seconds to run")
    s.set_defaults(func=cmd_scrape)

    s = sub.add_parser("reconstruct", help="diff an archive into filtered trips")
    s.add_argument("--store", required=True)
    s.add_argument("--provider", default=None)
    s.add_argument("--min-distance-m", type=float, default=100.0)
    s.add_argument("--max-duration-s", type=int, default=3600)
    s.add_argument("--min-move-m", type=float, default=trip_recon.DEFAULT_MIN_MOVE_M)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_reconstruct)

    s = sub.add_parser("cluster", help="k-means hotspots over trip endpoints")
    s.add_argument("--trips", required=True)
    s.add_argument("--k", type=int, default=clustering.DEFAULT_K)
    s.add_argument("--endpoint", choices=["start", "end"], default="start")
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--max-size", type=int, default=None, help="keep only clusters this small")
    s.add_argument("--output", required=True)
    s.add_argument("--geojson", default=None)
    s.set_defaults(func=cmd_cluster)

    s = sub.add_parser("sanitize", help="perturb every archived coordinate")
    s.add_argument("--store", required=True)
    s.add_argument("--epsilon", type=float, default=None, help="1/km")
    s.add_argument("--radius-km", type=float, default=None)
    s.add_argument("--ratio", type=float, default=6.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output", required=True)
    s.set_defaults(func=cmd_sanitize)

    s = sub.add_parser("evaluate", help="privacy-utility sweep over a radius grid")
    s.add_argument("--store", required=True)
    s.add_argument("--provider", default=None)
    s.add_argument("--snapshot-index", type=int, default=-1)
    s.add_argument("--boundary", required=True, help="GeoJSON city boundary")
    s.add_argument("--neighborhoods", default=None, help="GeoJSON neighborhood polygons")
    s.add_argument("--r-grid", default="0:1:0.05")
    s.add_argument("--trials", type=int, default=100)
    s.add_argument("--ratio", type=float, default=6.0)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--output", required=True)
    s.add_argument("--format", choices=["csv", "json"], default="csv")
    s.add_argument("--dump-geojson", default=None, help="write one (perturbed) snapshot as GeoJSON points")
    s.add_argument("--dump-radius-km", type=float, default=0.25, help="R for the dumped snapshot; 0 dumps the true locations")
    s.set_defaults(func=cmd_evaluate)

    s = sub.add_parser("synth", help="generate a synthetic fleet archive + ground truth")
    s.add_argument("--config", required=True, help="JSON fleet config")
    s.add_argument("--output", required=True)
    s.add_argument("--ground-truth", default=None)
    s.set_defaults(func=cmd_synth)

    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (UsageError, utility_eval.RegionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
