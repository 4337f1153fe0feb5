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
from dataclasses import replace

from . import (
    __version__, clustering, feed_ingest, geo_privacy, synth_fleet, trip_recon, utility_eval,
)
# archives are read through feed_ingest.read_snapshots, looked up on the
# module at call time, so wrappers set on that attribute see every read
from .feed_ingest import (
    ScooterObservation,
    Snapshot,
    SnapshotStore,
    StoreError,
    poll_feed,
)


class UsageError(ValueError):
    pass


def parse_r_grid(spec: str) -> list[float]:
    """Parse "start:stop:step" into an inclusive ascending grid in km."""
    try:
        start, stop, step = (float(v) for v in spec.split(":"))
    except ValueError as exc:
        raise UsageError(f"bad grid spec {spec!r}, want start:stop:step") from exc
    if step <= 0 or stop < start:
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
    snaps = _read_one_provider(args)
    trips = trip_recon.reconstruct_trips(snaps, min_move_m=args.min_move_m)
    f = trip_recon.TripFilter(
        min_distance_m=args.min_distance_m, max_duration_s=args.max_duration_s
    )
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
    trips = trip_recon.read_trips_csv(args.trips)
    if args.k > len(trips):
        raise UsageError(f"k={args.k} exceeds trip count {len(trips)}")
    if args.k < 1:
        raise UsageError("k must be >= 1")
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


def _resolve_epsilon(args) -> tuple[float, dict]:
    has_eps = args.epsilon is not None
    has_radius = args.radius_km is not None
    if has_eps == has_radius:
        raise UsageError("give exactly one of --epsilon or --radius-km (with --ratio)")
    if has_eps:
        if args.epsilon <= 0:
            raise UsageError("--epsilon must be positive")
        return args.epsilon, {"epsilon": args.epsilon}
    eps = geo_privacy.epsilon_from(args.radius_km, args.ratio)
    return eps, {"epsilon": eps, "radius_km": args.radius_km, "ratio": args.ratio}


def cmd_sanitize(args) -> int:
    eps, eps_meta = _resolve_epsilon(args)
    snaps = feed_ingest.read_snapshots(SnapshotStore(args.store))
    out = SnapshotStore(args.output)
    with open(args.output, "w", encoding="utf-8"):
        pass  # truncate
    out.write_meta(_meta("sanitize", seed=args.seed, **eps_meta))
    rng = geo_privacy.substream(args.seed, 0)
    for snap in snaps:
        noisy = tuple(
            ScooterObservation(
                scooter_id=o.scooter_id,
                lat=lat,
                lon=lon,
                is_reserved=o.is_reserved,
                is_disabled=o.is_disabled,
            )
            for o, (lat, lon) in (
                (o, geo_privacy.perturb((o.lat, o.lon), eps, rng))
                for o in snap.observations
            )
        )
        out.append(
            Snapshot(
                provider=snap.provider,
                captured_at=snap.captured_at,
                ttl_s=snap.ttl_s,
                observations=noisy,
            )
        )
    print(f"sanitized {len(snaps)} snapshots at epsilon={eps:.4f}")
    return 0


def cmd_evaluate(args) -> int:
    if args.trials < 1:
        raise UsageError("--trials must be >= 1")
    snaps = _read_one_provider(args)
    if not snaps:
        raise StoreError(f"no snapshots in {args.store}")
    if not -len(snaps) <= args.snapshot_index < len(snaps):
        raise UsageError(
            f"--snapshot-index {args.snapshot_index} out of range for {len(snaps)} snapshots"
        )
    snapshot = snaps[args.snapshot_index]
    boundary = utility_eval.load_regions_geojson(args.boundary)[0]
    grid = parse_r_grid(args.r_grid)
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
        if args.dump_radius_km > 0:
            eps = geo_privacy.epsilon_from(args.dump_radius_km, args.ratio)
            rng = geo_privacy.substream(args.seed, 10**6)
            nlat, nlon = geo_privacy.perturb_many(*snapshot.coords(), eps, rng)
            dump_snap = replace(snapshot, observations=tuple(
                replace(o, lat=float(a), lon=float(b))
                for o, a, b in zip(snapshot.observations, nlat, nlon)
            ))
        else:
            dump_snap = snapshot
        with open(args.dump_geojson, "w", encoding="utf-8") as f:
            json.dump(utility_eval.snapshot_to_geojson(dump_snap), f, indent=2)
    print(f"{len(rows)} grid rows written to {args.output}")
    return 0


def _fleet_config_from_json(doc: dict) -> synth_fleet.FleetConfig:
    try:
        area = utility_eval.Region(
            name=doc.get("area_name", "area"),
            rings=tuple(
                tuple((float(lat), float(lon)) for lat, lon in ring)
                for ring in doc["area_rings"]
            ),
        )
        hotspots = tuple(
            synth_fleet.Hotspot(
                center=(float(h["center"][0]), float(h["center"][1])),
                weight=float(h.get("weight", 1.0)),
                spread_m=float(h.get("spread_m", 50.0)),
            )
            for h in doc.get("hotspots", [])
        )
        return synth_fleet.FleetConfig(
            n_scooters=int(doc["n_scooters"]),
            area=area,
            seed=int(doc["seed"]),
            trip_rate=float(doc.get("trip_rate", 0.2)),
            trip_distance_m=tuple(doc.get("trip_distance_m", (150.0, 2000.0))),
            trip_duration_s=tuple(doc.get("trip_duration_s", (120.0, 3000.0))),
            relocation_rate=float(doc.get("relocation_rate", 0.0)),
            snapshot_interval_s=int(doc.get("snapshot_interval_s", 60)),
            duration_h=float(doc.get("duration_h", 10.0)),
            hotspots=hotspots,
            provider=str(doc.get("provider", "synth")),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"invalid fleet config: {exc}") from exc


def cmd_synth(args) -> int:
    with open(args.config, encoding="utf-8") as f:
        doc = json.load(f)
    config = _fleet_config_from_json(doc)
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
