"""Synthetic fleet generator with ground truth.

Simulates scooters taking rides and being relocated by operators, and
emits the same archive format the live poller produces, plus the true
event list. Rides remove the scooter from snapshots for their duration;
relocations reproduce the two fake-trip signatures (sub-100 m shuffles
and multi-hour maintenance gaps), which lets the reconstruction pipeline
be validated exactly without touching live rider data.

Event times in the ground truth are snapshot-aligned: a trip's start is
the last snapshot at which the scooter sat at its origin, its end the
first snapshot showing it at the destination. That is the finest truth
any snapshot-diffing observer could recover.
"""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, field, fields
from itertools import compress
from pathlib import Path

import numpy as np

from . import feed_ingest, geo_privacy
from .feed_ingest import Snapshot, check_coordinates, json_int, json_number, json_str, write_csv
# re-exported: cli and perfbench/tracing.py reach synth's archive writer by this name
from .feed_ingest import write_archive  # noqa: F401
from .trip_recon import TRIP_CSV_COLUMNS, Trip, trip_row
from .utility_eval import Region, points_in_region

BASE_TIME = 1_700_000_000  # fixed epoch start keeps archives reproducible

SHUFFLE_DISTANCE_M = (20.0, 90.0)  # below any sane trip-distance floor
MAINTENANCE_GAP_S = (3700.0, 7200.0)  # beyond any sane trip-duration cap
MAINTENANCE_DISTANCE_M = (150.0, 1500.0)
# candidate points each scooter may draw when placed in the area
AREA_DRAWS_PER_SCOOTER = 10_000

GROUND_TRUTH_COLUMNS = TRIP_CSV_COLUMNS + ["is_fake"]


@dataclass(frozen=True)
class Hotspot:
    center: tuple[float, float]
    weight: float = 1.0
    spread_m: float = 50.0

    def __post_init__(self):
        check_coordinates(*self.center)
        if not (math.isfinite(self.weight) and self.weight > 0):
            raise ValueError(f"hotspot weight must be positive and finite, got {self.weight}")
        if not (math.isfinite(self.spread_m) and self.spread_m >= 0):
            raise ValueError(f"hotspot spread_m must be >= 0 and finite, got {self.spread_m}")


@dataclass(frozen=True)
class FleetConfig:
    n_scooters: int
    area: Region
    seed: int
    trip_rate: float = 0.2  # trips per scooter-hour
    trip_distance_m: tuple[float, float] = (150.0, 2000.0)
    trip_duration_s: tuple[float, float] = (120.0, 3000.0)
    relocation_rate: float = 0.0  # relocation events per scooter-hour
    snapshot_interval_s: int = 60
    duration_h: float = 10.0
    hotspots: tuple[Hotspot, ...] = ()
    provider: str = "synth"

    def __post_init__(self):
        if self.n_scooters <= 0:
            raise ValueError("n_scooters must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
        if self.duration_h <= 0:
            raise ValueError("duration_h must be positive")
        if not (self.trip_rate >= 0 and self.relocation_rate >= 0):
            raise ValueError("rates must be >= 0")
        if sum(self.step_probabilities()) > 1.0:
            raise ValueError("rates too high for the snapshot interval")
        for lo, hi in (self.trip_distance_m, self.trip_duration_s):
            if not 0 < lo <= hi:
                raise ValueError("distance/duration bounds must satisfy 0 < min <= max")

    def step_probabilities(self) -> tuple[float, float]:
        """Chance that a parked scooter starts a trip, and a relocation,
        in one snapshot interval."""
        per_hour = self.snapshot_interval_s / 3600.0
        return self.trip_rate * per_hour, self.relocation_rate * per_hour


def config_from_json(doc: dict) -> FleetConfig:
    """FleetConfig from a parsed JSON fleet config. ``n_scooters``,
    ``seed`` and ``area_rings`` ([lat, lon] vertices) are required;
    absent optional keys take FleetConfig's and Hotspot's defaults. Each
    value is read by the JSON value rule of its field's type (feed_ingest's
    json_int, json_number, json_str); a hotspot center starts with two numbers.
    Area vertices and hotspot centers obey feed_ingest.check_coordinates.
    A value error names its key."""
    if not isinstance(doc, dict):
        raise TypeError("a fleet config must be a JSON object")
    name = _read("area_name", json_str, doc.get("area_name", "area"))
    area = _read(
        "area_rings", lambda rings: Region(name, tuple(tuple(map(_pair, r)) for r in rings)),
        doc["area_rings"],
    )
    hotspots = _read("hotspots", lambda hs: tuple(map(_hotspot, hs)), doc.get("hotspots", []))
    # every other key present is an optional field, read by its default's type
    optional = {
        f.name: _read(f.name, _JSON_VALUES[type(f.default)], doc[f.name])
        for f in fields(FleetConfig)
        if f.name in doc and f.default is not MISSING and f.name != "hotspots"
    }
    return FleetConfig(
        n_scooters=_read("n_scooters", json_int, doc["n_scooters"]), area=area,
        seed=_read("seed", json_int, doc["seed"]), hotspots=hotspots, **optional,
    )


def _read(key: str, read, value):
    """read(value), whose MALFORMED_INPUT error is a ValueError naming the key."""
    try:
        return read(value)
    except feed_ingest.MALFORMED_INPUT as exc:
        raise ValueError(f"{key}: {feed_ingest.malformed_message(exc)}") from exc


def _hotspot(h: dict) -> Hotspot:
    return Hotspot(
        center=_pair(h["center"][:2]),
        **{k: json_number(h[k]) for k in ("weight", "spread_m") if k in h},
    )


def _pair(value) -> tuple[float, float]:
    """Two JSON numbers: a [lat, lon] vertex or center, or a [min, max] range."""
    a, b = value
    return json_number(a), json_number(b)


# reader of a JSON value per FleetConfig field type
_JSON_VALUES = {int: json_int, float: json_number, str: json_str, tuple: _pair}


@dataclass
class GroundTruth:
    trips: list[Trip] = field(default_factory=list)
    relocations: list[Trip] = field(default_factory=list)


def _sample_in_area(
    area: Region, n: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """n points uniform in area, by rejection from its bounding box: each
    round draws one candidate per point still missing."""
    lat_min, lon_min, lat_max, lon_max = area.bbox
    points = np.empty((0, 2))
    for _ in range(AREA_DRAWS_PER_SCOOTER):
        cand = rng.uniform((lat_min, lon_min), (lat_max, lon_max), (n - len(points), 2))
        points = np.concatenate([points, cand[points_in_region(cand[:, 0], cand[:, 1], area)]])
        if len(points) == n:
            return points[:, 0], points[:, 1]
    raise ValueError(f"area {area.name!r} has no samplable interior: a degenerate polygon")


def _hotspot_draws(
    hotspots: tuple[Hotspot, ...], n: int, rng: np.random.Generator
) -> tuple[np.ndarray, ...]:
    """displace arguments (center lat, lon, bearing, radius in km) of n
    hotspot points: a hotspot chosen by weight, a uniform bearing and a
    half-normal radius of its spread_m."""
    weights = np.array([h.weight for h in hotspots], float)
    pick = rng.choice(len(hotspots), size=n, p=weights / weights.sum())
    centers = np.array([h.center for h in hotspots], float)[pick]
    spreads = np.array([h.spread_m for h in hotspots], float)[pick]
    theta = rng.uniform(0.0, 2.0 * math.pi, n)
    return centers[:, 0], centers[:, 1], theta, np.abs(rng.normal(0.0, spreads)) / 1000.0


def generate(config: FleetConfig) -> tuple[list[Snapshot], GroundTruth]:
    """Run the simulation; deterministic given config.seed.

    Per-scooter state is arrays: the parked position, the arrival time
    (inf while parked), the destination, the departure time and whether
    the move is a relocation. Each step turns the arrivals into truth
    events and snapshots the parked scooters. Then one uniform draw per
    scooter decides the departures: below p_trip a trip, and the
    relocation band above it split evenly into shuffles and maintenance
    moves. One displace call places every destination.
    """
    rng = np.random.default_rng(config.seed)
    dt = config.snapshot_interval_s
    n_steps = int(config.duration_h * 3600 // dt) + 1
    n = config.n_scooters
    ids = [f"scooter-{i:04d}" for i in range(n)]
    if config.hotspots:
        lat, lon = geo_privacy.displace(*_hotspot_draws(config.hotspots, n, rng))
    else:
        lat, lon = _sample_in_area(config.area, n, rng)

    p_trip, p_reloc = config.step_probabilities()
    # a draw u below the first edge starts a trip, then a shuffle, then maintenance
    kind_edges = [p_trip, p_trip + p_reloc / 2.0, p_trip + p_reloc]
    # per kind: distance (km) and duration (s) ranges
    distance_km = (
        np.array([config.trip_distance_m, SHUFFLE_DISTANCE_M, MAINTENANCE_DISTANCE_M]) / 1000.0
    )
    duration_s = np.array([config.trip_duration_s, (dt / 2.0, dt / 2.0), MAINTENANCE_GAP_S])

    arrival = np.full(n, np.inf)
    dest_lat, dest_lon = np.empty(n), np.empty(n)
    depart_t = np.zeros(n, np.int64)
    fake = np.zeros(n, bool)
    no_flags = np.zeros(n, bool)
    snapshots: list[Snapshot] = []
    truth = GroundTruth()

    for step in range(n_steps):
        t = BASE_TIME + step * dt
        # arrivals: scooters finishing a move reappear at this snapshot
        arrived = np.flatnonzero(arrival <= t)
        for i in arrived.tolist():
            start, end = (lat.item(i), lon.item(i)), (dest_lat.item(i), dest_lon.item(i))
            event = Trip(ids[i], start, end, depart_t.item(i), t)
            (truth.relocations if fake[i] else truth.trips).append(event)
        lat[arrived], lon[arrived] = dest_lat[arrived], dest_lon[arrived]
        arrival[arrived] = np.inf

        parked = np.isinf(arrival)
        snapshots.append(
            Snapshot(
                provider=config.provider,
                captured_at=t,
                ttl_s=dt,
                ids=tuple(compress(ids, parked)),
                lats=lat[parked],
                lons=lon[parked],
                reserved=no_flags[parked],
                disabled=no_flags[parked],
            )
        )
        if step == n_steps - 1:
            break

        # departures in the interval after this snapshot
        u = rng.random(n)
        movers = np.flatnonzero(parked & (u < kind_edges[-1]))
        kind = np.searchsorted(kind_edges, u[movers], side="right")
        from_lat, from_lon = lat[movers], lon[movers]
        r_km = rng.uniform(*distance_km[kind].T)
        theta = rng.uniform(0.0, 2.0 * math.pi, len(movers))
        if config.hotspots:
            # trips end near a hotspot, wherever they start
            trip = kind == 0
            from_lat[trip], from_lon[trip], theta[trip], r_km[trip] = _hotspot_draws(
                config.hotspots, int(trip.sum()), rng
            )
        dest_lat[movers], dest_lon[movers] = geo_privacy.displace(from_lat, from_lon, theta, r_km)
        arrival[movers] = t + np.maximum(rng.uniform(*duration_s[kind].T), 1.0)
        depart_t[movers] = t
        fake[movers] = kind > 0

    return snapshots, truth


def write_ground_truth_csv(truth: GroundTruth, path: str | Path, meta: dict | None = None) -> None:
    events = [(t, False) for t in truth.trips] + [(t, True) for t in truth.relocations]
    events.sort(key=lambda e: (e[0].start_time, e[0].scooter_id))
    write_csv(path, GROUND_TRUTH_COLUMNS, (trip_row(t) + [int(fake)] for t, fake in events), meta)
