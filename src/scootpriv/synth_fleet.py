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
from pathlib import Path

import numpy as np

from . import geo_privacy
from .feed_ingest import Snapshot, write_csv
# re-exported: cli and perfbench/tracing.py reach synth's archive writer by this name
from .feed_ingest import write_archive  # noqa: F401
from .trip_recon import TRIP_CSV_COLUMNS, Trip, trip_row
from .utility_eval import Region, point_in_region

BASE_TIME = 1_700_000_000  # fixed epoch start keeps archives reproducible

SHUFFLE_DISTANCE_M = (20.0, 90.0)  # below any sane trip-distance floor
MAINTENANCE_GAP_S = (3700.0, 7200.0)  # beyond any sane trip-duration cap
MAINTENANCE_DISTANCE_M = (150.0, 1500.0)

GROUND_TRUTH_COLUMNS = TRIP_CSV_COLUMNS + ["is_fake"]


@dataclass(frozen=True)
class Hotspot:
    center: tuple[float, float]
    weight: float = 1.0
    spread_m: float = 50.0


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
        if self.snapshot_interval_s <= 0:
            raise ValueError("snapshot_interval_s must be positive")
        if self.duration_h <= 0:
            raise ValueError("duration_h must be positive")
        if self.trip_rate < 0 or self.relocation_rate < 0:
            raise ValueError("rates must be >= 0")
        for lo, hi in (self.trip_distance_m, self.trip_duration_s):
            if not 0 < lo <= hi:
                raise ValueError("distance/duration bounds must satisfy 0 < min <= max")


def config_from_json(doc: dict) -> FleetConfig:
    """FleetConfig from a parsed JSON fleet config. ``n_scooters``,
    ``seed`` and ``area_rings`` ([lat, lon] vertices) are required;
    absent optional keys take FleetConfig's and Hotspot's defaults."""
    area = Region(
        name=doc.get("area_name", "area"),
        rings=tuple(
            tuple((float(lat), float(lon)) for lat, lon in ring) for ring in doc["area_rings"]
        ),
    )
    hotspots = tuple(
        Hotspot(
            center=(float(h["center"][0]), float(h["center"][1])),
            **{k: float(h[k]) for k in ("weight", "spread_m") if k in h},
        )
        for h in doc.get("hotspots", [])
    )
    # every other key present is an optional field, cast to its default's type
    optional = {
        f.name: type(f.default)(doc[f.name])
        for f in fields(FleetConfig)
        if f.name in doc and f.default is not MISSING and f.name != "hotspots"
    }
    return FleetConfig(
        n_scooters=int(doc["n_scooters"]), area=area, seed=int(doc["seed"]),
        hotspots=hotspots, **optional,
    )


@dataclass
class GroundTruth:
    trips: list[Trip] = field(default_factory=list)
    relocations: list[Trip] = field(default_factory=list)


def _sample_in_area(area: Region, rng: np.random.Generator) -> tuple[float, float]:
    lat_min, lon_min, lat_max, lon_max = area.bbox
    for _ in range(10_000):
        lat = rng.uniform(lat_min, lat_max)
        lon = rng.uniform(lon_min, lon_max)
        if point_in_region((lat, lon), area):
            return lat, lon
    raise RuntimeError("rejection sampling failed; degenerate area polygon")


def _sample_hotspot_point(
    hotspots: tuple[Hotspot, ...], rng: np.random.Generator
) -> tuple[float, float]:
    weights = np.array([h.weight for h in hotspots], float)
    h = hotspots[rng.choice(len(hotspots), p=weights / weights.sum())]
    r_km = abs(rng.normal(0.0, h.spread_m)) / 1000.0
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return geo_privacy.displace(h.center, theta, r_km)


def _destination(
    loc: tuple[float, float],
    distance_range_m: tuple[float, float],
    config: FleetConfig,
    rng: np.random.Generator,
) -> tuple[float, float]:
    if config.hotspots:
        return _sample_hotspot_point(config.hotspots, rng)
    d_km = rng.uniform(*distance_range_m) / 1000.0
    theta = rng.uniform(0.0, 2.0 * math.pi)
    return geo_privacy.displace(loc, theta, d_km)


@dataclass
class _ScooterState:
    loc: tuple[float, float]
    arrival_time: float | None = None  # set while in transit
    dest: tuple[float, float] | None = None
    depart_snap: int | None = None
    depart_loc: tuple[float, float] | None = None
    is_fake_move: bool = False


def generate(config: FleetConfig) -> tuple[list[Snapshot], GroundTruth]:
    """Run the simulation; deterministic given config.seed."""
    rng = np.random.default_rng(config.seed)
    dt = config.snapshot_interval_s
    n_steps = int(config.duration_h * 3600 // dt) + 1
    times = [BASE_TIME + i * dt for i in range(n_steps)]

    ids = [f"scooter-{i:04d}" for i in range(config.n_scooters)]
    states: dict[str, _ScooterState] = {}
    for sid in ids:
        if config.hotspots:
            loc = _sample_hotspot_point(config.hotspots, rng)
        else:
            loc = _sample_in_area(config.area, rng)
        states[sid] = _ScooterState(loc=loc)

    p_trip = config.trip_rate * dt / 3600.0
    p_reloc = config.relocation_rate * dt / 3600.0
    if p_trip + p_reloc > 1.0:
        raise ValueError("rates too high for the snapshot interval")

    snapshots: list[Snapshot] = []
    truth = GroundTruth()

    for step, t in enumerate(times):
        # arrivals: scooters finishing a move reappear at this snapshot
        for sid in ids:
            st = states[sid]
            if st.arrival_time is not None and t >= st.arrival_time:
                event = Trip(sid, st.depart_loc, st.dest, st.depart_snap, t)
                (truth.relocations if st.is_fake_move else truth.trips).append(event)
                states[sid] = _ScooterState(loc=st.dest)

        parked = [sid for sid in ids if states[sid].arrival_time is None]
        locs = [states[sid].loc for sid in parked]
        snapshots.append(
            Snapshot(
                provider=config.provider,
                captured_at=t,
                ttl_s=dt,
                ids=parked,
                lats=[lat for lat, _ in locs],
                lons=[lon for _, lon in locs],
                reserved=np.zeros(len(parked), bool),
                disabled=np.zeros(len(parked), bool),
            )
        )

        if step == n_steps - 1:
            break

        # departures in the interval after this snapshot
        for sid in ids:
            st = states[sid]
            if st.arrival_time is not None:
                continue
            u = rng.random()
            if u < p_trip:
                dest = _destination(st.loc, config.trip_distance_m, config, rng)
                duration = rng.uniform(*config.trip_duration_s)
                fake = False
            elif u < p_trip + p_reloc:
                # half shuffles, half maintenance gaps
                if rng.random() < 0.5:
                    d_km = rng.uniform(*SHUFFLE_DISTANCE_M) / 1000.0
                    theta = rng.uniform(0.0, 2.0 * math.pi)
                    dest = geo_privacy.displace(st.loc, theta, d_km)
                    duration = dt / 2.0
                else:
                    d_km = rng.uniform(*MAINTENANCE_DISTANCE_M) / 1000.0
                    theta = rng.uniform(0.0, 2.0 * math.pi)
                    dest = geo_privacy.displace(st.loc, theta, d_km)
                    duration = rng.uniform(*MAINTENANCE_GAP_S)
                fake = True
            else:
                continue
            states[sid] = _ScooterState(
                loc=st.loc,
                arrival_time=t + max(duration, 1.0),
                dest=dest,
                depart_snap=t,
                depart_loc=st.loc,
                is_fake_move=fake,
            )

    return snapshots, truth


def write_ground_truth_csv(truth: GroundTruth, path: str | Path, meta: dict | None = None) -> None:
    events = [(t, False) for t in truth.trips] + [(t, True) for t in truth.relocations]
    events.sort(key=lambda e: (e[0].start_time, e[0].scooter_id))
    write_csv(path, GROUND_TRUTH_COLUMNS, (trip_row(t) + [int(fake)] for t, fake in events), meta)
