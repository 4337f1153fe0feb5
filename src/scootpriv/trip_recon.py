"""Trip reconstruction from consecutive parked-fleet snapshots.

A trip is inferred whenever a scooter's parked location jumps between
appearances: the start is the last snapshot where it sat at the old
location, the end is the first snapshot where it shows up at the new one.
Operator relocations masquerade as trips and are filtered by a minimum
distance (drops sub-100 m shuffles) and a maximum duration (drops
multi-hour charging/maintenance gaps).
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .feed_ingest import Snapshot, write_csv

EARTH_RADIUS_KM = 6378.1
EARTH_RADIUS_M = EARTH_RADIUS_KM * 1000.0

# jitter floor: parked GPS fixes wobble; below this a "move" is noise
DEFAULT_MIN_MOVE_M = 5.0
# provider-side id recycling guard: absence longer than this starts a
# fresh history instead of emitting a trip
ID_REUSE_GAP_S = 24 * 3600

TRIP_CSV_COLUMNS = [
    "scooter_id",
    "start_time",
    "end_time",
    "start_lat",
    "start_lon",
    "end_lat",
    "end_lon",
    "distance_m",
    "duration_s",
]


def haversine_distance(a: tuple[float, float], b: tuple[float, float]) -> float:
    """Great-circle distance in meters between (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * math.asin(math.sqrt(h))


@dataclass(frozen=True)
class Trip:
    """One inferred move. Duration and great-circle distance derive from
    the endpoints; the distance is computed on first use, then kept."""

    scooter_id: str
    start_loc: tuple[float, float]
    end_loc: tuple[float, float]
    start_time: int
    end_time: int

    def __post_init__(self):
        if self.end_time <= self.start_time:
            raise ValueError(
                f"end_time {self.end_time} must be after start_time {self.start_time}"
            )

    @property
    def duration_s(self) -> int:
        return self.end_time - self.start_time

    @cached_property
    def distance_m(self) -> float:
        return haversine_distance(self.start_loc, self.end_loc)


@dataclass(frozen=True)
class TripFilter:
    """Inclusive thresholds: keep distance >= min and duration <= max."""

    min_distance_m: float = 100.0
    max_duration_s: int = 3600

    def __post_init__(self):
        if self.min_distance_m < 0:
            raise ValueError("min_distance_m must be >= 0")
        if self.max_duration_s <= 0:
            raise ValueError("max_duration_s must be > 0")

    def keeps(self, trip: Trip) -> bool:
        return (
            trip.distance_m >= self.min_distance_m
            and trip.duration_s <= self.max_duration_s
        )


def reconstruct_trips(
    snapshots: list[Snapshot],
    min_move_m: float = DEFAULT_MIN_MOVE_M,
) -> list[Trip]:
    """Diff consecutive snapshots of one provider into unfiltered trips.

    A scooter absent for intermediate snapshots and reappearing elsewhere
    yields a single trip spanning the gap; one that disappears for good
    yields nothing. Raises on unsorted input, mixed providers or a
    negative min_move_m.
    """
    if min_move_m < 0:
        raise ValueError("min_move_m must be >= 0")
    if not snapshots:
        return []
    provider = snapshots[0].provider
    # (loc, last_seen_at) per scooter
    state: dict[str, tuple[tuple[float, float], int]] = {}
    trips: list[Trip] = []
    prev_ts = None
    for snap in snapshots:
        if snap.provider != provider:
            raise ValueError(
                f"mixed providers: {provider!r} and {snap.provider!r}"
            )
        if prev_ts is not None and snap.captured_at <= prev_ts:
            raise ValueError("snapshots not strictly ascending in time")
        prev_ts = snap.captured_at
        for obs in snap.observations:
            loc = (obs.lat, obs.lon)
            known = state.get(obs.scooter_id)
            if known is None:
                state[obs.scooter_id] = (loc, snap.captured_at)
                continue
            old_loc, last_seen = known
            if snap.captured_at - last_seen > ID_REUSE_GAP_S:
                # likely a recycled id, not the same physical scooter
                state[obs.scooter_id] = (loc, snap.captured_at)
                continue
            if haversine_distance(old_loc, loc) > min_move_m:
                trips.append(Trip(obs.scooter_id, old_loc, loc, last_seen, snap.captured_at))
                state[obs.scooter_id] = (loc, snap.captured_at)
            else:
                # still parked; keep the original fix, refresh last-seen
                state[obs.scooter_id] = (old_loc, snap.captured_at)
    return trips


def filter_trips(trips: list[Trip], f: TripFilter) -> list[Trip]:
    return [t for t in trips if f.keeps(t)]


def trip_row(t: Trip) -> list:
    """One trips-CSV row in TRIP_CSV_COLUMNS order: coordinates to 6
    decimals, distance to 2."""
    coords = (f"{v:.6f}" for v in (*t.start_loc, *t.end_loc))
    return [t.scooter_id, t.start_time, t.end_time, *coords, f"{t.distance_m:.2f}", t.duration_s]


def write_trips_csv(trips: list[Trip], path: str | Path, meta: dict | None = None) -> None:
    write_csv(path, TRIP_CSV_COLUMNS, (trip_row(t) for t in trips), meta)


def read_trips_csv(path: str | Path) -> list[Trip]:
    """Trips from a trips CSV; ValueError if a TRIP_CSV_COLUMNS column is
    missing from its header."""
    with open(path, newline="", encoding="utf-8") as f:
        reader = csv.DictReader(line for line in f if not line.startswith("#"))
        missing = [c for c in TRIP_CSV_COLUMNS if c not in (reader.fieldnames or [])]
        if missing:
            raise ValueError(f"{path}: trips CSV lacks column(s) {', '.join(missing)}")
        return [
            Trip(
                rec["scooter_id"],
                (float(rec["start_lat"]), float(rec["start_lon"])),
                (float(rec["end_lat"]), float(rec["end_lon"])),
                int(rec["start_time"]),
                int(rec["end_time"]),
            )
            for rec in reader
        ]
