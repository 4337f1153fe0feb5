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
from pathlib import Path

from .feed_ingest import Snapshot

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
    scooter_id: str
    start_loc: tuple[float, float]
    end_loc: tuple[float, float]
    start_time: int
    end_time: int
    distance_m: float
    duration_s: int

    def __post_init__(self):
        if self.end_time <= self.start_time:
            raise ValueError(
                f"end_time {self.end_time} must be after start_time {self.start_time}"
            )
        if self.duration_s != self.end_time - self.start_time:
            raise ValueError("duration inconsistent with start/end times")


def make_trip(
    scooter_id: str,
    start_loc: tuple[float, float],
    end_loc: tuple[float, float],
    start_time: int,
    end_time: int,
) -> Trip:
    return Trip(
        scooter_id=scooter_id,
        start_loc=start_loc,
        end_loc=end_loc,
        start_time=start_time,
        end_time=end_time,
        distance_m=haversine_distance(start_loc, end_loc),
        duration_s=end_time - start_time,
    )


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
                trips.append(
                    make_trip(obs.scooter_id, old_loc, loc, last_seen, snap.captured_at)
                )
                state[obs.scooter_id] = (loc, snap.captured_at)
            else:
                # still parked; keep the original fix, refresh last-seen
                state[obs.scooter_id] = (old_loc, snap.captured_at)
    return trips


def filter_trips(trips: list[Trip], f: TripFilter) -> list[Trip]:
    return [t for t in trips if f.keeps(t)]


@dataclass(frozen=True)
class ParkedCountSeries:
    provider: str
    points: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for (t0, c0), (t1, _) in zip(self.points, self.points[1:]):
            if t1 <= t0:
                raise ValueError("timestamps must be strictly ascending")
        if any(c < 0 for _, c in self.points):
            raise ValueError("counts must be >= 0")


def parked_count_series(
    snapshots: list[Snapshot],
    include_disabled: bool = True,
    include_reserved: bool = True,
) -> ParkedCountSeries:
    """One (captured_at, parked count) point per snapshot."""
    points = []
    for snap in snapshots:
        n = sum(
            1
            for o in snap.observations
            if (include_disabled or not o.is_disabled)
            and (include_reserved or not o.is_reserved)
        )
        points.append((snap.captured_at, n))
    provider = snapshots[0].provider if snapshots else ""
    return ParkedCountSeries(provider, tuple(points))


def estimate_fleet_size(series: ParkedCountSeries, window: tuple[int, int]) -> int:
    """Peak parked count within the window, a fleet-size lower bound that
    is tight during inactive hours when the whole fleet sits parked."""
    lo, hi = window
    counts = [c for t, c in series.points if lo <= t <= hi]
    if not counts:
        raise ValueError(f"window {window} does not overlap the series")
    return max(counts)


@dataclass(frozen=True)
class CapVerdict:
    compliant: bool
    exceeds_by: int = 0


def check_device_cap(estimate: int, cap: int) -> CapVerdict:
    if cap <= 0:
        raise ValueError("cap must be positive")
    if estimate <= cap:
        return CapVerdict(compliant=True)
    return CapVerdict(compliant=False, exceeds_by=estimate - cap)


def write_meta_header(f, meta: dict | None) -> None:
    """Write provenance as ``# key=value`` lines; CSV readers skip them."""
    for k, v in (meta or {}).items():
        f.write(f"# {k}={v}\n")


def trip_row(t: Trip) -> list:
    """One trips-CSV row in TRIP_CSV_COLUMNS order: coordinates to 6
    decimals, distance to 2."""
    coords = (f"{v:.6f}" for v in (*t.start_loc, *t.end_loc))
    return [t.scooter_id, t.start_time, t.end_time, *coords, f"{t.distance_m:.2f}", t.duration_s]


def write_trips_csv(trips: list[Trip], path: str | Path, meta: dict | None = None) -> None:
    with open(path, "w", newline="", encoding="utf-8") as f:
        write_meta_header(f, meta)
        w = csv.writer(f)
        w.writerow(TRIP_CSV_COLUMNS)
        w.writerows(trip_row(t) for t in trips)


def read_trips_csv(path: str | Path) -> list[Trip]:
    trips = []
    with open(path, newline="", encoding="utf-8") as f:
        rows = (line for line in f if not line.startswith("#"))
        for rec in csv.DictReader(rows):
            trips.append(
                make_trip(
                    rec["scooter_id"],
                    (float(rec["start_lat"]), float(rec["start_lon"])),
                    (float(rec["end_lat"]), float(rec["end_lon"])),
                    int(rec["start_time"]),
                    int(rec["end_time"]),
                )
            )
    return trips
