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
from itertools import repeat
from pathlib import Path
from typing import Iterable

import numpy as np

from .feed_ingest import MALFORMED_INPUT, Snapshot, check_coordinates, write_csv

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


# (radians, sin, cos, asin, sqrt) for scalar and for array coordinates
_SCALAR_OPS = (math.radians, math.sin, math.cos, math.asin, math.sqrt)
_ARRAY_OPS = (np.radians, np.sin, np.cos, np.arcsin, np.sqrt)
# numpy's float64 sin, cos and arcsin may differ from libm's in the last
# bits (e.g. on AVX-512 builds); an array distance is within this relative
# error of the scalar distance of the same points, near antipodes too
ARRAY_REL_TOL = 1e-6


def haversine_distance(a, b):
    """Great-circle distance in meters between (lat, lon) points in
    degrees. Scalar coordinates compute with libm through math, a float;
    if a coordinate is an array, the distances are element-wise with
    numpy, broadcast as numpy does, and within ARRAY_REL_TOL of the
    scalar ones."""
    radians, sin, cos, asin, sqrt = (
        _ARRAY_OPS if any(np.ndim(v) for v in (*a, *b)) else _SCALAR_OPS
    )
    lat1, lon1 = radians(a[0]), radians(a[1])
    lat2, lon2 = radians(b[0]), radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = sin(dlat / 2) ** 2 + cos(lat1) * cos(lat2) * sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_M * asin(sqrt(h))


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
        # NaN fails both comparisons, so it is rejected too
        if not self.min_distance_m >= 0:
            raise ValueError(f"min_distance_m must be >= 0, got {self.min_distance_m}")
        if not self.max_duration_s > 0:
            raise ValueError(f"max_duration_s must be > 0, got {self.max_duration_s}")

    def rejects(self, trip: Trip) -> str | None:
        """The threshold trip fails, distance checked first: "min_distance_m"
        or "max_duration_s"; None if the filter keeps it."""
        if trip.distance_m < self.min_distance_m:
            return "min_distance_m"
        if trip.duration_s > self.max_duration_s:
            return "max_duration_s"
        return None

    def keeps(self, trip: Trip) -> bool:
        return self.rejects(trip) is None


def reconstruct_trips(
    snapshots: Iterable[Snapshot],
    min_move_m: float = DEFAULT_MIN_MOVE_M,
) -> list[Trip]:
    """Diff consecutive snapshots of one provider into unfiltered trips,
    in snapshot order, then observation order.

    The snapshots are read once, in order, so a stream such as
    read_snapshots' is consumed as it is read. A scooter absent for
    intermediate snapshots and reappearing elsewhere yields a single
    trip spanning the gap; one that disappears for good yields nothing.
    Raises on unsorted input, mixed providers or a min_move_m that is
    negative or NaN.

    Each scooter's state is its last observation: a move of at most
    min_move_m is jitter, not a trip, and the next trip starts from where
    the scooter last stood.

    Each snapshot is one join on ids: a dict gives every id a dense
    index into arrays of its last fix and last-seen time, and one
    great-circle call over the snapshot's known ids decides the moves.
    """
    if not min_move_m >= 0:
        raise ValueError(f"min_move_m must be >= 0, got {min_move_m}")
    index: dict[str, int] = {}
    # per dense index: last fix and last-seen time, grown by doubling
    park_lat, park_lon = np.empty(0), np.empty(0)
    seen = np.empty(0, dtype=np.int64)
    trips: list[Trip] = []
    provider = prev_ts = None
    for snap in snapshots:
        t = snap.captured_at
        if prev_ts is not None:
            if snap.provider != provider:
                raise ValueError(f"mixed providers: {provider!r} and {snap.provider!r}")
            if t <= prev_ts:
                raise ValueError("snapshots not strictly ascending in time")
        provider, prev_ts = snap.provider, t
        idx = np.fromiter(map(index.get, snap.ids, repeat(-1)), dtype=np.intp, count=len(snap.ids))
        new = idx < 0
        for p in np.flatnonzero(new).tolist():
            idx[p] = index[snap.ids[p]] = len(index)
        if len(index) > len(seen):
            size = max(len(index), 2 * len(seen))
            park_lat, park_lon, seen = (
                np.concatenate([a, np.empty(size - len(a), a.dtype)])
                for a in (park_lat, park_lon, seen)
            )
        lats, lons = snap.lats, snap.lons
        old = ~new
        k = idx[old]
        start, end = (park_lat[k], park_lon[k]), (lats[old], lons[old])
        d = haversine_distance(start, end)
        # a distance this close to min_move_m takes the scalar call, so
        # each move is decided as the scalar loop decided it
        for j in np.flatnonzero(abs(d - min_move_m) < ARRAY_REL_TOL * min_move_m).tolist():
            d[j] = haversine_distance((start[0][j], start[1][j]), (end[0][j], end[1][j]))
        # absent longer than the gap: likely a recycled id, not the same
        # physical scooter, so a fresh history instead of a trip
        fresh = t - seen[k] > ID_REUSE_GAP_S
        moved = ~fresh & (d > min_move_m)
        pos, km = np.flatnonzero(old)[moved], k[moved]
        for p, start_lat, start_lon, end_lat, end_lon, start_time in zip(
            pos.tolist(), park_lat[km].tolist(), park_lon[km].tolist(),
            lats[pos].tolist(), lons[pos].tolist(), seen[km].tolist(),
        ):
            trips.append(
                Trip(snap.ids[p], (start_lat, start_lon), (end_lat, end_lon), start_time, t)
            )
        park_lat[idx], park_lon[idx], seen[idx] = lats, lons, t
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


def _check_trip_coordinates(path: str | Path, trips: list[Trip], linenos: list[int]) -> None:
    """check_coordinates over each coordinate column of trips at once; where
    a value is out of range, over each half in turn, so the ValueError names
    the first bad trip's line, and its column."""
    try:
        for end in ("start", "end"):
            lats, lons = np.array([getattr(t, f"{end}_loc") for t in trips]).reshape(-1, 2).T
            check_coordinates(lats, lons, (f"{end}_lat", f"{end}_lon"))
    except ValueError as exc:
        if len(trips) == 1:
            raise ValueError(f"{path}: line {linenos[0]}: {exc}") from exc
        half = len(trips) // 2
        _check_trip_coordinates(path, trips[:half], linenos[:half])
        _check_trip_coordinates(path, trips[half:], linenos[half:])


def read_trips_csv(path: str | Path) -> list[Trip]:
    """Trips from a trips CSV, skipping ``#`` lines. ValueError if a
    TRIP_CSV_COLUMNS column is missing from its header, if a line is
    malformed (MALFORMED_INPUT: not UTF-8, or a field over the csv module's
    limit, say), or if a row does not make a Trip of finite, in-range
    coordinates; the error names the path and the first bad line, ``#``
    lines counted. A line is decoded once it is numbered; the coordinates of
    the lines before the first malformed one are range-checked by column."""
    lineno = 0  # of the line last read, # lines counted

    def data_lines(f):
        nonlocal lineno
        for lineno, raw in enumerate(f, start=1):
            line = raw.decode("utf-8")
            if not line.startswith("#"):
                yield line

    trips, linenos = [], []  # each trip read, and its line
    with open(path, "rb") as f:
        reader = csv.DictReader(data_lines(f))
        try:
            missing = [c for c in TRIP_CSV_COLUMNS if c not in (reader.fieldnames or [])]
            if missing:
                raise ValueError(f"trips CSV lacks column(s) {', '.join(missing)}")
            for rec in reader:
                trips.append(Trip(
                    rec["scooter_id"],
                    (float(rec["start_lat"]), float(rec["start_lon"])),
                    (float(rec["end_lat"]), float(rec["end_lon"])),
                    int(rec["start_time"]),
                    int(rec["end_time"]),
                ))
                linenos.append(lineno)
        except MALFORMED_INPUT as exc:
            # a coordinate out of range on an earlier line comes first
            _check_trip_coordinates(path, trips, linenos)
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    _check_trip_coordinates(path, trips, linenos)
    return trips
