"""Privacy-utility evaluation over polygon regions.

Measures what a city loses when scooter locations are perturbed:
boundary escapes (scooters appearing outside city limits) and
per-neighborhood count distortion, swept over a grid of protection radii
R with epsilon = ln(ratio)/R at each grid point.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .feed_ingest import Snapshot
from . import geo_privacy
from .trip_recon import write_meta_header

REPORT_CSV_COLUMNS = [
    "R_km",
    "epsilon",
    "mean_outside",
    "stderr_outside",
    "mean_abs_error",
    "mean_escapes",
    "stderr_escapes",
]


class RegionError(ValueError):
    """Invalid polygon geometry or region file."""


@dataclass(frozen=True)
class Region:
    """Named polygon set: outer rings plus optional holes, even-odd rule.

    Rings are closed (lat, lon) vertex lists, first == last.
    """

    name: str
    rings: tuple[tuple[tuple[float, float], ...], ...]

    def __post_init__(self):
        if not self.rings:
            raise RegionError(f"region {self.name!r} has no rings")
        for ring in self.rings:
            if len(ring) < 4:
                raise RegionError(f"region {self.name!r}: ring with < 4 vertices")
            if ring[0] != ring[-1]:
                raise RegionError(f"region {self.name!r}: ring not closed")
            _check_simple(ring, self.name)

    def bbox(self) -> tuple[float, float, float, float]:
        lats = [p[0] for ring in self.rings for p in ring]
        lons = [p[1] for ring in self.rings for p in ring]
        return min(lats), min(lons), max(lats), max(lons)


def _segments_intersect(p1, p2, q1, q2) -> bool:
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    o1, o2 = orient(p1, p2, q1), orient(p1, p2, q2)
    o3, o4 = orient(q1, q2, p1), orient(q1, q2, p2)
    return o1 != o2 and o3 != o4


def _check_simple(ring, name: str) -> None:
    """Reject self-intersecting rings (non-adjacent proper crossings)."""
    edges = list(zip(ring[:-1], ring[1:]))
    n = len(edges)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # first and last edges share the closing vertex
            if _segments_intersect(*edges[i], *edges[j]):
                raise RegionError(f"region {name!r}: self-intersecting ring")


@dataclass(frozen=True)
class RegionSet:
    regions: tuple[Region, ...]

    def __post_init__(self):
        names = [r.name for r in self.regions]
        if len(names) != len(set(names)):
            raise RegionError("duplicate region names")


def point_in_region(p: tuple[float, float], region: Region) -> bool:
    """Scalar form of points_in_region, with the same tie rule."""
    return bool(points_in_region(np.array([p[0]]), np.array([p[1]]), region)[0])


def points_in_region(lats: np.ndarray, lons: np.ndarray, region: Region) -> np.ndarray:
    """Even-odd containment over all rings; holes subtract.

    Tie rule for points exactly on an edge (the only one in the package):
    half-open crossing. A ray cast east from the point crosses an edge
    when one end's latitude is <= the point's and the other's is >, and
    the point lies strictly west of the crossing. On an axis-aligned tile
    the south and west edges are inside and the north and east edges
    outside, so adjacent tiles never share a point, whatever their order.
    """
    lats = np.asarray(lats, float)
    lons = np.asarray(lons, float)
    inside = np.zeros(len(lats), dtype=bool)
    for ring in region.rings:
        r = np.asarray(ring, float)
        ay, ax = r[:-1, 0], r[:-1, 1]
        by, bx = r[1:, 0], r[1:, 1]
        crosses = np.zeros(len(lats), dtype=bool)
        for i in range(len(ay)):
            if ay[i] == by[i]:
                continue
            straddles = (ay[i] > lats) != (by[i] > lats)
            x_cross = ax[i] + (lats - ay[i]) * (bx[i] - ax[i]) / (by[i] - ay[i])
            crosses ^= straddles & (lons < x_cross)
        inside ^= crosses
    return inside


def load_regions_geojson(path: str | Path) -> list[Region]:
    """Load Polygon/MultiPolygon features from a GeoJSON FeatureCollection.

    GeoJSON coordinates are (lon, lat); rings are stored as (lat, lon).
    A region is named by its feature's ``name`` property, else ``region_<i>``.
    """
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    if doc.get("type") != "FeatureCollection":
        raise RegionError(f"{path}: not a FeatureCollection")
    regions = []
    for i, feat in enumerate(doc.get("features", [])):
        geom = feat.get("geometry") or {}
        props = feat.get("properties") or {}
        name = str(props.get("name", f"region_{i}"))
        gtype = geom.get("type")
        if gtype == "Polygon":
            poly_rings = geom["coordinates"]
        elif gtype == "MultiPolygon":
            poly_rings = [ring for poly in geom["coordinates"] for ring in poly]
        else:
            raise RegionError(f"{path}: feature {name!r} has unsupported type {gtype}")
        rings = tuple(
            tuple((float(lat), float(lon)) for lon, lat in ring) for ring in poly_rings
        )
        regions.append(Region(name=name, rings=rings))
    return regions


def count_by_region(
    snapshot: Snapshot, regions: RegionSet
) -> tuple[dict[str, int], int]:
    """Per-region scooter counts plus the count matching no region.

    Overlaps resolve to the first containing region in file order, so the
    counts always partition the snapshot.
    """
    assignment = _assign_regions(*snapshot.coords(), regions)
    counts = {r.name: int(np.sum(assignment == i)) for i, r in enumerate(regions.regions)}
    return counts, int(np.sum(assignment == -1))


def _assign_regions(
    lats: np.ndarray, lons: np.ndarray, regions: RegionSet
) -> np.ndarray:
    """First-containing-region index per point, -1 for outside all."""
    assignment = np.full(len(lats), -1, dtype=int)
    for idx, region in enumerate(regions.regions):
        unassigned = assignment == -1
        if not unassigned.any():
            break
        hit = points_in_region(lats[unassigned], lons[unassigned], region)
        assignment[np.flatnonzero(unassigned)[hit]] = idx
    return assignment


@dataclass(frozen=True)
class UtilityRow:
    R_km: float
    epsilon: float  # inf encoded as 0-noise row at R=0
    mean_outside: float
    stderr_outside: float
    mean_abs_error: float
    mean_escapes: float
    stderr_escapes: float


@dataclass(frozen=True)
class UtilityReport:
    rows: tuple[UtilityRow, ...]
    trials: int
    ratio: float
    master_seed: int

    def __post_init__(self):
        radii = [r.R_km for r in self.rows]
        if radii != sorted(radii):
            raise ValueError("R grid must be ascending")


def _mean_stderr(values: list[float]) -> tuple[float, float]:
    arr = np.asarray(values, float)
    m = float(arr.mean())
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return m, se


def boundary_loss_experiment(
    snapshot: Snapshot,
    boundary: Region,
    r_grid: list[float],
    trials: int,
    ratio: float,
    master_seed: int,
) -> list[UtilityRow]:
    """Mean scooters escaping the boundary per trial, for each R.

    The neighborhood experiment with the boundary as its one region, over
    the scooters initially inside it: for those, escaping the region and
    landing outside the boundary are the same event.
    """
    inside = points_in_region(*snapshot.coords(), boundary)
    kept = replace(
        snapshot, observations=tuple(o for o, i in zip(snapshot.observations, inside) if i)
    )
    rows = neighborhood_loss_experiment(
        kept, RegionSet((boundary,)), r_grid, trials, ratio, master_seed
    )
    return [
        UtilityRow(r.R_km, r.epsilon, r.mean_escapes, r.stderr_escapes, 0.0, 0.0, 0.0)
        for r in rows
    ]


def neighborhood_loss_experiment(
    snapshot: Snapshot,
    regions: RegionSet,
    r_grid: list[float],
    trials: int,
    ratio: float,
    master_seed: int,
) -> list[UtilityRow]:
    """Per-neighborhood distortion for each R: escapes (scooters truly in
    a neighborhood whose noisy location falls outside it) and absolute
    count error, both averaged over trials and neighborhoods.

    R = 0 means no perturbation. Trial t at grid index g draws from
    substream g * trials + t of master_seed, so results do not depend on
    execution order.
    """
    if not regions.regions:
        raise ValueError("empty region set")
    if not r_grid:
        raise ValueError("empty R grid")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    lats, lons = snapshot.coords()
    true_assignment = _assign_regions(lats, lons, regions)
    n_regions = len(regions.regions)
    true_counts = np.bincount(true_assignment[true_assignment >= 0], minlength=n_regions)
    rows = []
    for g, r_km in enumerate(r_grid):
        if r_km == 0:
            rows.append(UtilityRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0))
            continue
        eps = geo_privacy.epsilon_from(r_km, ratio)
        escapes_per_trial, abs_err_per_trial = [], []
        for t in range(trials):
            rng = geo_privacy.substream(master_seed, g * trials + t)
            nlat, nlon = geo_privacy.perturb_many(lats, lons, eps, rng)
            noisy_assignment = _assign_regions(nlat, nlon, regions)
            escaped = (true_assignment >= 0) & (noisy_assignment != true_assignment)
            escapes_by_region = np.bincount(true_assignment[escaped], minlength=n_regions)
            noisy_counts = np.bincount(
                noisy_assignment[noisy_assignment >= 0], minlength=n_regions
            )
            escapes_per_trial.append(float(escapes_by_region.mean()))
            abs_err_per_trial.append(float(np.abs(true_counts - noisy_counts).mean()))
        esc_m, esc_se = _mean_stderr(escapes_per_trial)
        err_m, _ = _mean_stderr(abs_err_per_trial)
        rows.append(UtilityRow(r_km, eps, 0.0, 0.0, err_m, esc_m, esc_se))
    return rows


def merge_rows(
    boundary_rows: list[UtilityRow], neighborhood_rows: list[UtilityRow]
) -> list[UtilityRow]:
    """Join the two experiments on R_km into combined report rows."""
    merged = []
    for b, n in zip(boundary_rows, neighborhood_rows):
        if b.R_km != n.R_km:
            raise ValueError("mismatched R grids")
        merged.append(
            UtilityRow(
                b.R_km, b.epsilon, b.mean_outside, b.stderr_outside,
                n.mean_abs_error, n.mean_escapes, n.stderr_escapes,
            )
        )
    return merged


def emit_report(report: UtilityReport, path: str | Path, fmt: str = "csv") -> None:
    """Serialize a report losslessly as CSV (with # metadata header) or JSON."""
    if fmt == "csv":
        with open(path, "w", newline="", encoding="utf-8") as f:
            write_meta_header(
                f, {"trials": report.trials, "ratio": report.ratio, "seed": report.master_seed}
            )
            w = csv.writer(f)
            w.writerow(REPORT_CSV_COLUMNS)
            for r in report.rows:
                w.writerow(
                    [
                        repr(r.R_km),
                        repr(r.epsilon),
                        repr(r.mean_outside),
                        repr(r.stderr_outside),
                        repr(r.mean_abs_error),
                        repr(r.mean_escapes),
                        repr(r.stderr_escapes),
                    ]
                )
    elif fmt == "json":
        doc = {
            "trials": report.trials,
            "ratio": report.ratio,
            "seed": report.master_seed,
            "rows": [vars(r) for r in report.rows],
        }
        with open(path, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
    else:
        raise ValueError(f"unknown format {fmt!r}")


def snapshot_to_geojson(snapshot: Snapshot) -> dict:
    """Point FeatureCollection of one snapshot, for map rendering."""
    return {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": [o.lon, o.lat]},
                "properties": {
                    "scooter_id": o.scooter_id,
                    "reserved": o.is_reserved,
                    "disabled": o.is_disabled,
                },
            }
            for o in snapshot.observations
        ],
    }


def load_report_json(path: str | Path) -> UtilityReport:
    with open(path, encoding="utf-8") as f:
        doc = json.load(f)
    return UtilityReport(
        rows=tuple(UtilityRow(**r) for r in doc["rows"]),
        trials=doc["trials"],
        ratio=doc["ratio"],
        master_seed=doc["seed"],
    )
