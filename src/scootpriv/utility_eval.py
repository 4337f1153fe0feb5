"""Privacy-utility evaluation over polygon regions.

Measures what a city loses when scooter locations are perturbed:
boundary escapes (scooters appearing outside city limits) and
per-neighborhood count distortion, swept over a grid of protection radii
R with epsilon = ln(ratio)/R at each grid point.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .feed_ingest import Snapshot, json_number, points_geojson, write_csv, write_json
from . import feed_ingest, geo_privacy, workers

# trial-points (trials x scooters x grid points with R > 0) from which
# neighborhood_loss_experiment runs its grid points in worker processes.
# Measured on 2 CPUs with perfbench's city and 100 tiles, 942 scooters, 21
# alternated calls each: two grid points, the fewest that fork, break even
# near 1.2e5 trial-points and are faster in workers in every call from
# 2.4e5; twenty grid points break even near 2e4
PARALLEL_SWEEP_MIN_POINTS = 1 << 18
# margin around a region's bounding box in the containment prefilter:
# points_in_region interpolates each edge's crossing longitude, and the
# rounding can land a few ulps (about 1e-13 degrees) outside the box
BBOX_PAD_DEG = 1e-9


class RegionError(ValueError):
    """Invalid polygon geometry or region file."""


@dataclass(frozen=True)
class Region:
    """Named polygon set: outer rings plus optional holes, even-odd rule.

    Rings are closed (lat, lon) vertex lists, first == last, of
    coordinates under feed_ingest.check_coordinates.
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
            r = np.asarray(ring, float)
            try:
                feed_ingest.check_coordinates(r[:, 0], r[:, 1])
            except feed_ingest.FeedParseError as exc:
                raise RegionError(f"region {self.name!r}: {exc}") from exc
            _check_simple(r, self.name)

    @cached_property
    def bbox(self) -> tuple[float, float, float, float]:
        """(lat_min, lon_min, lat_max, lon_max) over every ring's vertices."""
        lats = [p[0] for ring in self.rings for p in ring]
        lons = [p[1] for ring in self.rings for p in ring]
        return min(lats), min(lons), max(lats), max(lons)


# edge pairs _check_simple tests at once, which bounds its memory
SIMPLE_CHECK_PAIRS = 1 << 18


def _sides(v0, v1, d0, d1, edges: slice, vertices: slice) -> np.ndarray:
    """[e, k]: the side of edge e's line that vertex k lies on, as the
    sign of the float64 orientation (b - a) x (k - a) of the edge a -> b:
    1, -1, or 0 on the line. NaN counts as -1."""
    s = d0[edges, None] * (v1[vertices] - v1[edges, None]) - d1[edges, None] * (
        v0[vertices] - v0[edges, None]
    )
    return np.fmax(np.sign(s), -1.0)


def _check_simple(ring, name: str) -> None:
    """Reject self-intersecting rings: two edges, neither adjacent nor the
    first and last (they share the closing vertex), each of whose ends
    are on different sides of the other's line, or one on it.

    Edge i is tested against every edge j >= i + 2, a block of rows of
    about SIMPLE_CHECK_PAIRS pairs at a time."""
    r = np.asarray(ring, float)
    v0, v1 = r[:, 0], r[:, 1]
    # edge e runs from vertex e to vertex e + 1
    d0, d1 = v0[1:] - v0[:-1], v1[1:] - v1[:-1]
    n = len(d0)
    rows = max(1, SIMPLE_CHECK_PAIRS // n)
    for lo in range(0, n - 2, rows):
        hi = min(lo + rows, n - 2)
        # row i - lo, column j - lo - 2: edge i against edge j
        ij = _sides(v0, v1, d0, d1, slice(lo, hi), slice(lo + 2, n + 1))
        ji = _sides(v0, v1, d0, d1, slice(lo + 2, n), slice(lo, hi + 1))
        crossing = (ij[:, :-1] != ij[:, 1:]) & (ji[:, :-1] != ji[:, 1:]).T
        crossing &= np.arange(hi - lo)[:, None] <= np.arange(n - lo - 2)
        if lo == 0:
            crossing[0, -1] = False  # edges 0 and n - 1
        if crossing.any():
            raise RegionError(f"region {name!r}: self-intersecting ring")


@dataclass(frozen=True)
class RegionSet:
    regions: tuple[Region, ...]

    def __post_init__(self):
        dups = sorted(n for n, c in Counter(r.name for r in self.regions).items() if c > 1)
        if dups:
            raise RegionError(f"duplicate region names: {', '.join(map(repr, dups))}")


def points_in_region(lats: np.ndarray, lons: np.ndarray, region: Region) -> np.ndarray:
    """Even-odd containment: one parity over every edge of every ring, so holes subtract.

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
    # a nearly horizontal edge overflows the crossing longitude only at
    # points it does not straddle, which the mask drops: a straddling
    # point's lats - ay is at most by - ay, so its crossing stays finite
    with np.errstate(over="ignore"):
        for ring in region.rings:
            for (ay, ax), (by, bx) in zip(ring, ring[1:]):
                if ay != by:
                    straddles = (ay > lats) != (by > lats)
                    inside ^= straddles & (lons < ax + (lats - ay) * (bx - ax) / (by - ay))
    return inside


def load_regions_geojson(path: str | Path) -> RegionSet:
    """The Polygon/MultiPolygon features of a GeoJSON FeatureCollection.

    GeoJSON positions are [lon, lat], then an altitude that is dropped;
    rings are stored as (lat, lon). A region is named by its feature's
    ``name`` property, else ``region_<i>``. A file that is not JSON, or
    anything but a non-empty array of uniquely named feature objects, with
    object geometry and properties and valid rings (Region) of positions
    that start with two numbers, raises RegionError naming the path first.
    """
    with open(path, encoding="utf-8") as f:
        try:
            doc = json.load(f)
        except feed_ingest.MALFORMED_INPUT as exc:  # not JSON, not UTF-8, or nested too deeply
            raise RegionError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("type") != "FeatureCollection":
        raise RegionError(f"{path}: not a FeatureCollection")
    features = doc.get("features")
    if not isinstance(features, list) or not features:
        raise RegionError(f"{path}: features must be a non-empty array")
    regions = []
    for i, feat in enumerate(features):
        if not isinstance(feat, dict):
            raise RegionError(f"{path}: feature {i} is not an object")
        geom = feat.get("geometry") or {}
        props = feat.get("properties") or {}
        if not isinstance(geom, dict) or not isinstance(props, dict):
            raise RegionError(f"{path}: feature {i}: geometry or properties is not an object")
        name = str(props.get("name", f"region_{i}"))
        gtype = geom.get("type")
        if gtype not in ("Polygon", "MultiPolygon"):
            raise RegionError(f"{path}: feature {name!r} has unsupported type {gtype}")
        try:
            polys = [geom["coordinates"]] if gtype == "Polygon" else geom["coordinates"]
            rings = tuple(tuple(_position(p) for p in ring) for poly in polys for ring in poly)
            regions.append(Region(name=name, rings=rings))
        except RegionError as exc:
            raise RegionError(f"{path}: {exc}") from exc
        except feed_ingest.MALFORMED_INPUT as exc:
            raise RegionError(f"{path}: feature {name!r}: malformed coordinates ({exc!r})") from exc
    try:
        return RegionSet(tuple(regions))
    except RegionError as exc:
        raise RegionError(f"{path}: {exc}") from exc


def _position(p) -> tuple[float, float]:
    """(lat, lon) of a GeoJSON position [lon, lat, ...]; ValueError unless
    its first two items are finite JSON numbers (feed_ingest.json_number).
    A string of digits unpacks into its characters, which are rejected."""
    lon, lat, *_ = p
    return json_number(lat), json_number(lon)


def _by_latitude(lats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(order, sorted latitudes): the sort _assign_regions slices."""
    order = np.argsort(lats)
    return order, lats[order]


def _assign_regions(
    lats: np.ndarray, lons: np.ndarray, regions: RegionSet, by_latitude=None
) -> np.ndarray:
    """First-containing-region index per point, -1 for outside all.

    The points are sorted by latitude once: by_latitude is
    _by_latitude(lats), passed so that several region sets share one
    sort, or None to sort here. Each region then runs points_in_region
    only on the still unassigned points inside its bounding box: a
    searchsorted slice of the sorted latitudes, narrowed by a longitude
    test.
    """
    assignment = np.full(len(lats), -1, dtype=int)
    order, sorted_lats = _by_latitude(lats) if by_latitude is None else by_latitude
    for idx, region in enumerate(regions.regions):
        lat_min, lon_min, lat_max, lon_max = region.bbox
        lo, hi = np.searchsorted(
            sorted_lats, (lat_min - BBOX_PAD_DEG, lat_max + BBOX_PAD_DEG), side="left"
        )
        cand = order[lo:hi]
        cand_lons = lons[cand]
        cand = cand[
            (cand_lons >= lon_min - BBOX_PAD_DEG)
            & (cand_lons <= lon_max + BBOX_PAD_DEG)
            & (assignment[cand] == -1)
        ]
        if len(cand):
            hit = points_in_region(lats[cand], lons[cand], region)
            assignment[cand[hit]] = idx
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


REPORT_CSV_COLUMNS = [f.name for f in fields(UtilityRow)]


def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
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
    """Mean scooters escaping the boundary per trial, for each R: the
    neighborhood experiment given only the boundary, whose neighborhood
    columns are 0. A scooter initially inside escapes exactly when it
    lands outside the boundary, and one outside never counts.
    """
    return neighborhood_loss_experiment(
        snapshot, None, r_grid, trials, ratio, master_seed, boundary=boundary
    )


def _distortion(
    truth: np.ndarray, noisy: np.ndarray, n_regions: int
) -> tuple[float, float, float]:
    """(mean absolute count error, mean escapes, escapes' stderr) per
    region, averaged over trials, of one region set's true (n,) and
    noisy (trials, n) assignments."""
    trials = len(noisy)
    true_counts = np.bincount(truth[truth >= 0], minlength=n_regions)
    offsets = np.arange(trials)[:, None] * n_regions
    noisy_counts = np.bincount(
        (offsets + noisy)[noisy >= 0], minlength=trials * n_regions
    ).reshape(trials, n_regions)
    escaped = (truth >= 0) & (noisy != truth)
    esc_m, esc_se = _mean_stderr(escaped.sum(axis=1) / n_regions)
    err_m, _ = _mean_stderr(np.abs(true_counts - noisy_counts).mean(axis=1))
    return err_m, esc_m, esc_se


def neighborhood_loss_experiment(
    snapshot: Snapshot,
    regions: RegionSet | None,
    r_grid: list[float],
    trials: int,
    ratio: float,
    master_seed: int,
    boundary: Region | None = None,
) -> list[UtilityRow]:
    """Per-neighborhood distortion for each R: escapes (scooters truly in
    a neighborhood whose noisy location falls outside it) and absolute
    count error, both averaged over trials and neighborhoods. With a
    boundary, each row's mean_outside and stderr_outside are also those
    boundary_loss_experiment reports for the same seed, measured on the
    same noisy fleet. Without regions, the neighborhood columns are 0.

    R = 0 means no perturbation. Grid index g draws every trial's noise
    from substream g of master_seed, in one sample_polar_laplace call of
    shape (trials, n): row t is trial t. So results depend only on the
    seed and g, not on execution order. Every epsilon is built, and so
    checked, before any draw, so an R too large fails for every seed.

    Each R makes one geo_privacy.displace call that broadcasts the (n,)
    true coordinates against the (trials, n) bearings and radii. Beside the
    two draw arrays, that call peaks at eight (trials, n) float arrays,
    its two results included (see displace): ten in all, 80 * trials * n
    bytes, about 1.9 MB at 25 trials of 940 scooters and 80 MB at 100
    trials of 10,000. The draws are then dropped. The noisy points are
    sorted by latitude once, an intp index and a float copy, and each
    region set's assignment pass slices that sort: the neighborhoods,
    then the boundary as its own one-region set, since a point is
    assigned only its first containing region. A pass holds five
    (trials, n) arrays beside copies of the candidates of the region it
    tests; a boundary, which holds nearly every point, makes its pass
    the peak: 11.4 such arrays at 25 trials of 942 scooters, against
    displace's 10.4 (tracemalloc, over the memory held at the call).

    Every grid point is one task of one blocking workers.ordered_map call,
    the R = 0 row included, which draws nothing. The tasks run in forked
    worker processes when trials * n * (the count of R > 0) reaches
    PARALLEL_SWEEP_MIN_POINTS and workers.worker_count, given that count,
    gives two or more, else in-process; the rows are the same either way.
    The caller then holds no (trials, n) array, and each worker one R's
    at a time: the memory held across processes is the number of workers
    times the peak above.
    """
    if regions is None and boundary is None:
        raise ValueError("no region set and no boundary")
    if regions is not None and not regions.regions:
        raise ValueError("empty region set")
    if not r_grid:
        raise ValueError("empty R grid")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    epsilons = [0.0 if r_km == 0 else geo_privacy.epsilon_from(r_km, ratio) for r_km in r_grid]
    region_sets = [s for s in (regions, boundary and RegionSet((boundary,))) if s is not None]
    lats, lons = snapshot.lats, snapshot.lons
    true_sort = _by_latitude(lats)
    truths = [_assign_regions(lats, lons, s, true_sort) for s in region_sets]

    def grid_point(g: int) -> UtilityRow:
        r_km, eps = r_grid[g], epsilons[g]
        if r_km == 0:
            return UtilityRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
        rng = geo_privacy.substream(master_seed, g)
        theta, r = geo_privacy.sample_polar_laplace(eps, rng, (trials, len(lats)))
        nlat, nlon = geo_privacy.displace(lats, lons, theta, r)
        del theta, r  # spent: the assignment passes do not hold them
        # every trial's points in one assignment per region set, one row per trial
        nlat, nlon = nlat.ravel(), nlon.ravel()
        noisy_sort = _by_latitude(nlat)
        losses = [
            _distortion(
                truth,
                _assign_regions(nlat, nlon, s, noisy_sort).reshape(trials, -1),
                len(s.regions),
            )
            for truth, s in zip(truths, region_sets)
        ]
        err_m, esc_m, esc_se = losses[0] if regions is not None else (0.0, 0.0, 0.0)
        _, out_m, out_se = losses[-1] if boundary is not None else (0.0, 0.0, 0.0)
        return UtilityRow(r_km, eps, out_m, out_se, err_m, esc_m, esc_se)

    noisy = sum(r_km != 0 for r_km in r_grid)
    n = workers.worker_count(trials * len(lats) * noisy, PARALLEL_SWEEP_MIN_POINTS, noisy)
    return workers.ordered_map(grid_point, range(len(r_grid)), n)


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


def emit_report(rows: list[UtilityRow], path: str | Path, fmt: str, meta: dict) -> None:
    """Serialize report rows losslessly with the run's provenance (meta):
    as CSV under ``# key=value`` lines, or as JSON with meta's keys beside
    ``rows``. Raises ValueError unless the rows ascend in R."""
    radii = [r.R_km for r in rows]
    if radii != sorted(radii):
        raise ValueError("R grid must be ascending")
    if fmt == "csv":
        cells = ([repr(getattr(r, c)) for c in REPORT_CSV_COLUMNS] for r in rows)
        write_csv(path, REPORT_CSV_COLUMNS, cells, meta)
    elif fmt == "json":
        write_json(path, {**meta, "rows": [vars(r) for r in rows]})
    else:
        raise ValueError(f"unknown format {fmt!r}")


def snapshot_to_geojson(snapshot: Snapshot) -> dict:
    """Point FeatureCollection of one snapshot, for map rendering."""
    return points_geojson(
        (lat, lon, {"scooter_id": i, "reserved": reserved, "disabled": disabled})
        for i, lat, lon, reserved, disabled in snapshot.rows()
    )
