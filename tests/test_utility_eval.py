import gc
import json
import math
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from scootpriv import geo_privacy, synth_fleet, utility_eval
from scootpriv.geo_privacy import epsilon_from
from scootpriv.trip_recon import EARTH_RADIUS_KM
from scootpriv.utility_eval import (
    Region,
    RegionError,
    RegionSet,
    UtilityRow,
    _assign_regions,
    boundary_loss_experiment,
    emit_report,
    load_regions_geojson,
    merge_rows,
    neighborhood_loss_experiment,
    points_in_region,
)

from conftest import force_parallel_grid, make_snapshot, square_region

KM_PER_DEG = math.pi / 180 * EARTH_RADIUS_KM  # at the equator
FIXTURES = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures"


def traced_peak(fn) -> int:
    """Bytes fn's call peaks at under tracemalloc, over those held before it."""
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def winding_number_contains(p, region):
    """Independent containment oracle: nonzero winding number per ring,
    combined even-odd across rings (hole rings cancel)."""
    py, px = p
    inside = False
    for ring in region.rings:
        wn = 0
        for (ay, ax), (by, bx) in zip(ring[:-1], ring[1:]):
            if ay <= py:
                if by > py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) > 0:
                    wn += 1
            else:
                if by <= py and (bx - ax) * (py - ay) - (by - ay) * (px - ax) < 0:
                    wn -= 1
        if wn != 0:
            inside = not inside
    return inside


def half_plane_escape_probability(d_km, eps):
    """Probability a planar-Laplace displacement crosses a straight
    boundary d_km away: integrate the radial marginal times the angular
    fraction beyond the line."""
    q, _ = integrate.quad(
        lambda r: eps**2 * r * math.exp(-eps * r) * (math.acos(d_km / r) / math.pi),
        d_km,
        50 / eps + d_km,
    )
    return q


def pairwise_simple(ring) -> bool:
    """The ring check _check_simple replaced, one pair of edges at a time
    in Python floats: the reference for its decisions."""
    def orient(a, b, c):
        v = (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])
        return 0 if v == 0 else (1 if v > 0 else -1)

    edges = list(zip(ring[:-1], ring[1:]))
    n = len(edges)
    for i in range(n):
        for j in range(i + 2, n):
            if i == 0 and j == n - 1:
                continue  # first and last edges share the closing vertex
            (p1, p2), (q1, q2) = edges[i], edges[j]
            if (orient(p1, p2, q1) != orient(p1, p2, q2)
                    and orient(q1, q2, p1) != orient(q1, q2, p2)):
                return False
    return True


@st.composite
def grid_rings(draw):
    """Closed rings of 3-30 vertices on a small grid of drawn origin and
    spacing, so collinear and touching edges are common; sorted by angle
    around their mean, a ring is often simple. The origin leaves room for
    4 steps of 1 degree, so every vertex is a valid coordinate."""
    lat0, lon0 = draw(st.floats(-86.0, 86.0)), draw(st.floats(-176.0, 176.0))
    step = draw(st.sampled_from([1.0, 0.1, 1e-3, 1e-7]))
    cell = st.tuples(st.integers(0, 4), st.integers(0, 4))
    cells = draw(st.lists(cell, min_size=3, max_size=30))
    points = [(lat0 + i * step, lon0 + j * step) for i, j in cells]
    if draw(st.booleans()):
        c0, c1 = np.mean(points, axis=0)
        points.sort(key=lambda p: math.atan2(p[1] - c1, p[0] - c0))
    return tuple(points + points[:1])


class TestRegionValidation:
    def test_too_few_vertices(self):
        with pytest.raises(RegionError):
            Region("bad", (((0, 0), (1, 1), (0, 0)),))

    def test_unclosed_ring(self):
        with pytest.raises(RegionError):
            Region("bad", (((0, 0), (0, 1), (1, 1), (1, 0)),))

    def test_self_intersecting_ring(self):
        bowtie = ((0, 0), (1, 1), (1, 0), (0, 1), (0, 0))
        with pytest.raises(RegionError, match="self-intersect"):
            Region("bowtie", (bowtie,))

    def test_duplicate_region_names(self, unit_square):
        with pytest.raises(RegionError):
            RegionSet(regions=(unit_square, unit_square))

    @settings(max_examples=500, deadline=None)
    @given(grid_rings(), st.one_of(st.integers(1, 100), st.just(utility_eval.SIMPLE_CHECK_PAIRS)))
    def test_agrees_with_pairwise_oracle(self, ring, block):
        # small blocks split even a short ring into several
        default, utility_eval.SIMPLE_CHECK_PAIRS = utility_eval.SIMPLE_CHECK_PAIRS, block
        try:
            Region("r", (ring,))
            accepted = True
        except RegionError:
            accepted = False
        finally:
            utility_eval.SIMPLE_CHECK_PAIRS = default
        assert accepted == pairwise_simple(ring)

    def test_5000_vertex_ring_validates_quickly(self):
        angles = np.linspace(0.0, 2 * math.pi, 5000, endpoint=False)
        ring = list(zip((34 + 0.1 * np.sin(angles)).tolist(),
                        (-118 + 0.1 * np.cos(angles)).tolist()))
        start = time.perf_counter()
        Region("circle", (tuple(ring + ring[:1]),))
        assert time.perf_counter() - start < 5.0
        ring[2500], ring[2501] = ring[2501], ring[2500]
        with pytest.raises(RegionError, match="self-intersect"):
            Region("circle", (tuple(ring + ring[:1]),))


def contains(points, region):
    """points_in_region over a table of (lat, lon) points, as a list."""
    lats, lons = np.array(points, float).T
    return points_in_region(lats, lons, region).tolist()


class TestPointInRegion:
    def test_center_inside(self, unit_square):
        assert contains([(0.5, 0.5)], unit_square) == [True]

    def test_outside_bbox(self, unit_square):
        assert contains([(5.0, 5.0)], unit_square) == [False]

    def test_edge_tie_rule_south_west_in_north_east_out(self, unit_square):
        # south, west, north and east edge
        points = [(0.0, 0.5), (0.5, 0.0), (1.0, 0.5), (0.5, 1.0)]
        assert contains(points, unit_square) == [True, True, False, False]

    def test_vertex_tie_rule_only_south_west_corner_in(self, unit_square):
        points = [(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0)]
        assert contains(points, unit_square) == [True, False, False, False]

    def test_point_in_hole_is_outside(self, square_with_hole):
        assert contains([(5.0, 5.0), (2.0, 2.0)], square_with_hole) == [False, True]

    @pytest.mark.parametrize("fixture_name", ["unit_square", "square_with_hole"])
    def test_agrees_with_winding_oracle(self, fixture_name, request):
        region = request.getfixturevalue(fixture_name)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-2, 12, size=(10_000, 2)).tolist()
        assert contains(pts, region) == [winding_number_contains(p, region) for p in pts]

    def test_vectorized_matches_scalar(self, square_with_hole):
        rng = np.random.default_rng(1)
        lats = rng.uniform(-2, 12, 5000)
        lons = rng.uniform(-2, 12, 5000)
        vec = points_in_region(lats, lons, square_with_hole)
        for i in range(len(lats)):
            assert vec[i] == winding_number_contains((lats[i], lons[i]), square_with_hole)


class TestGeoJsonLoading:
    def test_polygon_and_multipolygon(self, tmp_path):
        doc = {
            "type": "FeatureCollection",
            "features": [
                {
                    "type": "Feature",
                    "properties": {"name": "one"},
                    "geometry": {
                        "type": "Polygon",
                        "coordinates": [[[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]],
                    },
                },
                {
                    "type": "Feature",
                    "properties": {"name": "two"},
                    "geometry": {
                        "type": "MultiPolygon",
                        "coordinates": [
                            [[[2, 2], [3, 2], [3, 3], [2, 3], [2, 2]]],
                            [[[4, 4], [5, 4], [5, 5], [4, 5], [4, 4]]],
                        ],
                    },
                },
            ],
        }
        path = tmp_path / "regions.geojson"
        path.write_text(json.dumps(doc))
        regions = load_regions_geojson(path).regions
        assert [r.name for r in regions] == ["one", "two"]
        # GeoJSON (lon, lat) flipped to (lat, lon)
        assert contains([(0.5, 0.5)], regions[0]) == [True]
        assert contains([(2.5, 2.5), (4.5, 4.5)], regions[1]) == [True, True]

    def test_altitude_ignored(self, tmp_path):
        ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        loaded = []
        for positions in (ring, [p + [5] for p in ring]):
            doc = {"type": "FeatureCollection", "features": [{
                "type": "Feature", "properties": {"name": "square"},
                "geometry": {"type": "Polygon", "coordinates": [positions]},
            }]}
            path = tmp_path / "square.geojson"
            path.write_text(json.dumps(doc))
            loaded.append(load_regions_geojson(path))
        assert loaded[1] == loaded[0] == RegionSet((square_region("square"),))

    def test_not_a_feature_collection(self, tmp_path):
        path = tmp_path / "bad.geojson"
        path.write_text(json.dumps({"type": "Polygon"}))
        with pytest.raises(RegionError):
            load_regions_geojson(path)

    def test_two_features_named_alike_named_with_the_path(self, tmp_path):
        ring = [[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]
        feature = {"type": "Feature", "properties": {"name": "twin"},
                   "geometry": {"type": "Polygon", "coordinates": [ring]}}
        path = tmp_path / "twins.geojson"
        path.write_text(json.dumps({"type": "FeatureCollection", "features": [feature] * 2}))
        with pytest.raises(RegionError) as exc:
            load_regions_geojson(path)
        assert str(exc.value) == f"{path}: duplicate region names: 'twin'"


class TestCountByRegion:
    """Per-region counts as evaluate takes them: one _assign_regions index
    per scooter, -1 for outside every region."""

    @pytest.fixture
    def two_squares(self):
        return RegionSet(
            regions=(
                square_region("west", lat0=0.0, lon0=0.0),
                square_region("east", lat0=0.0, lon0=1.0),
            )
        )

    def test_empty_snapshot(self, two_squares):
        snap = make_snapshot([])
        assert len(_assign_regions(snap.lats, snap.lons, two_squares)) == 0

    def test_known_placement(self, two_squares):
        snap = make_snapshot(
            [("a", 0.5, 0.5), ("b", 0.5, 1.5), ("c", 5.0, 5.0)]
        )
        assert _assign_regions(snap.lats, snap.lons, two_squares).tolist() == [0, 1, -1]

    def test_shared_edge_counts_once_in_east(self, two_squares):
        # on the common edge lon=1: east's west edge, west's east edge;
        # the tie rule decides, not the file order
        snap = make_snapshot([("a", 0.5, 1.0)])
        assert _assign_regions(snap.lats, snap.lons, two_squares).tolist() == [1]

    def test_overlap_resolves_to_first_in_file_order(self):
        overlapping = RegionSet(
            regions=(
                square_region("first", lat0=0.0, lon0=0.0),
                square_region("second", lat0=0.5, lon0=0.5),
            )
        )
        snap = make_snapshot([("a", 0.75, 0.75)])
        assert _assign_regions(snap.lats, snap.lons, overlapping).tolist() == [0]

    def test_partition_property(self, two_squares):
        rng = np.random.default_rng(2)
        lats, lons = rng.uniform(-1, 3, size=(2, 200))
        assignment = _assign_regions(lats, lons, two_squares)
        assert assignment.shape == (200,)
        for idx, region in enumerate(two_squares.regions):
            inside = points_in_region(lats, lons, region)
            assert inside[assignment == idx].all()
            assert not inside[assignment == -1].any()


def assign_oracle(lats, lons, regions):
    """Brute-force first-containing-region index: plain points_in_region
    over every point and every region, no prefilter."""
    out = np.full(len(lats), -1)
    for idx, region in enumerate(regions.regions):
        out[(out == -1) & points_in_region(lats, lons, region)] = idx
    return out


def _rect(lat0, lon0, h, w):
    return ((lat0, lon0), (lat0, lon0 + w), (lat0 + h, lon0 + w), (lat0 + h, lon0), (lat0, lon0))


def _ulps(x, k):
    """x moved k representable floats up (k > 0) or down (k < 0)."""
    for _ in range(abs(k)):
        x = np.nextafter(x, math.copysign(math.inf, k))
    return float(x)


_coord = st.floats(-3.0, 3.0, allow_nan=False)
_side = st.floats(0.01, 2.0)


@st.composite
def _region_sets(draw):
    """Up to four regions, often overlapping: rectangles, triangles with
    slanted edges, rectangles with a hole, and two-rectangle multipolygons,
    near the equator or near Los Angeles (coarser ulps)."""
    olat, olon = draw(st.sampled_from(((0.0, 0.0), (34.0, -118.3))))
    regions = []
    for i in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(("rect", "triangle", "holed", "multi")))
        lat0, lon0 = olat + draw(_coord), olon + draw(_coord)
        h, w = draw(_side), draw(_side)
        rect = _rect(lat0, lon0, h, w)
        if kind == "rect":
            rings = (rect,)
        elif kind == "triangle":
            a, b, c = ((olat + draw(_coord), olon + draw(_coord)) for _ in range(3))
            rings = ((a, b, c, a),)
        elif kind == "holed":
            rings = (rect, _rect(lat0 + h / 4, lon0 + w / 4, h / 2, w / 2))
        else:
            rings = (rect, _rect(lat0, lon0 + 1.5 * w, h, w))
        regions.append(Region(f"r{i}", rings))
    return RegionSet(tuple(regions))


def _boundary_points(regions):
    """Points on every vertex, on each bbox edge, and along every edge,
    each also moved one and two ulps either way in each coordinate."""
    base = []
    for region in regions.regions:
        lat_min, lon_min, lat_max, lon_max = region.bbox
        lat_mid, lon_mid = (lat_min + lat_max) / 2, (lon_min + lon_max) / 2
        base += [(lat_min, lon_mid), (lat_max, lon_mid), (lat_mid, lon_min), (lat_mid, lon_max)]
        for ring in region.rings:
            for (ay, ax), (by, bx) in zip(ring[:-1], ring[1:]):
                base.append((ay, ax))
                base += [(ay + f * (by - ay), ax + f * (bx - ax)) for f in (0.3, 0.5)]
    steps = (-2, -1, 0, 1, 2)
    return [(_ulps(lat, i), _ulps(lon, j)) for lat, lon in base for i in steps for j in steps]


class TestAssignRegions:
    @settings(max_examples=150, deadline=None)
    @given(regions=_region_sets(), random_points=st.lists(st.tuples(_coord, _coord), max_size=50))
    def test_matches_brute_force_oracle(self, regions, random_points):
        olat, olon = regions.regions[0].rings[0][0]
        points = [(olat + a, olon + b) for a, b in random_points] + _boundary_points(regions)
        lats = np.array([p[0] for p in points])
        lons = np.array([p[1] for p in points])
        np.testing.assert_array_equal(
            _assign_regions(lats, lons, regions), assign_oracle(lats, lons, regions)
        )

    def test_empty_input(self, unit_square):
        empty = np.array([], float)
        assignment = _assign_regions(empty, empty, RegionSet((unit_square,)))
        assert assignment.shape == (0,)

    def test_nearly_horizontal_edge_does_not_overflow(self):
        # the first edge rises 1e-310 degrees over 1 degree of longitude:
        # the crossing longitude of a point it does not straddle is ~1e311
        region = Region("sliver", (((0.0, 0.0), (1e-310, 1.0), (1.0, 1.0), (1.0, 0.0),
                                    (0.0, 0.0)),))
        lats = np.array([50.0, 0.5, -1.0, 0.5, 0.0, 1e-310, 0.999])
        lons = np.array([0.5, 0.5, 0.5, 2.0, 0.5, 0.5, 0.001])
        with warnings.catch_warnings(), np.errstate(all="warn"):
            warnings.simplefilter("error", RuntimeWarning)
            assignment = _assign_regions(lats, lons, RegionSet((region,)))
            oracle = assign_oracle(lats, lons, RegionSet((region,)))
            # every point, those outside the bbox included, as evaluate's boundary pass gives them
            np.testing.assert_array_equal(points_in_region(lats, lons, region), assignment == 0)
        np.testing.assert_array_equal(assignment, oracle)
        # (0, 0.5) lies just south of the rising edge, (1e-310, 0.5) north of it
        assert assignment.tolist() == [-1, 0, -1, -1, -1, 0, 0]
        assert [winding_number_contains(p, region) for p in zip(lats, lons)] == [
            a == 0 for a in assignment
        ]


class TestBoundaryExperiment:
    @pytest.fixture
    def city(self):
        # ~111 km square at the equator
        return square_region("city", lat0=0.0, lon0=0.0, side_deg=1.0)

    def test_r_zero_is_identity(self, city):
        snap = make_snapshot([("a", 0.5, 0.5), ("b", 0.4, 0.6)])
        rows = boundary_loss_experiment(snap, city, [0.0], trials=5, ratio=6, master_seed=0)
        assert rows[0].mean_outside == 0.0 and rows[0].epsilon == 0.0

    def test_deep_interior_never_escapes(self, city):
        # center is ~55 km from every edge; escape mass is ~0
        snap = make_snapshot([(f"s{i}", 0.5, 0.5) for i in range(20)])
        rows = boundary_loss_experiment(
            snap, city, [0.25], trials=20, ratio=6, master_seed=1
        )
        assert rows[0].mean_outside == 0.0

    def test_outside_scooters_excluded(self, city):
        # the second snapshot has no scooter inside: R > 0 moves only the outside one
        for bikes in ([("in", 0.5, 0.5), ("out", 9.0, 9.0)], [("out", 9.0, 9.0)]):
            rows = boundary_loss_experiment(
                make_snapshot(bikes), city, [0.0, 0.25], trials=2, ratio=6, master_seed=0
            )
            assert [r.mean_outside for r in rows] == [0.0, 0.0]

    def test_rows_pinned(self, city):
        # fixes the substream layout: a change to the RNG stream fails here
        snap = make_snapshot([(f"s{i}", 0.5, 1.0 - 0.25 / KM_PER_DEG) for i in range(5)])
        rows = boundary_loss_experiment(
            snap, city, [0.0, 0.25, 0.5], trials=20, ratio=6, master_seed=7
        )
        assert rows == [
            UtilityRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            UtilityRow(0.25, 7.16703787691222, 0.95, 0.19834844406538177, 0.0, 0.0, 0.0),
            UtilityRow(0.5, 3.58351893845611, 1.15, 0.23254880642226708, 0.0, 0.0, 0.0),
        ]

    def test_half_plane_escape_matches_quadrature(self, city):
        eps = epsilon_from(0.25, 6)
        trials = 2000
        for d_km in (0.1, 0.25, 0.5):
            # place the scooter d_km west of the eastern edge (lon = 1);
            # the other edges are ~50+ km away, negligible escape mass
            lon = 1.0 - d_km / KM_PER_DEG
            snap = make_snapshot([("a", 0.5, lon)])
            rows = boundary_loss_experiment(
                snap, city, [0.25], trials=trials, ratio=6, master_seed=3
            )
            p_hat = rows[0].mean_outside
            p_true = half_plane_escape_probability(d_km, eps)
            se = math.sqrt(p_true * (1 - p_true) / trials)
            assert abs(p_hat - p_true) <= 3 * se

    def test_reproducible_given_seed(self, city):
        snap = make_snapshot([(f"s{i}", 0.5, 0.999) for i in range(10)])
        kw = dict(trials=10, ratio=6, master_seed=42)
        rows1 = boundary_loss_experiment(snap, city, [0.1, 0.5], **kw)
        rows2 = boundary_loss_experiment(snap, city, [0.1, 0.5], **kw)
        assert rows1 == rows2

    def test_empty_grid_rejected(self, city):
        with pytest.raises(ValueError):
            boundary_loss_experiment(make_snapshot([]), city, [], 1, 6, 0)


class TestNeighborhoodExperiment:
    @pytest.fixture
    def halves(self):
        # two adjacent half-squares splitting the city at lon = 0.5
        return RegionSet(
            regions=(
                Region("west", (((0.0, 0.0), (0.0, 0.5), (1.0, 0.5), (1.0, 0.0), (0.0, 0.0)),)),
                Region("east", (((0.0, 0.5), (0.0, 1.0), (1.0, 1.0), (1.0, 0.5), (0.0, 0.5)),)),
            )
        )

    def test_r_zero_all_zero(self, halves):
        snap = make_snapshot([("a", 0.5, 0.25), ("b", 0.5, 0.75)])
        rows = neighborhood_loss_experiment(snap, halves, [0.0], 5, 6, 0)
        assert rows[0].mean_escapes == 0.0 and rows[0].mean_abs_error == 0.0

    def test_single_covering_region_reduces_to_boundary(self):
        city = square_region("all", side_deg=1.0)
        regions = RegionSet(regions=(city,))
        # the last scooter starts outside: neither experiment counts it
        snap = make_snapshot(
            [(f"s{i}", 0.5, 1.0 - 0.25 / KM_PER_DEG) for i in range(5)]
            + [("out", 0.5, 1.0 + 0.1 / KM_PER_DEG)]
        )
        kw = dict(trials=50, ratio=6, master_seed=7)
        n_rows = neighborhood_loss_experiment(snap, regions, [0.0, 0.25, 0.5], **kw)
        b_rows = boundary_loss_experiment(snap, city, [0.0, 0.25, 0.5], **kw)
        # same points, same seed, same single region: the same noise, so equal rows
        assert [(r.mean_escapes, r.stderr_escapes) for r in n_rows] == [
            (r.mean_outside, r.stderr_outside) for r in b_rows
        ]
        assert b_rows[1].mean_outside > 0

    @pytest.mark.parametrize("experiment", ["neighborhood", "boundary", "both"])
    def test_one_substream_and_one_draw_per_positive_r(self, halves, monkeypatch, experiment):
        calls = []
        for name in ("substream", "sample_polar_laplace"):
            real = getattr(geo_privacy, name)
            monkeypatch.setattr(
                geo_privacy, name,
                lambda *a, name=name, real=real: calls.append((name, a[-1])) or real(*a),
            )
        snap = make_snapshot([("a", 0.5, 0.25), ("b", 0.5, 0.75), ("out", 2.0, 2.0)])
        grid = [0.0, 0.1, 0.25, 0.5]
        city = square_region("city")
        if experiment == "neighborhood":
            neighborhood_loss_experiment(snap, halves, grid, 7, 6, 3)
        elif experiment == "boundary":
            boundary_loss_experiment(snap, city, grid, 7, 6, 3)
        else:
            neighborhood_loss_experiment(snap, halves, grid, 7, 6, 3, boundary=city)
        # grid index g draws all 7 trials of all 3 scooters from substream g
        assert calls == [
            call for g in (1, 2, 3)
            for call in (("substream", g), ("sample_polar_laplace", (7, 3)))
        ]

    @pytest.mark.parametrize("experiment", ["neighborhood", "boundary", "both"])
    def test_grid_in_workers_gives_the_rows_in_process(self, halves, monkeypatch, experiment):
        snap = make_snapshot([("a", 0.5, 0.25), ("b", 0.5, 0.75), ("out", 2.0, 2.0)])
        regions, boundary = {"neighborhood": (halves, None), "boundary": (None, square_region()),
                             "both": (halves, square_region())}[experiment]

        def run(grid):
            return neighborhood_loss_experiment(snap, regions, grid, 7, 6, 3, boundary=boundary)

        grid = [0.0, 0.1, 0.25, 0.5]
        in_process = run(grid)
        maps = force_parallel_grid(monkeypatch)
        assert run(grid) == in_process
        assert maps == ["utility_eval"]
        # 7 trials of 3 scooters at 3 radii R > 0 are the work held against the floor
        monkeypatch.setattr(utility_eval, "PARALLEL_SWEEP_MIN_POINTS", 7 * 3 * 3 + 1)
        assert run(grid) == in_process
        monkeypatch.setattr(utility_eval, "PARALLEL_SWEEP_MIN_POINTS", 7 * 3 * 3)
        assert run(grid) == in_process
        # a single R > 0 is one task, run in-process
        assert run([0.0, 0.1]) == in_process[:2]
        assert maps == ["utility_eval"] * 2

    def test_with_boundary_joins_both_experiments(self, halves):
        # the invariant that lets one noisy fleet serve both: with the same
        # seed, the boundary columns are boundary_loss_experiment's and the
        # neighborhood columns neighborhood_loss_experiment's
        city = Region("city", (((-0.1, -0.1), (-0.1, 0.9), (0.9, 0.9), (0.9, -0.1),
                                (-0.1, -0.1)),))
        d = 0.2 / KM_PER_DEG
        snap = make_snapshot(
            [("w1", 0.5, 0.5 - d), ("w2", 0.3, 0.5 - d / 2), ("e1", 0.5, 0.9 - d),
             ("e2", 0.9 - d, 0.75), ("out", 2.0, 2.0)]
        )
        grid = [0.0, 0.25, 0.5, 1.0]
        kw = dict(trials=30, ratio=6, master_seed=5)
        rows = neighborhood_loss_experiment(snap, halves, grid, boundary=city, **kw)
        b_rows = boundary_loss_experiment(snap, city, grid, **kw)
        n_rows = neighborhood_loss_experiment(snap, halves, grid, **kw)
        assert rows == merge_rows(b_rows, n_rows)
        assert all(r.mean_outside > 0 and r.mean_escapes > 0 for r in rows[1:])
        # given only the boundary, the neighborhood columns are 0
        assert neighborhood_loss_experiment(snap, None, grid, boundary=city, **kw) == b_rows
        assert all(r.mean_abs_error == r.mean_escapes == r.stderr_escapes == 0 for r in b_rows)

    def test_adjacent_halves_match_quadrature(self, halves):
        eps = epsilon_from(0.25, 6)
        d_km = 0.2
        trials = 2000
        # one scooter per half, each d_km from the shared border; far from
        # the outer edges so only border crossings matter
        snap = make_snapshot(
            [
                ("w", 0.5, 0.5 - d_km / KM_PER_DEG),
                ("e", 0.5, 0.5 + d_km / KM_PER_DEG),
            ]
        )
        rows = neighborhood_loss_experiment(snap, halves, [0.25], trials, 6, 11)
        p_true = half_plane_escape_probability(d_km, eps)
        # mean escapes is averaged over 2 regions with 1 scooter each
        se = math.sqrt(p_true * (1 - p_true) / (2 * trials))
        assert abs(rows[0].mean_escapes - p_true) <= 3 * se

    def test_empty_region_set_rejected(self):
        with pytest.raises(ValueError):
            neighborhood_loss_experiment(
                make_snapshot([]), RegionSet(regions=()), [0.1], 1, 6, 0
            )

    def test_neither_region_set_nor_boundary_rejected(self):
        with pytest.raises(ValueError, match="no region set and no boundary"):
            neighborhood_loss_experiment(make_snapshot([]), None, [0.1], 1, 6, 0)

    def test_zero_trials_rejected(self, halves):
        with pytest.raises(ValueError, match="trials"):
            neighborhood_loss_experiment(make_snapshot([]), halves, [0.1], 0, 6, 0)

    @pytest.mark.parametrize("experiment", ["neighborhood", "boundary"])
    def test_epsilon_below_guard_rejected_before_any_draw(self, halves, monkeypatch, experiment):
        # R = 15 km at ratio 6 gives eps = 0.119/km; drawn, it exceeds the
        # 100 km displacement guard only for some seeds
        # every draw path (perturb, perturb_many, the batched loop) samples here
        draws = []
        sample = geo_privacy.sample_polar_laplace
        monkeypatch.setattr(
            geo_privacy, "sample_polar_laplace", lambda *a: draws.append(a) or sample(*a)
        )
        points = np.random.default_rng(0).uniform(0, 1, (100, 2))
        snap = make_snapshot([(f"s{i}", float(p[0]), float(p[1])) for i, p in enumerate(points)])
        for seed in range(20):
            with pytest.raises(ValueError, match="too small"):
                if experiment == "neighborhood":
                    neighborhood_loss_experiment(snap, halves, [0.25, 15.0], 10, 6, seed)
                else:
                    boundary_loss_experiment(
                        snap, square_region("city"), [0.25, 15.0], 10, 6, seed
                    )
        assert draws == []

    def test_rows_pinned(self, halves):
        # fixes the substream layout: a change to the RNG stream fails here
        d = 0.2 / KM_PER_DEG
        snap = make_snapshot(
            [("w1", 0.5, 0.5 - d), ("w2", 0.3, 0.5 - d / 2), ("e1", 0.5, 0.5 + d),
             ("out", 2.0, 2.0)]
        )
        rows = neighborhood_loss_experiment(snap, halves, [0.0, 0.25, 0.5], 20, 6, 11)
        assert rows == [
            UtilityRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            UtilityRow(0.25, 7.16703787691222, 0.0, 0.0, 0.65, 0.475, 0.0767343332201228),
            UtilityRow(0.5, 3.58351893845611, 0.0, 0.0, 0.6, 0.6, 0.11239029738980327),
        ]

    def test_peak_no_higher_than_the_draw(self):
        # the sweep workload's fleet and regions: the city holds nearly
        # every scooter, so a boundary pass that copied its points would
        # outgrow the draw and displace, the peak every R must reach
        fleet = json.loads((FIXTURES / "sweep_fleet.json").read_text())
        snap = synth_fleet.generate(synth_fleet.config_from_json({**fleet, "seed": 1}))[0][-1]
        city = load_regions_geojson(FIXTURES / "city.geojson").regions[0]
        tiles = load_regions_geojson(FIXTURES / "tiles.geojson")
        trials, n = 25, len(snap.lats)

        def experiment():
            # one grid point of 25 trials: below the floor, so in-process
            neighborhood_loss_experiment(snap, tiles, [0.25], trials, 6, 1, boundary=city)

        def draw():
            rng = geo_privacy.substream(1, 0)
            theta, r = geo_privacy.sample_polar_laplace(epsilon_from(0.25, 6), rng, (trials, n))
            geo_privacy.displace(snap.lats, snap.lons, theta, r)

        experiment()  # warm-up
        excess = traced_peak(experiment) - traced_peak(draw)
        assert excess < 0.5 * trials * n * np.dtype(float).itemsize


class TestReportEmission:
    META = {"trials": 100, "ratio": 6.0, "seed": 1}

    def make_rows(self):
        return [
            UtilityRow(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            UtilityRow(0.5, 3.58, 12.4, 0.8, 2.5, 1.75, 0.12),
        ]

    def test_json_round_trip(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "report.json"
        emit_report(rows, path, fmt="json", meta=self.META)
        doc = json.loads(path.read_text())
        assert (doc["trials"], doc["ratio"], doc["seed"]) == (100, 6.0, 1)
        assert [UtilityRow(**r) for r in doc["rows"]] == rows

    def test_csv_row_count_matches_grid(self, tmp_path):
        rows = self.make_rows()
        path = tmp_path / "report.csv"
        emit_report(rows, path, fmt="csv", meta=self.META)
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert len(lines) == 1 + len(rows)  # header + rows

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_report(self.make_rows(), tmp_path / "x", fmt="xml", meta=self.META)

    def test_descending_grid_rejected(self, tmp_path):
        rows = [
            UtilityRow(0.5, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
            UtilityRow(0.1, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0),
        ]
        with pytest.raises(ValueError):
            emit_report(rows, tmp_path / "r.csv", fmt="csv", meta=self.META)
        assert not (tmp_path / "r.csv").exists()

    def test_merge_rows_joins_on_radius(self):
        b = [UtilityRow(0.1, 1.0, 5.0, 0.5, 0.0, 0.0, 0.0)]
        n = [UtilityRow(0.1, 1.0, 0.0, 0.0, 2.0, 1.0, 0.1)]
        (m,) = merge_rows(b, n)
        assert m.mean_outside == 5.0 and m.mean_escapes == 1.0 and m.mean_abs_error == 2.0


class TestSnapshotGeojson:
    def test_points_in_lon_lat_order(self):
        from scootpriv.utility_eval import snapshot_to_geojson

        snap = make_snapshot([("a", 34.0, -118.4, True, False)])
        doc = snapshot_to_geojson(snap)
        (feat,) = doc["features"]
        assert feat["geometry"]["coordinates"] == [-118.4, 34.0]
        assert feat["properties"] == {"scooter_id": "a", "reserved": True, "disabled": False}
