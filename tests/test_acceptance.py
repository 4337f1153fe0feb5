"""End-to-end acceptance checks, one test per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line
per criterion.
"""

import itertools
import math

import numpy as np
import pytest
from scipy import integrate, stats

from scootpriv.cli import main, parse_r_grid
from scootpriv.clustering import kmeans, kmeans_planar, project_local
from scootpriv.geo_privacy import (
    analytic_cdf,
    displace,
    epsilon_from,
    perturb_many,
    substream,
)
from scootpriv.synth_fleet import FleetConfig, Hotspot, generate
from scootpriv.trip_recon import (
    TripFilter,
    filter_trips,
    haversine_distance,
    reconstruct_trips,
)
from scootpriv.utility_eval import (
    Region,
    RegionSet,
    _assign_regions,
    points_in_region,
)

from conftest import planar_density, square_region
from test_clustering import brute_force_two_partition
from test_utility_eval import half_plane_escape_probability, winding_number_contains

EPS = 4 * math.log(6)


def _report(criterion, ok):
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_analytic_cdf():
    at_quarter = analytic_cdf(EPS, 0.25)
    at_one = analytic_cdf(EPS, 1.0)
    _report(1, 0.53 <= at_quarter <= 0.54 and at_one >= 0.993)


def test_criterion_2_mechanism_correctness():
    loc = (34.05, -118.25)
    n = 100_000
    rng = substream(2024, 0)
    lats = np.full(n, loc[0])
    lons = np.full(n, loc[1])
    nlat, nlon = perturb_many(lats, lons, EPS, rng)
    d_km = np.array(
        [haversine_distance(loc, (a, b)) / 1000 for a, b in zip(nlat, nlon)]
    )
    ks = stats.kstest(d_km, lambda x: analytic_cdf(EPS, x)).statistic

    from scootpriv.geo_privacy import sample_polar_laplace

    theta, _ = sample_polar_laplace(EPS, substream(2024, 1), size=1_000_000)
    counts, _ = np.histogram(theta, bins=36, range=(0, 2 * math.pi))
    _, p_theta = stats.chisquare(counts)

    _report(2, ks < 0.01 and p_theta > 0.01)


def test_criterion_3_gi_bound():
    rng = np.random.default_rng(3)
    violations = 0
    for _ in range(10_000):
        x = rng.uniform(-2, 2, 2)
        direction = rng.normal(size=2)
        direction /= np.hypot(*direction)
        d = rng.uniform(0, 0.25)
        x2 = x + d * direction
        s = rng.uniform(-3, 3, 2)
        ratio = planar_density(EPS, tuple(x), tuple(s)) / planar_density(
            EPS, tuple(x2), tuple(s)
        )
        dist = float(np.hypot(*(x - x2)))
        if ratio > math.exp(EPS * dist) or ratio > math.exp(EPS * 0.25) * (1 + 1e-12):
            violations += 1
    _report(3, violations == 0)


def test_criterion_4_attack_pipeline_oracle():
    interval = 60
    config = FleetConfig(
        n_scooters=100,
        area=square_region("city", lat0=33.9, lon0=-118.5, side_deg=0.2),
        seed=44,
        trip_rate=0.3,
        relocation_rate=0.15,
        snapshot_interval_s=interval,
        duration_h=10.0,
    )
    snapshots, truth = generate(config)
    kept = filter_trips(reconstruct_trips(snapshots), TripFilter())
    got = {(t.scooter_id, t.start_time, t.end_time) for t in kept}
    want = {
        (t.scooter_id, t.start_time, t.end_time)
        for t in truth.trips
        if t.distance_m >= 100 and interval < t.duration_s <= 3600
    }
    nonempty = len(want) > 50 and len(truth.relocations) > 10
    # set equality means precision and recall are both 1 and every
    # timestamp is exact, well within the one-interval slack
    _report(4, nonempty and got == want)


@pytest.fixture(scope="module")
def utility_run():
    """3,800 scooters uniform in a convex city polygon, swept over the
    0-1 km grid; returns per-R escape means/stderrs plus partition flags."""
    rng = np.random.default_rng(5)
    n = 3800
    side = 0.2  # degrees, ~22 km at the equator
    lat0, lon0 = 0.0, 0.0
    city = square_region("city", lat0=lat0, lon0=lon0, side_deg=side)
    halves = RegionSet(
        regions=(
            Region(
                "west",
                (((lat0, lon0), (lat0, lon0 + side / 2), (lat0 + side, lon0 + side / 2),
                  (lat0 + side, lon0), (lat0, lon0)),),
            ),
            Region(
                "east",
                (((lat0, lon0 + side / 2), (lat0, lon0 + side), (lat0 + side, lon0 + side),
                  (lat0 + side, lon0 + side / 2), (lat0, lon0 + side / 2)),),
            ),
        )
    )
    lats = rng.uniform(lat0, lat0 + side, n)
    lons = rng.uniform(lon0, lon0 + side, n)
    grid = parse_r_grid("0:1:0.05")
    trials = 20
    means, stderrs, partition_ok = [], [], True
    for g, r_km in enumerate(grid):
        if r_km == 0:
            means.append(0.0)
            stderrs.append(0.0)
            continue
        eps = epsilon_from(r_km, 6)
        outside_counts = []
        for t in range(trials):
            sub = substream(777, g * trials + t)
            nlat, nlon = perturb_many(lats, lons, eps, sub)
            outside_counts.append(float(np.sum(~points_in_region(nlat, nlon, city))))
            slat, slon = nlat[::10], nlon[::10]
            assignment = _assign_regions(slat, slon, halves)
            for idx, half in enumerate(halves.regions):
                inside = points_in_region(slat, slon, half)
                if not inside[assignment == idx].all() or inside[assignment == -1].any():
                    partition_ok = False
        arr = np.array(outside_counts)
        means.append(float(arr.mean()))
        stderrs.append(float(arr.std(ddof=1) / math.sqrt(trials)))
    return grid, means, stderrs, partition_ok


def test_criterion_5_utility_trend_and_half_plane(utility_run):
    grid, means, stderrs, _ = utility_run
    monotone = all(
        means[i + 1] >= means[i] - 2 * (stderrs[i] + stderrs[i + 1])
        for i in range(len(grid) - 1)
    )

    # half-plane escape probability vs quadrature, 10^4 trials each
    eps = epsilon_from(0.25, 6)
    km_per_deg = math.pi / 180 * 6378.1
    city = square_region("city", side_deg=1.0)
    quadrature_ok = True
    trials = 10_000
    for j, d_km in enumerate((0.1, 0.25, 0.5)):
        loc = (0.5, 1.0 - d_km / km_per_deg)
        sub = substream(888, j)
        nlat, nlon = perturb_many(
            np.full(trials, loc[0]), np.full(trials, loc[1]), eps, sub
        )
        p_hat = float(np.mean(~points_in_region(nlat, nlon, city)))
        p_true = half_plane_escape_probability(d_km, eps)
        se = math.sqrt(p_true * (1 - p_true) / trials)
        if abs(p_hat - p_true) > 3 * se:
            quadrature_ok = False
    _report(5, monotone and quadrature_ok and means[-1] > means[1])


def test_criterion_6_geometry_invariants(utility_run, square_with_hole, unit_square):
    rng = np.random.default_rng(6)
    distance_ok = True
    for _ in range(10_000):
        loc = (rng.uniform(-60, 60), rng.uniform(-179, 179))
        theta = rng.uniform(0, 2 * math.pi)
        r_km = rng.uniform(1e-4, 50.0)
        dest = displace(*loc, theta, r_km)
        if abs(haversine_distance(loc, dest) - r_km * 1000) > 1e-6 * r_km * 1000:
            distance_ok = False

    containment_ok = True
    for region in (unit_square, square_with_hole):
        pts = rng.uniform(-2, 12, size=(10_000, 2))
        inside = points_in_region(pts[:, 0], pts[:, 1], region)
        for p, got in zip(pts.tolist(), inside.tolist()):
            if got != winding_number_contains(p, region):
                containment_ok = False
                break

    _, _, _, partition_ok = utility_run
    _report(6, distance_ok and containment_ok and partition_ok)


def test_criterion_7_clustering_oracle():
    # 4-point two-pair fixture vs brute force, for several seeds
    pts = [(34.00, -118.20), (34.001, -118.201), (34.10, -118.30), (34.101, -118.301)]
    xy = project_local(pts, (34.05, -118.25))
    (best_a, best_b), _ = brute_force_two_partition(xy)
    fixture_ok = all(
        {frozenset(c.member_indices) for c in kmeans(pts, 2, seed)} == {best_a, best_b}
        for seed in (0, 1, 7, 123)
    )

    hotspots = (
        Hotspot(center=(34.00, -118.40), weight=1.0, spread_m=40.0),
        Hotspot(center=(34.05, -118.30), weight=1.0, spread_m=40.0),
        Hotspot(center=(33.95, -118.45), weight=1.0, spread_m=40.0),
    )
    config = FleetConfig(
        n_scooters=60,
        area=square_region("area", lat0=33.9, lon0=-118.5, side_deg=0.2),
        seed=71,
        trip_rate=1.0,
        duration_h=8.0,
        hotspots=hotspots,
    )
    _, truth = generate(config)
    clusters = kmeans([t.start_loc for t in truth.trips], k=3, seed=0)
    hotspot_ok = all(
        min(haversine_distance(h.center, c.centroid) for c in clusters) <= 2 * h.spread_m
        for h in hotspots
    )

    # the inertia non-increase assertion is a plain assert in the
    # clustering loop; verify asserts are active in this test build
    asserts_active = True
    try:
        assert False
        asserts_active = False
    except AssertionError:
        pass

    _report(7, fixture_ok and hotspot_ok and asserts_active)


def test_criterion_8_reproducibility(tmp_path):
    import json

    config = {
        "n_scooters": 15,
        "seed": 31,
        "area_rings": [
            [[33.9, -118.5], [33.9, -118.3], [34.1, -118.3], [34.1, -118.5], [33.9, -118.5]]
        ],
        "trip_rate": 0.6,
        "relocation_rate": 0.2,
        "duration_h": 2.0,
    }
    config_path = tmp_path / "fleet.json"
    config_path.write_text(json.dumps(config))
    boundary = tmp_path / "boundary.geojson"
    boundary.write_text(
        json.dumps(
            {
                "type": "FeatureCollection",
                "features": [
                    {
                        "type": "Feature",
                        "properties": {"name": "city"},
                        "geometry": {
                            "type": "Polygon",
                            "coordinates": [
                                [[-118.5, 33.9], [-118.3, 33.9], [-118.3, 34.1],
                                 [-118.5, 34.1], [-118.5, 33.9]]
                            ],
                        },
                    }
                ],
            }
        )
    )

    def run_pipeline(tag):
        arch = tmp_path / f"arch-{tag}.jsonl"
        trips = tmp_path / f"trips-{tag}.csv"
        clusters = tmp_path / f"clusters-{tag}.csv"
        sanitized = tmp_path / f"san-{tag}.jsonl"
        report = tmp_path / f"report-{tag}.csv"
        assert main(["synth", "--config", str(config_path), "--output", str(arch)]) == 0
        assert main(["reconstruct", "--store", str(arch), "--output", str(trips)]) == 0
        assert (
            main(
                ["cluster", "--trips", str(trips), "--k", "2", "--seed", "3",
                 "--output", str(clusters)]
            )
            == 0
        )
        assert (
            main(
                ["sanitize", "--store", str(arch), "--output", str(sanitized),
                 "--radius-km", "0.25", "--ratio", "6", "--seed", "5"]
            )
            == 0
        )
        assert (
            main(
                ["evaluate", "--store", str(arch), "--boundary", str(boundary),
                 "--r-grid", "0:0.2:0.1", "--trials", "3", "--seed", "8",
                 "--output", str(report)]
            )
            == 0
        )
        return [p.read_bytes() for p in (arch, trips, clusters, sanitized, report)]

    _report(8, run_pipeline("a") == run_pipeline("b"))
