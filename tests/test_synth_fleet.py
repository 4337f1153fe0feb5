import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scootpriv.clustering import kmeans
from scootpriv.feed_ingest import SnapshotStore, parse_free_bike_status, snapshot_to_record
from scootpriv.synth_fleet import (
    MAINTENANCE_GAP_S,
    FleetConfig,
    Hotspot,
    config_from_json,
    generate,
    write_archive,
    write_ground_truth_csv,
)
from scootpriv.trip_recon import (
    DEFAULT_MIN_MOVE_M,
    TripFilter,
    filter_trips,
    haversine_distance,
    reconstruct_trips,
    stays,
    trip_row,
)
from scootpriv.utility_eval import Region, points_in_region

from conftest import square_region

AREA = square_region("synth-city", lat0=33.9, lon0=-118.5, side_deg=0.2)


def trip_key(t):
    return (t.scooter_id, t.start_time, t.end_time)


def expected_recoverable(truth):
    """Ground-truth trips the snapshot-diffing attack can recover after
    the standard filters: every real trip that passes them. A truth trip
    is snapshot-aligned, so it lasts at least one interval; one that ends
    within the interval it starts in is seen as a move between two
    consecutive snapshots."""
    return {trip_key(t) for t in truth.trips if t.distance_m >= 100 and t.duration_s <= 3600}


class TestGenerate:
    def test_static_fleet(self):
        config = FleetConfig(
            n_scooters=5, area=AREA, seed=1, trip_rate=0.0, relocation_rate=0.0,
            duration_h=1.0,
        )
        snapshots, truth = generate(config)
        assert not truth.trips and not truth.relocations
        first = set(snapshots[0].rows())
        for snap in snapshots:
            assert set(snap.rows()) == first

    def test_deterministic_given_seed(self):
        config = FleetConfig(n_scooters=10, area=AREA, seed=7, trip_rate=1.0, duration_h=2.0)
        a_snaps, a_truth = generate(config)
        b_snaps, b_truth = generate(config)
        assert a_snaps == b_snaps
        assert a_truth.trips == b_truth.trips

    def test_scooter_absent_during_trip(self):
        config = FleetConfig(n_scooters=1, area=AREA, seed=3, trip_rate=2.0, duration_h=5.0)
        snapshots, truth = generate(config)
        assert truth.trips, "expected at least one trip at this rate"
        trip = truth.trips[0]
        for snap in snapshots:
            present = trip.scooter_id in snap.ids
            if trip.start_time < snap.captured_at < trip.end_time:
                assert not present
        assert truth.trips == sorted(truth.trips, key=lambda t: t.end_time)

    def test_initial_positions_inside_area(self):
        config = FleetConfig(n_scooters=50, area=AREA, seed=2, trip_rate=0.0, duration_h=0.1)
        snapshots, _ = generate(config)
        assert points_in_region(snapshots[0].lats, snapshots[0].lons, AREA).tolist() == [True] * 50

    def test_archives_parse_round_trip(self, tmp_path):
        import json

        config = FleetConfig(n_scooters=5, area=AREA, seed=4, duration_h=0.5)
        snapshots, _ = generate(config)
        path = tmp_path / "arch.jsonl"
        write_archive(snapshots, path, meta={"seed": 4})
        assert list(SnapshotStore(path).iter_all()) == snapshots
        # archive records are also valid GBFS-shaped input
        rec = snapshot_to_record(snapshots[0])
        gbfs = {
            "last_updated": rec["captured_at"],
            "ttl": rec["ttl_s"],
            "data": {
                "bikes": [
                    {
                        "bike_id": b["id"],
                        "lat": b["lat"],
                        "lon": b["lon"],
                        "is_reserved": b["reserved"],
                        "is_disabled": b["disabled"],
                    }
                    for b in rec["bikes"]
                ]
            },
        }
        parsed = parse_free_bike_status(json.dumps(gbfs).encode(), rec["provider"])
        assert tuple(parsed.rows()) == tuple(snapshots[0].rows())

    def test_invalid_config(self):
        with pytest.raises(ValueError):
            FleetConfig(n_scooters=0, area=AREA, seed=1)
        with pytest.raises(ValueError):
            FleetConfig(n_scooters=1, area=AREA, seed=1, trip_distance_m=(500, 100))
        with pytest.raises(ValueError):
            FleetConfig(n_scooters=1, area=AREA, seed=1, duration_h=0)
        with pytest.raises(ValueError, match="seed must be >= 0"):
            FleetConfig(n_scooters=1, area=AREA, seed=-1)


@pytest.fixture(scope="module")
def fleet_run():
    config = FleetConfig(
        n_scooters=100,
        area=AREA,
        seed=20,
        trip_rate=0.3,
        relocation_rate=0.1,
        snapshot_interval_s=60,
        duration_h=10.0,
    )
    return generate(config)


class TestAttackOracle:
    def test_mixed_run_has_both_event_kinds(self, fleet_run):
        _, truth = fleet_run
        assert len(truth.trips) > 20
        assert len(truth.relocations) > 5

    def test_recall_and_precision_one(self, fleet_run):
        snapshots, truth = fleet_run
        recon = reconstruct_trips(snapshots)
        kept = filter_trips(recon, TripFilter())
        got = {trip_key(t) for t in kept}
        want = expected_recoverable(truth)
        assert got == want

    def test_recovered_geometry_matches_truth(self, fleet_run):
        snapshots, truth = fleet_run
        kept = filter_trips(reconstruct_trips(snapshots), TripFilter())
        by_key = {trip_key(t): t for t in truth.trips}
        for t in kept:
            true_t = by_key[trip_key(t)]
            assert t.start_loc == true_t.start_loc
            assert t.end_loc == true_t.end_loc
            assert t.distance_m == true_t.distance_m

    def test_parked_counts_reflect_riders(self, fleet_run):
        snapshots, _ = fleet_run
        counts = [len(s.ids) for s in snapshots]
        assert all(c <= 100 for c in counts)
        assert counts[0] == 100  # everyone parked at the start


hotspots_in_area = st.lists(
    st.builds(
        Hotspot,
        center=st.tuples(st.floats(33.92, 34.08), st.floats(-118.48, -118.32)),
        weight=st.floats(0.1, 5.0),
        spread_m=st.floats(0.0, 300.0),
    ),
    max_size=3,
).map(tuple)


@st.composite
def small_configs(draw):
    interval = draw(st.integers(10, 120))
    min_duration = draw(st.floats(1.0, 600.0))
    return FleetConfig(
        n_scooters=draw(st.integers(1, 30)),
        area=AREA,
        seed=draw(st.integers(0, 2**32 - 1)),
        trip_rate=draw(st.floats(0.0, 4.0)),
        relocation_rate=draw(st.floats(0.0, 2.0)),
        trip_duration_s=(min_duration, draw(st.floats(min_duration, 3000.0))),
        snapshot_interval_s=interval,
        duration_h=draw(st.floats(0.2, 1.5)),
        hotspots=draw(hotspots_in_area),
    )


class TestOracleOnSmallFleets:
    @settings(max_examples=100, deadline=None)
    @given(small_configs())
    def test_reconstruction_recovers_exactly_the_recoverable_trips(self, config):
        snapshots, truth = generate(config)
        # a hotspot trip can end within min_move_m of its start: the attack
        # does not see it, and the next trip starts from where it ended
        kept = filter_trips(reconstruct_trips(snapshots), TripFilter())
        assert {trip_key(t) for t in kept} == expected_recoverable(truth)
        by_key = {trip_key(t): t for t in truth.trips}
        for t in kept:
            assert (t.start_loc, t.end_loc) == (by_key[trip_key(t)].start_loc,
                                                by_key[trip_key(t)].end_loc)
        # a scooter's stay changes exactly where it arrives more than
        # min_move_m from where it stood; each new stay takes the next number
        changes, last, n_stays = set(), {}, 0
        for snap, stay, _ in stays(snapshots):
            for sid, s in zip(snap.ids, stay.tolist()):
                if last.get(sid) != s:
                    assert s == n_stays
                    n_stays += 1
                    if sid in last:
                        changes.add((sid, snap.captured_at))
                last[sid] = s
        assert changes == {(t.scooter_id, t.end_time) for t in truth.trips + truth.relocations
                           if t.distance_m > DEFAULT_MIN_MOVE_M}


class TestDepartureRates:
    def test_departures_and_relocation_split_match_rates(self):
        config = FleetConfig(
            n_scooters=200, area=AREA, seed=13, trip_rate=0.6, relocation_rate=0.3,
            duration_h=24.0,
        )
        snapshots, truth = generate(config)
        dt = config.snapshot_interval_s
        # departures this early have all arrived by the last snapshot
        last_start = snapshots[-1].captured_at - MAINTENANCE_GAP_S[1] - dt
        parked_steps = sum(len(s.ids) for s in snapshots if s.captured_at <= last_start)
        trips = [t for t in truth.trips if t.start_time <= last_start]
        relocations = [t for t in truth.relocations if t.start_time <= last_start]

        p_trip, p_reloc = config.step_probabilities()
        p = p_trip + p_reloc
        departures = len(trips) + len(relocations)
        assert abs(departures - parked_steps * p) <= 5 * math.sqrt(parked_steps * p * (1 - p))
        shuffles = sum(t.duration_s == dt for t in relocations)
        maintenance = sum(t.duration_s > 3600 for t in relocations)
        assert shuffles + maintenance == len(relocations)
        assert abs(shuffles - len(relocations) / 2) <= 5 * math.sqrt(len(relocations) / 4)


class TestHotspots:
    def test_kmeans_recovers_planted_centers(self):
        hotspots = (
            Hotspot(center=(34.00, -118.40), weight=1.0, spread_m=40.0),
            Hotspot(center=(34.05, -118.30), weight=1.0, spread_m=40.0),
            Hotspot(center=(33.95, -118.45), weight=1.0, spread_m=40.0),
        )
        config = FleetConfig(
            n_scooters=60,
            area=AREA,
            seed=9,
            trip_rate=1.0,
            duration_h=8.0,
            hotspots=hotspots,
        )
        _, truth = generate(config)
        starts = [t.start_loc for t in truth.trips]
        assert len(starts) > 100
        clusters = kmeans(starts, k=3, seed=0)
        for h in hotspots:
            best = min(
                haversine_distance(h.center, c.centroid) for c in clusters
            )
            assert best <= 2 * h.spread_m


class TestGroundTruthCsv:
    def test_schema_and_fake_flag(self, tmp_path):
        config = FleetConfig(
            n_scooters=30, area=AREA, seed=5, trip_rate=0.5, relocation_rate=0.5,
            duration_h=5.0,
        )
        _, truth = generate(config)
        path = tmp_path / "truth.csv"
        write_ground_truth_csv(truth, path, meta={"seed": 5})
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        header = lines[0].split(",")
        assert header[-1] == "is_fake"
        assert len(lines) - 1 == len(truth.trips) + len(truth.relocations)
        fakes = sum(1 for l in lines[1:] if l.endswith(",1"))
        assert fakes == len(truth.relocations)

    def test_rows_are_trip_rows_plus_fake_flag(self, tmp_path):
        import csv

        config = FleetConfig(
            n_scooters=30, area=AREA, seed=5, trip_rate=0.5, relocation_rate=0.5,
            duration_h=2.0,
        )
        _, truth = generate(config)
        path = tmp_path / "truth.csv"
        write_ground_truth_csv(truth, path)
        with open(path, newline="") as f:
            rows = list(csv.reader(f))[1:]
        events = sorted(truth.trips + truth.relocations,
                        key=lambda t: (t.start_time, t.scooter_id))
        assert rows and len(rows) == len(events)
        for row, t in zip(rows, events):
            assert row[:-1] == [str(v) for v in trip_row(t)]


RINGS = [[[33.9, -118.5], [33.9, -118.3], [34.1, -118.3], [34.1, -118.5], [33.9, -118.5]]]


class TestConfigFromJson:
    def test_absent_keys_take_fleet_config_defaults(self):
        config = config_from_json({"n_scooters": 3, "seed": 8, "area_rings": RINGS})
        area = Region("area", tuple(tuple(tuple(v) for v in ring) for ring in RINGS))
        assert config == FleetConfig(n_scooters=3, area=area, seed=8)

    def test_hotspot_defaults(self):
        doc = {"n_scooters": 3, "seed": 8, "area_rings": RINGS,
               "hotspots": [{"center": [34.0, -118.4]}, {"center": [34.0, -118.3], "weight": 2}]}
        assert config_from_json(doc).hotspots == (
            Hotspot(center=(34.0, -118.4)),
            Hotspot(center=(34.0, -118.3), weight=2.0),
        )

    def test_given_keys_converted(self):
        doc = {"n_scooters": 3, "seed": 8, "area_rings": RINGS, "area_name": "la",
               "trip_rate": 1, "trip_distance_m": [100, 200], "snapshot_interval_s": 30.0,
               "provider": "bird"}
        config = config_from_json(doc)
        assert config.n_scooters == 3 and config.area.name == "la"
        assert config.trip_rate == 1.0 and config.trip_distance_m == (100, 200)
        assert config.snapshot_interval_s == 30 and type(config.snapshot_interval_s) is int
        assert config.provider == "bird"

    def test_missing_required_key(self):
        with pytest.raises(KeyError):
            config_from_json({"n_scooters": 3, "area_rings": RINGS})
