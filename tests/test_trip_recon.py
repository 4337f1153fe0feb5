import math

import pytest
from hypothesis import given, strategies as st

from scootpriv.trip_recon import (
    CapVerdict,
    ParkedCountSeries,
    Trip,
    TripFilter,
    check_device_cap,
    estimate_fleet_size,
    filter_trips,
    haversine_distance,
    make_trip,
    parked_count_series,
    read_trips_csv,
    reconstruct_trips,
    trip_row,
    write_trips_csv,
)

from conftest import make_snapshot

# closed form for one degree of longitude at the equator on a sphere of
# radius 6378.1 km: 2*pi*6378100/360
ONE_DEGREE_EQUATOR_M = 111318.845

coords = st.tuples(
    st.floats(min_value=-89.0, max_value=89.0),
    st.floats(min_value=-179.0, max_value=179.0),
)


class TestHaversine:
    def test_zero_for_identical_points(self):
        assert haversine_distance((34.05, -118.25), (34.05, -118.25)) == 0.0

    def test_one_degree_at_equator(self):
        assert haversine_distance((0, 0), (0, 1)) == pytest.approx(
            ONE_DEGREE_EQUATOR_M, abs=0.5
        )

    @given(coords, coords)
    def test_symmetry(self, a, b):
        assert haversine_distance(a, b) == pytest.approx(haversine_distance(b, a))

    @given(coords, coords)
    def test_nonnegative_and_bounded(self, a, b):
        d = haversine_distance(a, b)
        assert 0 <= d <= math.pi * 6378.1e3


class TestTripType:
    def test_end_before_start_rejected(self):
        with pytest.raises(ValueError):
            make_trip("s", (0, 0), (0, 1), 100, 100)

    def test_distance_matches_haversine(self):
        t = make_trip("s", (34.0, -118.2), (34.01, -118.21), 0, 600)
        assert t.distance_m == haversine_distance((34.0, -118.2), (34.01, -118.21))


def snapshots_for_track(track):
    """track: list of (time, {scooter_id: (lat, lon)})."""
    return [
        make_snapshot(
            [(sid, lat, lon) for sid, (lat, lon) in positions.items()],
            captured_at=t,
        )
        for t, positions in track
    ]


class TestReconstructTrips:
    def test_stationary_scooter_yields_nothing(self):
        snaps = snapshots_for_track(
            [(t, {"a": (34.0, -118.2)}) for t in [0, 60, 120, 180]]
        )
        assert reconstruct_trips(snaps) == []

    def test_negative_min_move_rejected(self):
        with pytest.raises(ValueError, match="min_move_m"):
            reconstruct_trips([], min_move_m=-1.0)

    def test_simple_move(self):
        # 600 m is ~0.0054 degrees of longitude at the equator
        l1, l2 = (0.0, 0.0), (0.0, 0.00539)
        snaps = snapshots_for_track([(0, {"a": l1}), (60, {"a": l1}), (120, {"a": l2})])
        trips = reconstruct_trips(snaps)
        assert len(trips) == 1
        t = trips[0]
        assert t.start_loc == l1 and t.end_loc == l2
        assert t.start_time == 60 and t.end_time == 120

    def test_gap_spanning_trip(self):
        l1, l2 = (0.0, 0.0), (0.01, 0.01)
        track = [
            (0, {"a": l1}),
            (60, {"a": l1}),
            (120, {}),
            (180, {}),
            (240, {}),
            (300, {"a": l2}),
        ]
        trips = reconstruct_trips(snapshots_for_track(track))
        assert len(trips) == 1
        assert trips[0].start_time == 60
        assert trips[0].end_time == 300

    def test_disappeared_forever_yields_nothing(self):
        track = [(0, {"a": (0, 0)}), (60, {"a": (0, 0)}), (120, {}), (180, {})]
        assert reconstruct_trips(snapshots_for_track(track)) == []

    def test_jitter_below_floor_ignored(self):
        # ~2 m wiggle stays under the 5 m floor
        track = [(0, {"a": (0.0, 0.0)}), (60, {"a": (0.0, 0.00002)})]
        assert reconstruct_trips(snapshots_for_track(track)) == []

    def test_id_reuse_after_long_gap_not_a_trip(self):
        track = [
            (0, {"a": (0.0, 0.0)}),
            (25 * 3600, {"a": (0.5, 0.5)}),
        ]
        assert reconstruct_trips(snapshots_for_track(track)) == []

    def test_unsorted_input_rejected(self):
        snaps = snapshots_for_track([(60, {"a": (0, 0)}), (0, {"a": (0, 0)})])
        with pytest.raises(ValueError):
            reconstruct_trips(snaps)

    def test_mixed_providers_rejected(self):
        s1 = make_snapshot([("a", 0, 0)], captured_at=0, provider="p1")
        s2 = make_snapshot([("a", 0, 0)], captured_at=60, provider="p2")
        with pytest.raises(ValueError):
            reconstruct_trips([s1, s2])

    def test_every_trip_satisfies_invariants(self):
        l1, l2, l3 = (0.0, 0.0), (0.01, 0.0), (0.02, 0.01)
        track = [(0, {"a": l1}), (60, {"a": l2}), (300, {"a": l3})]
        for t in reconstruct_trips(snapshots_for_track(track)):
            assert t.end_time > t.start_time
            assert t.distance_m == haversine_distance(t.start_loc, t.end_loc)


class TestFilterTrips:
    @pytest.fixture
    def default_filter(self):
        return TripFilter()

    def trip_of(self, distance_deg, duration_s):
        return make_trip("s", (0.0, 0.0), (0.0, distance_deg), 0, duration_s)

    def test_short_trip_removed(self, default_filter):
        t = self.trip_of(50 / ONE_DEGREE_EQUATOR_M, 600)
        assert filter_trips([t], default_filter) == []

    def test_long_duration_removed(self, default_filter):
        t = self.trip_of(0.01, 7200)
        assert filter_trips([t], default_filter) == []

    def test_normal_trip_kept(self, default_filter):
        t = self.trip_of(150 / ONE_DEGREE_EQUATOR_M, 600)
        assert filter_trips([t], default_filter) == [t]

    def test_thresholds_inclusive(self):
        f = TripFilter(min_distance_m=100, max_duration_s=3600)
        at_dist = make_trip("s", (0, 0), (0, 100 / ONE_DEGREE_EQUATOR_M), 0, 3600)
        assert abs(at_dist.distance_m - 100) < 1e-6
        assert filter_trips([at_dist], f) == [at_dist]

    def test_subset_and_idempotent(self, default_filter):
        trips = [self.trip_of(0.01, 600), self.trip_of(0.0001, 600), self.trip_of(0.01, 9000)]
        once = filter_trips(trips, default_filter)
        assert set(once) <= set(trips)
        assert filter_trips(once, default_filter) == once

    def test_invalid_filter_params(self):
        with pytest.raises(ValueError):
            TripFilter(min_distance_m=-1)
        with pytest.raises(ValueError):
            TripFilter(max_duration_s=0)


class TestParkedCounts:
    def test_empty_snapshot_counts_zero(self):
        series = parked_count_series([make_snapshot([], captured_at=10)])
        assert series.points == ((10, 0),)

    def test_counts_per_snapshot(self):
        snaps = [
            make_snapshot([(f"s{i}", 0, 0) for i in range(n)], captured_at=t)
            for t, n in [(1, 5), (2, 7), (3, 6)]
        ]
        series = parked_count_series(snaps)
        assert series.points == ((1, 5), (2, 7), (3, 6))

    def test_disabled_exclusion_flag(self):
        snap = make_snapshot(
            [("a", 0, 0, False, True), ("b", 0, 0, False, False)], captured_at=1
        )
        assert parked_count_series([snap]).points == ((1, 2),)
        assert parked_count_series([snap], include_disabled=False).points == ((1, 1),)

    def test_reserved_exclusion_flag(self):
        snap = make_snapshot(
            [("a", 0, 0, True, False), ("b", 0, 0, False, False)], captured_at=1
        )
        assert parked_count_series([snap], include_reserved=False).points == ((1, 1),)

    def test_nonascending_timestamps_rejected(self):
        with pytest.raises(ValueError):
            ParkedCountSeries("p", ((10, 1), (10, 2)))


class TestFleetSize:
    def test_constant_series(self):
        series = ParkedCountSeries("p", tuple((t, 10) for t in range(0, 100, 10)))
        assert estimate_fleet_size(series, (0, 100)) == 10

    def test_max_within_window(self):
        series = ParkedCountSeries("p", ((1, 5), (2, 9), (3, 7)))
        assert estimate_fleet_size(series, (1, 3)) == 9
        assert estimate_fleet_size(series, (3, 3)) == 7

    def test_empty_overlap_rejected(self):
        series = ParkedCountSeries("p", ((1, 5),))
        with pytest.raises(ValueError):
            estimate_fleet_size(series, (10, 20))

    def test_invariant_under_subsampling_keeping_max(self):
        series = ParkedCountSeries("p", ((1, 5), (2, 9), (3, 7)))
        subsampled = ParkedCountSeries("p", ((2, 9),))
        assert estimate_fleet_size(series, (0, 10)) == estimate_fleet_size(
            subsampled, (0, 10)
        )


class TestDeviceCap:
    @pytest.mark.parametrize(
        "estimate,cap,expected",
        [
            (2999, 3000, CapVerdict(True)),
            (3000, 3000, CapVerdict(True)),
            (3200, 3000, CapVerdict(False, 200)),
        ],
    )
    def test_verdicts(self, estimate, cap, expected):
        assert check_device_cap(estimate, cap) == expected

    def test_nonpositive_cap_rejected(self):
        with pytest.raises(ValueError):
            check_device_cap(1, 0)


class TestTripCsv:
    def test_round_trip(self, tmp_path):
        trips = [
            make_trip("a", (34.0, -118.2), (34.01, -118.21), 100, 700),
            make_trip("b", (33.9, -118.0), (33.95, -118.05), 200, 1400),
        ]
        path = tmp_path / "trips.csv"
        write_trips_csv(trips, path, meta={"seed": 1})
        back = read_trips_csv(path)
        assert len(back) == 2
        for orig, rt in zip(trips, back):
            assert rt.scooter_id == orig.scooter_id
            assert rt.start_time == orig.start_time
            assert rt.end_time == orig.end_time
            assert rt.start_loc == pytest.approx(orig.start_loc, abs=1e-6)
            assert rt.distance_m == pytest.approx(orig.distance_m, abs=1.0)

    def test_trip_row_formats(self):
        t = make_trip("a", (34.0, -118.2), (34.01, -118.21), 100, 700)
        assert trip_row(t) == [
            "a", 100, 700, "34.000000", "-118.200000", "34.010000", "-118.210000",
            f"{t.distance_m:.2f}", 600,
        ]
