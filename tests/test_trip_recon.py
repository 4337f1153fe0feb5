import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scootpriv import trip_recon
from scootpriv.trip_recon import (
    ID_REUSE_GAP_S,
    Trip,
    TripFilter,
    filter_trips,
    haversine_distance,
    read_trips_csv,
    reconstruct_trips,
    stays,
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
            Trip("s", (0, 0), (0, 1), 100, 100)

    def test_distance_matches_haversine(self):
        t = Trip("s", (34.0, -118.2), (34.01, -118.21), 0, 600)
        assert t.distance_m == haversine_distance((34.0, -118.2), (34.01, -118.21))
        assert t.duration_s == 600

    def test_distance_computed_once_through_module_function(self, monkeypatch):
        calls = []

        def counting(a, b):
            calls.append((a, b))
            return haversine_distance(a, b)

        monkeypatch.setattr(trip_recon, "haversine_distance", counting)
        t = Trip("s", (34.0, -118.2), (34.01, -118.21), 0, 600)
        assert calls == []
        assert t.distance_m == t.distance_m
        assert calls == [((34.0, -118.2), (34.01, -118.21))]


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
        with pytest.raises(ValueError, match="min_move_m"):
            reconstruct_trips([], min_move_m=math.nan)

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

    def test_trip_after_a_small_move_starts_where_the_scooter_last_stood(self):
        nudged, far = (0.0, 0.00002), (0.0, 0.00539)
        track = [(0, {"a": (0.0, 0.0)}), (60, {"a": nudged}), (120, {"a": far})]
        [trip] = reconstruct_trips(snapshots_for_track(track))
        assert (trip.start_loc, trip.end_loc, trip.start_time) == (nudged, far, 60)

    def test_one_shot_iterator_accepted(self):
        l1, l2 = (0.0, 0.0), (0.01, 0.01)
        snaps = snapshots_for_track([(0, {"a": l1, "b": l2}), (60, {"a": l2}), (120, {"b": l1})])
        trips = reconstruct_trips(snaps)
        assert len(trips) == 2
        assert reconstruct_trips(iter(snaps)) == trips

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


def scalar_haversine(a, b):
    """The great-circle distance of the scalar loop, with math's libm
    functions: the reference for haversine_distance."""
    lat1, lon1 = math.radians(a[0]), math.radians(a[1])
    lat2, lon2 = math.radians(b[0]), math.radians(b[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    h = math.sin(dlat / 2) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2) ** 2
    return 2 * trip_recon.EARTH_RADIUS_M * math.asin(math.sqrt(h))


def scalar_reconstruct(snapshots, min_move_m):
    """The scalar diff loop, one great-circle call per observation, that
    the per-snapshot join replaced: the reference for its results, the
    trips and each snapshot's list of stay numbers. Each scooter's state
    is its last observation and its stay."""
    state = {}
    trips, stay_lists = [], []
    n_stays = 0
    for snap in snapshots:
        stay_lists.append([])
        for scooter_id, lat, lon, _, _ in snap.rows():
            loc = (lat, lon)
            known = state.get(scooter_id)
            new_stay = known is None or snap.captured_at - known[1] > ID_REUSE_GAP_S
            if not new_stay:
                old_loc, last_seen, stay = known
                if scalar_haversine(old_loc, loc) > min_move_m:
                    trips.append(Trip(scooter_id, old_loc, loc, last_seen, snap.captured_at))
                    new_stay = True
            if new_stay:
                stay, n_stays = n_stays, n_stays + 1
            state[scooter_id] = (loc, snap.captured_at, stay)
            stay_lists[-1].append(stay)
    return trips, stay_lists


class TestHaversineMatchesScalar:
    @given(coords, coords)
    def test_scalar_is_libm_formula(self, a, b):
        assert haversine_distance(a, b) == scalar_haversine(a, b)

    @given(st.lists(st.tuples(coords, coords), min_size=1, max_size=20))
    def test_array_within_tolerance_of_scalar(self, pairs):
        a, b = zip(*pairs)
        d = haversine_distance(tuple(np.array(c) for c in zip(*a)), tuple(np.array(c) for c in zip(*b)))
        ref = [scalar_haversine(p, q) for p, q in pairs]
        assert d.tolist() == pytest.approx(ref, rel=trip_recon.ARRAY_REL_TOL, abs=0)


# a parked fix, one about 21 m east of it, and one about 111 m north;
# with numpy 2.4.6 on an AVX-512 CPU the array distance from BASE to NEAR
# is one ulp below libm's, so the join must not decide that move by it
BASE, NEAR, FAR = (34.0, -118.3), (34.0, -118.2997709), (34.001, -118.3)
BASE_TO_NEAR_M = scalar_haversine(BASE, NEAR)


@st.composite
def snapshot_sequences(draw):
    """Snapshots of ids that appear, vanish and come back, sometimes after
    more than ID_REUSE_GAP_S, at fixes BASE_TO_NEAR_M apart, and a
    min_move_m within a few ulps of that distance."""
    steps = draw(st.lists(
        st.sampled_from([60, ID_REUSE_GAP_S, ID_REUSE_GAP_S + 1, 2 * ID_REUSE_GAP_S]),
        max_size=12,
    ))
    times = [sum(steps[:i]) for i in range(len(steps) + 1)]
    fixes = [draw(st.dictionaries(st.sampled_from("abcde"), st.sampled_from([BASE, NEAR, FAR])))
             for _ in times]
    min_move_m = BASE_TO_NEAR_M
    ulps = draw(st.integers(-3, 3))
    for _ in range(abs(ulps)):
        min_move_m = math.nextafter(min_move_m, math.copysign(math.inf, ulps))
    snaps = [make_snapshot([(sid, *loc) for sid, loc in f.items()], captured_at=t)
             for t, f in zip(times, fixes)]
    return snaps, min_move_m


class TestJoinMatchesScalarLoop:
    @settings(max_examples=300, deadline=None)
    @given(snapshot_sequences())
    def test_same_trips_in_same_order(self, case):
        snaps, min_move_m = case
        trips, stay_numbers = scalar_reconstruct(snaps, min_move_m)
        assert reconstruct_trips(snaps, min_move_m) == trips
        segmented = [(snap, s.dtype, s.tolist()) for snap, s, _ in stays(snaps, min_move_m)]
        assert segmented == [(snap, np.int64, s) for snap, s in zip(snaps, stay_numbers)]

    def test_move_of_exactly_min_move_m_is_not_a_trip(self):
        snaps = snapshots_for_track([(0, {"a": BASE}), (60, {"a": NEAR})])
        assert reconstruct_trips(snaps, BASE_TO_NEAR_M) == []
        assert len(reconstruct_trips(snaps, math.nextafter(BASE_TO_NEAR_M, 0))) == 1


class TestFilterTrips:
    @pytest.fixture
    def default_filter(self):
        return TripFilter()

    def trip_of(self, distance_deg, duration_s):
        return Trip("s", (0.0, 0.0), (0.0, distance_deg), 0, duration_s)

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
        at_dist = Trip("s", (0, 0), (0, 100 / ONE_DEGREE_EQUATOR_M), 0, 3600)
        assert abs(at_dist.distance_m - 100) < 1e-6
        assert filter_trips([at_dist], f) == [at_dist]

    def test_rejects_names_the_threshold_distance_first(self, default_filter):
        cases = {
            (150 / ONE_DEGREE_EQUATOR_M, 600): None,
            (50 / ONE_DEGREE_EQUATOR_M, 600): "min_distance_m",
            (0.01, 7200): "max_duration_s",
            (50 / ONE_DEGREE_EQUATOR_M, 7200): "min_distance_m",
        }
        for args, reason in cases.items():
            t = self.trip_of(*args)
            assert default_filter.rejects(t) == reason

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
        with pytest.raises(ValueError, match="min_distance_m"):
            TripFilter(min_distance_m=math.nan)
        with pytest.raises(ValueError, match="max_duration_s"):
            TripFilter(max_duration_s=math.nan)


class TestTripCsv:
    def test_round_trip(self, tmp_path):
        trips = [
            Trip("a", (34.0, -118.2), (34.01, -118.21), 100, 700),
            Trip("b", (33.9, -118.0), (33.95, -118.05), 200, 1400),
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

    @pytest.mark.parametrize("bad_rows", [[0], [6], [3, 5], [1, 2, 6], list(range(7))])
    def test_first_coordinate_out_of_range_named_by_line_and_column(self, tmp_path, bad_rows):
        # the columns are checked whole; the error is still the first bad row's
        trips = [Trip(f"s{i}", (34.0, -118.2), (34.01, -118.2), 0, 600) for i in range(7)]
        path = tmp_path / "trips.csv"
        write_trips_csv(trips, path)
        lines = path.read_text().splitlines(keepends=True)  # the header, then row i on i + 2
        for row in bad_rows:
            cells = lines[row + 1].split(",")
            column = ("start_lat", "end_lon")[row % 2]
            cells[trip_recon.TRIP_CSV_COLUMNS.index(column)] = ("-95", "181")[row % 2]
            lines[row + 1] = ",".join(cells)
        path.write_text("".join(lines))
        first = bad_rows[0]
        message = ("start_lat '-95.0' out of range [-90, 90]",
                   "end_lon '181.0' out of range [-180, 180]")[first % 2]
        with pytest.raises(ValueError) as exc:
            read_trips_csv(path)
        assert str(exc.value) == f"{path}: line {first + 2}: {message}"

    def test_trip_row_formats(self):
        t = Trip("a", (34.0, -118.2), (34.01, -118.21), 100, 700)
        assert trip_row(t) == [
            "a", 100, 700, "34.000000", "-118.200000", "34.010000", "-118.210000",
            f"{t.distance_m:.2f}", 600,
        ]
