import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scootpriv.feed_ingest import (
    FeedParseError,
    ScooterObservation,
    Snapshot,
    SnapshotStore,
    StoreError,
    parse_free_bike_status,
    poll_feed,
    read_snapshots,
    snapshot_from_record,
    snapshot_to_record,
    write_archive,
)

from conftest import make_feed_doc, make_snapshot


class TestParse:
    def test_two_bikes(self):
        raw = make_feed_doc([("a", 34.0, -118.2), ("b", 34.1, -118.3)])
        snap = parse_free_bike_status(raw, "bird")
        assert snap.provider == "bird"
        assert snap.captured_at == 1_700_000_000
        assert len(snap.observations) == 2
        assert snap.observations[0].scooter_id == "a"
        assert snap.observations[0].lat == 34.0

    @pytest.mark.parametrize("ttl", [60, 300])
    def test_ttl_passthrough(self, ttl):
        snap = parse_free_bike_status(make_feed_doc([("a", 0, 0)], ttl=ttl), "p")
        assert snap.ttl_s == ttl

    def test_extra_fields_ignored(self):
        raw = make_feed_doc([("a", 1.0, 2.0)], extra={"version": "2.3", "junk": [1]})
        assert len(parse_free_bike_status(raw, "p").observations) == 1

    def test_not_json(self):
        with pytest.raises(FeedParseError):
            parse_free_bike_status(b"not json {", "p")

    def test_missing_required_field(self):
        doc = json.loads(make_feed_doc([("a", 0, 0)]))
        del doc["ttl"]
        with pytest.raises(FeedParseError):
            parse_free_bike_status(json.dumps(doc).encode(), "p")

    @pytest.mark.parametrize("lat,lon", [(91.0, 0.0), (-91.0, 0.0), (0.0, 181.0), (0.0, -180.5)])
    def test_out_of_range_coordinate(self, lat, lon):
        with pytest.raises(FeedParseError):
            parse_free_bike_status(make_feed_doc([("a", lat, lon)]), "p")

    def test_duplicate_scooter_id(self):
        with pytest.raises(FeedParseError, match="duplicate"):
            parse_free_bike_status(make_feed_doc([("a", 0, 0), ("a", 1, 1)]), "p")

    def test_empty_scooter_id(self):
        with pytest.raises(FeedParseError):
            parse_free_bike_status(make_feed_doc([("", 0, 0)]), "p")


class TestCoords:
    def test_float_arrays_in_observation_order(self):
        lats, lons = make_snapshot([("a", 34, -118), ("b", 33.5, -118.25)]).coords()
        assert lats.dtype == lons.dtype == float
        assert lats.tolist() == [34.0, 33.5] and lons.tolist() == [-118.0, -118.25]

    def test_empty_snapshot(self):
        lats, lons = make_snapshot([]).coords()
        assert lats.shape == lons.shape == (0,) and lats.dtype == float

    def test_with_coords_inverts_coords(self):
        s = make_snapshot([("a", 34.0, -118.2, True, False), ("b", 33.9, -118.0)])
        assert s.with_coords(*s.coords()) == s

    def test_with_coords_moves_only_coordinates(self):
        s = make_snapshot([("a", 34.0, -118.2, True, False)], captured_at=5)
        moved = s.with_coords([33.5], [-117.5])
        assert moved == make_snapshot([("a", 33.5, -117.5, True, False)], captured_at=5)
        assert type(moved.observations[0].lat) is float


class TestWriteArchive:
    def test_meta_line_then_snapshots(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("stale\n")
        snaps = [make_snapshot([("a", 34.0, -118.2)], captured_at=t) for t in (1, 2)]
        write_archive(snaps, path, meta={"command": "test"})
        lines = path.read_text().splitlines()
        assert json.loads(lines[0]) == {"_meta": {"command": "test"}}
        assert list(SnapshotStore(path).iter_all()) == snaps

    def test_failure_midway_leaves_target_and_no_temp_file(self, tmp_path):
        path = tmp_path / "a.jsonl"
        path.write_text("old\n")

        def failing():
            yield make_snapshot([("a", 34.0, -118.2)], captured_at=1)
            raise RuntimeError("boom")

        with pytest.raises(RuntimeError):
            write_archive(failing(), path)
        assert path.read_text() == "old\n"
        assert [p.name for p in tmp_path.iterdir()] == ["a.jsonl"]

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_archive([], path)
        assert path.read_text() == ""


class TestRoundTrip:
    def test_record_round_trip(self):
        snap = make_snapshot([("a", 34.0, -118.2, True, False), ("b", 33.9, -118.0)])
        assert snapshot_from_record(snapshot_to_record(snap)) == snap

    def test_store_round_trip(self, tmp_path):
        store = SnapshotStore(tmp_path / "arch.jsonl")
        snaps = [
            make_snapshot([("a", 34.0, -118.2)], captured_at=1000 + i) for i in range(5)
        ]
        for s in snaps:
            store.append(s)
        assert list(store.iter_all()) == snaps


class TestStore:
    def test_monotonic_captured_at_enforced(self, tmp_path):
        store = SnapshotStore(tmp_path / "a.jsonl")
        store.append(make_snapshot([("a", 0, 0)], captured_at=100))
        with pytest.raises(StoreError):
            store.append(make_snapshot([("a", 0, 0)], captured_at=100))

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "a.jsonl"
        store = SnapshotStore(path)
        store.append(make_snapshot([("a", 0, 0)], captured_at=1))
        with open(path, "a") as f:
            f.write("garbage\n")
        with pytest.raises(StoreError, match="line 2"):
            list(store.iter_all())
        assert len(list(store.iter_all(skip_corrupt=True))) == 1

    def test_meta_lines_skipped(self, tmp_path):
        path = tmp_path / "a.jsonl"
        store = SnapshotStore(path)
        store.write_meta({"command": "test"})
        store.append(make_snapshot([("a", 0, 0)], captured_at=1))
        assert len(list(store.iter_all())) == 1


class TestReadSnapshots:
    @pytest.fixture
    def filled_store(self, tmp_path):
        store = SnapshotStore(tmp_path / "a.jsonl")
        for i in range(5):
            store.append(make_snapshot([("a", 0, 0)], captured_at=100 + 10 * i))
        return store

    def test_empty_range(self, filled_store):
        assert read_snapshots(filled_store, "test", 0, 50) == []

    def test_full_range(self, filled_store):
        snaps = read_snapshots(filled_store, "test", 0, 10_000)
        assert len(snaps) == 5
        assert [s.captured_at for s in snaps] == [100, 110, 120, 130, 140]

    def test_partial_range_matches_linear_scan(self, filled_store):
        lo, hi = 110, 120
        got = read_snapshots(filled_store, "test", lo, hi)
        oracle = [s for s in filled_store.iter_all() if lo <= s.captured_at <= hi]
        assert got == oracle
        assert len(got) == 2

    def test_from_after_to_rejected(self, filled_store):
        with pytest.raises(ValueError):
            read_snapshots(filled_store, "test", 200, 100)

    def test_other_provider_excluded(self, filled_store):
        assert read_snapshots(filled_store, "other", 0, 10_000) == []

    def test_strictly_ordered_no_duplicates(self, filled_store):
        snaps = read_snapshots(filled_store, "test", 0, 10_000)
        ts = [s.captured_at for s in snaps]
        assert ts == sorted(set(ts))

    def test_repeated_line_dropped(self, filled_store):
        lines = filled_store.path.read_text().splitlines(keepends=True)
        filled_store.path.write_text("".join(lines + [lines[2]]))
        assert [s.captured_at for s in read_snapshots(filled_store)] == [100, 110, 120, 130, 140]

    def test_all_providers_keep_equal_timestamps(self, tmp_path):
        store = SnapshotStore(tmp_path / "a.jsonl")
        for provider in ("bird", "lime"):
            store.append(make_snapshot([("a", 0, 0)], captured_at=100, provider=provider))
        snaps = read_snapshots(store, provider=None)
        assert [(s.provider, s.captured_at) for s in snaps] == [("bird", 100), ("lime", 100)]


class _FeedHandler(BaseHTTPRequestHandler):
    """Replays a scripted list of responses, one per request."""

    script = []
    calls = 0

    def do_GET(self):
        cls = type(self)
        i = min(cls.calls, len(cls.script) - 1)
        status, body = cls.script[i]
        cls.calls += 1
        self.send_response(status)
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def stub_server():
    class Handler(_FeedHandler):
        script = []
        calls = 0

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}/free_bike_status.json"
    yield Handler, url
    server.shutdown()


class TestPoller:
    def _run(self, handler, url, store, n_polls, interval=60):
        polls = {"n": 0}

        def stop():
            return polls["n"] >= n_polls

        def sleep(_):
            polls["n"] += 1

        return poll_feed(url, store, "p", interval, stop, sleep=sleep)

    def test_unchanged_feed_deduplicated(self, stub_server, tmp_path):
        handler, url = stub_server
        doc1 = make_feed_doc([("a", 1, 1)], last_updated=1000)
        doc3 = make_feed_doc([("a", 2, 2)], last_updated=1060)
        handler.script = [(200, doc1), (200, doc1), (200, doc3)]
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run(handler, url, store, n_polls=3)
        assert summary.snapshots_written == 2
        assert summary.skipped_unchanged == 1
        assert [s.captured_at for s in store.iter_all()] == [1000, 1060]

    def test_http_failure_retried_then_stored(self, stub_server, tmp_path):
        handler, url = stub_server
        doc = make_feed_doc([("a", 1, 1)], last_updated=1000)
        handler.script = [(500, b""), (200, doc)]
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run(handler, url, store, n_polls=1)
        assert summary.fetch_failures == 1
        assert summary.snapshots_written == 1

    def test_changing_feed_stores_every_snapshot(self, stub_server, tmp_path):
        handler, url = stub_server
        handler.script = [
            (200, make_feed_doc([("a", 1, 1)], last_updated=1000 + 60 * i))
            for i in range(10)
        ]
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run(handler, url, store, n_polls=10)
        assert summary.snapshots_written == 10
        assert summary.fetch_failures == 0

    def test_unreachable_endpoint_never_fatal(self, tmp_path):
        store = SnapshotStore(tmp_path / "a.jsonl")
        polls = {"n": 0}

        def stop():
            return polls["n"] >= 1

        def sleep(_):
            polls["n"] += 1

        summary = poll_feed(
            "http://127.0.0.1:1/nope", store, "p", 60, stop, sleep=sleep, timeout=0.2
        )
        assert summary.snapshots_written == 0
        assert summary.fetch_failures >= 1
        assert summary.errors

    def test_nonpositive_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            poll_feed("http://x/", SnapshotStore(tmp_path / "a.jsonl"), "p", 0, lambda: True)
