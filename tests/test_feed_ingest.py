import gc
import io
import itertools
import json
import multiprocessing
import os
import pickle
import re
import signal
import threading
import tracemalloc
from contextlib import closing, redirect_stderr
from dataclasses import replace
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scootpriv import cli, feed_ingest, synth_fleet
from scootpriv.feed_ingest import (
    FeedParseError,
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

from conftest import FakeClock, force_parallel_read, make_feed_doc, make_snapshot, square_region


def _archive_line(snap):
    return json.dumps(snapshot_to_record(snap), separators=(",", ":")) + "\n"


# one snapshot's archive line behind a UTF-8 byte-order mark, and with a
# byte that is not UTF-8 in its scooter id
_ONE_SNAPSHOT = _archive_line(make_snapshot([("a", 0, 0)], captured_at=2)).encode().rstrip()
BOM_LINE = b"\xef\xbb\xbf" + _ONE_SNAPSHOT
NOT_UTF8_LINE = _ONE_SNAPSHOT.replace(b'"id":"a"', b'"id":"\xff"')


class TestParse:
    def test_two_bikes(self):
        raw = make_feed_doc([("a", 34.0, -118.2), ("b", 34.1, -118.3)])
        snap = parse_free_bike_status(raw, "bird")
        assert snap.provider == "bird"
        assert snap.captured_at == 1_700_000_000
        assert len(snap.ids) == 2
        assert next(snap.rows()) == ("a", 34.0, -118.2, False, False)

    @pytest.mark.parametrize("ttl", [60, 300, 60.0])
    def test_ttl_passthrough(self, ttl):
        snap = parse_free_bike_status(make_feed_doc([("a", 0, 0)], ttl=ttl), "p")
        assert snap.ttl_s == ttl and type(snap.ttl_s) is int

    def test_extra_fields_ignored(self):
        raw = make_feed_doc([("a", 1.0, 2.0)], extra={"version": "2.3", "junk": [1]})
        assert len(parse_free_bike_status(raw, "p").ids) == 1

    def test_not_json(self):
        with pytest.raises(FeedParseError):
            parse_free_bike_status(b"not json {", "p")

    def test_missing_required_field(self):
        doc = json.loads(make_feed_doc([("a", 0, 0)]))
        del doc["ttl"]
        with pytest.raises(FeedParseError):
            parse_free_bike_status(json.dumps(doc).encode(), "p")

    @pytest.mark.parametrize("field,value", [
        ("lat", None), ("lon", "east"), ("bike_id", KeyError),
        pytest.param("lat", 10**400, id="lat-401-digits"),
        ("lat", True), ("lat", "34.0"), ("is_reserved", "false"), ("is_disabled", 2),
        # GBFS defines bike_id as a string
        ("bike_id", None), ("bike_id", True), ("bike_id", 17),
    ])
    def test_bad_bike_field_names_the_bike(self, field, value):
        doc = json.loads(make_feed_doc([("a", 0, 0), ("b", 1, 1), ("c", 2, 2)]))
        bike = doc["data"]["bikes"][1]
        if value is KeyError:
            del bike[field]
        else:
            bike[field] = value
        with pytest.raises(FeedParseError, match="bike #1"):
            parse_free_bike_status(json.dumps(doc).encode(), "p")

    @pytest.mark.parametrize("raw", [
        b"[" * 100_000 + b"]" * 100_000, b"[]", b'"feed"', b"\xff",
        *(json.dumps({"last_updated": 1, "ttl": 60, "data": {"bikes": b}}).encode()
          for b in ({}, "", None)),
    ], ids=["nested too deep", "an array", "a string", "not UTF-8",
            "bikes an object", "bikes a string", "bikes null"])
    def test_malformed_document(self, raw):
        with pytest.raises(FeedParseError, match="^document: "):
            parse_free_bike_status(raw, "p")

    def test_missing_bike_field_named_as_missing(self):
        doc = json.loads(make_feed_doc([("a", 0, 0), ("b", 1, 1)]))
        del doc["data"]["bikes"][1]["lat"]
        with pytest.raises(FeedParseError, match="^bike #1: missing key 'lat'$"):
            parse_free_bike_status(json.dumps(doc).encode(), "p")

    def test_gbfs_1_integer_flags_load(self):
        raw = make_feed_doc([("a", 34, -118, 1, 0), ("b", 34.5, -118.5, 0, 1)])
        snap = parse_free_bike_status(raw, "p")
        assert list(snap.rows()) == [
            ("a", 34.0, -118.0, True, False), ("b", 34.5, -118.5, False, True)
        ]

    @pytest.mark.parametrize("field,value", [
        ("last_updated", float("inf")), ("ttl", float("nan")),
        # an integer header is an integral JSON number, not a string or a bool
        ("last_updated", "1700000000"), ("ttl", True), ("ttl", 60.9),
    ])
    def test_non_finite_header_field(self, field, value):
        doc = json.loads(make_feed_doc([("a", 0, 0)]))
        doc[field] = value  # json.dumps writes Infinity or NaN, which json.loads reads back
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
        s = make_snapshot([("a", 34, -118), ("b", 33.5, -118.25)])
        lats, lons = s.lats, s.lons
        assert lats.dtype == lons.dtype == float
        assert lats.tolist() == [34.0, 33.5] and lons.tolist() == [-118.0, -118.25]

    def test_empty_snapshot(self):
        s = make_snapshot([])
        lats, lons = s.lats, s.lons
        assert lats.shape == lons.shape == (0,) and lats.dtype == float

    def test_replaced_coords_round_trip(self):
        s = make_snapshot([("a", 34.0, -118.2, True, False), ("b", 33.9, -118.0)])
        assert replace(s, lats=s.lats, lons=s.lons) == s

    def test_columns_read_only(self):
        s = make_snapshot([("a", 34.0, -118.2)])
        with pytest.raises(ValueError, match="read-only"):
            s.lats[0] = 0.0
        with pytest.raises(AttributeError):
            s.lats = np.zeros(1)

    def test_replaced_coords_move_only_coordinates(self):
        s = make_snapshot([("a", 34.0, -118.2, True, False)], captured_at=5)
        moved = replace(s, lats=[33.5], lons=[-117.5])
        assert moved == make_snapshot([("a", 33.5, -117.5, True, False)], captured_at=5)
        rows = list(moved.rows())
        assert list(map(type, rows[0])) == [str, float, float, bool, bool]
        assert rows == [rows[0]]


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

    def test_symlinked_target_written_through(self, tmp_path):
        real = tmp_path / "store" / "a.jsonl"
        real.parent.mkdir()
        real.write_text("old\n")
        link = tmp_path / "link.jsonl"
        link.symlink_to(real)
        snaps = [make_snapshot([("a", 34.0, -118.2)], captured_at=1)]
        write_archive(snaps, link)
        assert link.is_symlink()
        assert list(SnapshotStore(real).iter_all()) == snaps

    def test_empty_archive(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_archive([], path)
        assert path.read_text() == ""


class TestRoundTrip:
    def test_record_round_trip(self):
        snap = make_snapshot([("a", 34.0, -118.2, True, False), ("b", 33.9, -118.0)])
        assert snapshot_from_record(snapshot_to_record(snap)) == snap

    def test_integral_float_timestamps_load_as_int(self):
        rec = snapshot_to_record(make_snapshot([("a", 34.0, -118.2)]))
        rec.update(captured_at=1_700_000_000.0, ttl_s=60.0)
        snap = snapshot_from_record(rec)
        assert (snap.captured_at, snap.ttl_s) == (1_700_000_000, 60)
        assert type(snap.captured_at) is int and type(snap.ttl_s) is int

    def test_loaded_ids_shared_across_snapshots(self):
        recs = [snapshot_to_record(make_snapshot([("s-1", 34.0, -118.2)], captured_at=t))
                for t in (1, 2)]
        a, b = (snapshot_from_record(json.loads(json.dumps(r))) for r in recs)
        row_a, row_b = next(a.rows()), next(b.rows())
        assert row_a[0] is row_b[0]
        assert not hasattr(row_a, "__dict__")

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

    def test_last_captured_read_from_the_archive_tail(self, tmp_path):
        path = tmp_path / "a.jsonl"
        snaps = [make_snapshot([("a", 0, 0)], captured_at=t, provider=p)
                 for p, t in (("lime", 100), ("bird", 50), ("lime", 160))]
        write_archive(snaps, path, meta={"command": "test"})
        with open(path, "a") as f:
            f.write("\n")  # blank lines are skipped
        store = SnapshotStore(path)
        assert [store.last_captured(p) for p in ("lime", "bird", "other")] == [160, 50, None]
        # a second writer on the archive keeps each provider ascending
        with pytest.raises(StoreError, match="not after previous 50"):
            SnapshotStore(path).append(make_snapshot([("a", 0, 0)], 50, provider="bird"))
        SnapshotStore(path).append(make_snapshot([("a", 0, 0)], 170, provider="lime"))
        assert [s.captured_at for s in read_snapshots(SnapshotStore(path))] == [100, 50, 160, 170]

    def test_last_captured_of_a_cut_line_is_a_store_error(self, tmp_path):
        path = tmp_path / "a.jsonl"
        write_archive([make_snapshot([("a", 0, 0)], captured_at=1)], path)
        with open(path, "a") as f:
            f.write('{"provider": "test", "captured_at": 2, "bi')
        with pytest.raises(StoreError, match="corrupt line"):
            SnapshotStore(path).last_captured("test")

    @pytest.mark.parametrize(
        "tail",
        [b"[" * 100_000 + b"]" * 100_000, b"[1]", b"5", b'"test"', BOM_LINE, NOT_UTF8_LINE],
        ids=["nested too deep", "an array", "a number", "a string", "a byte-order mark",
             "a non-UTF-8 byte"],
    )
    def test_last_captured_of_a_line_not_an_object_is_a_store_error(self, tmp_path, tail):
        path = tmp_path / "a.jsonl"
        write_archive([make_snapshot([("a", 0, 0)], captured_at=1)], path)
        start = path.stat().st_size
        with open(path, "ab") as f:
            f.write(tail + b"\n")
        with pytest.raises(StoreError, match=f"corrupt line at byte {start}: "):
            SnapshotStore(path).last_captured("test")

    def test_append_failure_is_a_store_error(self, tmp_path):
        path = tmp_path / "missing" / "a.jsonl"
        with pytest.raises(StoreError, match=f"cannot append to {path}: "):
            SnapshotStore(path).append(make_snapshot([("a", 0, 0)]))

    def test_corrupt_line_reported_with_number(self, tmp_path):
        path = tmp_path / "a.jsonl"
        store = SnapshotStore(path)
        store.append(make_snapshot([("a", 0, 0)], captured_at=1))
        with open(path, "a") as f:
            f.write("garbage\n")
        with pytest.raises(StoreError, match="line 2"):
            list(store.iter_all())

    @pytest.mark.parametrize(
        "line",
        [b'"not a _meta header"', b'["_meta"]', NOT_UTF8_LINE, BOM_LINE],
        ids=["a string holding _meta", "an array holding _meta", "a non-UTF-8 byte",
             "a byte-order mark"],
    )
    def test_line_not_a_record_reported_with_number(self, tmp_path, line):
        path = tmp_path / "a.jsonl"
        store = SnapshotStore(path)
        store.append(make_snapshot([("a", 0, 0)], captured_at=1))
        with open(path, "ab") as f:
            f.write(line + b"\n")
        with pytest.raises(StoreError, match=f"^{path}: corrupt line 2: "):
            list(store.iter_all())

    def test_meta_header_never_decoded(self, tmp_path):
        path = tmp_path / "a.jsonl"
        snap = make_snapshot([("a", 0, 0)], captured_at=1)
        path.write_bytes(b'{"_meta":' + b"[" * 100_000 + b"\xff\n" + _archive_line(snap).encode())
        assert list(SnapshotStore(path).iter_all()) == [snap]
        assert SnapshotStore(path).last_captured("test") == 1
        path.write_bytes(path.read_bytes().split(b"\n", 1)[0])
        assert list(SnapshotStore(path).iter_all()) == []
        assert SnapshotStore(path).last_captured("test") is None

    @pytest.mark.parametrize(
        "corrupt",
        [
            lambda rec: rec["bikes"][0].update(id=17),
            lambda rec: rec["bikes"][0].update(id=""),
            lambda rec: rec["bikes"][1].update(id=rec["bikes"][0]["id"]),
            lambda rec: rec["bikes"][0].update(lat=91),
            lambda rec: rec["bikes"][0].update(lat=None),
            lambda rec: rec["bikes"][0].update(lat=float("nan")),
            lambda rec: rec["bikes"][1].pop("lon"),
            lambda rec: rec.update(ttl_s=0),
            lambda rec: rec["bikes"][0].update(lat=10**400),
            lambda rec: rec.update(captured_at=2**63),
            lambda rec: rec["bikes"][0].update(lat=True),
            lambda rec: rec["bikes"][0].update(lat="34.0"),
            lambda rec: rec["bikes"][0].update(reserved="false"),
            lambda rec: rec["bikes"][0].update(disabled=None),
            lambda rec: rec.update(captured_at="1700000000"),
            lambda rec: rec.update(captured_at=True),
            lambda rec: rec.update(captured_at=float("nan")),
            lambda rec: rec.update(ttl_s=60.9),
            lambda rec: rec.update(ttl_s=float("inf")),
            lambda rec: rec.update(bikes={}),
            lambda rec: rec.update(bikes=""),
            lambda rec: rec.update(provider=5),
            lambda rec: rec.update(provider=["x"]),
            lambda rec: rec.update(provider=None),
        ],
        ids=["non-string id", "empty id", "duplicate id", "lat 91", "lat null", "lat NaN",
             "missing lon", "ttl 0", "lat of 401 digits", "captured_at past int64",
             "lat true", "lat string", "reserved string", "disabled null",
             "captured_at string", "captured_at true", "captured_at NaN", "ttl_s 60.9",
             "ttl_s Infinity", "bikes {}", "bikes empty string", "provider 5",
             "provider list", "provider null"],
    )
    def test_corrupt_record_reported_with_line_number(self, tmp_path, corrupt):
        path = tmp_path / "a.jsonl"
        snaps = [make_snapshot([("a", 34.0, -118.2), ("b", 34.1, -118.3)], captured_at=t)
                 for t in (1, 2, 3)]
        write_archive(snaps, path, meta={"command": "test"})
        lines = path.read_text().splitlines(keepends=True)
        rec = json.loads(lines[2])
        corrupt(rec)
        lines[2] = json.dumps(rec) + "\n"
        path.write_text("".join(lines))
        with pytest.raises(StoreError, match="corrupt line 3"):
            list(SnapshotStore(path).iter_all())

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

    def test_full_range(self, filled_store):
        snaps = list(read_snapshots(filled_store, "test"))
        assert len(snaps) == 5
        assert [s.captured_at for s in snaps] == [100, 110, 120, 130, 140]

    def test_other_provider_excluded(self, filled_store):
        assert list(read_snapshots(filled_store, "other")) == []

    def test_strictly_ordered_no_duplicates(self, filled_store):
        snaps = list(read_snapshots(filled_store, "test"))
        ts = [s.captured_at for s in snaps]
        assert ts == sorted(set(ts))

    def test_repeated_line_dropped(self, filled_store, caplog):
        lines = filled_store.path.read_text().splitlines(keepends=True)
        filled_store.path.write_text("".join(lines + [lines[2]]))
        snaps = read_snapshots(filled_store)
        assert [s.captured_at for s in snaps] == [100, 110, 120, 130, 140]
        assert [r.getMessage() for r in caplog.records] == [
            f"{filled_store.path}: dropped 'test' snapshot at 120, not after 140"
        ]

    def test_all_providers_keep_equal_timestamps(self, tmp_path):
        store = SnapshotStore(tmp_path / "a.jsonl")
        for provider in ("bird", "lime"):
            store.append(make_snapshot([("a", 0, 0)], captured_at=100, provider=provider))
        snaps = read_snapshots(store, provider=None)
        assert [(s.provider, s.captured_at) for s in snaps] == [("bird", 100), ("lime", 100)]

    def test_providers_keep_file_order(self, tmp_path):
        store = SnapshotStore(tmp_path / "a.jsonl")
        for provider, t in (("lime", 200), ("bird", 100), ("lime", 260), ("bird", 160)):
            store.append(make_snapshot([("a", 0, 0)], captured_at=t, provider=provider))
        assert [(s.provider, s.captured_at) for s in read_snapshots(store)] == [
            ("lime", 200), ("bird", 100), ("lime", 260), ("bird", 160)
        ]

    def test_first_snapshot_read_before_a_corrupt_third_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        snaps = [make_snapshot([("a", 34.0, -118.2)], captured_at=t) for t in (1, 2, 3)]
        write_archive(snaps, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + "{not json\n")
        stream = read_snapshots(SnapshotStore(path))
        assert next(stream) == snaps[0]
        assert next(stream) == snaps[1]
        with pytest.raises(StoreError, match="corrupt line 3"):
            next(stream)


def mixed_archive(path, n=12):
    """An archive of n snapshots of 1 to 3 scooters with the line forms a
    reader must take: a _meta header, blank lines, a raw \\r inside a
    line (JSON whitespace), a \\r\\n ending and no final newline.
    Returns its snapshots."""
    snaps = [make_snapshot([(f"s-{j}", 34.0 + i / 100, -118.2 + j / 100, j == 1)
                            for j in range(1 + i % 3)], captured_at=100 + i)
             for i in range(n)]
    lines = [json.dumps({"_meta": {"command": "test"}}).encode() + b"\n"]
    for i, snap in enumerate(snaps):
        line = _archive_line(snap).encode()
        if i == 2:
            line = line.replace(b'","captured_at"', b'",\r"captured_at"')
        if i == 4:
            line = line.replace(b"\n", b"\r\n")
        lines.append(line)
        if i in (3, 7):
            lines.append(b"  \n" if i == 3 else b"\n")
    path.write_bytes(b"".join(lines).rstrip(b"\n"))
    return snaps


def _die_in_worker(path, start, end):
    os._exit(3)  # as a worker the kernel kills would


def _report_sigint_handler(path, start, end):
    # reported as a corrupt first line, the one message a chunk returns
    return [], 1, f"SIGINT handler {signal.getsignal(signal.SIGINT)!r}"


def read_until_error(store):
    """The snapshots a read yields before its StoreError, and its text."""
    got = []
    with pytest.raises(StoreError) as exc:
        for snap in store.iter_all():
            got.append(snap)
    return got, str(exc.value)


class TestParallelRead:
    @pytest.mark.parametrize("in_process_chunk", [1, 256, feed_ingest.ARCHIVE_CHUNK_BYTES])
    def test_same_snapshots_as_the_read_in_process(self, tmp_path, monkeypatch, in_process_chunk):
        path = tmp_path / "a.jsonl"
        snaps = mixed_archive(path)
        assert b"\r" in path.read_bytes() and not path.read_bytes().endswith(b"\n")
        monkeypatch.setattr(feed_ingest, "ARCHIVE_CHUNK_BYTES", in_process_chunk)
        in_process = list(SnapshotStore(path).iter_all())
        assert in_process == snaps
        reads = force_parallel_read(monkeypatch)
        # a chunk per line, a few lines per chunk, one chunk
        for chunk in (1, 256, 1000, 10**6):
            monkeypatch.setattr(feed_ingest, "ARCHIVE_CHUNK_BYTES", chunk)
            assert list(SnapshotStore(path).iter_all()) == in_process
        # a single chunk is one task: a single worker would only add its start
        assert reads == ["feed_ingest"] * 3

    def test_ids_interned_and_columns_read_only(self, tmp_path, parallel_read):
        path = tmp_path / "a.jsonl"
        snaps = mixed_archive(path)
        got = list(SnapshotStore(path).iter_all())
        assert got == snaps and parallel_read == ["feed_ingest"]
        assert got[-1].ids[0] is snaps[0].ids[0]
        assert not any(getattr(s, c).flags.writeable for s in got
                       for c in ("lats", "lons", "reserved", "disabled"))

    @pytest.mark.parametrize("bad", [3, 9, 15], ids=["first chunk", "later chunk", "last line"])
    def test_corrupt_line_raised_as_in_process_after_every_earlier_snapshot(
        self, tmp_path, monkeypatch, bad
    ):
        path = tmp_path / "a.jsonl"
        mixed_archive(path)
        lines = path.read_bytes().split(b"\n")
        lines[bad - 1] = lines[bad - 1][:40]
        path.write_bytes(b"\n".join(lines))
        in_process = read_until_error(SnapshotStore(path))
        assert f"corrupt line {bad}: " in in_process[1]
        reads = force_parallel_read(monkeypatch)
        assert read_until_error(SnapshotStore(path)) == in_process
        assert len(reads) == 1

    @pytest.mark.parametrize("in_workers", [False, True], ids=["in-process", "in workers"])
    def test_line_appended_during_the_read_not_read(self, tmp_path, monkeypatch, in_workers):
        path = tmp_path / "a.jsonl"
        snaps = [make_snapshot([("a", 34.0, -118.2)], captured_at=t) for t in (1, 2, 3)]
        write_archive(snaps, path)
        if in_workers:
            force_parallel_read(monkeypatch)
        monkeypatch.setattr(feed_ingest, "ARCHIVE_CHUNK_BYTES", 1)  # a chunk per line
        with closing(SnapshotStore(path).iter_all()) as stream:
            assert next(stream) == snaps[0]
            SnapshotStore(path).append(make_snapshot([("a", 34.0, -118.2)], captured_at=4))
            assert list(stream) == snaps[1:]

    def test_worker_killed_is_a_store_error(self, tmp_path, parallel_read, monkeypatch):
        path = tmp_path / "a.jsonl"
        mixed_archive(path)
        monkeypatch.setattr(feed_ingest, "_decode_chunk", _die_in_worker)
        with pytest.raises(StoreError, match=f"^{re.escape(str(path))}: read worker died: "):
            list(SnapshotStore(path).iter_all())

    def test_workers_ignore_ctrl_c(self, tmp_path, parallel_read, monkeypatch):
        path = tmp_path / "a.jsonl"
        mixed_archive(path)
        monkeypatch.setattr(feed_ingest, "_decode_chunk", _report_sigint_handler)
        # the reader handles Ctrl-C, whatever the process running the tests inherited
        previous = signal.signal(signal.SIGINT, signal.default_int_handler)
        try:
            with pytest.raises(StoreError, match="corrupt line 1: SIGINT handler <Handlers.SIG_IGN"):
                list(SnapshotStore(path).iter_all())
            assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        finally:
            signal.signal(signal.SIGINT, previous)

    def test_closed_early_leaves_no_worker(self, tmp_path, parallel_read):
        path = tmp_path / "a.jsonl"
        snaps = mixed_archive(path)
        with closing(SnapshotStore(path).iter_all()) as stream:
            assert list(itertools.islice(stream, 2)) == snaps[:2]
            assert multiprocessing.active_children()
        assert multiprocessing.active_children() == []

    def test_no_pool_below_the_floor_on_one_cpu_or_without_fork(
        self, tmp_path, parallel_read, monkeypatch
    ):
        path = tmp_path / "a.jsonl"
        snaps = mixed_archive(path)
        size = path.stat().st_size
        with monkeypatch.context() as m:
            m.setattr(feed_ingest, "PARALLEL_READ_MIN_BYTES", size + 1)
            assert list(SnapshotStore(path).iter_all()) == snaps
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
            m.setattr(os, "cpu_count", lambda: 1)
            assert list(SnapshotStore(path).iter_all()) == snaps
        with monkeypatch.context() as m:
            m.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
            assert list(SnapshotStore(path).iter_all()) == snaps
        assert parallel_read == []
        assert list(SnapshotStore(path).iter_all()) == snaps
        assert parallel_read == ["feed_ingest"]

    def test_pickled_snapshot_rebuilt_through_the_constructor(self):
        # ids built at run time, so that only interning makes them one object
        snap = make_snapshot([("".join(["s", str(i)]), 34.0, -118.2 + i / 10, i == 1)
                              for i in range(3)])
        copy = pickle.loads(pickle.dumps(snap))
        assert copy == snap and copy is not snap
        assert all(a is b for a, b in zip(copy.ids, snap.ids))
        assert not copy.lats.flags.writeable and not copy.disabled.flags.writeable


@st.composite
def mutated_archives(draw):
    """A clean archive of providers "a" and "b", interleaved at random,
    each ascending in captured_at, as its lines; then the same lines with
    an older "a" line moved after a newer one (or none moved), and with
    copies of some lines inserted after their originals, some records
    carrying an extra _meta key after their provider, and _meta header
    and blank lines inserted anywhere but after a cut last line. Returns
    (clean snapshots, the moved snapshot or None, mutated lines, and None
    or the length to cut the last line to, which drops at least its
    closing brace)."""
    clean_by = {}
    for provider in ("a", "b"):
        steps = draw(st.lists(st.integers(1, 120), min_size=1 if provider == "a" else 0,
                              max_size=6))
        times = np.cumsum(steps).tolist()
        clean_by[provider] = [
            make_snapshot([("s", 34.0 + t * 1e-4, -118.2)], captured_at=t, provider=provider)
            for t in times
        ]
    order = draw(st.permutations(["a"] * len(clean_by["a"]) + ["b"] * len(clean_by["b"])))
    pending = {p: iter(snaps) for p, snaps in clean_by.items()}
    clean = [next(pending[p]) for p in order]
    lines = list(clean)
    moved = None
    a_positions = [i for i, s in enumerate(lines) if s.provider == "a"]
    if len(a_positions) > 1 and draw(st.booleans()):
        k = draw(st.integers(0, len(a_positions) - 2))
        moved = lines.pop(a_positions[k])
        # after the next "a" line or later, so a newer "a" precedes it
        at = draw(st.integers(a_positions[k + 1], len(lines)))
        lines.insert(at, moved)
    for _ in range(draw(st.integers(0, 4))):
        src = draw(st.integers(0, len(lines) - 1))
        lines.insert(draw(st.integers(src + 1, len(lines))), lines[src])
    tagged = draw(st.sets(st.integers(0, len(lines) - 1)))
    lines = [
        _archive_line(s).replace(',"captured_at"', ',"_meta":{"x":1},"captured_at"')
        if i in tagged else _archive_line(s)
        for i, s in enumerate(lines)
    ]
    cut = draw(st.none() | st.integers(1, len(lines[-1]) - 2))
    # a header need not be JSON: it is recognised by its prefix alone
    extras = st.sampled_from(['{"_meta":{"command":"synth"}}\n', '{"_meta":[[{\n',
                              "\n", " \t\r\n"])
    for extra in draw(st.lists(extras, max_size=4)):
        lines.insert(draw(st.integers(0, len(lines) - (cut is not None))), extra)
    return clean, moved, lines, cut


class TestMutatedArchives:
    """The reader keeps exactly what poll_feed would have written, and the
    tail read, where a restarted poll_feed resumes, agrees with it."""

    @settings(max_examples=150, deadline=None)
    @given(mutated_archives())
    def test_read_as_the_poller_wrote(self, tmp_path_factory, case):
        clean, moved, lines, cut = case
        path = tmp_path_factory.mktemp("mutated") / "a.jsonl"
        if cut is not None:
            # a line cut short, as a scraper killed mid-append leaves it
            lines[-1] = lines[-1][:cut]
            path.write_text("".join(lines))
            with pytest.raises(StoreError, match=f"corrupt line {len(lines)}:"):
                list(read_snapshots(SnapshotStore(path)))
            with redirect_stderr(io.StringIO()) as err:
                rc = cli.main(["reconstruct", "--store", str(path), "--provider", "a",
                               "--output", str(path.with_suffix(".csv"))])
            assert rc == 1 and f"corrupt line {len(lines)}" in err.getvalue()
            with pytest.raises(StoreError, match="corrupt line at byte"):
                SnapshotStore(path).last_captured("a")
            return
        path.write_text("".join(lines))
        store = SnapshotStore(path)
        # duplicates read as the clean archive; the moved older line is dropped
        expected = [s for s in clean if s is not moved]
        assert list(read_snapshots(store)) == expected
        for provider in ("a", "b"):
            times = [s.captured_at for s in read_snapshots(store, provider)]
            assert times == [s.captured_at for s in expected if s.provider == provider]
            assert all(t0 < t1 for t0, t1 in zip(times, times[1:]))
            read = [s.captured_at for s in store.iter_all() if s.provider == provider]
            assert SnapshotStore(path).last_captured(provider) == (read[-1] if read else None)


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
    # shutdown() waits out one poll_interval of serve_forever (0.5 s by default)
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    url = f"http://127.0.0.1:{server.server_port}/free_bike_status.json"
    yield Handler, url
    server.shutdown()
    server.server_close()


class TestPoller:
    def _run(self, url, store, n_polls, interval=60, clock=None):
        # a poll here waits less than an interval in backoff, so a run of
        # n intervals makes n polls; the clock is virtual
        return poll_feed(url, store, "p", interval, n_polls * interval, clock=clock or FakeClock())

    def test_unchanged_feed_deduplicated(self, stub_server, tmp_path):
        handler, url = stub_server
        doc1 = make_feed_doc([("a", 1, 1)], last_updated=1000)
        doc3 = make_feed_doc([("a", 2, 2)], last_updated=1060)
        handler.script = [(200, doc1), (200, doc1), (200, doc3)]
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run(url, store, n_polls=3)
        assert summary.snapshots_written == 2
        assert summary.skipped_unchanged == 1
        assert [s.captured_at for s in store.iter_all()] == [1000, 1060]

    def test_restart_on_the_archive_appends_no_duplicate(self, tmp_path, monkeypatch):
        # a restarted scrape served the document the last run stored
        doc = make_feed_doc([("a", 1, 1)], last_updated=100)
        monkeypatch.setattr(feed_ingest, "_fetch_with_retry", lambda *args: doc)
        path = tmp_path / "a.jsonl"
        first = self._run("http://feed.invalid/", SnapshotStore(path), n_polls=1)
        second = self._run("http://feed.invalid/", SnapshotStore(path), n_polls=1)
        assert (first.snapshots_written, first.skipped_unchanged) == (1, 0)
        assert (second.snapshots_written, second.skipped_unchanged) == (0, 1)
        assert len(path.read_text().splitlines()) == 1

    def test_stale_snapshot_skipped(self, tmp_path, monkeypatch):
        # a cached copy can serve an older document after a newer one
        docs = iter(make_feed_doc([("a", 1, 1)], last_updated=t) for t in (100, 90, 110))
        monkeypatch.setattr(feed_ingest, "_fetch_with_retry", lambda *args: next(docs))
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run("http://feed.invalid/", store, n_polls=3)
        assert summary.snapshots_written == 2
        assert summary.skipped_unchanged == 1
        assert [s.captured_at for s in store.iter_all()] == [100, 110]

    def test_unparsable_document_counted_and_polling_continues(
        self, tmp_path, monkeypatch, caplog
    ):
        bad = json.loads(make_feed_doc([("a", 1, 1)]))
        bad["last_updated"] = float("inf")
        docs = iter([make_feed_doc([("a", 1, 1)], last_updated=100), json.dumps(bad).encode(),
                     make_feed_doc([("a", 2, 2)], last_updated=110)])
        monkeypatch.setattr(feed_ingest, "_fetch_with_retry", lambda *args: next(docs))
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run("http://feed.invalid/", store, n_polls=3)
        assert summary.parse_errors == 1 and summary.fetch_failures == 0
        assert [r.getMessage() for r in caplog.records] == [
            "parse failure: document: inf is not an integer"
        ]
        assert summary.snapshots_written == 2
        assert [s.captured_at for s in store.iter_all()] == [100, 110]

    def test_bike_out_of_range_counted_and_polling_continues(
        self, tmp_path, monkeypatch, caplog
    ):
        docs = iter([make_feed_doc([("a", 1, 1)], last_updated=100),
                     make_feed_doc([("a", 95.0, -118.4)], last_updated=105),
                     make_feed_doc([("a", 2, 2)], last_updated=110)])
        monkeypatch.setattr(feed_ingest, "_fetch_with_retry", lambda *args: next(docs))
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run("http://feed.invalid/", store, n_polls=3)
        assert summary.parse_errors == 1 and summary.snapshots_written == 2
        assert [r.getMessage() for r in caplog.records] == [
            "parse failure: latitude '95.0' out of range [-90, 90]"
        ]

    def test_document_nested_too_deep_counted_and_polling_continues(
        self, tmp_path, monkeypatch, caplog
    ):
        deep = b"[" * 100_000 + b"]" * 100_000
        docs = iter([make_feed_doc([("a", 1, 1)], last_updated=100), deep,
                     make_feed_doc([("a", 2, 2)], last_updated=110)])
        monkeypatch.setattr(feed_ingest, "_fetch_with_retry", lambda *args: next(docs))
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run("http://feed.invalid/", store, n_polls=3)
        assert summary.parse_errors == 1 and summary.snapshots_written == 2
        assert [r.getMessage() for r in caplog.records] == [
            "parse failure: document: maximum recursion depth exceeded"
            " while decoding a JSON array from a unicode string"
        ]
        assert [s.captured_at for s in store.iter_all()] == [100, 110]

    def test_http_failure_retried_then_stored(self, stub_server, tmp_path):
        handler, url = stub_server
        doc = make_feed_doc([("a", 1, 1)], last_updated=1000)
        handler.script = [(500, b""), (200, doc)]
        store, clock = SnapshotStore(tmp_path / "a.jsonl"), FakeClock()
        summary = self._run(url, store, n_polls=1, clock=clock)
        assert summary.fetch_failures == 1
        assert summary.snapshots_written == 1
        # a 1 s backoff, then the interval's rest up to the deadline
        assert clock.sleeps == [1.0, 59.0]

    def test_changing_feed_stores_every_snapshot(self, stub_server, tmp_path):
        handler, url = stub_server
        handler.script = [
            (200, make_feed_doc([("a", 1, 1)], last_updated=1000 + 60 * i))
            for i in range(10)
        ]
        store = SnapshotStore(tmp_path / "a.jsonl")
        summary = self._run(url, store, n_polls=10)
        assert summary.snapshots_written == 10
        assert summary.fetch_failures == 0

    def test_unreachable_endpoint_never_fatal(self, tmp_path, caplog):
        store, clock = SnapshotStore(tmp_path / "a.jsonl"), FakeClock()
        summary = self._run("http://127.0.0.1:1/nope", store, n_polls=1, clock=clock)
        assert summary.snapshots_written == 0
        # one poll of RETRY_ATTEMPTS attempts, each failure logged
        assert summary.fetch_failures == 3 and summary.parse_errors == 0
        # backoff 1 s, then doubled, then the interval's rest up to the deadline
        assert clock.sleeps == [1.0, 2.0, 57.0]
        messages = [r.getMessage() for r in caplog.records]
        assert [m.split(":")[0] for m in messages] == [
            f"fetch attempt {i} failed" for i in (1, 2, 3)
        ]

    def test_dead_endpoint_logs_and_counts_every_failure(self, tmp_path, monkeypatch, caplog):
        import urllib.request

        attempts = 0

        def refuse(*args, **kwargs):
            nonlocal attempts
            attempts += 1
            raise OSError(f"refused {attempts}")

        monkeypatch.setattr(urllib.request, "urlopen", refuse)
        polls = 200
        store = SnapshotStore(tmp_path / "a.jsonl")
        # each poll waits 1 s and 2 s in backoff, then the 60 s interval
        summary = poll_feed("http://dead.invalid/", store, "p", 60, polls * 63, clock=FakeClock())
        total = polls * 3  # every poll makes RETRY_ATTEMPTS attempts
        assert summary.fetch_failures == total and summary.parse_errors == 0
        assert [r.getMessage() for r in caplog.records] == [
            f"fetch attempt {(i - 1) % 3 + 1} failed: refused {i}" for i in range(1, total + 1)
        ]

    @pytest.mark.parametrize("dead", [False, True], ids=["working", "dead"])
    def test_duration_under_one_interval_bounds_every_sleep(self, stub_server, tmp_path, dead):
        # a 4 s interval in a 0.5 s run: one poll, and no sleep past 0.5 s
        handler, url = stub_server
        handler.script = [(200, make_feed_doc([("a", 1, 1)]))]
        clock = FakeClock()
        summary = poll_feed("http://127.0.0.1:1/nope" if dead else url,
                            SnapshotStore(tmp_path / "a.jsonl"), "p", 4, 0.5, clock=clock)
        counts = (summary.snapshots_written, summary.fetch_failures)
        assert counts == ((0, feed_ingest.RETRY_ATTEMPTS) if dead else (1, 0))
        assert clock.sleeps == ([0.5, 0.0, 0.0] if dead else [0.5])

    def test_nonpositive_interval_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            poll_feed("http://x/", SnapshotStore(tmp_path / "a.jsonl"), "p", 0, 0)

    def test_interval_over_a_day_rejected(self, tmp_path):
        # time.sleep overflows on an interval this long
        with pytest.raises(ValueError, match="at most 86400 s"):
            poll_feed("http://x/", SnapshotStore(tmp_path / "a.jsonl"), "p", 1e300, 0)

    @pytest.mark.parametrize("interval", [float("nan"), float("inf")])
    def test_non_finite_interval_rejected(self, tmp_path, interval):
        # either would end the first sleep in an error, after a fetch
        with pytest.raises(ValueError, match="finite"):
            poll_feed("http://x/", SnapshotStore(tmp_path / "a.jsonl"), "p", interval, 0)


class TestColumnarMemory:
    def test_loaded_archive_small_and_built_without_observations(self, tmp_path, monkeypatch):
        config = synth_fleet.FleetConfig(
            n_scooters=500, area=square_region(lat0=33.9, lon0=-118.5, side_deg=0.2), seed=4,
            trip_rate=0.3, duration_h=0.5,
        )
        snapshots, _ = synth_fleet.generate(config)
        store = SnapshotStore(tmp_path / "a.jsonl")
        write_archive(snapshots, store.path)
        built = 0

        def counting(method):
            def wrapper(*args):
                nonlocal built
                built += 1
                return method(*args)
            return wrapper

        gc.collect()
        with monkeypatch.context() as m:
            # every row is built through rows()
            m.setattr(Snapshot, "rows", counting(Snapshot.rows))
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                snaps = list(read_snapshots(store))
                gc.collect()
                held = tracemalloc.get_traced_memory()[0] - base
            finally:
                tracemalloc.stop()
            assert built == 0
            # the writer builds its rows through the counted generator
            snapshot_to_record(snaps[0])
            assert built == 1
        n_obs = sum(len(s.ids) for s in snaps)
        assert n_obs == sum(len(s.ids) for s in snapshots) > 10_000
        assert held / n_obs < 40
