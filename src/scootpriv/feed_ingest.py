"""Fetch, parse, and persist GBFS free_bike_status snapshots; write every output file.

Snapshots are archived as newline-delimited JSON, one snapshot per line,
so archives are append-only, greppable, and streamable. Timestamps come
from the feed's own ``last_updated`` field, never the local clock, which
keeps replayed fixtures deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import logging
import math
import mmap
import os
import sys
import time
from collections import Counter
from collections.abc import Callable
from contextlib import ExitStack, closing, contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from . import workers

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3
FETCH_TIMEOUT_S = 10.0
# poll interval bounds: a feed's ttl is whole seconds; time.sleep overflows far past a day
MIN_INTERVAL_S, MAX_INTERVAL_S = 1.0, 86_400.0
# a forward read decodes an archive in newline-aligned chunks of about
# ARCHIVE_CHUNK_BYTES (a snapshot line of 1,000 scooters is about 100 KB;
# a longer line extends its chunk); an archive of at least
# PARALLEL_READ_MIN_BYTES is decoded in worker processes, below which
# starting them costs more than it saves
PARALLEL_READ_MIN_BYTES = 8 * 1024 * 1024
ARCHIVE_CHUNK_BYTES = 128 * 1024


class FeedParseError(ValueError):
    """Raised when a free_bike_status document cannot be parsed."""


class StoreError(OSError):
    """Raised when a snapshot archive cannot be read or written."""


@dataclass(frozen=True, eq=False, slots=True)
class Snapshot:
    """One provider's parked-fleet state at an instant, as columns with
    one entry per observation: ``ids``, ``lats``, ``lons``, ``reserved``
    and ``disabled``.

    Any sequence is accepted for a column. It is stored as a tuple of
    interned strings (ids) or a read-only float64 or bool array, and the
    columns are validated as a whole: ids are non-empty, unique strings;
    coordinates obey check_coordinates. Snapshots compare by value.
    """

    provider: str
    captured_at: int
    ttl_s: int
    ids: tuple[str, ...]
    lats: np.ndarray
    lons: np.ndarray
    reserved: np.ndarray
    disabled: np.ndarray

    def __post_init__(self):
        if self.ttl_s <= 0:
            raise FeedParseError(f"ttl must be positive, got {self.ttl_s}")
        if not -(2**63) <= self.captured_at < 2**63:
            # reconstruct_trips keeps last-seen times as int64
            raise FeedParseError(f"captured_at out of range: {self.captured_at}")
        try:
            # one shared string per id: an archive repeats each id in every snapshot
            ids = tuple(map(sys.intern, self.ids))
        except TypeError as exc:
            raise FeedParseError(f"scooter_id not a string: {exc}") from exc
        if "" in ids:
            raise FeedParseError("empty scooter_id")
        if len(ids) != len(set(ids)):
            dups = sorted(i for i, n in Counter(ids).items() if n > 1)
            raise FeedParseError(f"duplicate scooter_id(s): {dups}")
        object.__setattr__(self, "ids", ids)
        for name, dtype in _ARRAY_COLUMNS:
            col = np.array(getattr(self, name), dtype=dtype)
            col.flags.writeable = False
            if col.shape != (len(ids),):
                raise FeedParseError(f"{name} has shape {col.shape} for {len(ids)} ids")
            object.__setattr__(self, name, col)
        check_coordinates(self.lats, self.lons)

    def __eq__(self, other):
        if not isinstance(other, Snapshot):
            return NotImplemented
        return (self.provider, self.captured_at, self.ttl_s, self.ids) == (
            other.provider, other.captured_at, other.ttl_s, other.ids
        ) and all(np.array_equal(getattr(self, c), getattr(other, c)) for c, _ in _ARRAY_COLUMNS)

    def __reduce__(self):
        # unpickled through the constructor, as the snapshots a read worker
        # sends are in the reader: ids interned there, columns checked and read-only
        return Snapshot, (self.provider, self.captured_at, self.ttl_s, self.ids,
                          *(getattr(self, c) for c, _ in _ARRAY_COLUMNS))

    def rows(self) -> Iterator[tuple[str, float, float, bool, bool]]:
        """The observations, one (id, lat, lon, reserved, disabled) tuple
        of Python values each, built as they are read."""
        return zip(
            self.ids, self.lats.tolist(), self.lons.tolist(),
            self.reserved.tolist(), self.disabled.tolist(),
        )

    @property
    def observations(self) -> tuple[tuple[str, float, float, bool, bool], ...]:
        """Every row (see rows), built on each access. Only tests and the
        benchmark harness's observation count read it; once the harness
        counts len(snap.ids), it goes."""
        return tuple(self.rows())


_ARRAY_COLUMNS = (
    ("lats", np.float64), ("lons", np.float64), ("reserved", bool), ("disabled", bool),
)

# JSON types a coordinate may have: a bool is an int to Python, but not
# a coordinate, and neither is a string
_NUMBER_TYPES = frozenset((int, float))


# what reading a malformed document from outside raises; a ValueError includes
# JSON and UTF-8 decode errors, a RecursionError nesting deeper than json decodes,
# and a csv.Error a field over the csv module's limit
MALFORMED_INPUT = (KeyError, TypeError, ValueError, OverflowError, RecursionError, csv.Error)


def malformed_message(exc: Exception) -> str:
    """The message of a MALFORMED_INPUT error; a KeyError's names the key as missing."""
    return f"missing key {exc}" if isinstance(exc, KeyError) else str(exc)


def json_number(value) -> float:
    """A coordinate read from JSON, as a float: a finite number, never a
    bool or a string (Python's json reads NaN and Infinity as numbers).
    Anything else is a ValueError, an integer too large an OverflowError."""
    if type(value) not in _NUMBER_TYPES or not math.isfinite(value):
        raise ValueError(f"{value!r} is not a finite number")
    return float(value)


def check_coordinates(lats, lons, names=("latitude", "longitude")) -> None:
    """The one coordinate rule: every latitude within [-90, 90] degrees and
    every longitude within [-180, 180], NaN out of range. lats and lons are
    arrays or scalars; the FeedParseError names the first value out of
    range by its axis's entry in ``names``."""
    for name, values, limit in zip(names, (lats, lons), (90.0, 180.0)):
        values = np.asarray(values, dtype=float)
        inside = np.abs(values) <= limit  # false for NaN
        if np.count_nonzero(inside) < values.size:
            raise FeedParseError(
                f"{name} '{values[~inside][0].item()}' out of range [-{limit:g}, {limit:g}]"
            )


def json_int(value) -> int:
    """A timestamp or duration read from JSON, as an int: an integral
    number (1700000000.0 is 1700000000), never a bool or a string, nor
    NaN or Infinity. Anything else is a ValueError."""
    if type(value) is int:
        return value
    if type(value) is float and value.is_integer():
        return int(value)
    raise ValueError(f"{value!r} is not an integer")


def json_str(value) -> str:
    """A name or id read from JSON, as a feed bike_id is in GBFS: a
    string, never a number or null; anything else is a ValueError."""
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


def _feed_flag(value) -> bool:
    """A feed flag: a JSON boolean, or 0 or 1 as GBFS 1.x wrote it."""
    if type(value) is not bool and not (type(value) is int and value in (0, 1)):
        raise ValueError(f"{value!r} is not a boolean")
    return bool(value)


# (feed key, conversion) per Snapshot column, in column order
_FEED_FIELDS = (
    ("bike_id", json_str), ("lat", json_number), ("lon", json_number),
    ("is_reserved", _feed_flag), ("is_disabled", _feed_flag),
)
# (record key, JSON types) per Snapshot array column, in column order;
# Snapshot checks the ids, and that every coordinate is finite
_RECORD_FIELDS = (
    ("lat", _NUMBER_TYPES), ("lon", _NUMBER_TYPES),
    ("reserved", frozenset((bool,))), ("disabled", frozenset((bool,))),
)


def parse_free_bike_status(raw: bytes, provider: str) -> Snapshot:
    """Parse a GBFS free_bike_status JSON document into a Snapshot.

    ``captured_at`` is the feed's ``last_updated`` timestamp. Unknown
    extra fields are ignored; a malformed document (MALFORMED_INPUT: not
    JSON, nested too deeply, or a required field missing or bad, NaN and
    Infinity included; a coordinate must be a JSON number, a flag a
    boolean or 0 or 1, an id a string, last_updated and ttl integers),
    out-of-range coordinates, or duplicate bike ids raise FeedParseError.
    The message of a bad bike starts with its index.
    """
    where, columns = "document", [[] for _ in _FEED_FIELDS]
    try:
        doc = json.loads(raw)
        last_updated, ttl = json_int(doc["last_updated"]), json_int(doc["ttl"])
        bikes = doc["data"]["bikes"]
        if type(bikes) is not list:  # {} or "" would read as no bikes
            raise TypeError("data.bikes is not an array")
        for i, bike in enumerate(bikes):
            where = f"bike #{i}"
            for column, (key, conv) in zip(columns, _FEED_FIELDS):
                column.append(conv(bike[key]))
    except MALFORMED_INPUT as exc:
        raise FeedParseError(f"{where}: {malformed_message(exc)}") from exc
    return Snapshot(provider, last_updated, ttl, *columns)


def snapshot_to_record(snap: Snapshot) -> dict:
    """Archive-line schema for one snapshot."""
    return {
        "provider": snap.provider,
        "captured_at": snap.captured_at,
        "ttl_s": snap.ttl_s,
        "bikes": [
            {"id": i, "lat": lat, "lon": lon, "reserved": reserved, "disabled": disabled}
            for i, lat, lon, reserved, disabled in snap.rows()
        ],
    }


def archive_record(line: bytes) -> dict | None:
    """The record of one raw archive line, or None for a blank line or a
    provenance header, which starts ``{"_meta":`` as write_meta writes it
    and is never decoded. Any other line must be UTF-8, with no byte-order
    mark, and JSON of an object; else it is a MALFORMED_INPUT error."""
    if line.isspace() or line.startswith(b'{"_meta":'):
        return None
    rec = json.loads(line.decode("utf-8"))
    if type(rec) is not dict:
        raise TypeError("not a JSON object")
    return rec


def snapshot_from_record(rec: dict) -> Snapshot:
    """The Snapshot of one archive record; a missing key or a value of
    the wrong type is an error of the record. Types are checked a column
    at a time, on the set of the column's types."""
    bikes = rec["bikes"]
    if type(bikes) is not list:  # {} or "" would read as no bikes
        raise TypeError("bikes is not an array")
    columns = []
    for key, types in _RECORD_FIELDS:
        column = [b[key] for b in bikes]
        wrong = set(map(type, column)) - types
        if wrong:
            raise ValueError(f"bike {key} of type {sorted(t.__name__ for t in wrong)}")
        columns.append(column)
    return Snapshot(
        json_str(rec["provider"]), json_int(rec["captured_at"]), json_int(rec["ttl_s"]),
        [b["id"] for b in bikes], *columns,
    )


def _decode_chunk(path: Path, start: int, end: int) -> tuple[list[Snapshot], int, str | None]:
    """The one decode of a forward read, in-process or in a worker: the
    snapshots of the lines in bytes [start, end) of the archive (see
    archive_record), the number of lines read, and the message of the
    first corrupt line, the last line read, or None."""
    with open(path, "rb") as f:
        f.seek(start)
        # split as iterating a file is, after each b"\n" only: a raw \r is JSON whitespace
        lines = io.BytesIO(f.read(end - start))
    snaps, n = [], 0
    for n, line in enumerate(lines, start=1):
        try:
            rec = archive_record(line)
            if rec is not None:
                snaps.append(snapshot_from_record(rec))
        except MALFORMED_INPUT as exc:
            return snaps, n, malformed_message(exc)
    return snaps, n, None


def _chunk_bounds(f, size: int) -> list[tuple[int, int]]:
    """[start, end) byte ranges of about ARCHIVE_CHUNK_BYTES covering the
    first size bytes of the open file f, each ending after a newline or
    at size; a line longer than a chunk extends its chunk."""
    bounds, start = [], 0
    while start < size:
        f.seek(start + ARCHIVE_CHUNK_BYTES - 1)
        f.readline()  # to the end of the line holding the chunk's last byte
        end = min(f.tell(), size)
        bounds.append((start, end))
        start = end
    return bounds


class SnapshotStore:
    """Append-only JSON-lines snapshot archive.

    Single writer per file; concurrent readers need no coordination.
    Both reads, forward and from the tail, read a line by archive_record.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # last captured_at per provider, for the monotonicity check
        self._last_written: dict[str, int | None] = {}

    def last_captured(self, provider: str) -> int | None:
        """captured_at of the provider's newest snapshot in the archive, or
        None. The first call per provider decodes lines from the file's end
        back to the provider's last one, its newest (append keeps each
        provider ascending), so a restarted writer resumes after it."""
        if provider not in self._last_written:
            self._last_written[provider] = self._tail_captured(provider)
        return self._last_written[provider]

    def _tail_captured(self, provider: str) -> int | None:
        if not self.path.exists() or not self.path.stat().st_size:
            return None  # mmap rejects an empty file
        with open(self.path, "rb") as f, mmap.mmap(f.fileno(), 0, access=mmap.ACCESS_READ) as mm:
            end = len(mm)
            while end:
                start = mm.rfind(b"\n", 0, end - 1) + 1
                line, end = mm[start:end], start
                try:
                    rec = archive_record(line)
                    if rec is not None and rec["provider"] == provider:
                        return snapshot_from_record(rec).captured_at
                except MALFORMED_INPUT as exc:
                    raise StoreError(
                        f"{self.path}: corrupt line at byte {start}: {malformed_message(exc)}"
                    ) from exc
        return None

    def append(self, snap: Snapshot) -> None:
        last = self.last_captured(snap.provider)
        if last is not None and snap.captured_at <= last:
            raise StoreError(
                f"captured_at {snap.captured_at} not after previous {last} "
                f"for provider {snap.provider!r}"
            )
        line = json.dumps(snapshot_to_record(snap), separators=(",", ":"))
        try:
            with open(self.path, "a", encoding="utf-8") as f:
                f.write(line + "\n")
        except OSError as exc:
            raise StoreError(f"cannot append to {self.path}: {exc}") from exc
        self._last_written[snap.provider] = snap.captured_at

    def write_meta(self, meta: dict) -> None:
        with open(self.path, "a", encoding="utf-8") as f:
            f.write(json.dumps({"_meta": meta}, separators=(",", ":")) + "\n")

    def iter_all(self) -> Iterator[Snapshot]:
        """The archive's snapshots in file order, up to its size when the
        read starts. A corrupt line is a StoreError naming its line number,
        raised after every snapshot before it. The archive is decoded in
        chunks (_chunk_bounds, _decode_chunk): in worker processes if it
        holds PARALLEL_READ_MIN_BYTES or more and workers.worker_count
        allows, else in-process. A worker that dies is a StoreError
        naming its exit code."""
        if not self.path.exists():
            raise StoreError(f"no such archive: {self.path}")
        with open(self.path, "rb") as f:
            size = os.fstat(f.fileno()).st_size
            chunks = _chunk_bounds(f, size)
        n = workers.worker_count(size, PARALLEL_READ_MIN_BYTES, len(chunks))
        results = workers.ordered_map(lambda chunk: _decode_chunk(self.path, *chunk), chunks, n)
        lineno = 0
        try:
            with closing(results):  # so that no worker outlives a corrupt line
                for snaps, lines, error in results:
                    yield from snaps
                    lineno += lines
                    if error is not None:
                        raise StoreError(f"{self.path}: corrupt line {lineno}: {error}")
        except workers.WorkerDied as exc:
            raise StoreError(f"{self.path}: read {exc}") from exc


@contextmanager
def atomic_path(path: str | Path) -> Iterator[Path]:
    """Yield a temporary path beside ``path`` to write the output to.

    On a normal exit the temporary file replaces ``path``; on any error
    it is removed and ``path`` is left as it was, so no reader ever sees
    a partial output. Close the temporary file before the block ends.
    A symbolic link is followed: the file it names is replaced, the
    link stays. An OSError on the temporary file names ``path`` as given.
    """
    given, path = path, Path(path).resolve()
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        yield tmp
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.filename in (tmp, str(tmp)):
            raise OSError(exc.errno, exc.strerror, os.fspath(given)) from exc
        raise


@contextmanager
def atomic_paths(*paths: str | Path | None) -> Iterator[list]:
    """atomic_path for each of one run's outputs: yields their temporary
    paths, to pass to the writers, and replaces none of the targets until
    the block has written them all, so a run that fails midway leaves
    every old output as it was. An empty path or None (an output not
    asked for) is yielded as given."""
    with ExitStack() as stack:
        yield [stack.enter_context(atomic_path(p)) if p else p for p in paths]


def write_archive(
    snapshots: Iterable[Snapshot], path: str | Path, meta: dict | None = None
) -> int:
    """Write a fresh archive atomically (see atomic_path): one ``_meta``
    line if meta is given, then one line per snapshot. Returns the
    number of snapshots written."""
    n = 0
    with atomic_path(path) as tmp:
        tmp.write_text("")
        store = SnapshotStore(tmp)
        if meta:
            store.write_meta(meta)
        for n, snap in enumerate(snapshots, start=1):
            store.append(snap)
    return n


def write_csv(path: str | Path, columns: list[str], rows: Iterable, meta: dict | None) -> None:
    """Write a CSV atomically (see atomic_path): one ``# key=value`` line
    per meta item, which the CSV readers here skip, then the header row
    and the rows."""
    with atomic_path(path) as tmp, open(tmp, "w", newline="", encoding="utf-8") as f:
        for k, v in (meta or {}).items():
            f.write(f"# {k}={v}\n")
        w = csv.writer(f)
        w.writerow(columns)
        w.writerows(rows)


def write_json(path: str | Path, doc: dict) -> None:
    """Write a JSON document atomically (see atomic_path), indented."""
    with atomic_path(path) as tmp, open(tmp, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)


def points_geojson(points: Iterable[tuple[float, float, dict]]) -> dict:
    """Point FeatureCollection of (lat, lon, properties) triples; GeoJSON
    positions are [lon, lat]."""
    features = [
        {"type": "Feature", "geometry": {"type": "Point", "coordinates": [lon, lat]},
         "properties": properties}
        for lat, lon, properties in points
    ]
    return {"type": "FeatureCollection", "features": features}


def read_snapshots(store: SnapshotStore, provider: str | None = None) -> Iterator[Snapshot]:
    """The archive's snapshots as a stream, in file order.

    ``provider=None`` keeps every provider. Each provider's snapshots
    strictly ascend in captured_at, the rule poll_feed writes by: a
    snapshot not newer than the last one kept of its provider (a line a
    restarted scraper appended again, or an older line out of place) is
    dropped with a warning. Nothing is held but that last time per
    provider, so an archive of any length streams through.
    """
    last: dict[str, int] = {}
    for s in store.iter_all():
        if provider is not None and s.provider != provider:
            continue
        prev = last.get(s.provider)
        if prev is not None and s.captured_at <= prev:
            log.warning("%s: dropped %r snapshot at %d, not after %d",
                        store.path, s.provider, s.captured_at, prev)
            continue
        last[s.provider] = s.captured_at
        yield s


@dataclass
class PollSummary:
    """Counters of one poll_feed run; every failure's message is logged."""

    snapshots_written: int = 0
    fetch_failures: int = 0
    parse_errors: int = 0
    # snapshots not newer than the last one stored, as a stale cached copy is
    skipped_unchanged: int = 0


def _fetch_with_retry(
    endpoint: str, interval_s: float, summary: PollSummary, nap: Callable[[float], None]
) -> bytes | None:
    """3 attempts with exponential backoff capped at interval/2."""
    # imported here: only scrape fetches, so no other command loads the HTTP stack
    import http.client
    import urllib.request

    for attempt in range(RETRY_ATTEMPTS):
        try:
            # urlopen raises HTTPError, an OSError, on any non-2xx status
            with urllib.request.urlopen(endpoint, timeout=FETCH_TIMEOUT_S) as resp:
                return resp.read()
        except (OSError, http.client.HTTPException) as exc:
            summary.fetch_failures += 1
            log.warning("fetch attempt %d failed: %s", attempt + 1, exc)
            if attempt < RETRY_ATTEMPTS - 1:
                nap(min(2.0**attempt, interval_s / 2))
    return None


def poll_feed(
    endpoint: str,
    store: SnapshotStore,
    provider: str,
    interval_s: float,
    duration_s: float,
    clock=time,
) -> PollSummary:
    """Poll a free_bike_status endpoint for duration_s seconds; store each new snapshot.

    A snapshot whose captured_at is not newer than the last one stored
    (the same document again, or a stale cached copy) is skipped; the
    last one stored by an earlier run counts (SnapshotStore.last_captured).
    Transient fetch or parse errors are logged and retried with bounded
    backoff; they never abort polling. Every wait, interval or backoff,
    ends by the deadline on ``clock``: anything with monotonic() and sleep().
    Ctrl-C (KeyboardInterrupt) ends the run early, with the summary so far.
    """
    if not MIN_INTERVAL_S <= interval_s <= MAX_INTERVAL_S:
        raise ValueError(f"interval must be finite, at least {MIN_INTERVAL_S:g} s and at most "
                         f"{MAX_INTERVAL_S:g} s, got {interval_s}")
    summary = PollSummary()
    deadline = clock.monotonic() + duration_s

    def nap(seconds: float) -> None:
        clock.sleep(max(0.0, min(seconds, deadline - clock.monotonic())))

    effective_interval = interval_s
    with suppress(KeyboardInterrupt):
        while clock.monotonic() < deadline:
            raw = _fetch_with_retry(endpoint, effective_interval, summary, nap)
            if raw is not None:
                try:
                    snap = parse_free_bike_status(raw, provider)
                except FeedParseError as exc:
                    summary.parse_errors += 1
                    log.warning("parse failure: %s", exc)
                else:
                    last = store.last_captured(provider)
                    if last is not None and snap.captured_at <= last:
                        summary.skipped_unchanged += 1
                    else:
                        store.append(snap)
                        summary.snapshots_written += 1
                    # never poll slower than the feed refreshes
                    effective_interval = min(interval_s, snap.ttl_s)
            nap(effective_interval)
    return summary
