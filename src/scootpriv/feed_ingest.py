"""Fetch, parse, and persist GBFS free_bike_status snapshots; write every output file.

Snapshots are archived as newline-delimited JSON, one snapshot per line,
so archives are append-only, greppable, and streamable. Timestamps come
from the feed's own ``last_updated`` field, never the local clock, which
keeps replayed fixtures deterministic.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import logging
import math
import mmap
import os
import sys
import time
from collections import Counter
from collections.abc import Callable
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3
FETCH_TIMEOUT_S = 10.0
# poll interval bounds: a feed's ttl is whole seconds; time.sleep overflows far past a day
MIN_INTERVAL_S, MAX_INTERVAL_S = 1.0, 86_400.0


class FeedParseError(ValueError):
    """Raised when a free_bike_status document cannot be parsed."""


class StoreError(OSError):
    """Raised when a snapshot archive cannot be read, or when an append is
    not newer than its provider's last snapshot. A failed write is the
    OSError of _write."""


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
        # one shared string per id: an archive repeats each id in every snapshot
        ids = tuple(map(sys.intern, self.ids))
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

    def rows(self) -> Iterator[tuple[str, float, float, bool, bool]]:
        """The observations, one (id, lat, lon, reserved, disabled) tuple
        of Python values each, built as they are read. The GeoJSON writer
        iterates them; the archive writer reads the columns (_archive_line)."""
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
    """A name or id read from JSON, as a string, never a number or null;
    anything else is a ValueError."""
    if type(value) is not str:
        raise ValueError(f"{value!r} is not a string")
    return value


# (bike key, JSON types) per Snapshot column, in column order: id, lat,
# lon, reserved, disabled; a feed flag may be the integer 0 or 1, as
# GBFS 1.x wrote it, an archive flag is a boolean only
_FEED_BIKE = (("bike_id", {str}), ("lat", _NUMBER_TYPES), ("lon", _NUMBER_TYPES),
              ("is_reserved", {bool, int}), ("is_disabled", {bool, int}))
_ARCHIVE_BIKE = (("id", {str}), ("lat", _NUMBER_TYPES), ("lon", _NUMBER_TYPES),
                 ("reserved", {bool}), ("disabled", {bool}))
# (its values as an error names them, dtype or None) per Snapshot column, in column order
_COLUMN_KINDS = (("a string", None), *[("a number", np.float64)] * 2, *[("a boolean", bool)] * 2)
# _column's arguments per bike column of each format, in column order
_FEED_CHECKS, _ARCHIVE_CHECKS = ([(*field, *kind) for field, kind in zip(fields, _COLUMN_KINDS)]
                                 for fields in (_FEED_BIKE, _ARCHIVE_BIKE))


def _column(bikes: list, key: str, types, kind: str, dtype) -> list | np.ndarray:
    """The values at key of bikes, as an array of dtype if one is given. A
    type not in types, or a flag not 0 or 1, is a ValueError naming key
    and kind; an integer past float64 an OverflowError."""
    values = [bike[key] for bike in bikes]
    if not types.issuperset(map(type, values)) or (dtype is bool and not set(values) <= {0, 1}):
        raise ValueError(f"{key} is not {kind}")
    return values if dtype is None else np.array(values, dtype=dtype)


def _bike_snapshot(provider: str, captured_at: int, ttl_s: int, bikes, checks) -> Snapshot:
    """The one bike decoder: the Snapshot of a feed's or an archive record's
    bikes, read by checks (_FEED_CHECKS or _ARCHIVE_CHECKS) a column at a time.
    Only if a column fails are the bikes checked one at a time, and the
    first that fails is a FeedParseError ``bike #i: <message>``."""
    if type(bikes) is not list:  # {} or "" would read as no bikes
        raise TypeError("bikes is not an array")
    try:
        columns = [_column(bikes, *check) for check in checks]
    except MALFORMED_INPUT:
        for i, bike in enumerate(bikes):
            try:
                for check in checks:
                    _column([bike], *check)
            except MALFORMED_INPUT as exc:
                raise FeedParseError(f"bike #{i}: {malformed_message(exc)}") from exc
        raise
    return Snapshot(provider, captured_at, ttl_s, *columns)


def parse_free_bike_status(raw: bytes, provider: str) -> Snapshot:
    """Parse a GBFS free_bike_status JSON document into a Snapshot.

    ``captured_at`` is the feed's ``last_updated``; the bikes are read by
    _bike_snapshot, and unknown extra fields are ignored. Every error is a
    FeedParseError: a bike's starts ``bike #i: ``, the Snapshot's own (a
    coordinate out of range or NaN, a duplicate id) has no prefix, and any
    other (MALFORMED_INPUT) starts ``document: ``.
    """
    try:
        doc = json.loads(raw)
        return _bike_snapshot(provider, json_int(doc["last_updated"]), json_int(doc["ttl"]),
                              doc["data"]["bikes"], _FEED_CHECKS)
    except FeedParseError:
        raise
    except MALFORMED_INPUT as exc:
        raise FeedParseError(f"document: {malformed_message(exc)}") from exc


# an archive bike's JSON object as json.dumps writes it with separators
# (",", ":"): _ARCHIVE_BIKE's keys, each value formatted by _bike_json
_BIKE_JSON = "{" + ",".join(f'"{key}":%s' for key, _ in _ARCHIVE_BIKE) + "}"
_JSON_BOOL = ("false", "true")


def _bike_json(ids, lats, lons, reserved, disabled) -> list[str]:
    """The JSON object of each bike of the given columns, as lists of
    Python values: the id as json.dumps escapes it (ASCII only), a
    coordinate by float.__repr__, a flag as true or false."""
    return [_BIKE_JSON % (encode_basestring_ascii(i), repr(lat), repr(lon), _JSON_BOOL[r],
                          _JSON_BOOL[d])
            for i, lat, lon, r, d in zip(ids, lats, lons, reserved, disabled)]


def _archive_line(snap: Snapshot, prev: tuple | None) -> tuple[str, tuple]:
    """The archive line of snap, byte for byte json.dumps of its record
    with separators (",", ":"), and the memo to pass for the provider's
    next snapshot. prev is the memo of the provider's previous snapshot,
    or None: (snapshot, position per id, its bikes' JSON objects). A bike
    whose id, flags and coordinates' float64 bit patterns (so 0.0 is not
    -0.0) are unchanged there is written from that memo; every other bike
    is formatted from snap's columns by _bike_json."""
    n = len(snap.ids)
    bikes = np.empty(n, dtype=object)
    changed = np.ones(n, dtype=bool)
    if prev is not None:
        old, position, old_bikes = prev
        j = np.array([position.get(i, -1) for i in snap.ids], dtype=np.intp)
        hit = np.flatnonzero(j >= 0)
        k = j[hit]
        same = hit[(snap.lats.view(np.uint64)[hit] == old.lats.view(np.uint64)[k])
                   & (snap.lons.view(np.uint64)[hit] == old.lons.view(np.uint64)[k])
                   & (snap.reserved[hit] == old.reserved[k])
                   & (snap.disabled[hit] == old.disabled[k])]
        bikes[same] = old_bikes[j[same]]
        changed[same] = False
    new = np.flatnonzero(changed)
    bikes[new] = _bike_json([snap.ids[i] for i in new.tolist()],
                            *(getattr(snap, c)[new].tolist() for c, _ in _ARRAY_COLUMNS))
    header = json.dumps({"provider": snap.provider, "captured_at": snap.captured_at,
                         "ttl_s": snap.ttl_s, "bikes": []}, separators=(",", ":"))
    line = f"{header[:-2]}{','.join(bikes.tolist())}]}}"  # the bikes inside "bikes":[]
    return line, (snap, dict(zip(snap.ids, range(n))), bikes)


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
    """The Snapshot of one archive record, its bikes read by _bike_snapshot;
    a missing key or a value of the wrong type is a MALFORMED_INPUT error."""
    return _bike_snapshot(json_str(rec["provider"]), json_int(rec["captured_at"]),
                          json_int(rec["ttl_s"]), rec["bikes"], _ARCHIVE_CHECKS)


# where an archive line's bikes start, after the header _archive_line writes
_BIKES_START = ',"bikes":[{'
_JSON_SPACE = " \t\r\n"


def _padded(bikes: str) -> bool:
    """Whether a "}" or "," in the text of a line's bikes is followed by
    JSON whitespace, as a padded separator's is. Each whitespace
    character is looked for alone first, at memchr speed."""
    return any(space in bikes and ("}" + space in bikes or "," + space in bikes)
               for space in _JSON_SPACE)


def _positions(prev: tuple, bikes: str) -> tuple[Snapshot, dict] | None:
    """From prev, a provider's memo (see _changed_bikes_snapshot), its
    snapshot and the position there of each bike's JSON object text; or
    None if the new line's bikes, whose text is given, likely share none
    with it (the first is not found in its text), or if its line's split
    on "},{" is not at every object boundary."""
    old, old_bikes, old_pieces = prev
    if bikes.partition("},{")[0] not in old_bikes:
        return None
    if old_pieces is None:  # the old line was decoded whole
        old_pieces = old_bikes.split("},{")
        if len(old_pieces) != len(old.ids) or _padded(old_bikes):
            return None
    return old, dict(zip(old_pieces, range(len(old_pieces))))


def _changed_bikes_snapshot(line: bytes, memo: dict) -> Snapshot | None:
    """The Snapshot of an archive line as _archive_line writes it, which
    decodes only the bikes that changed since their provider's last line
    read here; None for a line in any other form or one that fails a
    check, to be read by archive_record and snapshot_from_record, which
    raise its error. memo maps each provider to its last line read here:
    (its snapshot, its bikes' text, that text split on "},{" or None); a
    line's entry is set once its Snapshot is built.

    The bikes' text is split on "},{" into pieces, each a bike's JSON
    object text without its braces. A piece found in the provider's last
    line takes its values from that snapshot's columns; the others, the
    misses, are joined back, decoded by one json.loads and checked by
    _column. The split is trusted only if it falls at every boundary
    between bikes: the line starts with the canonical header and ends
    "}]}"; no separator is padded with JSON whitespace, so every
    boundary is a "},{"; and the misses decode to as many objects as
    there are misses, so no "},{" inside a string or a nested array was
    split on (a piece found is a whole bike, which no part of another
    bike can be). A line that likely shares no bike (see _positions) is
    decoded whole, and split only when the next line looks it up.
    """
    if not line.startswith(b'{"provider":'):
        return None
    try:
        text = line.decode("utf-8").removesuffix("\n")
        i = text.find(_BIKES_START)
        if i < 0 or not text.endswith("}]}"):
            return None
        head = json.loads(text[:i] + "}")
        if (list(head) != ["provider", "captured_at", "ttl_s"]
                or json.dumps(head, separators=(",", ":")) != text[:i] + "}"):
            return None
        bikes = text[i + len(_BIKES_START):-3]
        provider = json_str(head["provider"])
        prev = memo.get(provider)
        hits = prev and not _padded(bikes) and _positions(prev, bikes)
        if not hits:
            pieces, misses = None, json.loads("[{" + bikes + "}]")
        else:
            old, position = hits
            pieces = bikes.split("},{")
            j = np.fromiter(map(position.get, pieces, itertools.repeat(-1)), np.intp, len(pieces))
            miss = np.flatnonzero(j < 0)
            texts = [pieces[k] for k in miss.tolist()]
            misses = json.loads("[{" + "},{".join(texts) + "}]") if texts else []
            if len(misses) != len(texts):
                return None
        columns = [_column(misses, *c) for c in _ARCHIVE_CHECKS]
        if hits:  # each bike's values at j in old's columns followed by the misses'
            j[miss] = len(old.ids) + np.arange(len(miss))
            ids = old.ids + tuple(columns[0])
            columns = [[ids[k] for k in j.tolist()],
                       *(np.concatenate((getattr(old, name), col))[j]
                         for (name, _), col in zip(_ARRAY_COLUMNS, columns[1:]))]
        snap = Snapshot(provider, json_int(head["captured_at"]), json_int(head["ttl_s"]), *columns)
    except MALFORMED_INPUT:
        return None
    memo[provider] = (snap, bikes, pieces)
    return snap


class SnapshotStore:
    """Append-only JSON-lines snapshot archive.

    Single writer per file; concurrent readers need no coordination.
    Both reads, forward and from the tail, read a line as archive_record
    does. Every message names the archive by its path as given.
    """

    def __init__(self, path: str | Path):
        self.path = path  # as given, for every message that names it
        # last captured_at per provider, for the monotonicity check
        self._last_written: dict[str, int | None] = {}
        # per provider, the memo of the last snapshot appended (see _archive_line)
        self._written: dict[str, tuple] = {}

    def last_captured(self, provider: str) -> int | None:
        """captured_at of the provider's newest snapshot in the archive, or
        None. The first call per provider decodes lines from the file's end
        back to the provider's last one, its newest (append keeps each
        provider ascending), so a restarted writer resumes after it."""
        if provider not in self._last_written:
            self._last_written[provider] = self._tail_captured(provider)
        return self._last_written[provider]

    def _tail_captured(self, provider: str) -> int | None:
        if not os.path.exists(self.path) or not os.path.getsize(self.path):
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
        # the memo is a function of snap alone, so a failed write leaves it right
        line, self._written[snap.provider] = _archive_line(snap, self._written.get(snap.provider))
        _write(self.path, "a", line + "\n")
        self._last_written[snap.provider] = snap.captured_at

    def write_meta(self, meta: dict) -> None:
        _write(self.path, "a", json.dumps({"_meta": meta}, separators=(",", ":")) + "\n")

    def iter_all(self) -> Iterator[Snapshot]:
        """The archive's snapshots in file order, up to its size when the
        read starts. A corrupt line is a StoreError naming its line number,
        raised after every snapshot before it. A line is read by
        _changed_bikes_snapshot, which decodes only the bikes that changed
        since its provider's last snapshot read so, or else by
        archive_record and snapshot_from_record."""
        if not os.path.exists(self.path):
            raise StoreError(f"no such archive: {self.path}")
        memo = {}
        # a 128 KiB buffer: a snapshot line of 1,000 scooters is about 90 KB
        with open(self.path, "rb", buffering=1 << 17) as f:
            left = os.fstat(f.fileno()).st_size
            # split as iterating a file is, after each b"\n" only: a raw \r is JSON whitespace
            for lineno in itertools.count(1):
                line = f.readline(left)
                if not line:
                    return
                left -= len(line)
                try:
                    snap = _changed_bikes_snapshot(line, memo)
                    if snap is None:
                        rec = archive_record(line)
                        if rec is None:
                            continue
                        snap = snapshot_from_record(rec)
                except MALFORMED_INPUT as exc:
                    raise StoreError(
                        f"{self.path}: corrupt line {lineno}: {malformed_message(exc)}"
                    ) from exc
                yield snap


def _write(path: str | Path, mode: str, text: str) -> None:
    """The one output write: text written ("w") or appended ("a") to path
    as UTF-8, its newlines as given. An OSError from the open, a write or
    the close is raised again with its errno, naming path."""
    try:
        with open(path, mode, encoding="utf-8", newline="") as f:
            f.write(text)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror or str(exc), os.fspath(path)) from exc


@contextmanager
def atomic_paths(*paths: str | Path | None) -> Iterator[list]:
    """The one output commit: yields a temporary path beside each of one
    run's outputs, for the writers, and replaces the outputs only once the
    block has written and closed them all; on any error it removes the
    temporary files, so a run that fails before the renames leaves every
    old output as it was. An empty path or None (an output not asked for)
    is yielded as given. A symbolic link is followed: the file it names is
    replaced, the link stays. An OSError naming a temporary file (every
    failed _write does) names its output as given."""
    commits = []  # (temporary path, target, output as given)
    for given in filter(None, paths):
        path = Path(given).resolve()
        commits.append((path.with_name(f".{path.name}.{os.getpid()}.tmp"), path, given))
    tmps = iter(commits)
    try:
        yield [next(tmps)[0] if p else p for p in paths]
        for tmp, path, _ in commits:
            os.replace(tmp, path)
    except BaseException as exc:
        for tmp, _, _ in commits:
            tmp.unlink(missing_ok=True)
        for tmp, _, given in commits:
            if isinstance(exc, OSError) and exc.filename in (tmp, str(tmp)):
                raise OSError(exc.errno, exc.strerror, os.fspath(given)) from exc
        raise


def write_archive(
    snapshots: Iterable[Snapshot], path: str | Path, meta: dict | None = None
) -> int:
    """Write a fresh archive to path: one ``_meta`` line if meta is given,
    then one line per snapshot. Returns the number of snapshots written."""
    _write(path, "w", "")
    store = SnapshotStore(path)
    if meta:
        store.write_meta(meta)
    n = 0
    for n, snap in enumerate(snapshots, start=1):
        store.append(snap)
    return n


def write_csv(path: str | Path, columns: list[str], rows: Iterable, meta: dict | None) -> None:
    """Write a CSV to path: one ``# key=value`` line per meta item, which
    the CSV readers here skip, then the header row and the rows."""
    text = io.StringIO()
    for k, v in (meta or {}).items():
        text.write(f"# {k}={v}\n")
    w = csv.writer(text)
    w.writerow(columns)
    w.writerows(rows)
    _write(path, "w", text.getvalue())


def write_json(path: str | Path, doc: dict) -> None:
    """Write a JSON document to path, indented."""
    _write(path, "w", json.dumps(doc, indent=2))


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
