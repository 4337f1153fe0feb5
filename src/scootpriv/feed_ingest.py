"""Fetch, parse, and persist GBFS free_bike_status snapshots.

Snapshots are archived as newline-delimited JSON, one snapshot per line,
so archives are append-only, greppable, and streamable. Timestamps come
from the feed's own ``last_updated`` field, never the local clock, which
keeps replayed fixtures deterministic.
"""

from __future__ import annotations

import json
import logging
import os
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Iterable, Iterator

import numpy as np

log = logging.getLogger(__name__)

RETRY_ATTEMPTS = 3


class FeedParseError(ValueError):
    """Raised when a free_bike_status document cannot be parsed."""


class StoreError(OSError):
    """Raised when a snapshot archive cannot be read or written."""


@dataclass(frozen=True)
class ScooterObservation:
    scooter_id: str
    lat: float
    lon: float
    is_reserved: bool = False
    is_disabled: bool = False

    def __post_init__(self):
        if not self.scooter_id:
            raise FeedParseError("empty scooter_id")
        if not -90.0 <= self.lat <= 90.0:
            raise FeedParseError(f"latitude out of range: {self.lat}")
        if not -180.0 <= self.lon <= 180.0:
            raise FeedParseError(f"longitude out of range: {self.lon}")


@dataclass(frozen=True)
class Snapshot:
    """One provider's parked-fleet state at an instant."""

    provider: str
    captured_at: int
    ttl_s: int
    observations: tuple[ScooterObservation, ...]

    def __post_init__(self):
        if self.ttl_s <= 0:
            raise FeedParseError(f"ttl must be positive, got {self.ttl_s}")
        ids = [o.scooter_id for o in self.observations]
        if len(ids) != len(set(ids)):
            seen, dups = set(), set()
            for i in ids:
                (dups if i in seen else seen).add(i)
            raise FeedParseError(f"duplicate scooter_id(s): {sorted(dups)}")

    def coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Latitudes and longitudes as float arrays, in observation order."""
        lats = np.array([o.lat for o in self.observations], float)
        lons = np.array([o.lon for o in self.observations], float)
        return lats, lons

    def with_coords(self, lats, lons) -> Snapshot:
        """This snapshot with each observation moved to the given
        coordinates, in observation order; the inverse of coords()."""
        return replace(self, observations=tuple(
            replace(o, lat=float(lat), lon=float(lon))
            for o, lat, lon in zip(self.observations, lats, lons)
        ))


def parse_free_bike_status(raw: bytes, provider: str) -> Snapshot:
    """Parse a GBFS free_bike_status JSON document into a Snapshot.

    ``captured_at`` is the feed's ``last_updated`` timestamp. Unknown
    extra fields are ignored; missing required fields, out-of-range
    coordinates, or duplicate bike ids raise FeedParseError.
    """
    try:
        doc = json.loads(raw)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise FeedParseError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise FeedParseError("document is not a JSON object")

    try:
        last_updated = int(doc["last_updated"])
        ttl = int(doc["ttl"])
        bikes = doc["data"]["bikes"]
    except (KeyError, TypeError) as exc:
        raise FeedParseError(f"missing required field: {exc}") from exc
    if not isinstance(bikes, list):
        raise FeedParseError("data.bikes is not an array")

    observations = []
    for i, bike in enumerate(bikes):
        try:
            observations.append(
                ScooterObservation(
                    scooter_id=str(bike["bike_id"]),
                    lat=float(bike["lat"]),
                    lon=float(bike["lon"]),
                    is_reserved=bool(bike["is_reserved"]),
                    is_disabled=bool(bike["is_disabled"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise FeedParseError(f"bike #{i}: {exc}") from exc

    return Snapshot(provider, last_updated, ttl, tuple(observations))


def snapshot_to_record(snap: Snapshot) -> dict:
    """Archive-line schema for one snapshot."""
    return {
        "provider": snap.provider,
        "captured_at": snap.captured_at,
        "ttl_s": snap.ttl_s,
        "bikes": [
            {
                "id": o.scooter_id,
                "lat": o.lat,
                "lon": o.lon,
                "reserved": o.is_reserved,
                "disabled": o.is_disabled,
            }
            for o in snap.observations
        ],
    }


def snapshot_from_record(rec: dict) -> Snapshot:
    return Snapshot(
        provider=rec["provider"],
        captured_at=int(rec["captured_at"]),
        ttl_s=int(rec["ttl_s"]),
        observations=tuple(
            ScooterObservation(
                scooter_id=b["id"],
                lat=float(b["lat"]),
                lon=float(b["lon"]),
                is_reserved=bool(b["reserved"]),
                is_disabled=bool(b["disabled"]),
            )
            for b in rec["bikes"]
        ),
    )


class SnapshotStore:
    """Append-only JSON-lines snapshot archive.

    Single writer per file; concurrent readers need no coordination.
    Lines whose object carries a ``_meta`` key are provenance headers
    written by the CLI and are skipped on read.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        # last captured_at appended per provider, for the monotonicity check
        self._last_written: dict[str, int] = {}

    def append(self, snap: Snapshot) -> None:
        last = self._last_written.get(snap.provider)
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

    def iter_all(self, skip_corrupt: bool = False) -> Iterator[Snapshot]:
        if not self.path.exists():
            raise StoreError(f"no such archive: {self.path}")
        with open(self.path, encoding="utf-8") as f:
            for lineno, line in enumerate(f, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    rec = json.loads(line)
                    if "_meta" in rec:
                        continue
                    yield snapshot_from_record(rec)
                except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
                    if skip_corrupt:
                        log.warning("skipping corrupt line %d: %s", lineno, exc)
                        continue
                    raise StoreError(f"corrupt line {lineno}: {exc}") from exc


def write_archive(
    snapshots: Iterable[Snapshot], path: str | Path, meta: dict | None = None
) -> None:
    """Write a fresh archive: one ``_meta`` line if meta is given, then
    one line per snapshot.

    The lines go to a temporary file beside ``path``, which replaces
    ``path`` only once every snapshot is written. A failure midway
    leaves ``path`` as it was and removes the temporary file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_text("")
        store = SnapshotStore(tmp)
        if meta:
            store.write_meta(meta)
        for snap in snapshots:
            store.append(snap)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def read_snapshots(
    store: SnapshotStore,
    provider: str | None = None,
    from_ts: int | None = None,
    to_ts: int | None = None,
) -> list[Snapshot]:
    """Snapshots with captured_at in [from_ts, to_ts], ascending (stable).

    ``provider=None`` keeps every provider; absent bounds are open. Of
    several snapshots with the same (provider, captured_at), as a
    restarted scraper can append, only the first in the file is kept.
    """
    if from_ts is not None and to_ts is not None and from_ts > to_ts:
        raise ValueError(f"from ({from_ts}) must not exceed to ({to_ts})")
    out, seen = [], set()
    for s in store.iter_all():
        key = (s.provider, s.captured_at)
        if (
            key in seen
            or (provider is not None and s.provider != provider)
            or (from_ts is not None and s.captured_at < from_ts)
            or (to_ts is not None and s.captured_at > to_ts)
        ):
            continue
        seen.add(key)
        out.append(s)
    out.sort(key=lambda s: s.captured_at)
    return out


@dataclass
class PollSummary:
    snapshots_written: int = 0
    fetch_failures: int = 0
    skipped_unchanged: int = 0
    errors: list[str] = field(default_factory=list)


def _fetch_with_retry(
    endpoint: str, interval_s: float, summary: PollSummary, timeout: float
) -> bytes | None:
    """3 attempts with exponential backoff capped at interval/2."""
    # imported here: only scrape fetches, so no other command loads the HTTP stack
    import http.client
    import urllib.request

    backoff = min(1.0, interval_s / 2)
    for attempt in range(RETRY_ATTEMPTS):
        try:
            # urlopen raises HTTPError, an OSError, on any non-2xx status
            with urllib.request.urlopen(endpoint, timeout=timeout) as resp:
                return resp.read()
        except (OSError, http.client.HTTPException) as exc:
            summary.fetch_failures += 1
            summary.errors.append(str(exc))
            log.warning("fetch attempt %d failed: %s", attempt + 1, exc)
            if attempt < RETRY_ATTEMPTS - 1:
                time.sleep(backoff)
                backoff = min(backoff * 2, interval_s / 2)
    return None


def poll_feed(
    endpoint: str,
    store: SnapshotStore,
    provider: str,
    interval_s: float,
    stop: Callable[[], bool],
    sleep: Callable[[float], None] = time.sleep,
    timeout: float = 10.0,
) -> PollSummary:
    """Poll a free_bike_status endpoint, appending changed snapshots.

    Snapshots with the same captured_at as the previously stored one are
    skipped. Transient fetch or parse errors are logged and retried with
    bounded backoff; they never abort polling. Returns when stop() is true.
    """
    if interval_s <= 0:
        raise ValueError("interval must be positive")
    summary = PollSummary()
    last_captured: int | None = None
    effective_interval = interval_s
    while not stop():
        raw = _fetch_with_retry(endpoint, effective_interval, summary, timeout)
        if raw is not None:
            try:
                snap = parse_free_bike_status(raw, provider)
            except FeedParseError as exc:
                summary.errors.append(f"parse: {exc}")
                log.warning("parse failure: %s", exc)
            else:
                if snap.captured_at == last_captured:
                    summary.skipped_unchanged += 1
                else:
                    store.append(snap)
                    summary.snapshots_written += 1
                    last_captured = snap.captured_at
                # never poll slower than the feed refreshes
                effective_interval = min(interval_s, snap.ttl_s)
        if stop():
            break
        sleep(effective_interval)
    return summary
