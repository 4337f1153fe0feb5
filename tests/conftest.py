import json
import math
import multiprocessing
import os
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from scootpriv import utility_eval, workers
from scootpriv.feed_ingest import Snapshot
from scootpriv.utility_eval import Region


@pytest.fixture(autouse=True)
def no_process_left_running():
    """Fails a test that leaves a child process alive, such as a worker of
    an R grid; the process is then stopped, so the next test starts
    without it."""
    yield
    left = multiprocessing.active_children()
    for proc in left:
        proc.terminate()
        proc.join(10)
    assert not left, f"processes left running: {left}"


def force_parallel_grid(monkeypatch) -> list:
    """Sends every later R grid of the test through worker processes, as
    if on two CPUs, whatever its size. Returns a list that gets, for each
    map run in workers, the module that ran it: "utility_eval" for an R
    grid, the package's one caller of workers.ordered_map."""
    monkeypatch.setattr(utility_eval, "PARALLEL_SWEEP_MIN_POINTS", 0)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    maps = []
    ordered_map = workers.ordered_map

    def spy(fn, tasks, n):
        if n:
            maps.append(fn.__module__.rpartition(".")[2])
        return ordered_map(fn, tasks, n)

    monkeypatch.setattr(workers, "ordered_map", spy)
    return maps


def make_feed_doc(bikes, last_updated=1_700_000_000, ttl=60, extra=None):
    doc = {
        "last_updated": last_updated,
        "ttl": ttl,
        "data": {
            "bikes": [
                {
                    "bike_id": b[0],
                    "lat": b[1],
                    "lon": b[2],
                    "is_reserved": b[3] if len(b) > 3 else False,
                    "is_disabled": b[4] if len(b) > 4 else False,
                }
                for b in bikes
            ]
        },
    }
    if extra:
        doc.update(extra)
    return json.dumps(doc).encode()


def make_snapshot(bikes, captured_at=1_700_000_000, ttl_s=60, provider="test"):
    return Snapshot(
        provider=provider,
        captured_at=captured_at,
        ttl_s=ttl_s,
        ids=[b[0] for b in bikes],
        lats=[b[1] for b in bikes],
        lons=[b[2] for b in bikes],
        reserved=[b[3] if len(b) > 3 else False for b in bikes],
        disabled=[b[4] if len(b) > 4 else False for b in bikes],
    )


class FakeClock:
    """A clock for poll_feed in virtual time: sleep() advances
    monotonic() at once and records its argument. With interrupt_at=n,
    the nth sleep raises KeyboardInterrupt instead, as Ctrl-C would."""

    def __init__(self, interrupt_at=None):
        self.now = 0.0
        self.sleeps = []
        self.interrupt_at = interrupt_at

    def monotonic(self):
        return self.now

    def sleep(self, seconds):
        if len(self.sleeps) + 1 == self.interrupt_at:
            raise KeyboardInterrupt
        self.sleeps.append(seconds)
        self.now += seconds


def planar_density(epsilon, center, at):
    """Planar Laplace output density (1/km^2) at a point, for planar
    (x, y) km coordinates: the oracle of the indistinguishability bound."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = math.hypot(at[0] - center[0], at[1] - center[1])
    return epsilon**2 / (2.0 * math.pi) * math.exp(-epsilon * d)


def square_region(name="square", lat0=0.0, lon0=0.0, side_deg=1.0):
    """Axis-aligned square with SW corner at (lat0, lon0)."""
    return Region(
        name=name,
        rings=(
            (
                (lat0, lon0),
                (lat0, lon0 + side_deg),
                (lat0 + side_deg, lon0 + side_deg),
                (lat0 + side_deg, lon0),
                (lat0, lon0),
            ),
        ),
    )


@pytest.fixture
def unit_square():
    return square_region()


@pytest.fixture
def square_with_hole():
    outer = (
        (0.0, 0.0),
        (0.0, 10.0),
        (10.0, 10.0),
        (10.0, 0.0),
        (0.0, 0.0),
    )
    hole = (
        (4.0, 4.0),
        (4.0, 6.0),
        (6.0, 6.0),
        (6.0, 4.0),
        (4.0, 4.0),
    )
    return Region(name="holed", rings=(outer, hole))


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
    """A feed server on a free local port, as (Handler, url). Each request
    gets the next (status, body) of Handler.script, then the last again;
    Handler.calls counts the requests."""

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
