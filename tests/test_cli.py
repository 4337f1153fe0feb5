import argparse
import builtins
import errno
import functools
import gc
import itertools
import json
import math
import os
import subprocess
import sys
import threading
import tracemalloc
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from scootpriv import __version__, cli, feed_ingest, geo_privacy, synth_fleet, trip_recon
from scootpriv.cli import MAX_GRID_POINTS, UsageError, build_parser, main, parse_r_grid
from scootpriv.feed_ingest import SnapshotStore, write_archive
from scootpriv.geo_privacy import analytic_cdf
from scootpriv.trip_recon import haversine_distance, read_trips_csv

from conftest import FakeClock, force_parallel_read, make_feed_doc, make_snapshot, square_region

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def synth_config(tmp_path):
    doc = {
        "n_scooters": 20,
        "seed": 11,
        "area_rings": [
            [[33.9, -118.5], [33.9, -118.3], [34.1, -118.3], [34.1, -118.5], [33.9, -118.5]]
        ],
        "trip_rate": 0.5,
        "relocation_rate": 0.2,
        "duration_h": 3.0,
    }
    path = tmp_path / "fleet.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.fixture
def synth_archive(tmp_path, synth_config):
    out = tmp_path / "archive.jsonl"
    rc = main(["synth", "--config", str(synth_config), "--output", str(out)])
    assert rc == 0
    return out


# the boundary write_boundary_geojson writes, as a bare geometry
SQUARE = {"type": "Polygon", "coordinates": [[[-118.5, 33.9], [-118.3, 33.9], [-118.3, 34.1],
                                              [-118.5, 34.1], [-118.5, 33.9]]]}

REPORT_PROVENANCE = ["command", "version", "provider", "snapshot_index", "r_grid", "trials",
                     "ratio", "seed"]


def write_boundary_geojson(path, lat0=33.9, lon0=-118.5, side=0.2):
    doc = {
        "type": "FeatureCollection",
        "features": [
            {
                "type": "Feature",
                "properties": {"name": "city"},
                "geometry": {
                    "type": "Polygon",
                    "coordinates": [
                        [
                            [lon0, lat0],
                            [lon0 + side, lat0],
                            [lon0 + side, lat0 + side],
                            [lon0, lat0 + side],
                            [lon0, lat0],
                        ]
                    ],
                },
            }
        ],
    }
    path.write_text(json.dumps(doc))


def write_tiles_geojson(path, lat0=33.9, lon0=-118.5, side=0.1, n=2):
    """n x n square tiles of side degrees from (lat0, lon0), named by row
    and column; the defaults tile write_boundary_geojson's square."""
    features = []
    for i in range(n):
        for j in range(n):
            la, lo = lat0 + i * side, lon0 + j * side
            ring = [[lo, la], [lo + side, la], [lo + side, la + side], [lo, la + side], [lo, la]]
            features.append({"type": "Feature", "properties": {"name": f"t{i}{j}"},
                             "geometry": {"type": "Polygon", "coordinates": [ring]}})
    path.write_text(json.dumps({"type": "FeatureCollection", "features": features}))


class TestGridFlag:
    def test_paper_grid_has_21_points(self):
        grid = parse_r_grid("0:1:0.05")
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_inclusive_ends(self):
        assert parse_r_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]

    def test_stop_kept_within_float_tolerance(self):
        # 0.3 / 0.1 is 2.9999999999999996 in binary floating point
        assert parse_r_grid("0:0.3:0.1") == [0.0, 0.1, 0.2, 0.3]

    def test_never_past_stop(self):
        assert parse_r_grid("0:1:0.35") == [0.0, 0.35, 0.7]

    def test_too_many_points_rejected_before_building(self):
        for spec in ("0:1:1e-5", "0:1:1e-320", "0:1e-300:1e-301"):
            with pytest.raises(UsageError, match=f"^grid spec '{spec}' has more than "
                                                 f"{MAX_GRID_POINTS} points$"):
                parse_r_grid(spec)
        assert len(parse_r_grid(f"0:{MAX_GRID_POINTS - 1}:1")) == MAX_GRID_POINTS

    def test_bad_specs(self):
        for bad in ("1:0:0.1", "0:1:-1", "abc", "0:1", "-0.5:0.5:0.5",
                    "0:inf:1", "0:nan:1", "0:1:inf", "nan:1:0.1"):
            with pytest.raises(UsageError):
                parse_r_grid(bad)


def misuse(argv, flag=None):
    """A misuse case: argv and the flag its error line names, argv[1] unless given."""
    return pytest.param(argv, flag or argv[1], id=" ".join(argv) or "no subcommand")


@pytest.mark.parametrize(
    "argv,flag",
    [
        misuse(["reconstruct", "--min-distance-m", "-1"]),
        misuse(["reconstruct", "--max-duration-s", "0"]),
        misuse(["reconstruct", "--min-move-m", "-1"]),
        misuse(["cluster", "--max-size", "0"]),
        misuse(["cluster", "--k", "0"]),
        misuse(["sanitize", "--radius-km", "0"]),
        misuse(["sanitize", "--radius-km", "0.25", "--ratio", "1"]),
        misuse(["sanitize", "--radius-km", "18"]),
        misuse(["sanitize", "--radius-km", "6"]),
        misuse(["evaluate", "--ratio", "1"]),
        misuse(["evaluate", "--r-grid", "0:60:20"]),
        # counts past a float's range, or of 300 digits, named by the limit
        misuse(["evaluate", "--r-grid", "0:1:1e-320"], "more than 10000 points"),
        misuse(["evaluate", "--r-grid", "0:1e-300:1e-301"], "more than 10000 points"),
        misuse(["evaluate", "--dump-radius-km", "-1", "--dump-geojson", "d.geojson"]),
        # checked with or without --dump-geojson
        misuse(["evaluate", "--dump-radius-km", "-1"]),
        misuse(["evaluate", "--dump-radius-km", "100"]),
        misuse(["evaluate", "--trials", "0"]),
        misuse(["scrape", "--duration", "-1"]),
        misuse(["scrape", "--duration", "1", "--interval", "0.5"], "--interval"),
        misuse(["scrape", "--duration", "1", "--url", "ftp://feed.invalid/"], "--url"),
        # argparse's own errors
        misuse([], "command"),
        misuse(["sanitize"], "--radius-km"),
        misuse(["cluster", "--k", "abc"]),
        misuse(["evaluate", "--format", "xml"]),
        misuse(["sanitize", "--radius-km", "0.25", "--epsilon", "1"], "--epsilon"),
        misuse(["cluster", "--seed", "-1"]),
        misuse(["sanitize", "--radius-km", "0.25", "--seed", "-1"], "--seed"),
        misuse(["evaluate", "--seed", "-1"]),
        # two output flags naming the file --output names
        misuse(["cluster", "--geojson", "{out}"]),
        misuse(["evaluate", "--dump-geojson", "{out}"]),
        misuse(["synth", "--ground-truth", "{out}"]),
        # an empty output path, which would resolve to the working directory
        *(misuse([command, "--output", ""])
          for command in ("reconstruct", "cluster", "sanitize", "evaluate", "synth")),
        misuse(["cluster", "--geojson", ""]),
        misuse(["evaluate", "--dump-geojson", ""]),
        misuse(["synth", "--ground-truth", ""]),
    ],
)
def test_flag_range_error_exits_2_before_reading_input(
    tmp_path, capsys, monkeypatch, argv, flag
):
    monkeypatch.setattr(cli, "poll_feed", lambda **kwargs: pytest.fail("scrape polled"))
    # the input does not exist, so reading it first would exit 1
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    inputs = {
        "reconstruct": ["--store", missing, "--output", out],
        "cluster": ["--trips", missing, "--output", out],
        "sanitize": ["--store", missing, "--output", out],
        "evaluate": ["--store", missing, "--boundary", missing, "--output", out],
        "scrape": ["--url", "http://feed.invalid/", "--provider", "p", "--store", out],
        "synth": ["--config", missing, "--output", out],
    }
    argv = [out if a == "{out}" else a for a in argv]
    # main returns 2 for argparse's errors too: no SystemExit escapes it
    assert main(argv[:1] + inputs[argv[0]] + argv[1:] if argv else []) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error, = captured.err.splitlines()
    assert error.startswith("error: ") and flag in error
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [["--help"], ["--version"], ["cluster", "--help"]])
def test_help_and_version_exit_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out


def float_flags() -> list[tuple[str, str]]:
    """(subcommand, flag) for every option of the parser whose type parses
    "1.5" to a float."""
    def parses_float(action) -> bool:
        try:
            return isinstance(action.type("1.5"), float)
        except (TypeError, ValueError, argparse.ArgumentTypeError):  # None, int or str types
            return False

    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    flags = [
        (command, action.option_strings[0])
        for command, parser in subparsers.choices.items()
        for action in parser._actions
        if parses_float(action)
    ]
    assert len(flags) == 8, flags
    return flags


# the rule each float flag's error states
RULES = {
    "--interval": "in [1, 86400] s", "--duration": ">= 0",
    "--min-distance-m": "finite and >= 0", "--min-move-m": "finite and >= 0",
    "--radius-km": "finite", "--ratio": "finite", "--dump-radius-km": "finite",
}


@pytest.mark.parametrize(
    "command,flag,value",
    # scrape --duration inf runs until interrupted
    [(c, f, v) for c, f in float_flags() for v in ("nan", "inf")
     if (f, v) != ("--duration", "inf")],
)
def test_non_finite_float_flag_exits_2_before_reading_input(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    monkeypatch.setattr(cli, "poll_feed", lambda **kwargs: pytest.fail("scrape polled"))
    # the inputs do not exist, so reading one would exit 1
    missing, out = str(tmp_path / "missing"), str(tmp_path / "out")
    required = {
        "scrape": ["--url", "http://feed.invalid/", "--provider", "p", "--store", out,
                   "--duration", "1"],
        "reconstruct": ["--store", missing, "--output", out],
        "sanitize": ["--store", missing, "--output", out, "--radius-km", "0.25"],
        "evaluate": ["--store", missing, "--boundary", missing, "--output", out],
    }
    assert main([command, *required[command], flag, value]) == 2
    assert capsys.readouterr().err == (
        f"error: argument {flag}: must be {RULES[flag]}, got '{value}'\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_scrape_interval_over_a_day_exits_2_before_polling(tmp_path, capsys, monkeypatch):
    # time.sleep overflows on an interval this long
    monkeypatch.setattr(cli, "poll_feed", lambda **kwargs: pytest.fail("scrape polled"))
    argv = ["scrape", "--url", "http://feed.invalid/", "--provider", "p",
            "--store", str(tmp_path / "a.jsonl"), "--duration", "1", "--interval", "1e300"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: argument --interval: must be in [1, 86400] s, got '1e300'\n"
    )
    assert list(tmp_path.iterdir()) == []


def test_scrape_duration_inf_runs_until_interrupted(tmp_path, monkeypatch, capsys):
    # Ctrl-C in the third interval's sleep ends the run after three polls
    docs = (make_feed_doc([("a", 1, 1)], last_updated=t) for t in itertools.count(100, 60))
    monkeypatch.setattr(feed_ingest, "_fetch_with_retry", lambda *args: next(docs))
    clock = FakeClock(interrupt_at=3)
    monkeypatch.setattr(cli, "poll_feed", functools.partial(feed_ingest.poll_feed, clock=clock))
    argv = ["scrape", "--url", "http://feed.invalid/", "--provider", "p",
            "--store", str(tmp_path / "a.jsonl"), "--duration", "inf"]
    try:
        assert main(argv) == 0
    except KeyboardInterrupt:  # escaped, it would end the whole test session
        pytest.fail("scrape let the interrupt escape")
    assert capsys.readouterr().out.startswith("stored 3 snapshots, 0 fetch failures")
    assert clock.sleeps == [60.0, 60.0]


class TestSynthCommand:
    def test_produces_archive_and_truth(self, tmp_path, synth_config):
        out = tmp_path / "a.jsonl"
        truth = tmp_path / "truth.csv"
        rc = main(
            ["synth", "--config", str(synth_config), "--output", str(out),
             "--ground-truth", str(truth)]
        )
        assert rc == 0
        assert len(list(SnapshotStore(out).iter_all())) == 181
        assert truth.read_text().splitlines()

    def test_invalid_config_exits_2(self, tmp_path, synth_config, capsys):
        good = json.loads(synth_config.read_text())
        collinear = [[[34.0, -118.5], [34.0, -118.4], [34.0, -118.3], [34.0, -118.5]]]
        hotspot = {"center": [34.0, -118.4]}
        bad_docs = [
            {"n_scooters": 0},
            [good],
            {**good, "area_rings": collinear},
            {**good, "hotspots": [{**hotspot, "weight": 0}]},
            {**good, "hotspots": [{**hotspot, "spread_m": -5}]},
            {**good, "trip_rate": 50.0, "relocation_rate": 20.0},
            {**good, "snapshot_interval_s": 0},
            {**good, "trip_rate": -1},
        ]
        bad = tmp_path / "bad.json"
        for doc in bad_docs:
            bad.write_text(json.dumps(doc))
            assert main(["synth", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2, doc
            err = capsys.readouterr().err
            assert err.startswith("error: invalid fleet config") and "Traceback" not in err, doc
        # each error names its key: a missing key as missing, a hotspot's
        # under hotspots, and the seed, which numpy would reject unnamed
        named = {
            "missing key 'seed'": {k: v for k, v in good.items() if k != "seed"},
            "missing key 'area_rings'": {k: v for k, v in good.items() if k != "area_rings"},
            "hotspots: missing key 'center'": {**good, "hotspots": [{"weight": 2}]},
            "seed must be >= 0, got -1": {**good, "seed": -1},
        }
        for message, doc in named.items():
            bad.write_text(json.dumps(doc))
            assert main(["synth", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2
            assert capsys.readouterr().err == f"error: invalid fleet config: {message}\n"

    def test_config_too_deep_to_encode_exits_1(self, tmp_path, synth_config, capsys):
        # an unknown key nested just under json's limit decodes, but the
        # archive's _meta line nests the config two levels deeper
        good = synth_config.read_text()
        bad, out = tmp_path / "bad.json", tmp_path / "o.jsonl"

        def synth(depth):
            bad.write_text(good[:-1] + ', "note": ' + "[" * depth + "]" * depth + "}")
            rc = main(["synth", "--config", str(bad), "--output", str(out)])
            return rc, capsys.readouterr().err

        # bisect for the deepest key that decodes: any deeper is a usage error
        lo, hi = 1, 100_000
        while lo < hi:
            mid = (lo + hi + 1) // 2
            lo, hi = (mid, hi) if synth(mid)[0] != 2 else (lo, mid - 1)
        rc, err = synth(lo + 1)
        assert rc == 2 and err.startswith(f"error: {bad}: not valid JSON: maximum recursion")
        # from there down, every failure is exit 1 with one error line
        errors = []
        for depth in range(lo, 0, -1):
            rc, err = synth(depth)
            if rc == 0:
                break
            assert rc == 1 and err.startswith("error: ") and err.count("\n") == 1
            errors.append(err)
        assert "error: maximum recursion depth exceeded while encoding a JSON object\n" in errors
        # the archive's own _meta line is never decoded, on write or on read
        assert not [e for e in errors if ".tmp" in e]
        assert main(["reconstruct", "--store", str(out), "--output", str(tmp_path / "t.csv")]) == 0

    @pytest.mark.parametrize("change", [
        {"n_scooters": 5.7},
        {"n_scooters": "5"},
        {"seed": 1.9},
        {"snapshot_interval_s": 60.5},
        {"snapshot_interval_s": 0.5},
        {"area_rings": [[[33.9, -118.5], [33.9, "-118.3"], [34.1, -118.3], [33.9, -118.5]]]},
        {"trip_rate": True},
        {"trip_distance_m": [100, "200"]},
        {"provider": [1]},
        {"area_name": {"name": "la"}},
        {"hotspots": [{"center": [34.0]}]},
        {"hotspots": [{"center": "34"}]},
        {"hotspots": [{"center": [34.0, -118.4], "weight": "2"}]},
        {"area_rings": [[[95.0, -118.5], [95.0, -118.3], [34.1, -118.3], [95.0, -118.5]]]},
        {"hotspots": [{"center": [95.0, -118.4]}]},
    ], ids=repr)
    def test_config_value_outside_the_json_value_rule_exits_2(
        self, tmp_path, synth_config, capsys, change
    ):
        # integers are integral numbers, numbers are never strings or
        # booleans, names are strings, a center starts with two numbers,
        # and vertices and centers are in range (feed_ingest.check_coordinates)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({**json.loads(synth_config.read_text()), **change}))
        assert main(["synth", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        # the message names the key, a hotspot's center under hotspots
        assert err.startswith(f"error: invalid fleet config: {next(iter(change))}: ")
        assert "Traceback" not in err

    def test_config_not_json_exits_2_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not")
        assert main(["synth", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {bad}: not valid JSON: Expecting property name"
        )
        assert not (tmp_path / "o").exists()

    def test_rerun_byte_identical(self, tmp_path, synth_config):
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        main(["synth", "--config", str(synth_config), "--output", str(out1)])
        main(["synth", "--config", str(synth_config), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()

    def test_same_config_from_two_directories_byte_identical(
        self, tmp_path, synth_config, monkeypatch
    ):
        outs = []
        for name in ("one", "two"):
            work = tmp_path / name
            work.mkdir()
            (work / "fleet.json").write_bytes(synth_config.read_bytes())
            monkeypatch.chdir(work)
            assert main(["synth", "--config", "fleet.json", "--output", "a.jsonl"]) == 0
            outs.append((work / "a.jsonl").read_bytes())
        assert outs[0] == outs[1]
        meta = json.loads(outs[0].splitlines()[0])["_meta"]
        assert meta["config"] == json.loads(synth_config.read_text())


class TestReconstructCommand:
    def test_static_archive_empty_csv(self, tmp_path):
        arch = tmp_path / "a.jsonl"
        snaps = [make_snapshot([("a", 34.0, -118.4)], captured_at=t) for t in (0, 60, 120)]
        write_archive(snaps, arch)
        out = tmp_path / "trips.csv"
        rc = main(["reconstruct", "--store", str(arch), "--output", str(out)])
        assert rc == 0
        assert read_trips_csv(out) == []
        header = [l for l in out.read_text().splitlines() if not l.startswith("#")][0]
        assert header.startswith("scooter_id,")

    def test_defaults_match_standard_thresholds(self, tmp_path, synth_archive):
        out = tmp_path / "trips.csv"
        rc = main(["reconstruct", "--store", str(synth_archive), "--output", str(out)])
        assert rc == 0
        meta = [l for l in out.read_text().splitlines() if l.startswith("#")]
        assert any("min_distance_m=100" in l for l in meta)
        assert any("max_duration_s=3600" in l for l in meta)
        for t in read_trips_csv(out):
            assert t.distance_m >= 99.9  # CSV rounds coordinates
            assert t.duration_s <= 3600

    def test_prints_trips_dropped_per_filter(self, tmp_path, capsys):
        # moves east along the equator: 0.001 degrees is about 111 m
        track = {
            0: {"kept": 0.0, "short": 0.0, "long": 0.0, "both": 0.0},
            600: {"kept": 0.01, "short": 0.0004},
            7800: {"long": 0.01, "both": 0.0004},
        }
        snaps = [
            make_snapshot([(sid, 0.0, lon) for sid, lon in fixes.items()], captured_at=t)
            for t, fixes in track.items()
        ]
        arch = tmp_path / "a.jsonl"
        write_archive(snaps, arch)
        rc = main(["reconstruct", "--store", str(arch), "--output", str(tmp_path / "t.csv")])
        assert rc == 0
        assert capsys.readouterr().out.strip() == (
            "1 trips kept of 4 reconstructed; 2 under --min-distance-m, "
            "1 over --max-duration-s"
        )

    def test_missing_archive_exits_1(self, tmp_path):
        rc = main(
            ["reconstruct", "--store", str(tmp_path / "nope.jsonl"),
             "--output", str(tmp_path / "t.csv")]
        )
        assert rc == 1

    def test_non_string_id_exits_1(self, tmp_path, synth_archive, capsys):
        # GBFS bike_id is a string; a numeric id is a corrupt archive line
        lines = synth_archive.read_text().splitlines(keepends=True)
        rec = json.loads(lines[3])
        rec["bikes"][0]["id"] = 17
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(lines[:3] + [json.dumps(rec) + "\n"] + lines[4:]))
        rc = main(["reconstruct", "--store", str(bad), "--output", str(tmp_path / "t.csv")])
        assert rc == 1
        assert f"error: {bad}: corrupt line 4: " in capsys.readouterr().err

    def test_repeated_snapshot_line_ignored(self, tmp_path, synth_archive):
        # a restarted scrape can append a snapshot the archive already holds
        lines = synth_archive.read_text().splitlines(keepends=True)
        dup = tmp_path / "dup.jsonl"
        dup.write_text("".join(lines[:50] + [lines[40]] + lines[50:]))
        outs = []
        for store in (synth_archive, dup):
            out = tmp_path / f"{store.stem}_trips.csv"
            assert main(["reconstruct", "--store", str(store), "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestClusterCommand:
    @pytest.fixture
    def trips_csv(self, tmp_path, synth_archive):
        out = tmp_path / "trips.csv"
        main(["reconstruct", "--store", str(synth_archive), "--output", str(out)])
        trips = read_trips_csv(out)
        assert len(trips) >= 4
        return out, len(trips)

    def test_k_equal_trip_count_all_singletons(self, tmp_path, trips_csv):
        path, n = trips_csv
        out = tmp_path / "clusters.csv"
        rc = main(
            ["cluster", "--trips", str(path), "--k", str(n), "--seed", "1",
             "--output", str(out)]
        )
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert all(r.endswith(",1") for r in rows)

    def test_k_too_large_exits_2(self, tmp_path, trips_csv):
        path, n = trips_csv
        rc = main(
            ["cluster", "--trips", str(path), "--k", str(n + 1), "--seed", "1",
             "--output", str(tmp_path / "c.csv")]
        )
        assert rc == 2

    def test_csv_without_trip_columns_exits_1(self, tmp_path, capsys):
        path = tmp_path / "clusters.csv"
        path.write_text("cluster_id,centroid_lat,centroid_lon,size\n0,34.0,-118.2,3\n")
        rc = main(["cluster", "--trips", str(path), "--k", "1",
                   "--output", str(tmp_path / "c.csv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert all(c in err for c in trip_recon.TRIP_CSV_COLUMNS)

    @staticmethod
    def write_trips(path, starts, meta=None):
        """One trip from each start point 1 km north, 10 minutes long."""
        trips = [trip_recon.Trip(f"s{i}", (lat, lon), (lat + 0.009, lon), 0, 600)
                 for i, (lat, lon) in enumerate(starts)]
        trip_recon.write_trips_csv(trips, path, meta)

    @pytest.mark.parametrize("column,value,message", [
        ("start_lat", "nan", "start_lat 'nan' out of range [-90, 90]"),
        ("start_lon", "inf", "start_lon 'inf' out of range [-180, 180]"),
        ("end_lat", "90.5", "end_lat '90.5' out of range [-90, 90]"),
        ("end_lon", "-181", "end_lon '-181.0' out of range [-180, 180]"),
        ("start_lat", "north", "could not convert string to float: 'north'"),
        ("start_time", "abc", "invalid literal for int() with base 10: 'abc'"),
        ("end_time", "-5", "end_time -5 must be after start_time 0"),
    ])
    def test_bad_trip_row_exits_1_naming_its_line(self, tmp_path, capsys, column, value, message):
        path = tmp_path / "trips.csv"
        self.write_trips(path, [(34.0, -118.2)] * 3, meta={"command": "reconstruct", "seed": 1})
        lines = path.read_text().splitlines(keepends=True)
        # two # lines, the header, then the rows: the second row is line 5
        cells = lines[4].rstrip("\n").split(",")
        cells[trip_recon.TRIP_CSV_COLUMNS.index(column)] = value
        lines[4] = ",".join(cells) + "\n"
        path.write_text("".join(lines))
        out = tmp_path / "c.csv"
        assert main(["cluster", "--trips", str(path), "--k", "1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 5: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("lat_line,time_line", [(5, 8), (8, 5)])
    def test_first_bad_line_named_whatever_its_fault(
        self, tmp_path, capsys, lat_line, time_line
    ):
        # a latitude out of range on one line and an end before its start on
        # another: the error is the earlier line's
        path = tmp_path / "trips.csv"
        self.write_trips(path, [(34.0, -118.2)] * 8, meta={"command": "reconstruct", "seed": 1})
        lines = path.read_text().splitlines(keepends=True)
        for lineno, column, value in ((lat_line, "start_lat", "95"), (time_line, "end_time", "-5")):
            cells = lines[lineno - 1].split(",")
            cells[trip_recon.TRIP_CSV_COLUMNS.index(column)] = value
            lines[lineno - 1] = ",".join(cells)
        path.write_text("".join(lines))
        messages = {lat_line: "start_lat '95.0' out of range [-90, 90]",
                    time_line: "end_time -5 must be after start_time 0"}
        out = tmp_path / "c.csv"
        assert main(["cluster", "--trips", str(path), "--k", "1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {path}: line 5: {messages[5]}\n"

    def test_byte_not_utf8_named_by_its_own_line(self, tmp_path, capsys):
        path = tmp_path / "trips.csv"
        self.write_trips(path, [(34.0, -118.2)] * 599, meta={"command": "reconstruct", "seed": 1})
        lines = path.read_bytes().splitlines(keepends=True)
        assert len(lines) == 602
        # two # lines, the header, then the rows: line 401 holds trip s397
        lines[400] = lines[400].replace(b"s397,", b"s\xff,")
        path.write_bytes(b"".join(lines))
        out = tmp_path / "c.csv"
        assert main(["cluster", "--trips", str(path), "--k", "1", "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 401: 'utf-8' codec can't decode byte 0xff in position 1: "
            "invalid start byte\n"
        )

    def test_k_above_distinct_endpoints_exits_2(self, tmp_path, capsys):
        # 30 trips from 10 start points: at most 10 clusters have members
        path = tmp_path / "trips.csv"
        self.write_trips(path, [(34.0 + 0.01 * (i % 10), -118.0) for i in range(30)])
        out = tmp_path / "c.csv"
        argv = ["cluster", "--trips", str(path), "--output", str(out), "--k"]
        assert main([*argv, "12"]) == 2
        assert capsys.readouterr().err == (
            "error: k=12 exceeds the 10 distinct start points of 30 trips\n"
        )
        assert not out.exists()
        assert main([*argv, "10"]) == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")][1:]
        assert sorted(int(r.split(",")[-1]) for r in rows) == [3] * 10

    def test_max_size_keeps_small_clusters_sorted(self, tmp_path):
        # 6 trips from one point and 2 from another; k=2 splits them so
        path = tmp_path / "trips.csv"
        self.write_trips(path, [(34.0, -118.0)] * 6 + [(34.05, -118.0)] * 2)
        out = tmp_path / "c.csv"
        argv = ["cluster", "--trips", str(path), "--k", "2", "--output", str(out)]
        assert main([*argv, "--max-size", "2"]) == 0
        lines = out.read_text().splitlines()
        assert "# max_size=2" in lines
        rows = [l.split(",") for l in lines if not l.startswith("#")]
        assert rows[0] == ["cluster_id", "centroid_lat", "centroid_lon", "size"]
        assert [r[1:] for r in rows[1:]] == [["34.050000", "-118.000000", "2"]]
        assert main([*argv, "--max-size", "6"]) == 0
        sizes = [l.split(",")[-1] for l in out.read_text().splitlines()[-2:]]
        assert sizes == ["2", "6"]

    def test_same_seed_byte_identical(self, tmp_path, trips_csv):
        path, n = trips_csv
        outs = []
        for name in ("c1.csv", "c2.csv"):
            out = tmp_path / name
            geo = tmp_path / (name + ".geojson")
            rc = main(
                ["cluster", "--trips", str(path), "--k", "3", "--seed", "9",
                 "--output", str(out), "--geojson", str(geo)]
            )
            assert rc == 0
            outs.append((out.read_bytes(), geo.read_bytes()))
        assert outs[0] == outs[1]


class TestSanitizeCommand:
    def test_requires_exactly_one_epsilon_source(self, tmp_path, synth_archive, capsys):
        # R and the ratio are the only way to set the noise
        out = str(tmp_path / "s.jsonl")
        argv = ["sanitize", "--store", str(synth_archive), "--output", out]
        for extra, error in (
            ([], "the following arguments are required: --radius-km"),
            (["--epsilon", "1.0"], "the following arguments are required: --radius-km"),
            (["--epsilon", "1.0", "--radius-km", "0.25"], "unrecognized arguments: --epsilon 1.0"),
        ):
            assert main(argv + extra) == 2
            assert capsys.readouterr().err == f"error: {error}\n"
        assert not (tmp_path / "s.jsonl").exists()

    def test_radius_ratio_metadata_epsilon(self, tmp_path, synth_archive):
        out = tmp_path / "s.jsonl"
        rc = main(
            ["sanitize", "--store", str(synth_archive), "--output", str(out),
             "--radius-km", "0.25", "--ratio", "6", "--seed", "1"]
        )
        assert rc == 0
        meta = json.loads(out.read_text().splitlines()[0])["_meta"]
        assert meta["epsilon"] == pytest.approx(4 * math.log(6))
        assert meta["seed"] == 1
        assert list(meta)[2:] == ["seed", "epsilon", "radius_km", "ratio"]

    def test_schema_preserved_and_reconstructable(self, tmp_path, synth_archive):
        out = tmp_path / "s.jsonl"
        main(
            ["sanitize", "--store", str(synth_archive), "--output", str(out),
             "--radius-km", "0.36", "--seed", "2"]
        )
        orig = list(SnapshotStore(synth_archive).iter_all())
        noisy = list(SnapshotStore(out).iter_all())
        assert len(orig) == len(noisy)
        for o_snap, n_snap in zip(orig, noisy):
            assert o_snap.captured_at == n_snap.captured_at
            assert o_snap.ids == n_snap.ids
        trips_out = tmp_path / "t.csv"
        assert main(["reconstruct", "--store", str(out), "--output", str(trips_out)]) == 0

    def test_small_epsilon_is_usage_error(self, tmp_path, synth_archive, capsys):
        # below 0.311/km a draw beyond 100 km is too likely; without the
        # check this failed for some seeds and not for others
        out = tmp_path / "s.jsonl"
        argv = ["sanitize", "--store", str(synth_archive), "--output", str(out), "--seed", "1"]
        assert main(argv + ["--radius-km", "18"]) == 2  # epsilon 0.0995/km
        assert "too small" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--radius-km", "5.59"]) == 0  # epsilon 0.3205/km

    def test_failure_midway_leaves_no_output(self, tmp_path, synth_archive, monkeypatch):
        calls = 0
        real = geo_privacy.perturb

        def perturb_then_fail(*args):
            nonlocal calls
            calls += 1
            if calls > 100:
                raise ValueError("injected failure")
            return real(*args)

        monkeypatch.setattr(geo_privacy, "perturb", perturb_then_fail)
        out = tmp_path / "s.jsonl"
        rc = main(["sanitize", "--store", str(synth_archive), "--output", str(out),
                   "--radius-km", "0.36"])
        assert rc == 1 and calls > 100
        assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "fleet.json"]

    def test_output_may_be_the_store(self, tmp_path, synth_archive):
        orig = list(SnapshotStore(synth_archive).iter_all())
        rc = main(["sanitize", "--store", str(synth_archive), "--output", str(synth_archive),
                   "--radius-km", "0.36", "--seed", "2"])
        assert rc == 0
        noisy = list(SnapshotStore(synth_archive).iter_all())
        assert [s.captured_at for s in noisy] == [s.captured_at for s in orig]
        assert noisy != orig
        assert json.loads(synth_archive.read_text().splitlines()[0])["_meta"]["command"] == "sanitize"

    def test_rerun_byte_identical(self, tmp_path, synth_archive):
        files = []
        for name in ("s1.jsonl", "s2.jsonl"):
            out = tmp_path / name
            main(
                ["sanitize", "--store", str(synth_archive), "--output", str(out),
                 "--radius-km", "0.25", "--ratio", "6", "--seed", "5"]
            )
            files.append(out.read_bytes())
        assert files[0] == files[1]

    def test_displacement_cdf_matches_analytic(self, tmp_path):
        arch = tmp_path / "a.jsonl"
        snaps = [
            make_snapshot(
                [(f"s{i}", 34.0, -118.4) for i in range(2000)], captured_at=t
            )
            for t in (0, 60, 120, 180, 240)
        ]
        write_archive(snaps, arch)
        out = tmp_path / "s.jsonl"
        eps = 4 * math.log(6)
        main(
            ["sanitize", "--store", str(arch), "--output", str(out),
             "--radius-km", "0.25", "--ratio", "6", "--seed", "3"]
        )
        d_km = []
        for o_snap, n_snap in zip(snaps, SnapshotStore(out).iter_all()):
            for o, n in zip(o_snap.rows(), n_snap.rows()):
                d_km.append(haversine_distance(o[1:3], n[1:3]) / 1000)
        ks = stats.kstest(np.array(d_km), lambda x: analytic_cdf(eps, x)).statistic
        assert ks < 0.01


class TestEvaluateCommand:
    def test_report_rows_and_r_zero(self, tmp_path, synth_archive):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        out = tmp_path / "report.csv"
        rc = main(
            ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
             "--r-grid", "0:0.2:0.05", "--trials", "3", "--seed", "1",
             "--output", str(out)]
        )
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert len(rows) == 1 + 5
        first = rows[1].split(",")
        assert float(first[0]) == 0.0 and float(first[2]) == 0.0

    @pytest.mark.parametrize(
        "index", ["181", "9999", "-182", str(sys.maxsize), str(-sys.maxsize - 2)]
    )
    def test_snapshot_index_out_of_range_exits_2(self, tmp_path, synth_archive, capsys, index):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        rc = main(
            ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
             "--snapshot-index", index, "--output", str(tmp_path / "r.csv")]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "out of range for 181 snapshots" in err

    def test_first_snapshot_evaluated_before_a_corrupt_third_line(self, tmp_path):
        path = tmp_path / "a.jsonl"
        snaps = [make_snapshot([("a", 34.0, -118.4)], captured_at=t) for t in (1, 2, 3)]
        write_archive(snaps, path)
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:2]) + "{not json\n")
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        argv = ["evaluate", "--store", str(path), "--boundary", str(boundary),
                "--r-grid", "0:0.1:0.05", "--trials", "2", "--output", str(tmp_path / "r.csv")]
        assert main([*argv, "--snapshot-index", "0"]) == 0
        assert main([*argv, "--snapshot-index", "-1"]) == 1

    def test_first_snapshot_read_in_workers_before_a_corrupt_third_line(
        self, tmp_path, monkeypatch
    ):
        force_parallel_read(monkeypatch)
        self.test_first_snapshot_evaluated_before_a_corrupt_third_line(tmp_path)

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_trials_below_one_exits_2(self, tmp_path, synth_archive, capsys, trials):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        rc = main(
            ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
             "--trials", trials, "--output", str(tmp_path / "r.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_missing_region_file_exits_1(self, tmp_path, synth_archive):
        rc = main(
            ["evaluate", "--store", str(synth_archive),
             "--boundary", str(tmp_path / "nope.geojson"),
             "--output", str(tmp_path / "r.csv")]
        )
        assert rc == 1

    @pytest.mark.parametrize(
        "flag,doc",
        [
            ("--boundary", []),
            ("--boundary", {"type": "FeatureCollection", "features": []}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {"type": "Polygon"}}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature",
                                          "geometry": {"type": "Polygon", "coordinates": [3.0]}}]}),
            ("--neighborhoods", {"type": "FeatureCollection", "features": []}),
            ("--boundary", {"type": "FeatureCollection", "features": [1]}),
            ("--boundary", {"type": "FeatureCollection", "features": 5}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "properties": "city",
                                          "geometry": SQUARE}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": [SQUARE]}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {
                                "type": "Polygon",
                                "coordinates": [[[-118.5, 33.9], [-118.3], [-118.3, 34.1],
                                                 [-118.5, 33.9]]]}}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {
                                "type": "Polygon",
                                "coordinates": [["00", "10", "11", "01", "00"]]}}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {
                                "type": "Polygon",
                                "coordinates": [[[0, 0], [True, 0], [True, True], [0, True],
                                                 [0, 0]]]}}]}),
            *(("--neighborhoods", {"type": "FeatureCollection",
                                   "features": [{"type": "Feature", "geometry": {
                                       "type": "Polygon",
                                       "coordinates": [[[0, 0], [1, 0], [1, v], [0, 1],
                                                        [0, 0]]]}}]})
              for v in (float("nan"), float("inf"))),
            ("--neighborhoods", {"type": "FeatureCollection",
                                 "features": [{"type": "Feature", "geometry": {
                                     "type": "Polygon",
                                     "coordinates": [[[0, 0], [1, 0], [0, 0]]]}}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {
                                "type": "Polygon", "coordinates": []}}]}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {
                                "type": "Point", "coordinates": [-118.4, 34.0]}}]}),
            # a str is the file's text, not a JSON document
            ("--boundary", "{not"),
            ("--neighborhoods", "{not"),
            ("--neighborhoods", {"type": "FeatureCollection",
                                 "features": [{"type": "Feature", "properties": {"name": "a"},
                                               "geometry": SQUARE}] * 2}),
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "properties": {"name": "a"},
                                          "geometry": SQUARE}] * 2}),
            # GeoJSON positions are [lon, lat]: the LA box written [lat, lon]
            # has latitudes near -118
            ("--boundary", {"type": "FeatureCollection",
                            "features": [{"type": "Feature", "geometry": {
                                "type": "Polygon",
                                "coordinates": [[p[::-1] for p in SQUARE["coordinates"][0]]]}}]}),
            ("--neighborhoods", {"type": "FeatureCollection",
                                 "features": [{"type": "Feature", "geometry": {
                                     "type": "Polygon",
                                     "coordinates": [[[180, 0], [181, 0], [181, 1], [180, 1],
                                                      [180, 0]]]}}]}),
        ],
        ids=["boundary not an object", "boundary without features",
             "boundary without coordinates", "boundary with malformed coordinates",
             "neighborhoods without features", "feature not an object",
             "features not an array", "properties not an object", "geometry not an object",
             "position with one number", "positions of digit strings", "position with a bool",
             "position NaN", "position Infinity", "ring of three vertices",
             "polygon without rings", "point feature",
             "boundary not JSON", "neighborhoods not JSON", "neighborhoods with a name twice",
             "boundary with a name twice",
             "boundary written [lat, lon]", "neighborhoods at longitude 181"],
    )
    def test_bad_region_file_exits_2(self, tmp_path, capsys, flag, doc):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        bad = tmp_path / "bad.geojson"
        bad.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        regions = {"--boundary": boundary, flag: bad}
        # the region files are checked before the archive, which is missing
        argv = ["evaluate", "--store", str(tmp_path / "missing.jsonl"), "--trials", "2",
                "--output", str(tmp_path / "r.csv")]
        for name, path in regions.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}")
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["--boundary", "--neighborhoods"])
    def test_regions_holding_no_scooter_exit_2(self, tmp_path, synth_archive, capsys, flag):
        # an in-range square over New York, where the LA fleet has no scooter
        boundary, elsewhere = tmp_path / "boundary.geojson", tmp_path / "elsewhere.geojson"
        write_boundary_geojson(boundary)
        write_boundary_geojson(elsewhere, lat0=40.6, lon0=-74.1)
        regions = {"--boundary": boundary, flag: elsewhere}
        argv = ["evaluate", "--store", str(synth_archive), "--trials", "2",
                "--output", str(tmp_path / "r.csv")]
        for name, path in regions.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        n = len(list(SnapshotStore(synth_archive).iter_all())[-1].ids)
        assert capsys.readouterr().err == (
            f"error: {flag} {elsewhere} holds none of the snapshot's {n} scooters\n"
        )
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("flag", ["--boundary", "--neighborhoods"])
    def test_duplicate_region_names_listed(self, tmp_path, synth_archive, capsys, flag):
        # a boundary of five features reports its duplicates, not its count
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        feature = {"type": "Feature", "geometry": SQUARE}
        named = [{**feature, "properties": {"name": n}} for n in ("b", "a", "b", "a", "c")]
        twins = tmp_path / "twins.geojson"
        twins.write_text(json.dumps({"type": "FeatureCollection", "features": named}))
        regions = {"--boundary": boundary, flag: twins}
        argv = ["evaluate", "--store", str(synth_archive), "--trials", "2",
                "--output", str(tmp_path / "r.csv")]
        for name, path in regions.items():
            argv += [name, str(path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {twins}: duplicate region names: 'a', 'b'\n"

    def test_archive_of_only_meta_exits_1(self, tmp_path, synth_archive, capsys):
        path = tmp_path / "meta_only.jsonl"
        path.write_text(synth_archive.read_text().splitlines(keepends=True)[0])
        assert '"_meta"' in path.read_text()
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        rc = main(["evaluate", "--store", str(path), "--boundary", str(boundary),
                   "--trials", "2", "--output", str(tmp_path / "r.csv")])
        assert rc == 1
        assert capsys.readouterr().err == f"error: no snapshots in {path}\n"
        assert not (tmp_path / "r.csv").exists()

    def test_out_of_memory_exits_1(self, tmp_path, synth_archive, capsys, monkeypatch):
        # as numpy fails when --trials asks for more noise than memory holds
        def exhausted(*args):
            raise MemoryError("Unable to allocate 702. GiB")

        monkeypatch.setattr(geo_privacy, "sample_polar_laplace", exhausted)
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        argv = ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
                "--r-grid", "0:0.1:0.05", "--output", str(tmp_path / "r.csv")]
        assert main(argv) == 1
        assert capsys.readouterr().err == "error: Unable to allocate 702. GiB\n"
        assert not (tmp_path / "r.csv").exists()

    def test_boundary_of_two_features_exits_2(self, tmp_path, synth_archive, capsys):
        boundary = tmp_path / "boundary.geojson"
        feature = {"type": "Feature", "geometry": SQUARE}
        boundary.write_text(json.dumps({"type": "FeatureCollection",
                                        "features": [feature, feature]}))
        rc = main(["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
                   "--trials", "2", "--output", str(tmp_path / "r.csv")])
        assert rc == 2
        assert "MultiPolygon" in capsys.readouterr().err
        assert not (tmp_path / "r.csv").exists()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_report_provenance(self, tmp_path, synth_archive, fmt):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        out = tmp_path / f"r.{fmt}"
        rc = main(["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
                   "--r-grid", "0:0.1:0.05", "--trials", "2", "--seed", "4",
                   "--snapshot-index", "3", "--format", fmt, "--output", str(out)])
        assert rc == 0
        if fmt == "csv":
            lines = [l[2:].split("=", 1) for l in out.read_text().splitlines() if l.startswith("#")]
            meta = dict(lines)
            assert [k for k, _ in lines] == REPORT_PROVENANCE
        else:
            meta = json.loads(out.read_text())
            assert list(meta) == REPORT_PROVENANCE + ["rows"]
        assert {k: str(meta[k]) for k in REPORT_PROVENANCE} == {
            "command": "evaluate", "version": cli.__version__, "provider": "",
            "snapshot_index": "3", "r_grid": "0:0.1:0.05", "trials": "2", "ratio": "6.0",
            "seed": "4",
        }

    def test_rerun_byte_identical(self, tmp_path, synth_archive):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        outs = []
        for name in ("r1.csv", "r2.csv"):
            out = tmp_path / name
            main(
                ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
                 "--r-grid", "0:0.1:0.05", "--trials", "2", "--seed", "4",
                 "--output", str(out)]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestEvaluateOneNoisyFleet:
    """evaluate draws and displaces each R's noise once, for the boundary
    and the neighborhoods alike, and its report is pinned: a
    change to the Monte Carlo loop, its RNG stream or the report layout
    fails here."""

    @pytest.fixture
    def argv(self, tmp_path, synth_archive):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        return ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
                "--r-grid", "0:2:1", "--trials", "4", "--seed", "5"]

    @pytest.fixture
    def tiles(self, tmp_path):
        path = tmp_path / "tiles.geojson"
        write_tiles_geojson(path)
        return path

    def test_each_positive_r_draws_and_displaces_once(self, tmp_path, argv, tiles, monkeypatch):
        calls = []
        for name in ("substream", "sample_polar_laplace", "displace"):
            real = getattr(geo_privacy, name)
            monkeypatch.setattr(
                geo_privacy, name, lambda *a, name=name, real=real: calls.append(name) or real(*a)
            )
        out = tmp_path / "r.csv"
        assert main([*argv, "--neighborhoods", str(tiles), "--output", str(out)]) == 0
        assert calls == ["substream", "sample_polar_laplace", "displace"] * 2

    def test_csv_report_with_tiles_pinned(self, tmp_path, argv, tiles):
        out = tmp_path / "r.csv"
        assert main([*argv, "--neighborhoods", str(tiles), "--output", str(out)]) == 0
        assert out.read_text() == (
            f"# command=evaluate\n# version={__version__}\n# provider=\n"
            "# snapshot_index=-1\n# r_grid=0:2:1\n# trials=4\n# ratio=6.0\n# seed=5\n"
            "R_km,epsilon,mean_outside,stderr_outside,mean_abs_error,mean_escapes,"
            "stderr_escapes\n"
            "0.0,0.0,0.0,0.0,0.0,0.0,0.0\n"
            "1.0,1.791759469228055,0.75,0.47871355387816905,0.875,0.625,0.1613743060919757\n"
            "2.0,0.8958797346140275,1.75,0.25,1.1875,0.9375,0.1875\n"
        )

    def test_json_report_without_neighborhoods_pinned(self, tmp_path, argv):
        out = tmp_path / "r.json"
        assert main([*argv, "--format", "json", "--output", str(out)]) == 0
        columns = ["R_km", "epsilon", "mean_outside", "stderr_outside", "mean_abs_error",
                   "mean_escapes", "stderr_escapes"]
        rows = [
            [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
            [1.0, 1.791759469228055, 0.75, 0.47871355387816905, 0.0, 0.0, 0.0],
            [2.0, 0.8958797346140275, 1.75, 0.25, 0.0, 0.0, 0.0],
        ]
        doc = {"command": "evaluate", "version": __version__, "provider": "",
               "snapshot_index": -1, "r_grid": "0:2:1", "trials": 4, "ratio": 6.0, "seed": 5,
               "rows": [dict(zip(columns, row)) for row in rows]}
        assert out.read_text() == json.dumps(doc, indent=2)


class TestMultiProviderArchive:
    @pytest.fixture
    def two_provider_archive(self, tmp_path):
        store = SnapshotStore(tmp_path / "two.jsonl")
        for provider in ("synth", "lime"):
            for i in range(2):
                store.append(
                    make_snapshot(
                        [("a", 34.0, -118.4 + 0.01 * i), ("b", 34.05, -118.35)],
                        captured_at=1_700_000_000 + 60 * i,
                        provider=provider,
                    )
                )
        return store.path

    def reconstruct_argv(self, tmp_path, store):
        return ["reconstruct", "--store", str(store), "--output", str(tmp_path / "t.csv")]

    def evaluate_argv(self, tmp_path, store):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        return ["evaluate", "--store", str(store), "--boundary", str(boundary),
                "--r-grid", "0:0.1:0.05", "--trials", "2", "--output", str(tmp_path / "r.csv")]

    @pytest.mark.parametrize("argv", ["reconstruct_argv", "evaluate_argv"])
    def test_without_provider_exits_2_listing_providers(
        self, tmp_path, two_provider_archive, capsys, argv
    ):
        rc = main(getattr(self, argv)(tmp_path, two_provider_archive))
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "lime, synth" in err

    @pytest.mark.parametrize("argv", ["reconstruct_argv", "evaluate_argv"])
    def test_with_provider_exits_0(self, tmp_path, two_provider_archive, argv):
        assert main(getattr(self, argv)(tmp_path, two_provider_archive) + ["--provider", "lime"]) == 0

    @pytest.mark.parametrize("argv", ["reconstruct_argv", "evaluate_argv"])
    def test_provider_not_in_archive_exits_2_writing_nothing(
        self, tmp_path, two_provider_archive, capsys, argv
    ):
        argv = getattr(self, argv)(tmp_path, two_provider_archive)
        before = sorted(tmp_path.iterdir())
        assert main(argv + ["--provider", "bird"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: --provider bird names no provider of {two_provider_archive}\n"
        assert sorted(tmp_path.iterdir()) == before

    def test_non_string_provider_is_a_corrupt_line(self, tmp_path, two_provider_archive, capsys):
        # a provider is a JSON string: 5 is neither a second provider nor a crash
        lines = two_provider_archive.read_text().splitlines(keepends=True)
        lines[1] = lines[1].replace('"provider":"synth"', '"provider":5')
        two_provider_archive.write_text("".join(lines))
        assert main(self.reconstruct_argv(tmp_path, two_provider_archive)) == 1
        errors = [e for e in capsys.readouterr().err.splitlines() if e.startswith("error:")]
        assert len(errors) == 1 and f"{two_provider_archive}: corrupt line 2: " in errors[0]


class TestStreamingCommands:
    """reconstruct, sanitize and evaluate read the archive as a stream, so
    none holds as much as the archive's snapshots loaded as a list."""

    @pytest.fixture(scope="class")
    def long_archive(self, tmp_path_factory):
        config = synth_fleet.FleetConfig(
            n_scooters=300, area=square_region(lat0=33.9, lon0=-118.5, side_deg=0.2), seed=5,
            trip_rate=0.3, duration_h=2.0,
        )
        snapshots, _ = synth_fleet.generate(config)
        assert len(snapshots) >= 100
        path = tmp_path_factory.mktemp("long") / "a.jsonl"
        write_archive(snapshots, path)
        return path

    @pytest.mark.parametrize("command", [
        ["reconstruct"],
        ["sanitize", "--radius-km", "0.25"],
        ["evaluate", "--r-grid", "0:0.1:0.05", "--trials", "2"],
        ["evaluate", "--r-grid", "0:0.1:0.05", "--trials", "2", "--snapshot-index", "0"],
        ["evaluate", "--r-grid", "0:0.1:0.05", "--trials", "2", "--snapshot-index", "-3"],
    ])
    def test_peak_below_the_archive_held_as_a_list(self, tmp_path, long_archive, command):
        if command[0] == "evaluate":
            write_boundary_geojson(tmp_path / "boundary.geojson")
            command = [*command, "--boundary", str(tmp_path / "boundary.geojson")]
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            snaps = list(feed_ingest.read_snapshots(SnapshotStore(long_archive)))
            held = tracemalloc.get_traced_memory()[0] - base
            del snaps
            gc.collect()
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            rc = main([*command, "--store", str(long_archive), "--output", str(tmp_path / "out")])
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert rc == 0
        assert peak < held


@pytest.mark.parametrize("command", [
    ["reconstruct"],
    ["sanitize", "--radius-km", "0.25"],
    ["evaluate", "--r-grid", "0:0.1:0.05", "--trials", "2", "--snapshot-index", "0"],
    ["evaluate", "--r-grid", "0:0.1:0.05", "--trials", "2", "--snapshot-index", "-3"],
    ["evaluate", "--r-grid", "0:0.15:0.05", "--trials", "3", "--neighborhoods", "{tiles}",
     "--format", "json"],
], ids=" ".join)
def test_read_in_workers_writes_the_same_bytes(tmp_path, synth_archive, monkeypatch, command):
    if command[0] == "evaluate":
        write_boundary_geojson(tmp_path / "boundary.geojson")
        write_tiles_geojson(tmp_path / "tiles.geojson")
        command = [str(tmp_path / "tiles.geojson") if a == "{tiles}" else a for a in command]
        command = [*command, "--boundary", str(tmp_path / "boundary.geojson")]
    command = [*command, "--store", str(synth_archive), "--output"]
    assert main([*command, str(tmp_path / "in-process")]) == 0
    maps = force_parallel_read(monkeypatch)
    # --snapshot-index 0 stops reading at once: no worker may outlive it
    assert main([*command, str(tmp_path / "in-workers")]) == 0
    # an evaluate runs its R grid, the R = 0 row aside, in workers too
    assert maps == ["feed_ingest"] + ["utility_eval"] * (command[0] == "evaluate")
    assert (tmp_path / "in-workers").read_bytes() == (tmp_path / "in-process").read_bytes()


@pytest.mark.parametrize("error", [
    ValueError("no draw"), MemoryError("no room for a draw"), OSError(28, "No space left"),
], ids=lambda e: type(e).__name__)
def test_error_in_an_r_grid_worker_exits_as_in_process(
    tmp_path, synth_archive, monkeypatch, capsys, error
):
    def fail(*args):
        raise error

    monkeypatch.setattr(geo_privacy, "displace", fail)
    write_boundary_geojson(tmp_path / "boundary.geojson")
    argv = ["evaluate", "--r-grid", "0:0.1:0.05", "--trials", "2", "--store", str(synth_archive),
            "--boundary", str(tmp_path / "boundary.geojson"), "--output", str(tmp_path / "r.csv")]
    rc = main(argv)
    in_process = capsys.readouterr().err
    assert rc == 1 and in_process == f"error: {error}\n"
    maps = force_parallel_read(monkeypatch)
    assert main(argv) == rc
    assert capsys.readouterr().err == in_process
    assert maps == ["feed_ingest", "utility_eval"]
    assert not (tmp_path / "r.csv").exists()


def test_import_leaves_http_stack_unloaded():
    # only scrape fetches, so the other commands should not pay for http.client
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scootpriv.cli; "
        "sys.exit('http.client' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_module_entry_point_runs():
    # python -m scootpriv.cli runs main through the module's __main__ guard
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "scootpriv.cli", "--version"],
                          capture_output=True, text=True, timeout=60,
                          env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{__version__}\n"


# nesting deeper than json decodes
DEEP_JSON = b"[" * 100_000 + b"]" * 100_000
# a trips CSV whose one row has a scooter_id over the csv module's field limit
BIG_FIELD_CSV = (",".join(trip_recon.TRIP_CSV_COLUMNS) + "\n"
                 + "x" * 200_000 + ",0,600,34.0,-118.4,34.01,-118.4,1112.0,600\n").encode()
# an archive whose one snapshot has a scooter id that is not UTF-8
NOT_UTF8_ARCHIVE = (b'{"_meta":{"command":"synth"}}\n{"provider":"p","captured_at":1,"ttl_s":60,'
                    b'"bikes":[{"id":"\xff","lat":34.0,"lon":-118.4,"reserved":false,'
                    b'"disabled":false}]}\n')


@pytest.mark.parametrize("argv,content,rc", [
    (["synth", "--config", "{bad}", "--output", "{out}"], DEEP_JSON, 2),
    (["evaluate", "--boundary", "{bad}", "--store", "{out}", "--output", "{out}"], DEEP_JSON, 2),
    (["evaluate", "--boundary", "{boundary}", "--neighborhoods", "{bad}", "--store", "{out}",
      "--output", "{out}"], DEEP_JSON, 2),
    (["evaluate", "--boundary", "{boundary}", "--store", "{bad}", "--output", "{out}"],
     DEEP_JSON, 1),
    (["reconstruct", "--store", "{bad}", "--output", "{out}"], DEEP_JSON, 1),
    (["reconstruct", "--store", "{bad}", "--output", "{out}"], NOT_UTF8_ARCHIVE, 1),
    (["sanitize", "--store", "{bad}", "--radius-km", "0.25", "--output", "{out}"], DEEP_JSON, 1),
    # the archive's tail, read before the first append
    (["scrape", "--url", "http://feed.invalid/", "--provider", "p", "--store", "{bad}",
      "--duration", "60"], DEEP_JSON, 1),
    (["cluster", "--trips", "{bad}", "--k", "1", "--output", "{out}"], BIG_FIELD_CSV, 1),
], ids=["synth config", "evaluate boundary", "evaluate neighborhoods", "evaluate archive",
        "reconstruct archive", "reconstruct archive not UTF-8", "sanitize archive",
        "scrape archive tail", "cluster trips"])
def test_malformed_input_exits_with_one_error_line_naming_the_file(
    tmp_path, capsys, monkeypatch, argv, content, rc
):
    # each file kind's exit code: 2 for a config or region file, 1 for data
    bad, out, boundary = tmp_path / "bad", tmp_path / "out", tmp_path / "boundary.geojson"
    bad.write_bytes(content)
    write_boundary_geojson(boundary)
    monkeypatch.setattr(feed_ingest, "_fetch_with_retry",
                        lambda *args: make_feed_doc([("a", 34.0, -118.4)]))
    monkeypatch.setattr(cli, "poll_feed", functools.partial(feed_ingest.poll_feed,
                                                            clock=FakeClock()))
    paths = {"{bad}": str(bad), "{out}": str(out), "{boundary}": str(boundary)}
    assert main([paths.get(a, a) for a in argv]) == rc
    err = capsys.readouterr().err
    assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1
    assert not out.exists() and bad.read_bytes() == content


class _OneShotHandler(BaseHTTPRequestHandler):
    body = make_feed_doc([("a", 34.0, -118.4)], last_updated=500)

    def do_GET(self):
        self.send_response(200)
        self.end_headers()
        self.wfile.write(type(self).body)

    def log_message(self, *args):
        pass


class TestScrapeCommand:
    def test_duration_zero_empty_archive(self, tmp_path):
        arch = tmp_path / "a.jsonl"
        arch.write_text("")
        rc = main(
            ["scrape", "--url", "http://127.0.0.1:9/feed", "--provider", "p",
             "--store", str(arch), "--duration", "0"]
        )
        assert rc == 0
        assert arch.read_text() == ""

    def test_bad_url_exits_2(self, tmp_path):
        rc = main(
            ["scrape", "--url", "not-a-url", "--provider", "p",
             "--store", str(tmp_path / "a.jsonl"), "--duration", "1"]
        )
        assert rc == 2

    def test_stub_server_yields_snapshot(self, tmp_path, monkeypatch, capsys):
        # polls at 0 s and 1 s of virtual time, both fetched from the server
        monkeypatch.setattr(cli, "poll_feed", functools.partial(feed_ingest.poll_feed,
                                                                clock=FakeClock()))
        server = ThreadingHTTPServer(("127.0.0.1", 0), _OneShotHandler)
        threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True).start()
        try:
            arch = tmp_path / "a.jsonl"
            rc = main(
                ["scrape", "--url", f"http://127.0.0.1:{server.server_port}/feed",
                 "--provider", "p", "--store", str(arch),
                 "--interval", "1", "--duration", "1.3"]
            )
            assert rc == 0
            assert capsys.readouterr().out == (
                "stored 1 snapshots, 0 fetch failures, 0 parse errors, 1 skipped as not newer\n"
            )
            snaps = list(SnapshotStore(arch).iter_all())
            assert len(snaps) == 1  # identical last_updated deduplicated
            assert snaps[0].captured_at == 500
        finally:
            server.shutdown()
            server.server_close()


class TestEvaluateGeojsonDump:
    def test_dump_has_one_feature_per_scooter(self, tmp_path, synth_archive):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        dump = tmp_path / "dump.geojson"
        rc = main(
            ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
             "--r-grid", "0:0.1:0.05", "--trials", "2", "--seed", "1",
             "--output", str(tmp_path / "r.csv"), "--dump-geojson", str(dump)]
        )
        assert rc == 0
        doc = json.loads(dump.read_text())
        snaps = list(SnapshotStore(synth_archive).iter_all())
        assert len(doc["features"]) == len(snaps[-1].ids)


class _FullDisk:
    """A text file whose writes fail with ENOSPC once `room` characters
    are written, the last write landing in part."""

    def __init__(self, f, room):
        self._f, self._room = f, room

    def write(self, s):
        if len(s) > self._room:
            self._f.write(s[: self._room])
            self._room = 0
            raise OSError(errno.ENOSPC, "No space left on device")
        self._room -= len(s)
        return self._f.write(s)

    def __getattr__(self, name):
        return getattr(self._f, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._f.close()


class TestAtomicOutputs:
    """Every output goes to a temporary file that replaces the target
    only once complete, so a failure midway keeps the old output."""

    @pytest.fixture
    def inputs(self, tmp_path, synth_archive, synth_config):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        trips = tmp_path / "in_trips.csv"
        assert main(["reconstruct", "--store", str(synth_archive), "--output", str(trips)]) == 0
        evaluate = ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
                    "--r-grid", "0:0.1:0.05", "--trials", "2"]
        return {
            "trip_recon": ["reconstruct", "--store", str(synth_archive),
                           "--output", "{out}"],
            "clustering.csv": ["cluster", "--trips", str(trips), "--k", "2", "--output", "{out}"],
            "clustering.geojson": ["cluster", "--trips", str(trips), "--k", "2",
                                   "--output", str(tmp_path / "c.csv"), "--geojson", "{out}"],
            "synth_fleet": ["synth", "--config", str(synth_config),
                            "--output", str(tmp_path / "a2.jsonl"), "--ground-truth", "{out}"],
            "utility_eval.csv": evaluate + ["--output", "{out}"],
            "utility_eval.json": evaluate + ["--format", "json", "--output", "{out}"],
            "cli": evaluate + ["--output", str(tmp_path / "r.csv"), "--dump-geojson", "{out}"],
        }

    @pytest.mark.parametrize("writer", [
        "trip_recon", "clustering.csv", "clustering.geojson", "synth_fleet",
        "utility_eval.csv", "utility_eval.json", "cli",
    ])
    def test_full_disk_midway_keeps_old_output(self, tmp_path, inputs, monkeypatch, writer):
        # every output file is opened for writing in feed_ingest, nowhere else
        out = tmp_path / "out.txt"
        out.write_text("old\n")
        real_open = builtins.open

        def open_on_full_disk(file, mode="r", *args, **kwargs):
            f = real_open(file, mode, *args, **kwargs)
            # the target, or its temporary file beside it
            return _FullDisk(f, 40) if "w" in mode and out.name in str(file) else f

        monkeypatch.setattr(feed_ingest, "open", open_on_full_disk, raising=False)
        argv = [str(out) if a == "{out}" else a for a in inputs[writer]]
        assert main(argv) == 1
        assert out.read_text() == "old\n"
        assert list(tmp_path.glob(".*.tmp")) == []

    @pytest.mark.parametrize("writer", [
        "trip_recon", "clustering.csv", "clustering.geojson", "synth_fleet",
        "utility_eval.csv", "utility_eval.json", "cli",
    ])
    def test_missing_directory_names_the_output(self, tmp_path, inputs, capsys, writer):
        # the error names the path given, not the temporary file beside it
        out = tmp_path / "missing" / "out.txt"
        argv = [str(out) if a == "{out}" else a for a in inputs[writer]]
        capsys.readouterr()
        assert main(argv) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert list(tmp_path.rglob(".*.tmp")) == []

    @pytest.mark.parametrize("writer", ["clustering.geojson", "synth_fleet", "cli"])
    def test_second_output_failing_keeps_the_first(self, tmp_path, inputs, capsys, writer):
        # --output is written before the second output fails; neither replaces its file
        argv = inputs[writer]
        first = Path(argv[argv.index("--output") + 1])
        first.write_bytes(b"old\n")
        out = tmp_path / "missing" / "out.txt"
        capsys.readouterr()
        assert main([str(out) if a == "{out}" else a for a in argv]) == 1
        assert capsys.readouterr().err == f"error: [Errno 2] No such file or directory: '{out}'\n"
        assert first.read_bytes() == b"old\n"
        assert list(tmp_path.rglob(".*.tmp")) == []
