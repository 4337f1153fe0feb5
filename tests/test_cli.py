import json
import math
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from scootpriv import geo_privacy
from scootpriv.cli import main, parse_r_grid
from scootpriv.feed_ingest import SnapshotStore, write_archive
from scootpriv.geo_privacy import analytic_cdf
from scootpriv.trip_recon import haversine_distance, read_trips_csv

from conftest import make_feed_doc, make_snapshot

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


class TestGridFlag:
    def test_paper_grid_has_21_points(self):
        grid = parse_r_grid("0:1:0.05")
        assert len(grid) == 21
        assert grid[0] == 0.0 and grid[-1] == 1.0

    def test_inclusive_ends(self):
        assert parse_r_grid("0.1:0.3:0.1") == [0.1, 0.2, 0.3]

    def test_bad_specs(self):
        from scootpriv.cli import UsageError

        for bad in ("1:0:0.1", "0:1:-1", "abc", "0:1", "-0.5:0.5:0.5"):
            with pytest.raises(UsageError):
                parse_r_grid(bad)


@pytest.mark.parametrize(
    "argv",
    [
        ["reconstruct", "--min-distance-m", "-1"],
        ["reconstruct", "--max-duration-s", "0"],
        ["reconstruct", "--min-move-m", "-1"],
        ["cluster", "--max-size", "0"],
        ["cluster", "--k", "0"],
        ["sanitize", "--radius-km", "0"],
        ["sanitize", "--radius-km", "0.25", "--ratio", "1"],
        ["sanitize", "--epsilon", "0.1"],
        ["sanitize", "--radius-km", "6"],
        ["evaluate", "--ratio", "1"],
        ["evaluate", "--r-grid", "0:60:20"],
        ["evaluate", "--dump-radius-km", "-1", "--dump-geojson", "d.geojson"],
    ],
    ids=lambda argv: " ".join(argv),
)
def test_flag_range_error_exits_2_before_reading_input(tmp_path, capsys, argv):
    # the input does not exist, so reading it first would exit 1
    missing = str(tmp_path / "missing")
    inputs = {
        "reconstruct": ["--store", missing],
        "cluster": ["--trips", missing],
        "sanitize": ["--store", missing],
        "evaluate": ["--store", missing, "--boundary", missing],
    }
    out = tmp_path / "out"
    rc = main(argv[:1] + inputs[argv[0]] + ["--output", str(out)] + argv[1:])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not out.exists()


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

    def test_invalid_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_scooters": 0}))
        assert main(["synth", "--config", str(bad), "--output", str(tmp_path / "o")]) == 2

    def test_rerun_byte_identical(self, tmp_path, synth_config):
        out1, out2 = tmp_path / "a1.jsonl", tmp_path / "a2.jsonl"
        main(["synth", "--config", str(synth_config), "--output", str(out1)])
        main(["synth", "--config", str(synth_config), "--output", str(out2)])
        assert out1.read_bytes() == out2.read_bytes()


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

    def test_missing_archive_exits_1(self, tmp_path):
        rc = main(
            ["reconstruct", "--store", str(tmp_path / "nope.jsonl"),
             "--output", str(tmp_path / "t.csv")]
        )
        assert rc == 1

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
    def test_requires_exactly_one_epsilon_source(self, tmp_path, synth_archive):
        out = str(tmp_path / "s.jsonl")
        assert main(["sanitize", "--store", str(synth_archive), "--output", out]) == 2
        assert (
            main(
                ["sanitize", "--store", str(synth_archive), "--output", out,
                 "--epsilon", "1.0", "--radius-km", "0.25"]
            )
            == 2
        )

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

    def test_schema_preserved_and_reconstructable(self, tmp_path, synth_archive):
        out = tmp_path / "s.jsonl"
        main(
            ["sanitize", "--store", str(synth_archive), "--output", str(out),
             "--epsilon", "5.0", "--seed", "2"]
        )
        orig = list(SnapshotStore(synth_archive).iter_all())
        noisy = list(SnapshotStore(out).iter_all())
        assert len(orig) == len(noisy)
        for o_snap, n_snap in zip(orig, noisy):
            assert o_snap.captured_at == n_snap.captured_at
            assert [o.scooter_id for o in o_snap.observations] == [
                o.scooter_id for o in n_snap.observations
            ]
        trips_out = tmp_path / "t.csv"
        assert main(["reconstruct", "--store", str(out), "--output", str(trips_out)]) == 0

    def test_small_epsilon_is_usage_error(self, tmp_path, synth_archive, capsys):
        # below 0.311/km a draw beyond 100 km is too likely; without the
        # check this failed for some seeds and not for others
        out = tmp_path / "s.jsonl"
        argv = ["sanitize", "--store", str(synth_archive), "--output", str(out), "--seed", "1"]
        assert main(argv + ["--epsilon", "0.1"]) == 2
        assert "too small" in capsys.readouterr().err
        assert not out.exists()
        assert main(argv + ["--epsilon", "0.32"]) == 0

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
                   "--epsilon", "5.0"])
        assert rc == 1 and calls > 100
        assert sorted(p.name for p in tmp_path.iterdir()) == ["archive.jsonl", "fleet.json"]

    def test_output_may_be_the_store(self, tmp_path, synth_archive):
        orig = list(SnapshotStore(synth_archive).iter_all())
        rc = main(["sanitize", "--store", str(synth_archive), "--output", str(synth_archive),
                   "--epsilon", "5.0", "--seed", "2"])
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
             "--epsilon", str(eps), "--seed", "3"]
        )
        d_km = []
        for o_snap, n_snap in zip(snaps, SnapshotStore(out).iter_all()):
            for o, n in zip(o_snap.observations, n_snap.observations):
                d_km.append(haversine_distance((o.lat, o.lon), (n.lat, n.lon)) / 1000)
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

    @pytest.mark.parametrize("index", ["181", "9999", "-182"])
    def test_snapshot_index_out_of_range_exits_2(self, tmp_path, synth_archive, capsys, index):
        boundary = tmp_path / "boundary.geojson"
        write_boundary_geojson(boundary)
        rc = main(
            ["evaluate", "--store", str(synth_archive), "--boundary", str(boundary),
             "--snapshot-index", index, "--output", str(tmp_path / "r.csv")]
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

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


def test_import_leaves_http_stack_unloaded():
    # only scrape fetches, so the other commands should not pay for http.client
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import scootpriv.cli; "
        "sys.exit('http.client' in sys.modules)"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(SRC)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


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

    def test_stub_server_yields_snapshot(self, tmp_path):
        server = ThreadingHTTPServer(("127.0.0.1", 0), _OneShotHandler)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            arch = tmp_path / "a.jsonl"
            rc = main(
                ["scrape", "--url", f"http://127.0.0.1:{server.server_port}/feed",
                 "--provider", "p", "--store", str(arch),
                 "--interval", "0.05", "--duration", "0.2"]
            )
            assert rc == 0
            snaps = list(SnapshotStore(arch).iter_all())
            assert len(snaps) == 1  # identical last_updated deduplicated
            assert snaps[0].captured_at == 500
        finally:
            server.shutdown()


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
        assert len(doc["features"]) == len(snaps[-1].observations)
