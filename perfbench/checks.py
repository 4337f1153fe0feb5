"""Output checks for the benchmark workloads.

The checks read the CLI's output files with plain ``csv``/``json``, not
with scootpriv's own readers, so a reader bug cannot hide a writer bug.
"""

from __future__ import annotations

import csv
import itertools
import json
import math

import numpy as np

from scootpriv.geo_privacy import analytic_cdf
from scootpriv.trip_recon import EARTH_RADIUS_KM

# Kolmogorov critical value at alpha = 1e-6: sqrt(-ln(alpha / 2) / 2). The
# check runs on every benchmark seed, so a false alarm must be rare.
KS_CRITICAL = math.sqrt(-math.log(0.5e-6) / 2.0)

TRIP_MIN_DISTANCE_M = 100.0
TRIP_MAX_DURATION_S = 3600


def _csv_rows(path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(line for line in f if not line.startswith("#")))


def _archive_records(path):
    """Yield (meta or None, snapshot record or None) per archive line."""
    with open(path, encoding="utf-8") as f:
        for line in f:
            if line.strip():
                rec = json.loads(line)
                if "_meta" in rec:
                    yield rec["_meta"], None
                else:
                    yield None, rec


def archive_stats(path) -> dict:
    """Snapshot count, total observations and size of the last snapshot."""
    snapshots = observations = last = 0
    for _, rec in _archive_records(path):
        if rec is not None:
            snapshots += 1
            last = len(rec["bikes"])
            observations += last
    return {"snapshots": snapshots, "observations": observations, "last_snapshot": last}


def check_attack(truth_csv, trips_csv, clusters_csv, interval_s: int, k: int) -> dict:
    """Kept trips must equal the real trips a perfect filter keeps, and the
    clusters must partition the kept trips into k groups."""
    want = {
        (r["scooter_id"], int(r["start_time"]), int(r["end_time"]))
        for r in _csv_rows(truth_csv)
        if r["is_fake"] == "0"
        and float(r["distance_m"]) >= TRIP_MIN_DISTANCE_M
        and interval_s < int(r["duration_s"]) <= TRIP_MAX_DURATION_S
    }
    got = {(r["scooter_id"], int(r["start_time"]), int(r["end_time"]))
           for r in _csv_rows(trips_csv)}
    hits = len(got & want)
    clusters = _csv_rows(clusters_csv)
    sizes = [int(r["size"]) for r in clusters]
    return {
        "reconstruct_ok": bool(want) and got == want,
        "cluster_ok": len(clusters) == k and min(sizes, default=0) >= 1
        and sum(sizes) == len(got),
        "trip_recall": hits / len(want) if want else 0.0,
        "trip_precision": hits / len(got) if got else 0.0,
        "true_trips": len(want),
    }


def _great_circle_km(lat1, lon1, lat2, lon2) -> np.ndarray:
    p1, p2 = np.radians(lat1), np.radians(lat2)
    dlat, dlon = p2 - p1, np.radians(lon2) - np.radians(lon1)
    h = np.sin(dlat / 2) ** 2 + np.cos(p1) * np.cos(p2) * np.sin(dlon / 2) ** 2
    return 2 * EARTH_RADIUS_KM * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))


def ks_statistic(displacements_km: np.ndarray, epsilon: float) -> float:
    d = np.sort(displacements_km)
    n = len(d)
    cdf = analytic_cdf(epsilon, d)
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - cdf), np.max(cdf - (i - 1) / n)))


def _snapshot_records(path):
    return (rec for _, rec in _archive_records(path) if rec is not None)


def check_publish(input_archive, output_archive) -> dict:
    """Same snapshots, ids and timestamps; displacements follow the planar
    Laplace radial law at the epsilon recorded in the output's header.

    Both archives are streamed a line at a time, so the check adds little
    to the process's peak memory.
    """
    epsilon = next((meta.get("epsilon") for meta, _ in _archive_records(output_archive)
                    if meta is not None), None)
    if not epsilon:
        return {"ok": False, "reason": "no epsilon in the output header"}
    inp, out = _snapshot_records(input_archive), _snapshot_records(output_archive)
    distances = []
    for a, b in itertools.zip_longest(inp, out):
        if a is None or b is None or a["captured_at"] != b["captured_at"]:
            return {"ok": False, "reason": "snapshot count or timestamp mismatch"}
        if [x["id"] for x in a["bikes"]] != [x["id"] for x in b["bikes"]]:
            return {"ok": False, "reason": f"ids differ at {a['captured_at']}"}
        c = np.array([(x["lat"], x["lon"], y["lat"], y["lon"])
                      for x, y in zip(a["bikes"], b["bikes"])], dtype=float).reshape(-1, 4)
        distances.append(_great_circle_km(c[:, 0], c[:, 1], c[:, 2], c[:, 3]))
    d = np.concatenate(distances)
    ks = ks_statistic(d, float(epsilon))
    critical = KS_CRITICAL / math.sqrt(len(d))
    return {"ok": ks <= critical, "ks": ks, "ks_critical": critical,
            "reason": "" if ks <= critical else "displacements fail KS"}


def check_sweep(report_csv, r_grid: list[float]) -> dict:
    """One row per R; the R=0 row is all zeros; losses never fall by more
    than two standard errors of the difference between adjacent R."""
    rows = [{k: float(v) for k, v in r.items()} for r in _csv_rows(report_csv)]
    if [r["R_km"] for r in rows] != r_grid:
        return {"ok": False, "reason": f"R grid mismatch: {len(rows)} rows"}
    if any(v != 0.0 for v in rows[0].values()):
        return {"ok": False, "reason": "R=0 row is not all zeros"}
    for mean, se in (("mean_outside", "stderr_outside"), ("mean_escapes", "stderr_escapes")):
        for a, b in zip(rows, rows[1:]):
            if b[mean] < a[mean] - 2.0 * math.hypot(a[se], b[se]):
                return {"ok": False, "reason": f"{mean} falls between R={a['R_km']} and {b['R_km']}"}
    return {"ok": True, "reason": ""}
