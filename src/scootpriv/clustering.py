"""Hotspot detection: seeded k-means over trip endpoints.

Clustering runs in a local equirectangular projection (km east/north of
an origin) so Euclidean distances are meaningful at city scale; raw
degrees would stretch longitude relative to latitude away from the
equator.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .feed_ingest import points_geojson, write_csv, write_json
from .trip_recon import EARTH_RADIUS_KM

DEG = math.pi / 180.0

MAX_ITER = 100
CONVERGENCE_SHIFT_KM = 1e-6
# beyond this the flat projection distorts noticeably
PROJECTION_LIMIT_KM = 100.0

DEFAULT_K = 100


def project_local(
    points: list[tuple[float, float]], origin: tuple[float, float]
) -> np.ndarray:
    """Project (lat, lon) degrees to km east/north of origin.

    Returns an (n, 2) array of (x, y) in km. Warns if any point is
    further than ~100 km from the origin.
    """
    lat0, lon0 = origin
    arr = np.asarray(points, dtype=float).reshape(-1, 2)
    x = (arr[:, 1] - lon0) * math.cos(lat0 * DEG) * DEG * EARTH_RADIUS_KM
    y = (arr[:, 0] - lat0) * DEG * EARTH_RADIUS_KM
    xy = np.column_stack([x, y])
    if xy.size and np.max(np.hypot(x, y)) > PROJECTION_LIMIT_KM:
        warnings.warn("points further than 100 km from origin; projection distorted")
    return xy


def unproject_local(xy: np.ndarray, origin: tuple[float, float]) -> list[tuple[float, float]]:
    """Inverse of project_local; round-trips within 1e-9 degrees."""
    lat0, lon0 = origin
    xy = np.asarray(xy, dtype=float).reshape(-1, 2)
    lat = lat0 + xy[:, 1] / (DEG * EARTH_RADIUS_KM)
    lon = lon0 + xy[:, 0] / (DEG * EARTH_RADIUS_KM * math.cos(lat0 * DEG))
    return [(float(a), float(b)) for a, b in zip(lat, lon)]


@dataclass(frozen=True)
class Cluster:
    id: int
    centroid: tuple[float, float]  # (lat, lon) degrees
    member_indices: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.member_indices)


def _kmeans_pp_init(xy: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeding: spread initial centroids proportional to
    squared distance from the ones already chosen."""
    n = len(xy)
    centroids = np.empty((k, 2))
    centroids[0] = xy[rng.integers(n)]
    d2 = np.sum((xy - centroids[0]) ** 2, axis=1)
    for j in range(1, k):
        total = d2.sum()
        if total <= 0:
            centroids[j] = xy[rng.integers(n)]
        else:
            centroids[j] = xy[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((xy - centroids[j]) ** 2, axis=1))
    return centroids


def _assign(xy: np.ndarray, centroids: np.ndarray) -> tuple[np.ndarray, float]:
    # (n, k) squared distances without an (n, k, 2) temporary; the same
    # bits as summing the squared differences over their last axis
    dx = xy[:, 0, None] - centroids[:, 0]
    dy = xy[:, 1, None] - centroids[:, 1]
    d2 = dx * dx + dy * dy
    labels = np.argmin(d2, axis=1)
    inertia = float(d2[np.arange(len(xy)), labels].sum())
    return labels, inertia


def kmeans_planar(
    xy: np.ndarray, k: int, seed: int
) -> tuple[np.ndarray, np.ndarray, float]:
    """Lloyd's algorithm with seeded k-means++ init on projected points.

    Deterministic given (points order, k, seed). Returns (labels,
    centroids, inertia). Empty clusters are repaired by reseeding the
    centroid at the point currently farthest from its own centroid.
    Neither step can raise the inertia, so an increase between
    iterations raises RuntimeError.
    """
    xy = np.asarray(xy, dtype=float)
    n = len(xy)
    if n == 0:
        raise ValueError("empty input")
    if not 1 <= k <= n:
        raise ValueError(f"k={k} out of range [1, {n}]")
    rng = np.random.default_rng(seed)
    centroids = _kmeans_pp_init(xy, k, rng)
    labels, inertia = _assign(xy, centroids)
    for _ in range(MAX_ITER):
        new_centroids = centroids.copy()
        for j in range(k):
            members = xy[labels == j]
            if len(members):
                new_centroids[j] = members.mean(axis=0)
            else:
                dist_to_own = np.sum((xy - centroids[labels]) ** 2, axis=1)
                new_centroids[j] = xy[int(np.argmax(dist_to_own))]
        shift = float(np.max(np.hypot(*(new_centroids - centroids).T)))
        centroids = new_centroids
        labels, new_inertia = _assign(xy, centroids)
        if new_inertia > inertia + 1e-9:
            raise RuntimeError(f"k-means inertia increased from {inertia} to {new_inertia}")
        inertia = new_inertia
        if shift < CONVERGENCE_SHIFT_KM:
            break
    return labels, centroids, inertia


def kmeans(
    points: list[tuple[float, float]], k: int, seed: int
) -> list[Cluster]:
    """Cluster (lat, lon) locations; returns clusters with geographic
    centroids. Origin for the projection is the coordinate mean."""
    if not points:
        raise ValueError("empty input")
    arr = np.asarray(points, dtype=float)
    origin = (float(arr[:, 0].mean()), float(arr[:, 1].mean()))
    xy = project_local(points, origin)
    labels, centroids, _ = kmeans_planar(xy, k, seed)
    geo_centroids = unproject_local(centroids, origin)
    clusters = []
    for j in range(k):
        members = tuple(int(i) for i in np.flatnonzero(labels == j))
        clusters.append(Cluster(id=j, centroid=geo_centroids[j], member_indices=members))
    return clusters


def select_small_clusters(clusters: list[Cluster], max_size: int) -> list[Cluster]:
    """Clusters of at most max_size trips, the privacy-sensitive ones,
    sorted ascending by size then id."""
    if max_size < 1:
        raise ValueError("max_size must be >= 1")
    small = [c for c in clusters if c.size <= max_size]
    return sorted(small, key=lambda c: (c.size, c.id))


def write_clusters_csv(clusters: list[Cluster], path: str | Path, meta: dict | None = None) -> None:
    rows = ([c.id, f"{c.centroid[0]:.6f}", f"{c.centroid[1]:.6f}", c.size] for c in clusters)
    write_csv(path, ["cluster_id", "centroid_lat", "centroid_lon", "size"], rows, meta)


def write_clusters_geojson(clusters: list[Cluster], path: str | Path) -> None:
    write_json(path, points_geojson(
        (round(c.centroid[0], 6), round(c.centroid[1], 6), {"cluster_id": c.id, "size": c.size})
        for c in clusters
    ))
