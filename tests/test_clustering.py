import itertools
import math

import numpy as np
import pytest

from scootpriv import clustering
from scootpriv.clustering import (
    Cluster,
    kmeans,
    kmeans_planar,
    project_local,
    select_small_clusters,
    unproject_local,
)

LA = (34.05, -118.25)


def brute_force_two_partition(xy):
    """Minimum-inertia split of points into two non-empty clusters, by
    exhaustive enumeration. Independent of the k-means implementation."""
    xy = np.asarray(xy, float)
    n = len(xy)
    best, best_inertia = None, math.inf
    for size in range(1, n // 2 + 1):
        for subset in itertools.combinations(range(n), size):
            a = np.array(subset)
            b = np.array([i for i in range(n) if i not in subset])
            inertia = sum(
                float(((xy[idx] - xy[idx].mean(axis=0)) ** 2).sum()) for idx in (a, b)
            )
            if inertia < best_inertia:
                best_inertia = inertia
                best = (frozenset(subset), frozenset(b.tolist()))
    return best, best_inertia


class TestProjection:
    def test_origin_maps_to_zero(self):
        xy = project_local([LA], LA)
        assert xy[0] == pytest.approx((0.0, 0.0), abs=1e-12)

    def test_001_degree_north(self):
        pt = (LA[0] + 0.01, LA[1])
        xy = project_local([pt], LA)
        # 0.01 deg * pi/180 * 6378.1 km
        assert xy[0][1] == pytest.approx(0.01 * math.pi / 180 * 6378.1, abs=1e-9)
        assert xy[0][0] == pytest.approx(0.0, abs=1e-12)

    def test_round_trip_identity(self):
        pts = [(34.02019, -118.27633), (34.1, -118.3), (33.95, -118.1)]
        back = unproject_local(project_local(pts, LA), LA)
        for orig, rt in zip(pts, back):
            assert rt[0] == pytest.approx(orig[0], abs=1e-9)
            assert rt[1] == pytest.approx(orig[1], abs=1e-9)

    def test_far_point_warns(self):
        with pytest.warns(UserWarning):
            project_local([(36.0, -118.25)], LA)


class TestKmeans:
    def test_k_equals_n_all_singletons(self):
        pts = [(34.0 + 0.01 * i, -118.2 + 0.01 * i) for i in range(5)]
        clusters = kmeans(pts, k=5, seed=0)
        assert sorted(c.size for c in clusters) == [1] * 5

    def test_k_one_centroid_is_mean(self):
        pts = [(34.0, -118.2), (34.02, -118.22), (34.04, -118.18)]
        (c,) = kmeans(pts, k=1, seed=0)
        assert c.centroid[0] == pytest.approx(np.mean([p[0] for p in pts]), abs=1e-6)
        assert c.centroid[1] == pytest.approx(np.mean([p[1] for p in pts]), abs=1e-6)
        assert c.size == 3

    @pytest.mark.parametrize("seed", [0, 1, 42, 2024])
    def test_two_pairs_any_seed(self, seed):
        pts = [
            (34.00, -118.20),
            (34.001, -118.201),
            (34.10, -118.30),
            (34.101, -118.301),
        ]
        clusters = kmeans(pts, k=2, seed=seed)
        parts = {frozenset(c.member_indices) for c in clusters}
        xy = project_local(pts, LA)
        (best_a, best_b), _ = brute_force_two_partition(xy)
        assert parts == {best_a, best_b}

    def test_never_beats_brute_force_optimum(self):
        # Lloyd's is a local optimizer: it may land above the global
        # optimum on unstructured data, never below it
        rng = np.random.default_rng(7)
        xy = rng.uniform(-5, 5, size=(8, 2))
        _, best_inertia = brute_force_two_partition(xy)
        for seed in range(5):
            _, _, inertia = kmeans_planar(xy, k=2, seed=seed)
            assert inertia >= best_inertia - 1e-9

    def test_sizes_sum_to_input(self):
        rng = np.random.default_rng(1)
        pts = [(34.0 + dlat, -118.2 + dlon) for dlat, dlon in rng.uniform(-0.05, 0.05, (40, 2))]
        clusters = kmeans(pts, k=7, seed=5)
        assert sum(c.size for c in clusters) == 40
        all_members = [i for c in clusters for i in c.member_indices]
        assert sorted(all_members) == list(range(40))

    def test_points_assigned_to_nearest_centroid(self):
        rng = np.random.default_rng(2)
        xy = rng.uniform(-5, 5, size=(50, 2))
        labels, centroids, _ = kmeans_planar(xy, k=4, seed=0)
        d2 = np.sum((xy[:, None, :] - centroids[None, :, :]) ** 2, axis=2)
        assert np.array_equal(labels, np.argmin(d2, axis=1))

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        pts = [(34.0 + dlat, -118.2 + dlon) for dlat, dlon in rng.uniform(-0.05, 0.05, (30, 2))]
        assert kmeans(pts, k=5, seed=11) == kmeans(pts, k=5, seed=11)

    def test_k_out_of_range(self):
        pts = [(34.0, -118.2), (34.1, -118.3)]
        with pytest.raises(ValueError):
            kmeans(pts, k=3, seed=0)
        with pytest.raises(ValueError):
            kmeans(pts, k=0, seed=0)

    def test_empty_input(self):
        with pytest.raises(ValueError):
            kmeans([], k=1, seed=0)


def test_inertia_increase_raises(monkeypatch):
    # Lloyd's steps never raise the inertia, so fake a rising one; the
    # check must hold under python -O too, where an assert would vanish
    real_assign = clustering._assign
    calls = 0

    def rising_inertia(xy, centroids):
        nonlocal calls
        calls += 1
        labels, inertia = real_assign(xy, centroids)
        return labels, inertia + 1e3 * calls

    monkeypatch.setattr(clustering, "_assign", rising_inertia)
    xy = np.random.default_rng(0).uniform(0, 1, (30, 2))
    with pytest.raises(RuntimeError, match="inertia increased"):
        kmeans_planar(xy, k=3, seed=0)


def test_empty_cluster_reseeded_at_farthest_point(monkeypatch):
    # a seed centroid far from every point owns none of them; it moves to
    # the point farthest from its own centroid, which then owns it
    xy = np.array([[0.0, 0.0], [0.1, 0.0], [1.0, 0.0], [1.1, 0.0], [5.0, 0.0]])
    seeds = np.array([[0.0, 0.0], [1.0, 0.0], [100.0, 100.0]])
    monkeypatch.setattr(clustering, "_kmeans_pp_init", lambda xy, k, rng: seeds.copy())
    labels, centroids, inertia = kmeans_planar(xy, k=3, seed=0)
    assert labels.tolist() == [0, 0, 1, 1, 2]
    assert centroids[2].tolist() == [5.0, 0.0]
    assert inertia == pytest.approx(4 * 0.05**2)


class TestHistogramAndSelection:
    def make_cluster(self, cid, size):
        return Cluster(id=cid, centroid=(34.0, -118.2), member_indices=tuple(range(size)))

    def test_select_none_below_threshold(self):
        clusters = [self.make_cluster(0, 20), self.make_cluster(1, 30)]
        assert select_small_clusters(clusters, 10) == []

    def test_select_sorted_by_size_then_id(self):
        clusters = [
            self.make_cluster(0, 8),
            self.make_cluster(1, 3),
            self.make_cluster(2, 40),
        ]
        small = select_small_clusters(clusters, 10)
        assert [(c.id, c.size) for c in small] == [(1, 3), (0, 8)]

    def test_max_size_below_one_rejected(self):
        with pytest.raises(ValueError):
            select_small_clusters([], 0)
