import math

import numpy as np
import pytest
from scipy import integrate, optimize, stats

from scootpriv.geo_privacy import (
    analytic_cdf,
    check_epsilon,
    displace,
    epsilon_from,
    perturb,
    perturb_many,
    planar_density,
    sample_polar_laplace,
    substream,
)
from scootpriv.trip_recon import haversine_distance

EPS_PAPER = 4 * math.log(6)  # the 0.25 km / ratio-6 operating point


class TestEpsilonFrom:
    def test_ratio_4_at_200m(self):
        assert epsilon_from(0.2, 4) == pytest.approx(5 * math.log(4))

    def test_ratio_6_at_250m(self):
        assert epsilon_from(0.25, 6) == pytest.approx(4 * math.log(6))

    def test_natural_unit(self):
        assert epsilon_from(1.0, math.e) == pytest.approx(1.0)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            epsilon_from(0.0, 4)
        with pytest.raises(ValueError):
            epsilon_from(0.25, 1.0)


class TestCheckEpsilon:
    def test_threshold_near_0311(self):
        check_epsilon(0.312)
        with pytest.raises(ValueError, match="too small"):
            check_epsilon(0.310)

    def test_largest_radius_at_ratio_6_is_576_m(self):
        check_epsilon(epsilon_from(5.76, 6))
        with pytest.raises(ValueError, match="too small"):
            check_epsilon(epsilon_from(5.77, 6))

    @pytest.mark.parametrize("eps", [0.0, -1.0])
    def test_nonpositive_rejected(self, eps):
        with pytest.raises(ValueError, match="positive"):
            check_epsilon(eps)


class TestPolarSampling:
    def test_radial_mean_is_two_over_epsilon(self):
        rng = np.random.default_rng(0)
        _, r = sample_polar_laplace(EPS_PAPER, rng, size=1_000_000)
        assert r.mean() == pytest.approx(2 / EPS_PAPER, rel=0.01)

    def test_theta_uniform_chi_square(self):
        rng = np.random.default_rng(1)
        theta, _ = sample_polar_laplace(EPS_PAPER, rng, size=1_000_000)
        assert theta.min() >= 0 and theta.max() < 2 * math.pi
        counts, _ = np.histogram(theta, bins=36, range=(0, 2 * math.pi))
        _, p = stats.chisquare(counts)
        assert p > 0.01

    def test_radial_cdf_matches_analytic(self):
        rng = np.random.default_rng(2)
        _, r = sample_polar_laplace(EPS_PAPER, rng, size=100_000)
        ks = stats.kstest(r, lambda x: analytic_cdf(EPS_PAPER, x)).statistic
        assert ks < 0.01

    def test_deterministic_given_seed(self):
        a = sample_polar_laplace(EPS_PAPER, np.random.default_rng(3), size=10)
        b = sample_polar_laplace(EPS_PAPER, np.random.default_rng(3), size=10)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            sample_polar_laplace(0.0, np.random.default_rng(0))


class TestDisplace:
    def test_zero_radius_identity(self):
        loc = (34.05, -118.25)
        assert displace(loc, 1.234, 0.0) == pytest.approx(loc)

    def test_due_north_arc(self):
        # 0.01 degrees of arc on a 6378.1 km sphere
        r_km = 0.01 * math.pi / 180 * 6378.1
        lat, lon = displace((0.0, 0.0), 0.0, r_km)
        assert lat == pytest.approx(0.01, abs=1e-9)
        assert lon == pytest.approx(0.0, abs=1e-9)

    def test_distance_preserved_random_inputs(self):
        rng = np.random.default_rng(4)
        for _ in range(10_000):
            loc = (rng.uniform(-60, 60), rng.uniform(-179, 179))
            theta = rng.uniform(0, 2 * math.pi)
            r_km = rng.uniform(0.001, 50.0)
            dest = displace(loc, theta, r_km)
            d = haversine_distance(loc, dest)
            assert d == pytest.approx(r_km * 1000, rel=1e-6)

    def test_oversized_radius_rejected(self):
        with pytest.raises(ValueError):
            displace((0, 0), 0.0, 101.0)


class TestPerturb:
    def test_median_displacement(self):
        target = optimize.brentq(
            lambda x: analytic_cdf(EPS_PAPER, x) - 0.5, 1e-6, 10.0
        )
        assert target == pytest.approx(0.234, abs=0.001)
        rng = np.random.default_rng(5)
        lats = np.full(100_000, 34.05)
        lons = np.full(100_000, -118.25)
        nlat, nlon = perturb_many(lats, lons, EPS_PAPER, rng)
        d_km = np.array(
            [
                haversine_distance((34.05, -118.25), (a, b)) / 1000
                for a, b in zip(nlat, nlon)
            ]
        )
        assert np.median(d_km) == pytest.approx(target, abs=0.005)

    def test_99_percent_within_one_km(self):
        rng = np.random.default_rng(6)
        nlat, nlon = perturb_many(
            np.full(100_000, 34.05), np.full(100_000, -118.25), EPS_PAPER, rng
        )
        d_km = np.array(
            [
                haversine_distance((34.05, -118.25), (a, b)) / 1000
                for a, b in zip(nlat, nlon)
            ]
        )
        assert np.mean(d_km <= 1.0) >= 0.99

    def test_displacement_cdf_matches_analytic(self):
        rng = np.random.default_rng(7)
        loc = (34.05, -118.25)
        nlat, nlon = perturb_many(
            np.full(100_000, loc[0]), np.full(100_000, loc[1]), EPS_PAPER, rng
        )
        d_km = np.array(
            [haversine_distance(loc, (a, b)) / 1000 for a, b in zip(nlat, nlon)]
        )
        ks = stats.kstest(d_km, lambda x: analytic_cdf(EPS_PAPER, x)).statistic
        assert ks < 0.01

    def test_deterministic_given_seed(self):
        loc = (34.05, -118.25)
        a = perturb(loc, EPS_PAPER, substream(99, 0))
        b = perturb(loc, EPS_PAPER, substream(99, 0))
        assert a == b

    def test_substreams_independent_of_order(self):
        loc = (34.05, -118.25)
        first = [perturb(loc, EPS_PAPER, substream(7, i)) for i in (0, 1, 2)]
        second = [perturb(loc, EPS_PAPER, substream(7, i)) for i in (2, 0, 1)]
        assert first == [second[1], second[2], second[0]]


class TestAnalyticCdf:
    def test_zero_at_origin(self):
        assert analytic_cdf(EPS_PAPER, 0.0) == 0.0

    def test_paper_operating_point_quarter_km(self):
        # exact evaluation of 1 - (1 + eps*x) exp(-eps*x)
        assert analytic_cdf(EPS_PAPER, 0.25) == pytest.approx(0.5347, abs=0.0001)

    def test_paper_operating_point_one_km(self):
        assert analytic_cdf(EPS_PAPER, 1.0) == pytest.approx(0.9937, abs=0.0001)

    def test_monotone_and_limits(self):
        xs = np.linspace(0, 20, 2001)
        ys = analytic_cdf(EPS_PAPER, xs)
        assert np.all(np.diff(ys) >= 0)
        assert ys[-1] == pytest.approx(1.0, abs=1e-9)

    def test_negative_x_rejected(self):
        with pytest.raises(ValueError):
            analytic_cdf(EPS_PAPER, -0.1)

    def test_matches_density_quadrature(self):
        # independent check: integrate the radial marginal numerically
        for x in (0.1, 0.25, 0.5, 1.0):
            q, _ = integrate.quad(
                lambda r: EPS_PAPER**2 * r * math.exp(-EPS_PAPER * r), 0, x
            )
            assert analytic_cdf(EPS_PAPER, x) == pytest.approx(q, abs=1e-8)


class TestPlanarDensity:
    def test_peak_at_center(self):
        assert planar_density(EPS_PAPER, (0, 0), (0, 0)) == pytest.approx(
            EPS_PAPER**2 / (2 * math.pi)
        )

    def test_ratio_bound_at_paper_point(self):
        eps = 5 * math.log(4)
        rng = np.random.default_rng(8)
        x = (0.0, 0.0)
        x2 = (0.2, 0.0)  # exactly 0.2 km apart
        for _ in range(1000):
            s = tuple(rng.uniform(-3, 3, 2))
            ratio = planar_density(eps, x, s) / planar_density(eps, x2, s)
            assert ratio <= math.exp(eps * 0.2) + 1e-12
            assert ratio <= 4.0 + 1e-12

    def test_gi_bound_random_triples(self):
        rng = np.random.default_rng(9)
        violations = 0
        for _ in range(10_000):
            x = rng.uniform(-2, 2, 2)
            delta = rng.uniform(-1, 1, 2)
            delta *= rng.uniform(0, 0.25) / max(np.hypot(*delta), 1e-12)
            x2 = x + delta
            s = rng.uniform(-3, 3, 2)
            d = float(np.hypot(*(x - x2)))
            ratio = planar_density(EPS_PAPER, tuple(x), tuple(s)) / planar_density(
                EPS_PAPER, tuple(x2), tuple(s)
            )
            if ratio > math.exp(EPS_PAPER * d):
                violations += 1
        assert violations == 0

    def test_integrates_to_one(self):
        # 2D polar quadrature; radius 50/eps leaves ~1e-20 tail mass,
        # 10/eps would leave ~5e-4 and mask real errors at this tolerance
        total, _ = integrate.dblquad(
            lambda r, th: planar_density(EPS_PAPER, (0, 0), (r * math.cos(th), r * math.sin(th))) * r,
            0,
            2 * math.pi,
            0,
            50 / EPS_PAPER,
        )
        assert total == pytest.approx(1.0, abs=1e-4)
