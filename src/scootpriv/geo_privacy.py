"""Geo-indistinguishable location perturbation via the planar Laplace
mechanism.

The mechanism draws a uniform bearing and a radial distance whose
marginal density is eps^2 * r * exp(-eps * r) (realized as the sum of
two Exponential(eps) draws, i.e. Gamma shape 2), then displaces the true
location along a great circle. For any two true locations within R km
the likelihood ratio of any output is bounded by exp(eps * R).

Units: eps carries 1/km; all radial quantities here are km.
"""

from __future__ import annotations

import math

import numpy as np

from .trip_recon import EARTH_RADIUS_KM

# displacements beyond city scale indicate a unit mix-up upstream
MAX_RADIUS_KM = 100.0
# largest accepted chance that one draw lands beyond MAX_RADIUS_KM
MAX_TAIL_PROBABILITY = 1e-12


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible RNG substream number index of master_seed.

    Derivation depends only on (master_seed, index), not on spawn order or
    on other draws. The evaluate Monte Carlo loop draws grid point g's noise
    from index g; sanitize uses 0 and the evaluate GeoJSON dump 10**6.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def epsilon_from(radius_km: float, ratio_bound: float) -> float:
    """Privacy rate (1/km) making any two locations within radius_km
    indistinguishable up to the given likelihood ratio: ln(ratio)/R.
    R must be positive and finite, the ratio finite and above 1, and eps
    finite and large enough that one draw lands beyond MAX_RADIUS_KM with
    probability (1 + eps*M) * exp(-eps*M) <= MAX_TAIL_PROBABILITY:
    eps >= 0.311/km, so R <= 5.76 km at ratio 6."""
    if not 0 < radius_km < math.inf:
        raise ValueError(f"radius must be positive and finite, got {radius_km}")
    if not 1 < ratio_bound < math.inf:
        raise ValueError(f"ratio bound must exceed 1 and be finite, got {ratio_bound}")
    epsilon = math.log(ratio_bound) / radius_km
    if epsilon == math.inf:  # a radius so small that ln(ratio)/R overflows
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    x = epsilon * MAX_RADIUS_KM
    tail = (1.0 + x) * math.exp(-x)
    if tail > MAX_TAIL_PROBABILITY:
        raise ValueError(
            f"epsilon {epsilon:.4g}/km too small: a draw lands beyond "
            f"{MAX_RADIUS_KM:g} km with probability {tail:.1e}"
        )
    return epsilon


def sample_polar_laplace(
    epsilon: float, rng: np.random.Generator, size: int | tuple[int, ...]
) -> tuple[np.ndarray, np.ndarray]:
    """Draw (theta, r) pairs as two arrays of shape size, an int or a
    shape as numpy takes it: bearing uniform on [0, 2pi), radius
    Gamma(2, 1/eps). All bearings are drawn before any radius.

    The Gamma shape-2 radial marginal is exactly eps^2 * r * exp(-eps*r).
    """
    # an infinite epsilon adds no noise: it would publish the true locations
    if not 0 < epsilon < math.inf:
        raise ValueError(f"epsilon must be positive and finite, got {epsilon}")
    theta = rng.uniform(0.0, 2.0 * math.pi, size=size)
    r = rng.gamma(shape=2.0, scale=1.0 / epsilon, size=size)
    return theta, r


def displace(lat, lon, theta, r_km):
    """Destination r_km along initial bearing theta (radians, 0 = due
    north) from (lat, lon) in degrees, on a sphere of radius 6378.1 km.
    Element-wise, broadcast as numpy does: (n,) coordinates against
    (trials, n) draws give each row what a call per row gives. Returns
    (lat, lon) in degrees, the longitude in [-180, 180).

    Every term built from the draws has their (trials, n) shape: delta,
    its sin and cos, the sin and cos of theta, the products, sin_lat2 and
    its clip, lat2 and lon2. At most eight such float arrays, the two
    results included, are alive at once (tracemalloc peak). The evaluate
    loop makes one such call per R, and its boundary and neighborhood
    passes both read that one result."""
    # written as all(...) so that a NaN radius fails too
    if not np.all(r_km >= 0):
        raise ValueError("negative displacement radius")
    if not np.all(r_km <= MAX_RADIUS_KM):
        raise ValueError(f"displacement beyond {MAX_RADIUS_KM} km rejected as misuse")
    lat1 = np.radians(lat)
    lon1 = np.radians(lon)
    delta = r_km / EARTH_RADIUS_KM  # angular distance
    sin_lat1, cos_lat1 = np.sin(lat1), np.cos(lat1)
    sin_delta, cos_delta = np.sin(delta), np.cos(delta)
    sin_lat2 = sin_lat1 * cos_delta + cos_lat1 * sin_delta * np.cos(theta)
    lat2 = np.arcsin(np.clip(sin_lat2, -1.0, 1.0))
    lon2 = lon1 + np.arctan2(
        np.sin(theta) * sin_delta * cos_lat1, cos_delta - sin_lat1 * sin_lat2
    )
    # normalize longitude to [-180, 180)
    lon2_deg = (np.degrees(lon2) + 180.0) % 360.0 - 180.0
    return np.degrees(lat2), lon2_deg


def perturb(
    loc: tuple[float, float], epsilon: float, rng: np.random.Generator
) -> tuple[float, float]:
    """One geo-indistinguishable release of loc. No truncation: the noisy
    point may land outside any boundary, ocean included."""
    theta, r = sample_polar_laplace(epsilon, rng, size=1)
    lat, lon = displace(loc[0], loc[1], theta[0], r[0])
    return float(lat), float(lon)


def perturb_many(
    lats: np.ndarray, lons: np.ndarray, epsilon: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized perturb: fresh independent noise per location."""
    n = len(lats)
    theta, r = sample_polar_laplace(epsilon, rng, size=n)
    return displace(np.asarray(lats, float), np.asarray(lons, float), theta, r)


def analytic_cdf(epsilon: float, x) -> float | np.ndarray:
    """P(displacement <= x km): 1 - (1 + eps*x) * exp(-eps*x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = 1.0 - (1.0 + epsilon * x) * np.exp(-epsilon * x)
    return float(out) if out.ndim == 0 else out
