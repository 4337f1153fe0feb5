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


def check_epsilon(epsilon: float) -> None:
    """Reject an epsilon too small for MAX_RADIUS_KM: one draw would
    exceed it with probability (1 + eps*M) * exp(-eps*M) above
    MAX_TAIL_PROBABILITY, i.e. eps < 0.311/km (R > 5.76 km at ratio 6)."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    x = epsilon * MAX_RADIUS_KM
    tail = (1.0 + x) * math.exp(-x)
    if tail > MAX_TAIL_PROBABILITY:
        raise ValueError(
            f"epsilon {epsilon:.4g}/km too small: a draw lands beyond "
            f"{MAX_RADIUS_KM:g} km with probability {tail:.1e}"
        )


def substream(master_seed: int, index: int) -> np.random.Generator:
    """Independent, reproducible RNG substream for a (trial, worker) index.

    Derivation depends only on (master_seed, index), not on spawn order,
    so parallel Monte Carlo results are schedule-independent.
    """
    return np.random.default_rng(np.random.SeedSequence(master_seed, spawn_key=(index,)))


def epsilon_from(radius_km: float, ratio_bound: float) -> float:
    """Privacy rate (1/km) making any two locations within radius_km
    indistinguishable up to the given likelihood ratio: ln(ratio)/R."""
    if radius_km <= 0:
        raise ValueError("radius must be positive")
    if ratio_bound <= 1:
        raise ValueError("ratio bound must exceed 1")
    return math.log(ratio_bound) / radius_km


def sample_polar_laplace(
    epsilon: float, rng: np.random.Generator, size: int | None = None
) -> tuple[np.ndarray, np.ndarray] | tuple[float, float]:
    """Draw (theta, r): bearing uniform on [0, 2pi), radius Gamma(2, 1/eps).

    The Gamma shape-2 radial marginal is exactly eps^2 * r * exp(-eps*r).
    With size=None returns scalars, else arrays of that length.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    n = 1 if size is None else size
    theta = rng.uniform(0.0, 2.0 * math.pi, size=n)
    r = rng.gamma(shape=2.0, scale=1.0 / epsilon, size=n)
    if size is None:
        return float(theta[0]), float(r[0])
    return theta, r


def displace(
    loc: tuple[float, float], theta: float, r_km: float
) -> tuple[float, float]:
    """Destination point r_km along initial bearing theta (0 = due north)
    from loc, on a sphere of radius 6378.1 km."""
    lat, lon = _displace_arrays(
        np.asarray([loc[0]]), np.asarray([loc[1]]), np.asarray([theta]), np.asarray([r_km])
    )
    return float(lat[0]), float(lon[0])


def _displace_arrays(
    lat_deg: np.ndarray, lon_deg: np.ndarray, theta: np.ndarray, r_km: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    if np.any(r_km < 0):
        raise ValueError("negative displacement radius")
    if np.any(r_km > MAX_RADIUS_KM):
        raise ValueError(f"displacement beyond {MAX_RADIUS_KM} km rejected as misuse")
    lat1 = np.radians(lat_deg)
    lon1 = np.radians(lon_deg)
    delta = r_km / EARTH_RADIUS_KM  # angular distance
    sin_lat2 = np.sin(lat1) * np.cos(delta) + np.cos(lat1) * np.sin(delta) * np.cos(theta)
    lat2 = np.arcsin(np.clip(sin_lat2, -1.0, 1.0))
    lon2 = lon1 + np.arctan2(
        np.sin(theta) * np.sin(delta) * np.cos(lat1),
        np.cos(delta) - np.sin(lat1) * sin_lat2,
    )
    # normalize longitude to [-180, 180)
    lon2_deg = (np.degrees(lon2) + 180.0) % 360.0 - 180.0
    return np.degrees(lat2), lon2_deg


def perturb(
    loc: tuple[float, float], epsilon: float, rng: np.random.Generator
) -> tuple[float, float]:
    """One geo-indistinguishable release of loc. No truncation: the noisy
    point may land outside any boundary, ocean included."""
    theta, r = sample_polar_laplace(epsilon, rng)
    return displace(loc, theta, r)


def perturb_many(
    lats: np.ndarray, lons: np.ndarray, epsilon: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized perturb: fresh independent noise per location."""
    n = len(lats)
    theta, r = sample_polar_laplace(epsilon, rng, size=n)
    return _displace_arrays(np.asarray(lats, float), np.asarray(lons, float), theta, r)


def analytic_cdf(epsilon: float, x) -> float | np.ndarray:
    """P(displacement <= x km): 1 - (1 + eps*x) * exp(-eps*x)."""
    x = np.asarray(x, dtype=float)
    if np.any(x < 0):
        raise ValueError("x must be >= 0")
    out = 1.0 - (1.0 + epsilon * x) * np.exp(-epsilon * x)
    return float(out) if out.ndim == 0 else out


def planar_density(
    epsilon: float, center: tuple[float, float], at: tuple[float, float]
) -> float:
    """Planar Laplace output density (1/km^2) at a point, for planar
    (x, y) km coordinates."""
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    d = math.hypot(at[0] - center[0], at[1] - center[1])
    return epsilon**2 / (2.0 * math.pi) * math.exp(-epsilon * d)
