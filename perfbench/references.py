"""Closed-form references the benchmark checks every operation against.

None of these go through cuspkit: each value is derived by hand from the
curve's definition or taken from the paper's stated constants, so a
regression in the jet pipeline, the quadrature or the inversion cannot move
the reference along with the result.
"""

from __future__ import annotations

import math

import numpy as np

# Universal germ values of the normalized affine profile (s_A)^2 kappa_A.
CUSP_PROFILE_VALUE = 4.0 / 25.0
INFLECTION_PROFILE_VALUE = -5.0 / 16.0

# Normal-form coefficients as stated in the paper: c = mu_A / (80 * 54^(1/5))
# for (u^2, u^3 + c u^5) and c = 6^(1/4) mu_I / 4 for (u, u^3 + c u^4).
CUSP_NF_DENOM = 80.0 * 54.0**0.2
INFL_NF_FACTOR = 6.0**0.25 / 4.0


def mu_g(curve: str, a: float) -> float:
    """Cuspidal curvature [g'', g'''] / |g''|^(5/2) of a catalog cusp."""
    if curve == "cuspidal_cubic":
        return 3.0 / math.sqrt(2.0 * a)
    if curve in ("cycloid", "hyperbolic_cycloid"):
        return 1.0 / math.sqrt(a)
    if curve == "canonical_cusp":
        return 2.0 * math.sqrt(2.0) * a
    raise KeyError(curve)


def mu_A(curve: str, a: float) -> float | None:
    """Affine cuspidal curvature of a catalog cusp, where a closed form is known."""
    if curve == "cycloid":
        return 36.0 * a**-0.8
    if curve == "hyperbolic_cycloid":
        return -36.0 * a**-0.8
    if curve == "cuspidal_cubic":
        return 0.0  # an affine image of (u^2, u^3)
    return None


def mu_I(curve: str, a: float) -> float:
    if curve == "skew_cycloid":
        return -6.0 / math.sqrt(a)
    if curve == "cubic_graph":
        return 0.0  # an affine image of (u, u^3)
    raise KeyError(curve)


def cycloid_tau35_end(a: float) -> float:
    """The 3/5-power affine arclength parameter of the cycloid at t = 2 pi.

    [g', g''] = a^2 (1 - cos t) = 2 a^2 sin^2(t/2), so s_A(2 pi) is
    2^(1/3) a^(2/3) * 2 * integral_0^pi sin^(2/3) = 2^(4/3) a^(2/3) sqrt(pi)
    Gamma(5/6) / Gamma(4/3).  The next cusp sits there, so a tau-grid reaching
    past this value leaves the profile's domain.
    """
    s = 2.0 ** (4.0 / 3.0) * a ** (2.0 / 3.0) * math.sqrt(math.pi) * math.gamma(5.0 / 6.0)
    return (s / math.gamma(4.0 / 3.0)) ** 0.6


def cycloid_profile_g(taus: np.ndarray, a: float) -> np.ndarray:
    """sqrt(|s_g|) kappa_g of the cycloid in its half-arclength parameter.

    With c = 1 - tau^2 / (4a) the profile is |tau| / (4a sqrt(1 - c^2)), valid
    for tau^2 < 8a; it simplifies to 1 / sqrt(8a - tau^2), which has no 0/0
    at the cusp.
    """
    return 1.0 / np.sqrt(8.0 * a - taus**2)


def cuspidal_cubic_profile_g(taus: np.ndarray, a: float) -> np.ndarray:
    """sqrt(|s_g|) kappa_g of (a t^2, a t^3) in its half-arclength parameter.

    Here s_g = (a/27)((4 + 9t^2)^(3/2) - 8) and kappa_g = 6 / (a|t|(4 + 9t^2)^(3/2)).
    With x = 27 tau^2 / (8a), t^2 = 4((1 + x)^(2/3) - 1) / 9 and the profile is
    3|tau| / (4a|t|(1 + x)); its limit at tau = 0 is 3 / (4 sqrt(a)).
    """
    taus = np.asarray(taus, dtype=float)
    x = 27.0 * taus**2 / (8.0 * a)
    t = np.sqrt(4.0 * np.expm1((2.0 / 3.0) * np.log1p(x)) / 9.0)
    out = np.full(taus.shape, 3.0 / (4.0 * math.sqrt(a)))
    nz = taus != 0.0
    out[nz] = 3.0 * np.abs(taus[nz]) / (4.0 * a * t[nz] * (1.0 + x[nz]))
    return out


def canonical_cusp_positions(taus: np.ndarray, a: float) -> np.ndarray:
    """The curve synthesized from the constant Euclidean profile f = a."""
    w = 2.0 * a * taus
    x = (w * np.sin(w) + np.cos(w) - 1.0) / (2.0 * a**2)
    y = (np.sin(w) - w * np.cos(w)) / (2.0 * a**2)
    return np.column_stack([x, y])


def kappa_g_regular(curve: str, p: float) -> float:
    if curve == "circle":
        return 1.0 / p
    if curve == "parabola":
        return 2.0
    raise KeyError(curve)


def kappa_A_regular(curve: str, p: float) -> float:
    if curve == "circle":
        return p ** (-4.0 / 3.0)
    if curve == "parabola":
        return 0.0
    raise KeyError(curve)


def rel_err(got: float, want: float, scale: float = 1.0) -> float:
    """|got - want| relative to max(scale, |want|); NaN for non-finite input."""
    if not (math.isfinite(got) and math.isfinite(want)):
        return math.nan
    return abs(got - want) / max(scale, abs(want))
