"""Euclidean invariants of plane curves at 3/2-cusps.

At a 3/2-cusp (velocity zero, [gamma'', gamma'''] != 0) the curvature
kappa_g = [gamma', gamma''] / |gamma'|^3 diverges like 1/|s_g|^(1/2), but the
normalized combination sqrt(|s_g|) * kappa_g extends smoothly through the
singularity.  Its limit at the cusp is mu_g / (2*sqrt(2)), where

    mu_g = [gamma''(0), gamma'''(0)] / |gamma''(0)|^(5/2)

is the cuspidal curvature.  This module classifies the origin, computes
kappa_g and mu_g, and samples the normalized profile through the cusp on a
grid of the half-arclength parameter tau = sgn(t)*sqrt(|s_g|).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dsl import CurveSpec
from .jets import (
    PlaneJet,
    bracket,
    cross,
    deflate,
    inflate,
    moment_quotient_jet,
)
from .profiles import Kind, NormalizedProfile, Profiler, ProfileJets

CLASSIFY_TOL = 1e-9


class SingularityType(enum.Enum):
    REGULAR = "Regular"
    POSITIVE_CUSP = "PositiveCusp"
    NEGATIVE_CUSP = "NegativeCusp"
    POSITIVE_INFLECTION = "PositiveInflection"
    NEGATIVE_INFLECTION = "NegativeInflection"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class SingularityClass:
    """Classification of the parameter origin plus the deciding brackets."""

    label: SingularityType
    speed: float  # |gamma'(0)|
    b12: float  # [gamma', gamma'']
    b13: float  # [gamma', gamma''']
    b23: float  # [gamma'', gamma''']

    @property
    def is_cusp(self) -> bool:
        return self.label in (SingularityType.POSITIVE_CUSP, SingularityType.NEGATIVE_CUSP)

    @property
    def is_inflection(self) -> bool:
        return self.label in (
            SingularityType.POSITIVE_INFLECTION,
            SingularityType.NEGATIVE_INFLECTION,
        )

    def __str__(self) -> str:
        return self.label.value


def _cross(a: np.ndarray, b: np.ndarray) -> float:
    return float(cross(a, b))


# The values classify decides by, in the order it checks that they are finite.
_DECIDING = (
    "|gamma'|", "|gamma''|", "|gamma'''|",
    "[gamma', gamma'']", "[gamma', gamma''']", "[gamma'', gamma''']",
)


def classify(germ: PlaneJet) -> SingularityClass:
    """Classify the germ's base point by its velocity and low-order brackets.

    Comparisons are relative: brackets against the largest diagnostic
    bracket, the velocity against the largest derivative magnitude.  A
    derivative norm or bracket that is not finite raises ``ValueError``
    naming it.
    """
    if germ.order < 3:
        raise ValueError(f"classification needs a germ of order >= 3, got {germ.order}")
    d1 = germ.derivative_vector(1)
    d2 = germ.derivative_vector(2)
    d3 = germ.derivative_vector(3)
    with np.errstate(all="ignore"):  # a value that is not finite raises below
        norms = [float(np.hypot(*d)) for d in (d1, d2, d3)]
        b12 = _cross(d1, d2)
        b13 = _cross(d1, d3)
        b23 = _cross(d2, d3)
    values = (*norms, b12, b13, b23)
    if not all(map(math.isfinite, values)):
        name, value = next((n, v) for n, v in zip(_DECIDING, values) if not math.isfinite(v))
        raise ValueError(f"cannot classify the germ: {name} = {value!r} is not finite")
    speed = norms[0]
    vscale = max(norms)
    bscale = max(abs(b12), abs(b13), abs(b23))

    if vscale == 0.0 or speed <= CLASSIFY_TOL * vscale:
        if bscale > 0.0 and abs(b23) > CLASSIFY_TOL * bscale:
            label = (
                SingularityType.POSITIVE_CUSP if b23 > 0 else SingularityType.NEGATIVE_CUSP
            )
        else:
            label = SingularityType.DEGENERATE
    elif bscale > 0.0 and abs(b12) > CLASSIFY_TOL * bscale:
        label = SingularityType.REGULAR
    elif bscale > 0.0 and abs(b13) > CLASSIFY_TOL * bscale:
        label = (
            SingularityType.POSITIVE_INFLECTION
            if b13 > 0
            else SingularityType.NEGATIVE_INFLECTION
        )
    else:
        label = SingularityType.DEGENERATE
    return SingularityClass(label, speed, b12, b13, b23)


def _require(germ: PlaneJet, what: str, cusp: bool) -> SingularityClass:
    """The germ's class, or a ``ValueError`` naming ``what`` unless it is a cusp (inflection)."""
    cls = classify(germ)
    if not (cls.is_cusp if cusp else cls.is_inflection):
        need = "a 3/2-cusp" if cusp else "a generic inflection"
        raise ValueError(f"{what} needs {need} germ, got {cls}")
    return cls


def _at_base_point(direct, d: np.ndarray, name: str, value: float) -> float:
    """A direct formula with s = 1; overflow, a zero divisor or NaN raises naming the value."""
    try:
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            return float(direct(d, 1.0))
    except FloatingPointError as exc:
        raise ValueError(f"{exc} in the curvature formula at {name} = {value:.6g}") from None


def curvature_from_jet(germ: PlaneJet) -> float:
    """kappa_g at the germ's base point: the kind's direct formula with s = 1."""
    d = np.array([germ.derivative_vector(k) for k in range(3)])
    speed = float(np.hypot(*d[1]))
    if speed == 0.0:
        raise ValueError(
            "curvature is undefined at a singular point; use the normalized profile"
        )
    return _at_base_point(_direct, d, "|gamma'|", speed)


def kappa_g(curve: CurveSpec, t: float) -> float:
    """Euclidean curvature of the curve at parameter value t."""
    return curvature_from_jet(curve.jet(t, 2))


def cuspidal_curvature(germ: PlaneJet) -> float:
    """mu_g = [gamma'', gamma'''] / |gamma''|^(5/2) at a 3/2-cusp germ.

    The sign of the result equals the sign of the cusp.
    """
    return _mu_g(germ, _require(germ, "cuspidal curvature", cusp=True))


def _mu_g(germ: PlaneJet, cls: SingularityClass) -> float:
    accel = float(np.hypot(*germ.derivative_vector(2)))
    try:
        return cls.b23 / accel**2.5
    except OverflowError:  # the float power is past 1.8e308
        raise ValueError(
            _power_overflow("cuspidal curvature", "|gamma''|", "(5/2)", accel)
        ) from None


def _power_overflow(what: str, name: str, power: str, value: float) -> str:
    """The message for a float power of ``name`` that overflows in ``what``."""
    return f"{what} overflows: {name}^{power} at {name} = {value:.6g}"


def _profile_limit(mu: float) -> float:
    """The limit of sqrt(|s_g|) kappa_g at a cusp of cuspidal curvature mu: mu / (2 sqrt(2))."""
    return mu / (2.0 * math.sqrt(2.0))


def mu_g(curve: CurveSpec) -> float:
    return cuspidal_curvature(curve.jet(0.0, 5))


# -- the normalized profile sqrt(|s_g|) * kappa_g ------------------------------


@dataclass(frozen=True)
class EuclideanProfileJets(ProfileJets):
    """Jets of sqrt(|s_g|)*kappa_g at a cusp germ: s_g = sgn(t) t^2 L(t), tau = t sqrt(L)."""

    mu_g: float


def euclidean_profile_jets(germ: PlaneJet) -> EuclideanProfileJets:
    """Build the smooth jets of the profile and of tau from a cusp germ.

    Writing |gamma'(u)| = |u| phi(u) with smooth positive phi and
    [gamma', gamma''] = t^2 B(t), the singular powers of t cancel:

        sqrt(|s_g|) kappa_g = sqrt(L) B / phi^3,   tau = t sqrt(L),

    with L the 1-weighted mean of phi (s_g = sgn(t) t^2 L(t)).  Raises
    ``ValueError`` unless the germ is a 3/2-cusp.
    """
    mu = cuspidal_curvature(germ)
    d1 = germ.derivative(1)
    vx = deflate(d1.x, 1)
    vy = deflate(d1.y, 1)
    phi = (vx * vx + vy * vy).sqrt()  # |gamma'(u)| / |u|
    L = moment_quotient_jet(phi, 1.0)
    B = deflate(bracket(d1, germ.derivative(2)), 2)
    f_t = L.sqrt() * B / (phi * phi * phi)
    tau_t = inflate(L.sqrt(), 1)
    return EuclideanProfileJets(f_t, tau_t, L, mu)


def _speeds(curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    d = curve.derivatives_at(ts, 1)
    return np.hypot(d[1][0], d[1][1])


def _direct(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """sqrt(|s_g|) kappa_g on a derivative stack d[k][xy]."""
    b12 = cross(d[1], d[2])
    speed = np.hypot(d[1][0], d[1][1])
    return np.sqrt(np.abs(s)) * b12 / speed**3


# s_g = sgn(t) t^2 L(t) with L the 1-weighted mean of phi = |gamma'(u)| / |u|.
EUCLID_CUSP = Kind(
    name="euclid-cusp",
    p=0.5,
    alpha=1.0,
    phi=lambda curve, us: _speeds(curve, us) / np.abs(us),
    order=2,
    direct=_direct,
    jets=euclidean_profile_jets,
    origin=lambda jets: _profile_limit(jets.mu_g),
)


def profile_g(curve: CurveSpec, tau_grid) -> NormalizedProfile:
    """Sample sqrt(|s_g|) * kappa_g on a grid of the half-arclength parameter."""
    return Profiler(curve, EUCLID_CUSP).profile(tau_grid)
