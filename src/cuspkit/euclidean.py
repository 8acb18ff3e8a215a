"""Euclidean invariants of plane curves at 3/2-cusps.

At a 3/2-cusp (velocity zero, [gamma'', gamma'''] != 0) the curvature
kappa_g = [gamma', gamma''] / |gamma'|^3 diverges like 1/|s_g|^(1/2), but the
normalized combination sqrt(|s_g|) * kappa_g extends smoothly through the
singularity.  Its limit at the cusp is mu_g / (2*sqrt(2)), where

    mu_g = [gamma''(0), gamma'''(0)] / |gamma''(0)|^(5/2)

is the cuspidal curvature.  This module classifies the origin, computes
kappa_g, arclength, mu_g, and samples the normalized profile through the
cusp on a grid of the half-arclength parameter tau = sgn(t)*sqrt(|s_g|).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .dsl import CurveSpec
from .jets import (
    Jet,
    PlaneJet,
    _gauss_01,
    _gauss_panel,
    bracket,
    deflate,
    inflate,
    moment_quotient_jet,
)
from .profiles import OVERLAP_BAND, SWITCH_RADIUS, NormalizedProfile, invert_adapted

PROFILE_JET_ORDER = 12
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


@dataclass(frozen=True)
class EuclideanCuspReport:
    mu_g: float
    singularity: SingularityClass
    f0: float  # limit of sqrt(|s_g|)*kappa_g at the cusp: mu_g / (2*sqrt(2))


def _cross(a: np.ndarray, b: np.ndarray) -> float:
    return float(a[0] * b[1] - a[1] * b[0])


def classify(germ: PlaneJet, tol: float = CLASSIFY_TOL) -> SingularityClass:
    """Classify the germ's base point by its velocity and low-order brackets.

    Comparisons are relative: brackets against the largest diagnostic
    bracket, the velocity against the largest derivative magnitude.
    """
    if germ.order < 3:
        raise ValueError(f"classification needs a germ of order >= 3, got {germ.order}")
    d1 = germ.derivative_vector(1)
    d2 = germ.derivative_vector(2)
    d3 = germ.derivative_vector(3)
    b12 = _cross(d1, d2)
    b13 = _cross(d1, d3)
    b23 = _cross(d2, d3)
    speed = float(np.hypot(*d1))
    vscale = max(speed, float(np.hypot(*d2)), float(np.hypot(*d3)))
    bscale = max(abs(b12), abs(b13), abs(b23))

    if vscale == 0.0 or speed <= tol * vscale:
        if bscale > 0.0 and abs(b23) > tol * bscale:
            label = (
                SingularityType.POSITIVE_CUSP if b23 > 0 else SingularityType.NEGATIVE_CUSP
            )
        else:
            label = SingularityType.DEGENERATE
    elif bscale > 0.0 and abs(b12) > tol * bscale:
        label = SingularityType.REGULAR
    elif bscale > 0.0 and abs(b13) > tol * bscale:
        label = (
            SingularityType.POSITIVE_INFLECTION
            if b13 > 0
            else SingularityType.NEGATIVE_INFLECTION
        )
    else:
        label = SingularityType.DEGENERATE
    return SingularityClass(label, speed, b12, b13, b23)


def curvature_from_jet(germ: PlaneJet) -> float:
    """kappa_g at the germ's base point: [gamma', gamma''] / |gamma'|^3."""
    d1 = germ.derivative_vector(1)
    d2 = germ.derivative_vector(2)
    speed = float(np.hypot(*d1))
    if speed == 0.0:
        raise ValueError(
            "curvature is undefined at a singular point; use the normalized profile"
        )
    return _cross(d1, d2) / speed**3


def kappa_g(curve: CurveSpec, t: float) -> float:
    """Euclidean curvature of the curve at parameter value t."""
    return curvature_from_jet(curve.jet(t, 2))


def cuspidal_curvature(germ: PlaneJet) -> float:
    """mu_g = [gamma'', gamma'''] / |gamma''|^(5/2) at a 3/2-cusp germ.

    The sign of the result equals the sign of the cusp.
    """
    cls = classify(germ)
    if not cls.is_cusp:
        raise ValueError(f"cuspidal curvature needs a 3/2-cusp germ, got {cls}")
    d2 = germ.derivative_vector(2)
    return cls.b23 / float(np.hypot(*d2)) ** 2.5


def mu_g(curve: CurveSpec) -> float:
    return cuspidal_curvature(curve.jet(0.0, 5))


def euclidean_report(germ: PlaneJet) -> EuclideanCuspReport:
    cls = classify(germ)
    value = cuspidal_curvature(germ)
    return EuclideanCuspReport(value, cls, value / (2.0 * math.sqrt(2.0)))


# -- arclength and the half-arclength parameter --------------------------------


def _speeds(curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    d = curve.derivatives_at(ts, 1)
    return np.hypot(d[1][0], d[1][1])


def _cusp_speed_factor(curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    """|gamma'(u)| / |u| evaluated away from u = 0 (smooth through the cusp)."""
    return _speeds(curve, ts) / np.abs(ts)


def _cusp_factor(curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    """L(t) = integral_0^1 u * phi(t u) du, one Gauss panel per target.

    Here |gamma'(u)| = |u| * phi(u) with smooth positive phi, so that
    s_g = sgn(t) t^2 L(t) and tau = t sqrt(L(t)) with no singular behaviour
    at t = 0.
    """
    v, w = _gauss_01()
    ts = np.atleast_1d(ts)
    out_L = np.empty(len(ts))
    nonzero = ts != 0.0
    if np.any(nonzero):
        out_L[nonzero] = _gauss_panel(
            lambda u: _cusp_speed_factor(curve, u), ts[nonzero], v, w * v
        )
    if np.any(~nonzero):
        d2 = curve.jet(0.0, 2).derivative_vector(2)
        out_L[~nonzero] = float(np.hypot(*d2)) / 2.0
    return out_L


def _arclength_cusp(curve: CurveSpec, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(s_g, tau) for a curve with a cusp at 0, smooth in t."""
    ts = np.atleast_1d(ts)
    L = _cusp_factor(curve, ts)
    return np.sign(ts) * ts**2 * L, ts * np.sqrt(L)


def arclength_g(curve: CurveSpec, t: float) -> tuple[float, float]:
    """Signed arclength from 0 and the adapted parameter at t.

    At a cusp the second value is the half-arclength parameter
    tau = sgn(t) sqrt(|s_g|); at a regular origin it is s_g itself.
    """
    cls = classify(curve.jet(0.0, 3))
    if cls.is_cusp:
        s, tau = _arclength_cusp(curve, np.array([t]))
        return float(s[0]), float(tau[0])
    s = t * _gauss_panel(lambda u: _speeds(curve, u), np.array([t]), *_gauss_01())
    return float(s[0]), float(s[0])


# -- the normalized profile sqrt(|s_g|) * kappa_g ------------------------------


@dataclass(frozen=True)
class EuclideanProfileJets:
    """Deflated-jet representation of sqrt(|s_g|)*kappa_g at a cusp germ."""

    f_t: Jet  # the normalized profile as a jet in the original parameter
    tau_t: Jet  # the half-arclength parameter as a jet in t
    f_tau: Jet  # the profile as a jet in tau
    mu_g: float
    L: Jet  # the arclength factor: s_g = sgn(t) t^2 L(t), tau = t sqrt(L)


def euclidean_profile_jets(germ: PlaneJet) -> EuclideanProfileJets:
    """Build the smooth jets of the profile and of tau from a cusp germ.

    Writing |gamma'(u)| = |u| phi(u) with smooth positive phi and
    [gamma', gamma''] = t^2 B(t), the singular powers of t cancel:

        sqrt(|s_g|) kappa_g = sqrt(L) B / phi^3,   tau = t sqrt(L),

    with L the 1-weighted mean of phi (s_g = sgn(t) t^2 L(t)).
    """
    d1 = germ.derivative(1)
    vx = deflate(d1.x, 1)
    vy = deflate(d1.y, 1)
    phi = (vx * vx + vy * vy).sqrt()  # |gamma'(u)| / |u|
    L = moment_quotient_jet(phi, 1.0)
    B = deflate(bracket(d1, germ.derivative(2)), 2)
    f_t = L.sqrt() * B / (phi * phi * phi)
    tau_t = inflate(L.sqrt(), 1)
    f_tau = f_t.compose(tau_t.inverted())
    return EuclideanProfileJets(f_t, tau_t, f_tau, cuspidal_curvature(germ), L)


class CuspProfiler:
    """Evaluator for sqrt(|s_g|) * kappa_g through a cusp at t = 0.

    Inside ``SWITCH_RADIUS`` it uses the jet of the smooth factorization
    (bracket deflated by t^2, speed deflated by |t|); outside it evaluates
    the defining formula directly with quadrature for s_g.  Both routes are
    exact up to truncation/quadrature error and must agree on the overlap
    band.  Grids are inverted, and their s_g evaluated, on a Chebyshev
    interpolant of L (see ``invert_adapted``).
    """

    def __init__(self, curve: CurveSpec, order: int = PROFILE_JET_ORDER):
        self.curve = curve
        germ = curve.jet(0.0, order)
        self.singularity = classify(germ)
        if not self.singularity.is_cusp:
            raise ValueError(
                f"normalized Euclidean profile needs a cusp at t=0, got {self.singularity}"
            )
        jets = euclidean_profile_jets(germ)
        self.mu_g = jets.mu_g
        self.f0 = self.mu_g / (2.0 * math.sqrt(2.0))
        self._f_t = jets.f_t
        self._tau_t = jets.tau_t
        self._f_tau = jets.f_tau
        self._L = jets.L
        self._slope0 = float(self._tau_t.coeffs[1])

    # tau(t) and its t-derivative, vectorized
    def tau_of_t(self, ts: np.ndarray) -> np.ndarray:
        return _arclength_cusp(self.curve, ts)[1]

    def _tau_and_slope(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """tau(t) and dtau/dt = |gamma'(t)| / (2|tau|) from one quadrature pass."""
        tau = self.tau_of_t(ts)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = _speeds(self.curve, ts) / (2.0 * np.abs(tau))
        return tau, np.where(np.abs(ts) < 1e-8, self._slope0, slope)

    def t_of_tau(self, taus: np.ndarray) -> np.ndarray:
        return self._invert(taus)[0]

    def _invert(self, taus):
        """t(tau), and the interpolant of L it used (None on the exact map)."""
        return invert_adapted(
            taus, 0.5, self._tau_and_slope, self._L, self._factor, self._slope0
        )

    def _factor(self, ts: np.ndarray) -> np.ndarray:
        return _cusp_factor(self.curve, ts)

    def value_direct(self, ts: np.ndarray, L: np.ndarray | None = None) -> np.ndarray:
        """The defining formula, with s_g from the factor values L at ts if given."""
        ts = np.atleast_1d(ts)
        if L is None:
            L = self._factor(ts)
        s = np.sign(ts) * ts**2 * L
        d = self.curve.derivatives_at(ts, 2)
        b12 = d[1][0] * d[2][1] - d[1][1] * d[2][0]
        speed = np.hypot(d[1][0], d[1][1])
        return np.sqrt(np.abs(s)) * b12 / speed**3

    def value_smooth(self, ts: np.ndarray) -> np.ndarray:
        return self._f_t(np.atleast_1d(ts))

    def values_at_t(self, ts: np.ndarray, factor=None) -> np.ndarray:
        """Profile values at ts; ``factor`` (a callable L(t)) replaces quadrature."""
        ts = np.atleast_1d(ts)
        out = np.empty(len(ts))
        near = np.abs(ts) < SWITCH_RADIUS
        if np.any(near):
            out[near] = self.value_smooth(ts[near])
        if np.any(~near):
            far = ts[~near]
            out[~near] = self.value_direct(far, None if factor is None else factor(far))
        out[ts == 0.0] = self.f0
        return out

    def profile(self, tau_grid) -> NormalizedProfile:
        grid = np.asarray(tau_grid, dtype=float)
        ts, factor = self._invert(grid)
        values = self.values_at_t(ts, factor)
        c = self._f_tau.coeffs
        return NormalizedProfile(
            kind="euclid-cusp",
            grid=grid,
            values=values,
            f0=self.f0,
            fdot0=float(c[1]),
            fddot0=2.0 * float(c[2]),
        )


def profile_g(curve: CurveSpec, tau_grid) -> NormalizedProfile:
    """Sample sqrt(|s_g|) * kappa_g on a grid of the half-arclength parameter."""
    return CuspProfiler(curve).profile(tau_grid)


def overlap_consistency_g(curve: CurveSpec, n: int = 9) -> float:
    """Max disagreement of the two evaluation routes on the overlap band."""
    p = CuspProfiler(curve)
    band = np.linspace(*OVERLAP_BAND, n)
    ts = np.concatenate([-band[::-1], band])
    return float(np.max(np.abs(p.value_direct(ts) - p.value_smooth(ts))))
