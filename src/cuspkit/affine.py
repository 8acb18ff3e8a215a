"""Equi-affine invariants of plane curves at cusps and generic inflections.

The affine curvature of a plane curve,

    kappa_A = (3 [g',g''][g',g''''] + 12 [g',g''][g'',g'''] - 5 [g',g''']^2)
              / (9 [g',g'']^(8/3)),

diverges both at 3/2-cusps (where [g',g''] vanishes to second order) and at
inflection points (first-order zero).  The combination f = (s_A)^2 * kappa_A,
with s_A the affine arclength, extends smoothly through both singularities:

* at a 3/2-cusp, f(0) = 4/25 and f'(0) = 0 in the 3/5-arclength parameter
  tau = (s_A)^(3/5); the tau^2-coefficient h0 of f is proportional to the
  affine cuspidal curvature mu_A,
* at a generic inflection, f(0) = -5/16 in the 3/4-arclength parameter
  tau = sgn(t) (s_A)^(3/4); the slope g0 = f'(0) is proportional to the
  affine inflectional curvature mu_I, and the germ of f satisfies a
  universal second-order identity.

This module computes kappa_A, mu_A, mu_I, the normalized profiles with
their germ data and identity residuals, and the normal-form reductions
(u^2, u^3 + c u^5) / (u, u^3 + c u^4) whose leading coefficient reproduces
mu_A / mu_I.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dsl import CurveSpec
from .euclidean import (
    SingularityClass,
    SingularityType,
    _at_base_point,
    _cross,
    _mu_g,
    _power_overflow,
    _profile_limit,
    _require,
    classify,
    curvature_from_jet,
)
from .jets import (
    Jet,
    PlaneJet,
    bracket,
    cross,
    deflate,
    inflate,
    moment_quotient_jet,
    signed_power,
)
from .profiles import (
    Kind,
    NormalizedProfile,
    Profiler,
    ProfileJets,
    trapped_jets,
)

# Universal germ values of the normalized affine curvature.
CUSP_PROFILE_VALUE = 4.0 / 25.0
INFLECTION_PROFILE_VALUE = -5.0 / 16.0

# Proportionality constants tying germ data to the affine invariants:
# h0 = H0_PER_MU_A * mu_A at cusps, g0 = G0_PER_MU_I * mu_I at inflections.
H0_PER_MU_A = (20.0 / 3.0) ** 0.2 / 220.0
G0_PER_MU_I = -(3.0 * 3.0**0.25) / (28.0 * math.sqrt(2.0))

# Normal-form coefficients: c_cusp = mu_A / CUSP_NF_DENOM for
# (u^2, u^3 + c u^5), c_infl = INFL_NF_FACTOR * mu_I for (u, u^3 + c u^4).
CUSP_NF_DENOM = 80.0 * 54.0**0.2
INFL_NF_FACTOR = 6.0**0.25 / 4.0

# The order of the germ the invariant report is built from.  A cusp's
# k = 2 deflations leave f_t at order K - 5 and h0 reads f_tau through
# tau^2, so K >= 7; mu_A reads the germ through order 5, and an inflection's
# f_t, of order K - 4, through t^2, so K >= 6.  K = 8, not 7, keeps every
# report bit for bit as built from the order-12 germ of the profiles: at
# K = 7 the reversion's 3x3 power-matrix product in ``compose`` takes
# another BLAS path and h0 rounds differently.
REPORT_JET_ORDER = 8


@dataclass(frozen=True)
class NormalFormResult:
    """Outcome of the equi-affine normal-form reduction of a germ.

    ``flipped`` records whether a sign-normalizing flip was applied first
    (orientation reversal for negative cusps, an axis flip for negative
    inflections).  ``tail`` is the magnitude of the first coefficient beyond
    the normal form, reported but not constrained.
    """

    c: float
    reduced: PlaneJet
    flipped: bool
    tail: float


# -- affine curvature ----------------------------------------------------------


def affine_curvature_from_jet(germ: PlaneJet) -> float:
    """kappa_A at the germ's base point: the kind's direct formula with s = 1 (order >= 4)."""
    if germ.order < 4:
        raise ValueError("affine curvature needs derivatives up to order 4")
    d = np.array([germ.derivative_vector(k) for k in range(5)])
    b12 = float(cross(d[1], d[2]))
    if b12 == 0.0:
        raise ValueError(
            "affine curvature is undefined where [gamma', gamma''] = 0; "
            "use the normalized profile"
        )
    return _at_base_point(_direct, d, "[gamma', gamma'']", b12)


def kappa_A(curve: CurveSpec, t: float) -> float:
    return affine_curvature_from_jet(curve.jet(t, 4))


# -- the affine invariants ------------------------------------------------------


def affine_cuspidal_curvature(germ: PlaneJet) -> float:
    """mu_A at a 3/2-cusp germ (needs derivatives through order 5).

    Invariant under equi-affine maps and independent of orientation.
    """
    return _mu_A(germ, _require(germ, "affine cuspidal curvature", cusp=True))


def _mu_A(germ: PlaneJet, cls: SingularityClass) -> float:
    if germ.order < 5:
        raise ValueError("affine cuspidal curvature needs a germ of order >= 5")
    d2 = germ.derivative_vector(2)
    d3 = germ.derivative_vector(3)
    d4 = germ.derivative_vector(4)
    d5 = germ.derivative_vector(5)
    b24 = _cross(d2, d4)
    try:
        num = 24.0 * cls.b23 * _cross(d2, d5) + 60.0 * cls.b23 * _cross(d3, d4) - 35.0 * b24**2
    except OverflowError:  # the float power is past 1.8e308
        name = "[gamma'', gamma'''']"
        raise ValueError(_power_overflow("affine cuspidal curvature", name, "2", b24)) from None
    return num / signed_power(cls.b23, 12, 5)


def mu_A(curve: CurveSpec) -> float:
    return affine_cuspidal_curvature(curve.jet(0.0, 5))


def inflectional_curvature(germ: PlaneJet) -> tuple[float, int]:
    """(mu_I, eps_I) at a generic inflection germ (order >= 4).

    eps_I is the sign of [gamma', gamma'''] (the sign of the inflection);
    mu_I flips sign under orientation reversal.
    """
    return _mu_I(germ, _require(germ, "inflectional curvature", cusp=False))


def _mu_I(germ: PlaneJet, cls: SingularityClass) -> tuple[float, int]:
    if germ.order < 4:
        raise ValueError("inflectional curvature needs a germ of order >= 4")
    d1 = germ.derivative_vector(1)
    d4 = germ.derivative_vector(4)
    eps = 1 if cls.b13 > 0 else -1
    num = _cross(d1, d4) - 6.0 * cls.b23
    return eps * num / signed_power(cls.b13, 5, 4), eps


def mu_I(curve: CurveSpec) -> tuple[float, int]:
    return inflectional_curvature(curve.jet(0.0, 4))


# -- smooth (jet) route for the normalized profiles ----------------------------


@dataclass(frozen=True)
class CuspProfileJets(ProfileJets):
    """Jets of f = (s_A)^2 kappa_A at a cusp: s_A = sgn(t)|t|^(5/3) L(t), tau35 = t L^(3/5)."""

    mu_A: float

    @property
    def h0(self) -> float:
        """The tau^2-coefficient of f, H0_PER_MU_A * mu_A (f0 is 4/25 and fdot0 is 0)."""
        return float(self.f_tau.coeffs[2])


@dataclass(frozen=True)
class InflectionProfileJets(ProfileJets):
    """Jets of f at an inflection: s_A = sgn(t)|t|^(4/3) L(t), tau34 = t L^(3/4)."""

    mu_I: float
    eps_I: int
    identity_residual_t: float

    @property
    def g0(self) -> float:
        """The slope of f in tau, G0_PER_MU_I * mu_I (f0 is -5/16)."""
        return self.fdot0

    @property
    def identity_residual_tau(self) -> float:
        """The universal identity 32 f'(0)^2 + 9 f''(0) = 0 in tau, as a residual."""
        try:
            return 32.0 * self.g0**2 + 9.0 * self.fddot0
        except OverflowError:  # the float power is past 1.8e308
            raise ValueError(_power_overflow("identity residual", "f'(0)", "2", self.g0)) from None


def _smooth_jets(germ: PlaneJet, k: int) -> tuple[Jet, Jet, Jet]:
    """(f_t, tau_t, L) of f = (s_A)^2 kappa_A where [g', g''] = t^k a12(t).

    k = 2 at a 3/2-cusp and k = 1 at a generic inflection.  With
    [g', g'''] = t^(k-1) a13, [g', g''''] = t^(k-1) a14, [g'', g'''] = a23
    and s_A = sgn(t)|t|^(1 + k/3) L(t), L the (k/3)-weighted mean of
    |a12|^(1/3), the powers of t cancel:

        f = L^2 (3 t a12 a14 + 12 t^(2-k) a12 a23 - 5 a13^2) / (9 |a12|^(8/3)),
        tau = t L^(3/(3+k)).
    """
    d1 = germ.derivative(1)
    d2 = d1.derivative(1)  # each as germ.derivative(j), one step from the last
    d3 = d2.derivative(1)
    d4 = d3.derivative(1)
    a12 = deflate(bracket(d1, d2), k)
    a13 = bracket(d1, d3)
    a14 = bracket(d1, d4)
    if k > 1:
        a13, a14 = deflate(a13, k - 1), deflate(a14, k - 1)
    a23 = bracket(d2, d3)
    t = Jet.variable(0.0, a12.order)
    lead = 12.0 * t if k == 1 else 12.0  # 12 t^(2-k), with no factor t^0 at a cusp
    M = 3.0 * t * a12 * a14 + lead * a12 * a23 - 5.0 * a13 * a13
    abs_a12 = a12 if a12.value() > 0 else -a12
    L = moment_quotient_jet(abs_a12.pow_rational(1, 3), k / 3)
    f_t = L * L * M / (abs_a12.pow_rational(8, 3) * 9.0)
    return f_t, inflate(L.pow_rational(3, 3 + k), 1), L


def cusp_profile_jets(germ: PlaneJet) -> CuspProfileJets:
    """The smooth jets of f and tau35 at a cusp germ (``_smooth_jets``, k = 2).

    Raises ``ValueError`` unless the germ is a 3/2-cusp.
    """
    return _cusp_jets(germ, _require(germ, "affine cuspidal curvature", cusp=True))


def _cusp_jets(germ: PlaneJet, cls: SingularityClass) -> CuspProfileJets:
    return CuspProfileJets(*_smooth_jets(germ, 2), _mu_A(germ, cls))


def _identity_residual(germ: PlaneJet, cls: SingularityClass, f_jet: Jet) -> float:
    """Residual of the universal inflection identity, in the germ's parameter.

    For the jet of f = (s_A)^2 kappa_A at a generic inflection the combination

        -(9/7) (([g',g''''] + [g'',g''']) / [g',g''']) f'(0)
            + 32 f'(0)^2 + 9 f''(0)

    vanishes; the returned residual measures the failure of a candidate f-jet.
    """
    if f_jet.order < 2:
        raise ValueError("identity residual needs the f-jet to order >= 2")
    d1 = germ.derivative_vector(1)
    d4 = germ.derivative_vector(4)
    b14 = _cross(d1, d4)
    fd = float(f_jet.coeffs[1])
    fdd = 2.0 * float(f_jet.coeffs[2])
    try:
        return -(9.0 / 7.0) * ((b14 + cls.b23) / cls.b13) * fd + 32.0 * fd**2 + 9.0 * fdd
    except OverflowError:  # the float power is past 1.8e308
        raise ValueError(_power_overflow("identity residual", "f'(0)", "2", fd)) from None


def inflection_profile_jets(germ: PlaneJet) -> InflectionProfileJets:
    """The smooth jets of f and tau34 at an inflection germ (``_smooth_jets``, k = 1).

    Raises ``ValueError`` unless the germ is a generic inflection.
    """
    return _inflection_jets(germ, _require(germ, "inflectional curvature", cusp=False))


def _inflection_jets(germ: PlaneJet, cls: SingularityClass) -> InflectionProfileJets:
    value, eps = _mu_I(germ, cls)
    f_t, tau_t, L = _smooth_jets(germ, 1)
    return InflectionProfileJets(f_t, tau_t, L, value, eps, _identity_residual(germ, cls, f_t))


# -- the profile kinds -----------------------------------------------------------


def _bracket12(curve: CurveSpec, ts: np.ndarray) -> np.ndarray:
    """[gamma', gamma''] at each t of ts."""
    d = curve.derivatives_at(ts, 2)
    return cross(d[1], d[2])


def _direct(d: np.ndarray, s: np.ndarray) -> np.ndarray:
    """(s_A)^2 kappa_A on a derivative stack d[k][xy]."""
    b12 = cross(d[1], d[2])
    b13, b14, b23 = cross(d[1], d[3]), cross(d[1], d[4]), cross(d[2], d[3])
    num = 3.0 * b12 * b14 + 12.0 * b12 * b23 - 5.0 * b13**2
    return s**2 * (num / (9.0 * np.abs(b12) ** (8.0 / 3.0)))


def _kind(name: str, k: int, jets, origin: float) -> Kind:
    """The kind whose [gamma', gamma''] has a zero of order k at t = 0.

    s_A = sgn(t)|t|^(1 + k/3) L(t) with L the (k/3)-weighted mean of
    psi(u) = |[gamma', gamma''](u) / u^k|^(1/3); the profile is ``origin``
    at t = 0.
    """
    return Kind(
        name=name,
        p=3 / (3 + k),
        alpha=k / 3,
        phi=lambda curve, us: np.abs(_bracket12(curve, us) / us**k) ** (1.0 / 3.0),
        order=4,
        direct=_direct,
        jets=jets,
        origin=lambda jets: origin,
    )


AFFINE_CUSP = _kind("affine-cusp", 2, cusp_profile_jets, CUSP_PROFILE_VALUE)
INFLECTION = _kind("inflection", 1, inflection_profile_jets, INFLECTION_PROFILE_VALUE)


def profile_A_cusp(curve: CurveSpec, tau_grid) -> tuple[NormalizedProfile, CuspProfileJets]:
    """Sample (s_A)^2 kappa_A on the 3/5-arclength parameter at a cusp, with its jets record."""
    p = Profiler(curve, AFFINE_CUSP)
    return p.profile(tau_grid), p.jets


def profile_A_inflection(
    curve: CurveSpec, tau_grid
) -> tuple[NormalizedProfile, InflectionProfileJets]:
    """Sample (s_A)^2 kappa_A on the 3/4-arclength parameter at an inflection, with its record."""
    p = Profiler(curve, INFLECTION)
    return p.profile(tau_grid), p.jets


# -- the invariant report ---------------------------------------------------------


def invariants(curve: CurveSpec) -> dict:
    """The invariant report of a curve at t = 0, from one classification of its germ.

    c is read from mu_A or mu_I (``normal_form`` is the independent route to
    it); a regular point reports kappa_g and kappa_A, any other its brackets.

    The germ is built to order ``REPORT_JET_ORDER`` = 8, not to the profiles'
    ``PROFILE_JET_ORDER`` = 12: h0 needs the cusp's f_tau through tau^2,
    hence order 7, and order 8 keeps every field bit for bit as from the
    order-12 germ.  Coefficients past order 8 are never read, so one that
    overflows there no longer fails the report.
    """
    germ = curve.jet(0.0, REPORT_JET_ORDER)
    cls = classify(germ)
    report: dict = {
        "label": curve.label or str(curve),
        "params": dict(sorted(curve.params.items())),
        "class": str(cls),
    }
    if cls.is_cusp:
        mu = _mu_g(germ, cls)
        jets = trapped_jets(AFFINE_CUSP.name, _cusp_jets, germ, cls)
        report.update(mu_A=jets.mu_A, f0=jets.f0, fdot0=jets.fdot0, h0=jets.h0, mu_g=mu)
        report.update(f0_g=_profile_limit(mu), c=jets.mu_A / CUSP_NF_DENOM)
    elif cls.is_inflection:
        jets = trapped_jets(INFLECTION.name, _inflection_jets, germ, cls)
        report.update(mu_I=jets.mu_I, eps_I=jets.eps_I, f0=jets.f0, g0=jets.g0)
        report.update(identity_residual_t=jets.identity_residual_t, c=INFL_NF_FACTOR * jets.mu_I)
        report["identity_residual_tau"] = jets.identity_residual_tau
    elif cls.label is SingularityType.REGULAR:
        report.update(kappa_g=curvature_from_jet(germ), kappa_A=affine_curvature_from_jet(germ))
    else:
        report["diagnostics"] = {k: v for k, v in vars(cls).items() if k != "label"}
    return report


# -- normal forms ----------------------------------------------------------------


def _parameter_scaled(germ: PlaneJet, lam: float) -> PlaneJet:
    """Germ of t |-> gamma(lam * t)."""
    powers = lam ** np.arange(germ.order + 1)
    return PlaneJet.from_coeffs(germ.x.coeffs * powers, germ.y.coeffs * powers)


def _framed(germ: PlaneJet, i: int, power: float) -> PlaneJet:
    """The germ moved to the origin, with t scaled by b^power, b = [g^(i), g'''](0),
    and written in the frame (g^(i)(0), g'''(0)) of the scaled germ."""
    x, y = germ.x.coeffs.copy(), germ.y.coeffs.copy()
    x[0] = y[0] = 0.0
    lam = _cross(germ.derivative_vector(i), germ.derivative_vector(3)) ** power
    g = _parameter_scaled(PlaneJet.from_coeffs(x, y), lam)
    return g.transform(np.linalg.inv(np.array([g.derivative_vector(i), g.derivative_vector(3)]).T))


def normal_form(germ: PlaneJet) -> NormalFormResult:
    """Reduce a germ to its equi-affine normal form and extract c.

    The germ's class picks the target: (u^2, u^3 + c u^5) at a 3/2-cusp,
    c = mu_A / (80 * 54^(1/5)), or (u, u^3 + c u^4) at a generic inflection,
    c = 6^(1/4) mu_I / 4.  Negative germs are first normalized by an
    orientation reversal (cusps) or an axis flip (inflections), both of which
    preserve the invariant; this is flagged in the result.  Any other germ
    raises ``ValueError`` naming its class.
    """
    cls = classify(germ)
    if cls.is_cusp:
        return _normal_form_cusp(germ, cls.label is SingularityType.NEGATIVE_CUSP)
    if cls.is_inflection:
        return _normal_form_inflection(germ, cls.label is SingularityType.NEGATIVE_INFLECTION)
    raise ValueError(f"normal form needs a 3/2-cusp or a generic inflection germ, got {cls}")


def _normal_form_cusp(germ: PlaneJet, flipped: bool) -> NormalFormResult:
    if germ.order < 8:
        raise ValueError("cusp normal form needs a germ of order >= 8")
    if flipped:
        germ = germ.reversed_orientation()
    g = _framed(germ, 2, -0.2)

    # Reparametrize so the first component becomes s^2/2 exactly.
    a0 = deflate(2.0 * g.x, 2).sqrt()
    s_jet = inflate(a0, 1)
    g = g.compose(s_jet.inverted())

    # Parameter scale + unimodular diagonal map to reach (w^2, w^3 (1 + w B)).
    g = _parameter_scaled(g, 12.0**0.2)
    k = 6.0 * 12.0 ** (-0.6)
    g = g.transform(np.array([[1.0 / k, 0.0], [0.0, k]]))

    # Shear to kill the w^4 term of the second component.
    B0 = float(deflate(deflate(g.y, 3) - 1.0, 1, tol=1e-7).value())
    xi = 2.0 * B0 / 3.0
    g = g.transform(np.array([[1.0, xi], [0.0, 1.0]]))

    # Final reparametrization u = w * sqrt(x / w^2), making x = u^2 exactly.
    u_jet = inflate(deflate(g.x, 2, tol=1e-7).sqrt(), 1)
    g = g.compose(u_jet.inverted())

    y = g.y.coeffs
    c = float(y[5])
    tail = float(abs(y[6])) if len(y) > 6 else math.nan
    return NormalFormResult(c, g, flipped, tail)


def _normal_form_inflection(germ: PlaneJet, flipped: bool) -> NormalFormResult:
    if germ.order < 5:
        raise ValueError("inflection normal form needs a germ of order >= 5")
    if flipped:
        germ = germ.transform(np.array([[1.0, 0.0], [0.0, -1.0]]))
    g = _framed(germ, 1, -0.25)

    # The first component itself is the new parameter: x(s) = s exactly.
    g = g.compose(g.x.inverted())

    sigma = 6.0**0.25
    g = _parameter_scaled(g, sigma)
    g = g.transform(np.array([[1.0 / sigma, 0.0], [0.0, sigma]]))

    y = g.y.coeffs
    c = float(y[4])
    tail = float(abs(y[5])) if len(y) > 5 else math.nan
    return NormalFormResult(c, g, flipped, tail)
