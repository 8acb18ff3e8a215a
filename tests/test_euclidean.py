import math
import re
import warnings

import numpy as np
import pytest

from cuspkit.affine import invariants
from cuspkit.dsl import CATALOG_CUSPS, catalog_lookup, parse_curve
from cuspkit.euclidean import (
    EUCLID_CUSP,
    SingularityType,
    classify,
    cuspidal_curvature,
    curvature_from_jet,
    kappa_g,
    mu_g,
    profile_g,
)
from cuspkit.jets import Jet, PlaneJet
from cuspkit.profiles import Profiler


def cusp_curves(a=1.0):
    return [catalog_lookup(name, {"a": a}) for name in CATALOG_CUSPS]


# -- classification -------------------------------------------------------------


def test_classify_positive_cusp():
    cls = classify(parse_curve("(t^2, t^3)").jet(0.0, 5))
    assert cls.label is SingularityType.POSITIVE_CUSP
    assert cls.b23 == pytest.approx(12.0)


def test_classify_negative_cusp():
    cls = classify(parse_curve("(t^2, -t^3)").jet(0.0, 5))
    assert cls.label is SingularityType.NEGATIVE_CUSP


def test_classify_positive_inflection():
    cls = classify(catalog_lookup("skew_cycloid", {"a": 1.0}).jet(0.0, 5))
    assert cls.label is SingularityType.POSITIVE_INFLECTION
    assert cls.b13 == pytest.approx(1.0)


def test_classify_negative_inflection():
    cls = classify(parse_curve("(t, -t^3)").jet(0.0, 5))
    assert cls.label is SingularityType.NEGATIVE_INFLECTION


def test_classify_regular():
    cls = classify(catalog_lookup("circle", {"r": 1.0}).jet(0.0, 5))
    assert cls.label is SingularityType.REGULAR


@pytest.mark.parametrize("text", ["(t, 2*t)", "(t^2, t^4)", "(t, t^4)"])
def test_classify_degenerate(text):
    assert classify(parse_curve(text).jet(0.0, 5)).label is SingularityType.DEGENERATE


def test_classify_needs_order_three():
    with pytest.raises(ValueError, match="order >= 3"):
        classify(parse_curve("(t^2, t^3)").jet(0.0, 2))


def test_classify_is_scale_free():
    for lam in (1e-6, 1e6):
        germ = parse_curve("(a*t^2, a*t^3)", {"a": lam}).jet(0.0, 5)
        assert classify(germ).label is SingularityType.POSITIVE_CUSP


# -- curvature and arclength ------------------------------------------------------


def test_kappa_g_circle():
    assert kappa_g(catalog_lookup("circle", {"r": 2.0}), 0.3) == pytest.approx(0.5)


def test_kappa_g_cuspidal_cubic():
    assert kappa_g(parse_curve("(t^2, t^3)"), 1.0) == pytest.approx(6.0 / 13.0**1.5)


def test_kappa_g_line_is_zero():
    assert kappa_g(parse_curve("(t, 2*t)"), 0.7) == pytest.approx(0.0)


def test_kappa_g_rejects_singular_point():
    with pytest.raises(ValueError, match="singular point"):
        kappa_g(parse_curve("(t^2, t^3)"), 0.0)


def test_kappa_g_that_overflows_names_the_speed():
    # |gamma'| = 1e300 / 3, so |gamma'|^3 overflows; the true kappa_g is about -1.8e-599.
    germ = parse_curve("(t^2, t^3 + ((1e300*t))^1/3)").jet(0.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape("|gamma'| = 3.33333e+299")):
            curvature_from_jet(germ)
        assert kappa_g(parse_curve("(1e100*t, t^2)"), 0.0) == 2e-200


def _arclength(curve, t):
    """s_g at t from the profiler, and tau = sgn(s_g) sqrt(|s_g|) from it."""
    s = float(Profiler(curve, EUCLID_CUSP).arclength(np.array([t]))[0])
    return s, math.copysign(math.sqrt(abs(s)), s)


def test_arclength_cuspidal_cubic():
    s, tau = _arclength(parse_curve("(t^2, t^3)"), 1.0)
    assert s == pytest.approx((13.0**1.5 - 8.0) / 27.0, abs=1e-12)
    assert tau == pytest.approx(math.sqrt(s), abs=1e-12)


def test_half_arclength_of_cycloid():
    _, tau = _arclength(catalog_lookup("cycloid", {"a": 1.0}), math.pi / 2)
    assert tau == pytest.approx(2.0 * math.sqrt(2.0) * math.sin(math.pi / 8), abs=1e-12)


def test_arclength_at_zero():
    assert _arclength(parse_curve("(t^2, t^3)"), 0.0) == (0.0, 0.0)


def test_arclength_is_odd_in_t():
    curve = catalog_lookup("cycloid", {"a": 1.0})
    sp, taup = _arclength(curve, 0.8)
    sm, taum = _arclength(curve, -0.8)
    assert sm == pytest.approx(-sp, abs=1e-12)
    assert taum == pytest.approx(-taup, abs=1e-12)


# -- cuspidal curvature -----------------------------------------------------------


@pytest.mark.parametrize("a, expected", [(0.5, 3.0), (1.0, 3.0 / math.sqrt(2.0)), (2.0, 1.5)])
def test_mu_g_cuspidal_cubic(a, expected):
    assert mu_g(catalog_lookup("cuspidal_cubic", {"a": a})) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_mu_g_cycloid(a):
    assert mu_g(catalog_lookup("cycloid", {"a": a})) == pytest.approx(1.0 / math.sqrt(a), abs=1e-12)


def test_mu_g_sign_flips_under_orientation_reversal():
    germ = catalog_lookup("cuspidal_cubic", {"a": 1.0}).jet(0.0, 5)
    assert cuspidal_curvature(germ.reversed_orientation()) == pytest.approx(
        -3.0 / math.sqrt(2.0), abs=1e-12
    )


def test_mu_g_rejects_non_cusp():
    with pytest.raises(ValueError, match="3/2-cusp"):
        cuspidal_curvature(catalog_lookup("circle", {"r": 1.0}).jet(0.0, 5))


def test_euclidean_report_limit_value():
    # The profile's value at the cusp and the report's f0_g share one formula.
    curve = catalog_lookup("cycloid", {"a": 1.0})
    germ = curve.jet(0.0, 5)
    assert classify(germ).is_cusp
    assert cuspidal_curvature(germ) == pytest.approx(1.0)
    limit = Profiler(curve, EUCLID_CUSP).f0
    assert limit == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))
    report = invariants(curve)
    assert (report["mu_g"], report["f0_g"]) == (cuspidal_curvature(germ), limit)


# -- the normalized profile -------------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0])
def test_canonical_cusp_profile_is_constant(a):
    prof = profile_g(catalog_lookup("canonical_cusp", {"a": a}), np.linspace(-1.0, 1.0, 21))
    assert np.allclose(prof.values, a, atol=1e-10)
    assert prof.f0 == pytest.approx(a, abs=1e-12)
    assert prof.fdot0 == pytest.approx(0.0, abs=1e-12)


def test_cycloid_profile_value_at_origin():
    prof = profile_g(catalog_lookup("cycloid", {"a": 1.0}), [0.0])
    assert prof.values[0] == pytest.approx(1.0 / (2.0 * math.sqrt(2.0)))


def test_cuspidal_cubic_profile_value_at_origin():
    prof = profile_g(parse_curve("(t^2, t^3)"), [0.0])
    assert prof.values[0] == pytest.approx(0.75)


def test_profile_rejects_non_cusp():
    with pytest.raises(ValueError, match="cusp"):
        profile_g(catalog_lookup("circle", {"r": 1.0}), [0.0])


def test_profile_matches_germ_taylor_near_origin():
    curve = catalog_lookup("cycloid", {"a": 1.0})
    grid = np.array([-0.01, -0.005, 0.005, 0.01])
    prof = profile_g(curve, grid)
    taylor = prof.f0 + prof.fdot0 * grid + 0.5 * prof.fddot0 * grid**2
    assert np.allclose(prof.values, taylor, atol=1e-6)


@pytest.mark.parametrize("name", CATALOG_CUSPS)
def test_direct_and_smooth_routes_agree_on_overlap_band(name):
    assert Profiler(catalog_lookup(name, {"a": 1.0}), EUCLID_CUSP).overlap_consistency() < 1e-8


@pytest.mark.parametrize("name", CATALOG_CUSPS)
def test_profile_limit_by_richardson_extrapolation(name):
    p = Profiler(catalog_lookup(name, {"a": 1.0}), EUCLID_CUSP)

    def even(h):
        v = p.values_at_t(p.t_of_tau(np.array([h, -h])))
        return 0.5 * (v[0] + v[1])

    g1, g2, g3 = even(0.1), even(0.05), even(0.025)
    r1, r2 = (4 * g2 - g1) / 3, (4 * g3 - g2) / 3
    extrapolated = (16 * r2 - r1) / 15
    assert extrapolated == pytest.approx(p.jets.mu_g / (2 * math.sqrt(2)), abs=1e-6)


# -- invariance properties ---------------------------------------------------------


def _compose_germ(germ: PlaneJet, inner_coeffs) -> PlaneJet:
    return germ.compose(Jet(inner_coeffs))


@pytest.mark.parametrize("name", CATALOG_CUSPS)
def test_mu_g_reparametrization_invariance(name):
    curve = catalog_lookup(name, {"a": 1.0})
    germ = curve.jet(0.0, 8)
    base = cuspidal_curvature(germ)
    # u(t) = t + t^2/2, orientation preserving near 0
    inner = np.zeros(9)
    inner[1], inner[2] = 1.0, 0.5
    reparam = _compose_germ(germ, inner)
    assert cuspidal_curvature(reparam) == pytest.approx(base, abs=1e-10)


def test_mu_g_euclidean_invariance(rng):
    germ = catalog_lookup("cycloid", {"a": 1.0}).jet(0.0, 6)
    base = cuspidal_curvature(germ)
    for _ in range(100):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        moved = germ.transform(rot, rng.uniform(-5.0, 5.0, size=2))
        assert cuspidal_curvature(moved) == pytest.approx(base, abs=1e-10)


@pytest.mark.parametrize("lam", [0.25, 4.0])
def test_mu_g_scaling_law(lam):
    base = mu_g(catalog_lookup("cuspidal_cubic", {"a": 1.0}))
    scaled = mu_g(catalog_lookup("cuspidal_cubic", {"a": lam}))
    # gamma -> lam * gamma multiplies mu_g by lam^(-1/2)
    assert scaled == pytest.approx(base * lam**-0.5, abs=1e-10)


def test_canonical_cusp_satisfies_half_arclength_criterion():
    curve = catalog_lookup("canonical_cusp", {"a": 1.0})
    ts = np.linspace(-1.0, 1.0, 41)
    d = curve.derivatives_at(ts, 1)
    speeds = np.hypot(d[1][0], d[1][1])
    assert np.max(np.abs(speeds - 2.0 * np.abs(ts))) < 1e-8
