import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuspkit import affine as affine_module
from cuspkit.affine import (
    CUSP_NF_DENOM,
    CUSP_PROFILE_VALUE,
    G0_PER_MU_I,
    H0_PER_MU_A,
    INFL_NF_FACTOR,
    AFFINE_CUSP,
    INFLECTION,
    INFLECTION_PROFILE_VALUE,
    affine_cuspidal_curvature,
    affine_curvature_from_jet,
    inflection_profile_jets,
    inflectional_curvature,
    kappa_A,
    mu_A,
    mu_I,
    normal_form,
    profile_A_cusp,
    profile_A_inflection,
)
from cuspkit.dsl import CATALOG_NAMES, catalog_lookup, parse_curve
from cuspkit.euclidean import classify
from cuspkit.jets import Jet, PlaneJet, signed_power
from cuspkit.profiles import PROFILE_JET_ORDER, Profiler


# -- affine curvature ---------------------------------------------------------


def test_kappa_A_parabola_vanishes():
    assert kappa_A(catalog_lookup("parabola", {}), 0.7) == pytest.approx(0.0, abs=1e-14)


def test_kappa_A_cuspidal_cubic():
    assert kappa_A(parse_curve("(t^2, t^3)"), 1.0) == pytest.approx(16.0 / 6.0 ** (8 / 3))


def test_kappa_A_cubic_graph():
    assert kappa_A(parse_curve("(t, t^3)"), 1.0) == pytest.approx(-20.0 / 6.0 ** (8 / 3))


def test_kappa_A_rejects_bracket_zero():
    with pytest.raises(ValueError, match="normalized profile"):
        kappa_A(parse_curve("(t^2, t^3)"), 0.0)


def test_kappa_A_that_overflows_names_the_bracket():
    # [gamma', gamma''] = -2e300 / 3, whose 8/3 power overflows.
    germ = parse_curve("(t^2, t^3 + ((1e300*t))^1/3)").jet(0.0, 4)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape("[gamma', gamma''] = -6.66667e+299")):
            affine_curvature_from_jet(germ)


def test_kappa_A_reparametrization_invariance():
    curve = catalog_lookup("cycloid", {"a": 1.0})
    for t0 in (0.2, 0.5, -0.4):
        u0 = t0 + t0**3
        base = kappa_A(curve, u0)
        # germ of gamma(u(t)) at t0, u(t) = t + t^3
        inner = Jet([u0, 1 + 3 * t0**2, 3 * t0, 1.0, 0.0], base_point=t0)
        composed = curve.jet(u0, 4).compose(inner)

        assert affine_curvature_from_jet(composed) == pytest.approx(base, abs=1e-8)


# -- affine arclength ----------------------------------------------------------


def _arclength(curve, kind, t):
    """s_A at t from the profiler."""
    return float(Profiler(curve, kind).arclength(np.array([t]))[0])


def test_arclength_cuspidal_cubic():
    s = _arclength(parse_curve("(t^2, t^3)"), AFFINE_CUSP, 1.0)
    expected = 3.0 * 6.0 ** (1 / 3) / 5.0
    assert s == pytest.approx(expected, abs=1e-12)
    assert signed_power(s, 3, 5) == pytest.approx(expected**0.6, abs=1e-12)  # tau35


def test_tau35_is_linear_for_the_cuspidal_cubic():
    curve = parse_curve("(t^2, t^3)")
    slope = None
    for t in (0.2, 0.5, 1.0, -0.7):
        s = _arclength(curve, AFFINE_CUSP, t)
        ratio = signed_power(s, 3, 5) / t  # tau35 / t
        slope = slope if slope is not None else ratio
        assert ratio == pytest.approx(slope, abs=1e-10)


def test_arclength_cubic_graph():
    s = _arclength(parse_curve("(t, t^3)"), INFLECTION, 1.0)
    assert s == pytest.approx(0.75 * 6.0 ** (1 / 3), abs=1e-12)
    tau34 = abs(s) ** 0.75  # sgn(t) |s_A|^(3/4) at t = 1
    assert tau34 == pytest.approx((0.75 * 6.0 ** (1 / 3)) ** 0.75, abs=1e-12)


# -- the two affine invariants ----------------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_mu_A_cycloid_family(a):
    assert mu_A(catalog_lookup("cycloid", {"a": a})) == pytest.approx(36.0 * a**-0.8, rel=1e-12)
    assert mu_A(catalog_lookup("hyperbolic_cycloid", {"a": a})) == pytest.approx(
        -36.0 * a**-0.8, rel=1e-12
    )


@pytest.mark.parametrize("a", [1.0, 3.0])
def test_mu_A_cuspidal_cubic_vanishes(a):
    assert mu_A(catalog_lookup("cuspidal_cubic", {"a": a})) == pytest.approx(0.0, abs=1e-13)


def test_mu_A_requires_cusp_and_order():
    with pytest.raises(ValueError, match="3/2-cusp"):
        affine_cuspidal_curvature(catalog_lookup("circle", {"r": 1.0}).jet(0.0, 5))
    with pytest.raises(ValueError, match="order >= 5"):
        affine_cuspidal_curvature(parse_curve("(t^2, t^3)").jet(0.0, 4))


def test_mu_A_orientation_independent():
    germ = catalog_lookup("cycloid", {"a": 1.0}).jet(0.0, 6)
    assert affine_cuspidal_curvature(germ.reversed_orientation()) == pytest.approx(
        affine_cuspidal_curvature(germ), rel=1e-12
    )


def test_mu_A_equi_affine_invariance(rng):
    for name in ("cycloid", "hyperbolic_cycloid"):
        germ = catalog_lookup(name, {"a": 1.0}).jet(0.0, 6)
        base = affine_cuspidal_curvature(germ)
        for _ in range(100):
            m = rng.uniform(-2.0, 2.0, size=(2, 2))
            det = np.linalg.det(m)
            if abs(det) < 0.1:
                continue
            m /= math.sqrt(abs(det))
            moved = germ.transform(m, rng.uniform(-3.0, 3.0, size=2))
            assert affine_cuspidal_curvature(moved) == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("lam", [0.25, 4.0])
def test_mu_A_scaling_law(lam):
    base = mu_A(catalog_lookup("cycloid", {"a": 1.0}))
    assert mu_A(catalog_lookup("cycloid", {"a": lam})) == pytest.approx(
        base * lam**-0.8, rel=1e-10
    )


@pytest.mark.parametrize("a", [1.0, 4.0])
def test_mu_I_skew_cycloid(a):
    value, eps = mu_I(catalog_lookup("skew_cycloid", {"a": a}))
    assert value == pytest.approx(-6.0 / math.sqrt(a), rel=1e-12)
    assert eps == 1


def test_mu_I_flips_sign_under_orientation_reversal():
    germ = catalog_lookup("skew_cycloid", {"a": 1.0}).jet(0.0, 5)
    value, eps = inflectional_curvature(germ.reversed_orientation())
    assert value == pytest.approx(6.0, rel=1e-12)
    assert eps == 1  # the inflection stays positive


def test_mu_I_cubic_graph_vanishes():
    value, eps = mu_I(catalog_lookup("cubic_graph", {"a": 1.0}))
    assert value == pytest.approx(0.0, abs=1e-14)
    assert eps == 1


def test_mu_I_requires_generic_inflection():
    with pytest.raises(ValueError, match="generic inflection"):
        inflectional_curvature(parse_curve("(t^2, t^3)").jet(0.0, 5))


def test_mu_I_equi_affine_invariance(rng):
    germ = catalog_lookup("skew_cycloid", {"a": 1.0}).jet(0.0, 5)
    base, _ = inflectional_curvature(germ)
    for _ in range(100):
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        det = np.linalg.det(m)
        if abs(det) < 0.1:
            continue
        m /= math.sqrt(abs(det))
        value, _ = inflectional_curvature(germ.transform(m, rng.uniform(-3.0, 3.0, size=2)))
        assert value == pytest.approx(base, rel=1e-8)


@pytest.mark.parametrize("lam", [0.25, 4.0])
def test_mu_I_scaling_law(lam):
    base, _ = mu_I(catalog_lookup("skew_cycloid", {"a": 1.0}))
    scaled, _ = mu_I(catalog_lookup("skew_cycloid", {"a": lam}))
    assert scaled == pytest.approx(base * lam**-0.5, rel=1e-10)


# -- cusp profiles ------------------------------------------------------------------


def test_cuspidal_cubic_profile_constant():
    prof, rep = profile_A_cusp(parse_curve("(t^2, t^3)"), np.linspace(-0.5, 0.5, 11))
    assert np.allclose(prof.values, CUSP_PROFILE_VALUE, atol=1e-10)
    assert rep.h0 == pytest.approx(0.0, abs=1e-12)


def test_exactness_cross_check_cuspidal_cubic():
    curve = parse_curve("(t^2, t^3)")
    for t in (0.1, 0.5, 1.0):
        s = _arclength(curve, AFFINE_CUSP, t)
        assert s * s * kappa_A(curve, t) == pytest.approx(0.16, abs=1e-10)


@pytest.mark.parametrize("name, sign", [("cycloid", 1.0), ("hyperbolic_cycloid", -1.0)])
def test_cusp_profile_germ_data(name, sign):
    _, rep = profile_A_cusp(catalog_lookup(name, {"a": 1.0}), [0.0])
    assert rep.f0 == pytest.approx(CUSP_PROFILE_VALUE, abs=1e-10)
    assert rep.fdot0 == pytest.approx(0.0, abs=1e-10)
    assert rep.mu_A == pytest.approx(sign * 36.0, rel=1e-12)
    assert rep.h0 == pytest.approx(H0_PER_MU_A * rep.mu_A, rel=1e-10)


def test_h0_matches_polynomial_fit_oracle():
    # quartic fit so the tau^4 tail does not bias the tau^2 coefficient
    curve = catalog_lookup("cycloid", {"a": 1.0})
    grid = np.linspace(-0.05, 0.05, 41)
    prof, rep = profile_A_cusp(curve, grid)
    design = np.vstack([grid**k for k in range(5)]).T
    coef, *_ = np.linalg.lstsq(design, prof.values, rcond=None)
    assert coef[2] == pytest.approx(rep.h0, rel=1e-4)


def test_cusp_profile_rejects_inflection():
    with pytest.raises(ValueError, match="cusp"):
        profile_A_cusp(catalog_lookup("skew_cycloid", {"a": 1.0}), [0.0])


@pytest.mark.parametrize("name", ["cycloid", "hyperbolic_cycloid", "cuspidal_cubic"])
def test_cusp_profile_overlap_consistency(name):
    p = Profiler(catalog_lookup(name, {"a": 1.0}), AFFINE_CUSP)
    assert p.overlap_consistency() < 1e-8


def test_cusp_profile_matches_germ_taylor_near_origin():
    grid = np.array([-0.01, -0.004, 0.004, 0.01])
    prof, _ = profile_A_cusp(catalog_lookup("cycloid", {"a": 1.0}), grid)
    taylor = prof.f0 + prof.fdot0 * grid + 0.5 * prof.fddot0 * grid**2
    assert np.allclose(prof.values, taylor, atol=1e-6)


# -- inflection profiles --------------------------------------------------------------


def test_cubic_graph_profile_constant():
    prof, rep = profile_A_inflection(
        catalog_lookup("cubic_graph", {"a": 1.0}), np.linspace(-0.5, 0.5, 11)
    )
    assert np.allclose(prof.values, INFLECTION_PROFILE_VALUE, atol=1e-10)
    assert rep.g0 == pytest.approx(0.0, abs=1e-12)
    assert rep.identity_residual_t == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize(
    "fn, kind, name",
    [(profile_A_cusp, AFFINE_CUSP, "cycloid"), (profile_A_inflection, INFLECTION, "skew_cycloid")],
)
def test_profile_returns_the_profilers_jets_record(monkeypatch, fn, kind, name):
    made = []

    class Recorded(Profiler):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(affine_module, "Profiler", Recorded)
    prof, rec = fn(catalog_lookup(name, {"a": 1.0}), [-0.1, 0.0, 0.1])
    assert len(made) == 1 and made[0].kind is kind
    assert rec is made[0].jets
    assert (prof.f0, prof.fdot0, prof.fddot0) == (rec.f0, rec.fdot0, rec.fddot0)


def test_skew_cycloid_inflection_report():
    _, rep = profile_A_inflection(catalog_lookup("skew_cycloid", {"a": 1.0}), [0.0])
    assert rep.f0 == pytest.approx(INFLECTION_PROFILE_VALUE, abs=1e-10)
    assert rep.g0 == pytest.approx(G0_PER_MU_I * rep.mu_I, rel=1e-10)
    assert abs(rep.identity_residual_t) < 1e-6
    assert abs(rep.identity_residual_tau) < 1e-6


def test_g0_matches_linear_fit_oracle():
    curve = catalog_lookup("skew_cycloid", {"a": 1.0})
    grid = np.linspace(-0.03, 0.03, 31)
    prof, rep = profile_A_inflection(curve, grid)
    # cubic fit so the tau^3 tail does not bias the slope
    design = np.vstack([grid**k for k in range(4)]).T
    coef, *_ = np.linalg.lstsq(design, prof.values, rcond=None)
    assert coef[1] == pytest.approx(rep.g0, rel=1e-4)


def test_g0_matches_mpmath_oracle():
    # Independent of the jet pipeline: closed-form derivatives of the skew
    # cycloid (a=1), s_A by quadrature, t(tau) by Newton on s_A, and
    # Richardson-extrapolated symmetric differences of f(tau) at tau = 0.
    mp = pytest.importorskip("mpmath")
    _, rep = profile_A_inflection(catalog_lookup("skew_cycloid", {"a": 1.0}), [0.0])

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def derivatives(t):
        s, c = mp.sin(t), mp.cos(t)
        return (1 - c, -1 - s), (s, -c), (c, s), (-s, c)

    def ds_dt(t):
        d1, d2, _, _ = derivatives(t)
        return mp.cbrt(abs(cross(d1, d2)))

    def f(tau):
        s_target = mp.sign(tau) * abs(tau) ** (mp.mpf(4) / 3)
        t0 = tau * (mp.mpf(4) / 3) ** (mp.mpf(3) / 4)  # s_A ~ (3/4) t^(4/3)
        t = mp.findroot(
            lambda t: mp.quad(ds_dt, [0, t]) - s_target, t0, solver="newton", df=ds_dt
        )
        d1, d2, d3, d4 = derivatives(t)
        b12 = cross(d1, d2)
        num = 3 * b12 * cross(d1, d4) + 12 * b12 * cross(d2, d3) - 5 * cross(d1, d3) ** 2
        return s_target**2 * num / (9 * mp.cbrt(abs(b12)) ** 8)  # s_A(t) = s_target

    with mp.workdps(25):
        steps = [mp.mpf(1) / 20 / 2**k for k in range(4)]
        diffs = [(f(h) - f(-h)) / (2 * h) for h in steps]
        for k in range(1, len(steps)):
            diffs = [(4**k * b - a) / (4**k - 1) for a, b in zip(diffs, diffs[1:])]
        g0 = float(diffs[0])
    assert g0 == pytest.approx(rep.g0, rel=1e-7)


@pytest.mark.parametrize("name", ["cycloid", "hyperbolic_cycloid"])
def test_cusp_profile_matches_mpmath_oracle(name):
    # Independent of the jet pipeline and of the quadrature: closed-form
    # derivatives (a = 1), s_A by mp.quad and t(tau) by findroot, at 30
    # digits.  The t's straddle SWITCH_RADIUS and reach well outside it.
    mp = pytest.importorskip("mpmath")

    def cross(a, b):
        return a[0] * b[1] - a[1] * b[0]

    def derivatives(t):
        if name == "cycloid":
            s, c = mp.sin(t), mp.cos(t)
            return (1 - c, -s), (s, -c), (c, s), (-s, c)
        s, c = mp.sinh(t), mp.cosh(t)
        return (1 - c, s), (-s, c), (-c, s), (-s, c)

    def s_A(t):
        return mp.quad(lambda u: mp.cbrt(abs(cross(*derivatives(u)[:2]))), [0, t])

    def tau(t):
        return mp.sign(t) * abs(s_A(t)) ** (mp.mpf(3) / 5)

    ts = (-0.9, -0.3, -0.06, 0.051, 0.08, 0.2, 0.6)
    with mp.workdps(30):
        taus = [float(tau(mp.mpf(t))) for t in ts]
        want = []
        for t0, target in zip(ts, taus):
            t = mp.findroot(lambda t: tau(t) - target, mp.mpf(t0))
            d1, d2, d3, d4 = derivatives(t)
            b12 = cross(d1, d2)
            num = 3 * b12 * cross(d1, d4) + 12 * b12 * cross(d2, d3) - 5 * cross(d1, d3) ** 2
            want.append(float(s_A(t) ** 2 * num / (9 * mp.cbrt(abs(b12)) ** 8)))
    prof, _ = profile_A_cusp(catalog_lookup(name, {"a": 1.0}), taus)
    np.testing.assert_allclose(prof.values, want, rtol=8e-12, atol=0.0)


@pytest.mark.parametrize("name", ["cubic_graph", "skew_cycloid"])
def test_inflection_profile_overlap_consistency(name):
    p = Profiler(catalog_lookup(name, {"a": 1.0}), INFLECTION)
    assert p.overlap_consistency() < 1e-8


def test_inflection_profile_rejects_cusp():
    with pytest.raises(ValueError, match="inflection"):
        profile_A_inflection(parse_curve("(t^2, t^3)"), [0.0])


# -- the universal identity --------------------------------------------------------


def test_identity_residual_is_linear_in_fddot():
    germ = catalog_lookup("skew_cycloid", {"a": 1.0}).jet(0.0, 10)
    f_jet = inflection_profile_jets(germ).f_t
    cls = classify(germ)
    base = affine_module._identity_residual(germ, cls, f_jet)
    perturbed = Jet(f_jet.coeffs.copy())
    perturbed.coeffs[2] += 0.5  # adds +1 to f''(0)
    moved = affine_module._identity_residual(germ, cls, perturbed)
    assert moved - base == pytest.approx(9.0, abs=1e-12)


def test_identity_residual_vanishes_for_true_profiles(rng):
    for _ in range(10):
        a2 = rng.uniform(-2.0, 2.0)
        a3 = rng.uniform(0.3, 2.0) * rng.choice([-1.0, 1.0])
        a4 = rng.uniform(-2.0, 2.0)
        curve = parse_curve("(t + p*t^2, q*t^3 + r*t^4)", {"p": a2, "q": a3, "r": a4})
        jets = inflection_profile_jets(curve.jet(0.0, 12))
        assert abs(jets.identity_residual_t) < 1e-9
        assert abs(jets.identity_residual_tau) < 1e-9


# -- the invariant report's germ order ------------------------------------------------
# invariants() builds its germ to REPORT_JET_ORDER = 8.  Every field must be
# what the profiles' order-12 germ gives, bit for bit.  CI also runs these
# tests under the numpy that wrote the golden files.

CATALOG_PARAMETER = {"circle": "r", "parabola": None, "line": None}  # "a" for the others
CATALOG_CASES = [
    (name, value)
    for name in CATALOG_NAMES
    for value in ((0.5, 1.0, 2.0) if CATALOG_PARAMETER.get(name, "a") else (None,))
]

# The shapes of the benchmark's model germs: (u^2, u^3 + c u^5) and
# (u, u^3 + c u^4) after u = t + b t^2, a map P of determinant 1 and a shift s.
_U = "(t + b*t^2)"
MODEL_CUSP = (
    f"(p11*{_U}^2 + p12*({_U}^3 + c*{_U}^5) + s1, p21*{_U}^2 + p22*({_U}^3 + c*{_U}^5) + s2)"
)
MODEL_INFLECTION = (
    f"(p11*{_U} + p12*({_U}^3 + c*{_U}^4) + s1, p21*{_U} + p22*({_U}^3 + c*{_U}^4) + s2)"
)


def _bits(report):
    """The report with each float as its hex text, so that == compares bits, signbit included."""
    if isinstance(report, dict):
        return {k: _bits(v) for k, v in report.items()}
    return report.hex() if isinstance(report, float) else report


def _report_and_order_12_report(curve) -> tuple[dict, dict]:
    assert affine_module.REPORT_JET_ORDER == 8
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(affine_module, "REPORT_JET_ORDER", PROFILE_JET_ORDER)
        wide = affine_module.invariants(curve)
    return affine_module.invariants(curve), wide


@pytest.mark.parametrize("name, value", CATALOG_CASES)
def test_catalog_report_is_the_order_12_report_bit_for_bit(name, value):
    pname = CATALOG_PARAMETER.get(name, "a")
    got, want = _report_and_order_12_report(catalog_lookup(name, {pname: value} if pname else {}))
    assert _bits(got) == _bits(want)


_SIGNED_ENTRY = st.one_of(st.floats(0.3, 1.5), st.floats(-1.5, -0.3))


@given(
    st.sampled_from([MODEL_CUSP, MODEL_INFLECTION]),
    _SIGNED_ENTRY, st.floats(-1.5, 1.5), st.floats(-1.5, 1.5),
    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0), st.floats(-0.5, 0.5), st.floats(-2.0, 2.0),
)
@settings(max_examples=200, derandomize=True, deadline=None, database=None)
def test_model_germ_report_is_the_order_12_report_bit_for_bit(text, p11, p12, p21, s1, s2, b, c):
    p22 = (1.0 + p12 * p21) / p11  # det P = 1
    params = {"p11": p11, "p12": p12, "p21": p21, "p22": p22, "s1": s1, "s2": s2, "b": b, "c": c}
    got, want = _report_and_order_12_report(parse_curve(text, params))
    assert got["class"].endswith("Cusp" if text is MODEL_CUSP else "Inflection")
    assert _bits(got) == _bits(want)


# -- normal forms -------------------------------------------------------------------


def test_cusp_normal_form_of_model_germ():
    germ = parse_curve("(t^2, t^3 + t^5)").jet(0.0, 10)
    nf = normal_form(germ)
    assert nf.c == pytest.approx(1.0, abs=1e-10)
    assert not nf.flipped
    # reduced second component is u^3 + c u^5 with no u^4 term
    assert nf.reduced.y.coeffs[3] == pytest.approx(1.0, abs=1e-10)
    assert nf.reduced.y.coeffs[4] == pytest.approx(0.0, abs=1e-10)
    assert nf.reduced.x.coeffs[2] == pytest.approx(1.0, abs=1e-10)
    assert affine_cuspidal_curvature(germ) == pytest.approx(CUSP_NF_DENOM, rel=1e-12)


def test_cusp_normal_form_handles_negative_cusps():
    germ = parse_curve("(t^2, -t^3 - t^5)").jet(0.0, 10)
    nf = normal_form(germ)
    assert nf.flipped
    assert nf.c == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name", ["cycloid", "hyperbolic_cycloid", "canonical_cusp"])
def test_cusp_normal_form_reproduces_mu_A(name):
    curve = catalog_lookup(name, {"a": 1.0})
    nf = normal_form(curve.jet(0.0, 10))
    assert nf.c == pytest.approx(mu_A(curve) / CUSP_NF_DENOM, abs=1e-10)


def test_inflection_normal_form_of_model_germ():
    germ = parse_curve("(t, t^3 + t^4)").jet(0.0, 8)
    nf = normal_form(germ)
    assert nf.c == pytest.approx(1.0, abs=1e-10)
    value, _ = inflectional_curvature(germ)
    assert INFL_NF_FACTOR * value == pytest.approx(1.0, rel=1e-12)


def test_inflection_normal_form_handles_negative_inflections():
    germ = parse_curve("(t, -t^3 - t^4)").jet(0.0, 8)
    nf = normal_form(germ)
    assert nf.flipped
    assert nf.c == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("name", ["cubic_graph", "skew_cycloid"])
def test_inflection_normal_form_reproduces_mu_I(name):
    curve = catalog_lookup(name, {"a": 1.0})
    value, _ = mu_I(curve)
    nf = normal_form(curve.jet(0.0, 10))
    assert nf.c == pytest.approx(INFL_NF_FACTOR * value, abs=1e-10)


def test_normal_form_rejects_wrong_kind():
    # The class picks the reduction, so a germ that is neither a cusp nor an
    # inflection is refused by name, and no kind can be passed to override it.
    cases = [("(t, t^2)", "Regular"), ("(t^2, t^4)", "Degenerate"), ("(t, t^4)", "Degenerate")]
    for text, label in cases:
        want = f"^normal form needs a 3/2-cusp or a generic inflection germ, got {label}$"
        with pytest.raises(ValueError, match=want):
            normal_form(parse_curve(text).jet(0.0, 10))
    with pytest.raises(TypeError):
        normal_form(parse_curve("(t^2, t^3)").jet(0.0, 10), "cusp")


def test_normal_form_order_messages_are_unchanged():
    with pytest.raises(ValueError, match=r"^cusp normal form needs a germ of order >= 8$"):
        normal_form(parse_curve("(t^2, t^3 + t^5)").jet(0.0, 7))
    with pytest.raises(ValueError, match=r"^inflection normal form needs a germ of order >= 5$"):
        normal_form(parse_curve("(t, t^3 + t^4)").jet(0.0, 4))


def _unimodular(rng) -> np.ndarray:
    """A random 2x2 matrix of determinant +1 with moderate condition."""
    while True:
        m = rng.uniform(-1.5, 1.5, size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det > 0.5:
            return m / math.sqrt(det)


def _model_germ(rng, cusp: bool, c: float) -> PlaneJet:
    """(u^2, u^3 + c u^5) or (u, u^3 + c u^4) at order 10, after u = t + b t^2,
    a det = +1 map and a shift."""
    m, b, shift = _unimodular(rng), rng.uniform(-0.5, 0.5), rng.uniform(-1.0, 1.0, size=2)
    t = Jet.variable(0.0, 10)
    u = t + b * t * t
    first, second = (u * u, u**3 + c * u**5) if cusp else (u, u**3 + c * u**4)
    return PlaneJet(*(m[i, 0] * first + m[i, 1] * second + shift[i] for i in range(2)))


@pytest.mark.parametrize(
    "cusp, bound", [(True, 4e-14), (False, 2.5e-14)], ids=["cusp", "inflection"]
)
def test_normal_form_c_matches_the_invariant_on_model_germs(cusp, bound):
    # The report reads c from mu_A or mu_I; the reduction is the independent
    # route, and both must give the c the germ was drawn with.  Negative germs
    # are the orientation reversal (cusps) or the reflection (inflections) of
    # positive ones.  Measured worst relative errors, reduction vs invariant
    # and invariant vs drawn c: 2.3e-15 and 1.6e-15 (cusp), 8.9e-16 and
    # 8.9e-16 (inflection); each bound is <= 30x these.
    rng = np.random.default_rng(2101)
    worst = drift = 0.0
    for _ in range(20):
        c = abs(rng.uniform(-2.0, 2.0))
        for sign in (1.0, -1.0):
            germ = _model_germ(rng, cusp, sign * c)
            flip = germ.reversed_orientation() if cusp else germ.transform(np.diag([1.0, -1.0]))
            for g in (germ, flip):
                if cusp:
                    want = affine_cuspidal_curvature(g) / CUSP_NF_DENOM
                else:
                    want = INFL_NF_FACTOR * inflectional_curvature(g)[0]
                nf = normal_form(g)
                assert nf.flipped is (g is flip)
                worst = max(worst, abs(nf.c - want) / max(1.0, c))
                drift = max(drift, abs(want - sign * c) / max(1.0, c))
    assert worst <= bound
    assert drift <= bound
