"""Built-in verification suite.

Each check pins one quantitative guarantee of the package (closed-form
invariant values, germ constants, identities, synthesis round trips) at a
fixed tolerance.  ``run_all`` executes every check deterministically for a
given seed and returns a JSON-ready report, in which a check that raises is
a failure carrying the exception's message; the CLI ``verify`` subcommand
prints one line per check and exits nonzero on any failure.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import affine, euclidean, synthesis
from .dsl import CATALOG_CUSPS, catalog_lookup, parse_curve, parse_expression
from .jets import cross, moment_quotient
from .profiles import PROFILE_JET_ORDER, Profiler

DEFAULT_SEED = 0


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    error: float  # worst observed deviation
    tolerance: float
    detail: str


# What a check returns: whether it passed, its error, its tolerance and its detail.
Outcome = tuple[bool, float, float, str]


def _result(error: float, tol: float, detail: str = "") -> Outcome:
    return bool(error <= tol), float(error), float(tol), detail


def _richardson_to_zero(profiler, h: float = 0.1) -> float:
    """Extrapolate the even part of the profile to tau = 0 from three scales."""

    def even(hh):
        vals = profiler.values_at_t(profiler.t_of_tau(np.array([hh, -hh])))
        return 0.5 * (vals[0] + vals[1])

    g1, g2, g3 = even(h), even(h / 2), even(h / 4)
    r1 = (4.0 * g2 - g1) / 3.0
    r2 = (4.0 * g3 - g2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def check_mu_g_closed_forms() -> Outcome:
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        got = euclidean.mu_g(catalog_lookup("cuspidal_cubic", {"a": a}))
        worst = max(worst, abs(got - 3.0 / math.sqrt(2.0 * a)))
        got = euclidean.mu_g(catalog_lookup("cycloid", {"a": a}))
        worst = max(worst, abs(got - 1.0 / math.sqrt(a)))
    return _result(worst, 1e-10, "cuspidal cubic and cycloid, a in {1/2, 1, 2}")


def check_cusp_limit_richardson() -> Outcome:
    worst = 0.0
    for name in CATALOG_CUSPS:
        p = Profiler(catalog_lookup(name, {"a": 1.0}), euclidean.EUCLID_CUSP)
        worst = max(worst, abs(_richardson_to_zero(p) - p.f0))
    return _result(worst, 1e-6, "extrapolated profile vs mu_g/(2 sqrt 2)")


def check_canonical_cusp_synthesis() -> Outcome:
    worst = 0.0
    for a in (0.5, 1.0):
        frame = synthesis.synthesize("euclid-cusp", a, 1.0, method="frame")
        quad = synthesis.synthesize("euclid-cusp", a, 1.0, method="quadrature")
        tt = frame.taus
        xc = (2 * a * tt * np.sin(2 * a * tt) + np.cos(2 * a * tt) - 1.0) / (2 * a**2)
        yc = (np.sin(2 * a * tt) - 2 * a * tt * np.cos(2 * a * tt)) / (2 * a**2)
        closed = np.column_stack([xc, yc])
        worst = max(worst, float(np.max(np.abs(frame.positions - closed))))
        worst = max(worst, float(np.max(np.abs(quad.positions - closed))))
        worst = max(worst, float(np.max(np.abs(frame.positions - quad.positions))))
    return _result(worst, 1e-8, "constant profiles vs closed form, both methods")


def check_cusp_profile_germ_values() -> Outcome:
    worst = 0.0
    for name in ("cycloid", "hyperbolic_cycloid"):
        germ = catalog_lookup(name, {"a": 1.0}).jet(0.0, PROFILE_JET_ORDER)
        rep = affine.cusp_profile_jets(germ)
        worst = max(worst, abs(rep.f0 - affine.CUSP_PROFILE_VALUE), abs(rep.fdot0))
    return _result(worst, 1e-8, "f(0) = 4/25 and f'(0) = 0")


def random_unimodular(rng: np.random.Generator) -> np.ndarray:
    while True:
        m = rng.uniform(-2.0, 2.0, size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if abs(det) > 0.1:
            return m / math.sqrt(abs(det))


def check_mu_A_values_and_invariance(seed: int) -> Outcome:
    worst = 0.0
    for a in (0.5, 1.0, 2.0):
        expected = 36.0 * a ** (-0.8)
        got = affine.mu_A(catalog_lookup("cycloid", {"a": a}))
        worst = max(worst, abs(got - expected) / abs(expected))
        got = affine.mu_A(catalog_lookup("hyperbolic_cycloid", {"a": a}))
        worst = max(worst, abs(got + expected) / abs(expected))
    rng = np.random.default_rng(seed)
    for name in ("cycloid", "hyperbolic_cycloid"):
        germ = catalog_lookup(name, {"a": 1.0}).jet(0.0, 6)
        base = affine.affine_cuspidal_curvature(germ)
        for _ in range(100):
            m = random_unimodular(rng)
            moved = germ.transform(m, rng.uniform(-1.0, 1.0, size=2))
            got = affine.affine_cuspidal_curvature(moved)
            worst = max(worst, abs(got - base) / abs(base))
    return _result(worst, 1e-8, "closed forms and 100 random equi-affine maps (relative)")


def check_h0_mu_A_relation() -> Outcome:
    worst_rel = 0.0
    for a in (0.5, 1.0, 2.0):
        germ = catalog_lookup("cycloid", {"a": a}).jet(0.0, PROFILE_JET_ORDER)
        rep = affine.cusp_profile_jets(germ)
        expected = affine.H0_PER_MU_A * rep.mu_A
        worst_rel = max(worst_rel, abs(rep.h0 - expected) / abs(expected))
    ratios = []
    for curve in (
        catalog_lookup("cycloid", {"a": 1.0}),
        catalog_lookup("hyperbolic_cycloid", {"a": 1.0}),
        parse_curve("(t^2, t^3 + t^5)"),
    ):
        rep = affine.cusp_profile_jets(curve.jet(0.0, PROFILE_JET_ORDER))
        ratios.append(rep.h0 / rep.mu_A)
    spread = max(ratios) - min(ratios)
    err = max(worst_rel / 1e-4, spread / 1e-6)  # normalized to the tighter of the two
    detail = f"relative {worst_rel:.3e} (tol 1e-4); ratio spread {spread:.3e} (tol 1e-6)"
    return bool(worst_rel <= 1e-4 and spread <= 1e-6), err, 1.0, detail


def check_inflection_germ_values() -> Outcome:
    worst = 0.0
    for name in ("cubic_graph", "skew_cycloid"):
        germ = catalog_lookup(name, {"a": 1.0}).jet(0.0, PROFILE_JET_ORDER)
        rep = affine.inflection_profile_jets(germ)
        worst = max(worst, abs(rep.f0 - affine.INFLECTION_PROFILE_VALUE))
    for a in (1.0, 4.0):
        germ = catalog_lookup("skew_cycloid", {"a": a}).jet(0.0, 6)
        value, _ = affine.inflectional_curvature(germ)
        worst = max(worst, abs(value + 6.0 / math.sqrt(a)))
        reversed_value, _ = affine.inflectional_curvature(germ.reversed_orientation())
        worst = max(worst, abs(reversed_value + value))  # exact sign flip
    return _result(worst, 1e-8, "f(0) = -5/16, mu_I = -6/sqrt(a), sign flip")


def check_g0_mu_I_relation() -> Outcome:
    germ = catalog_lookup("skew_cycloid", {"a": 1.0}).jet(0.0, PROFILE_JET_ORDER)
    rep = affine.inflection_profile_jets(germ)
    expected = affine.G0_PER_MU_I * rep.mu_I
    err = abs(rep.g0 - expected) / abs(expected)
    return _result(err, 1e-4, "f'(0) vs the mu_I proportionality (relative)")


def random_quartic_inflection_germs(seed: int, count: int = 50):
    rng = np.random.default_rng(seed)
    for _ in range(count):
        a2 = rng.uniform(-2.0, 2.0)
        a3 = 0.0
        while abs(a3) < 0.2:
            a3 = rng.uniform(-2.0, 2.0)
        a4 = rng.uniform(-2.0, 2.0)
        yield parse_curve(
            "(t + b2*t^2, b3*t^3 + b4*t^4)", {"b2": a2, "b3": a3, "b4": a4}
        )


def check_inflection_identities(seed: int) -> Outcome:
    worst = 0.0
    for curve in random_quartic_inflection_germs(seed):
        jets = affine.inflection_profile_jets(curve.jet(0.0, PROFILE_JET_ORDER))
        worst = max(worst, abs(jets.identity_residual_t), abs(jets.identity_residual_tau))
    return _result(worst, 1e-6, "50 seeded quartic germs, both parameters")


def check_synthesis_roundtrips() -> Outcome:
    worst = 0.0
    cases = [
        ("euclid-cusp", 1.0),
        ("euclid-cusp", parse_expression("1 + t")),
        ("affine-cusp", 0.0),
        ("affine-cusp", 1.0),
        ("affine-cusp", -1.0),
        ("inflection", -5.0 / 16.0),
        ("inflection", parse_expression("-5/16 + t")),
    ]
    for kind, fn in cases:
        worst = max(worst, synthesis.roundtrip(fn, kind, 0.5))
    return _result(worst, 1e-6, "seven prescribed profiles, |tau| <= 0.5")


def check_synthesis_brackets() -> Outcome:
    worst = 0.0
    for h in (1.0, -1.0):
        res = synthesis.synthesize("affine-cusp", h, 0.5)
        d = res.stacks
        t = res.taus
        b12, b13, b23 = cross(d[1], d[2]), cross(d[1], d[3]), cross(d[2], d[3])
        worst = max(worst, float(np.max(np.abs(b12 - 125.0 * t**2 / 27.0))))
        worst = max(worst, float(np.max(np.abs(b13 - 250.0 * t / 27.0))))
        worst = max(
            worst,
            float(np.max(np.abs(b23 - (125.0 / 243.0) * (18.0 + 25.0 * t**2 * h)))),
        )
    for fn in (-5.0 / 16.0, parse_expression("-5/16 + t")):
        res = synthesis.synthesize("inflection", fn, 0.5)
        d = res.stacks
        t = res.taus
        b12, b13 = cross(d[1], d[2]), cross(d[1], d[3])
        worst = max(worst, float(np.max(np.abs(b12 - 64.0 * t / 27.0))))
        worst = max(worst, float(np.max(np.abs(b13 - 64.0 / 27.0))))
    return _result(worst, 1e-7, "cusp bracket triple and inflection pair, |tau| <= 0.5")


def check_normal_forms() -> Outcome:
    worst = 0.0
    nf = affine.normal_form(parse_curve("(t^2, t^3 + t^5)").jet(0.0, 10))
    worst = max(worst, abs(nf.c - 1.0))
    for name in ("canonical_cusp", "cuspidal_cubic", "cycloid", "hyperbolic_cycloid"):
        curve = catalog_lookup(name, {"a": 1.0})
        value = affine.mu_A(curve)
        nf = affine.normal_form(curve.jet(0.0, 10))
        expected = value / affine.CUSP_NF_DENOM
        worst = max(worst, abs(nf.c - expected) / max(1.0, abs(expected)))
    nf = affine.normal_form(parse_curve("(t, t^3 + t^4)").jet(0.0, 8))
    worst = max(worst, abs(nf.c - 1.0))
    for name in ("cubic_graph", "skew_cycloid"):
        curve = catalog_lookup(name, {"a": 1.0})
        value, _ = affine.mu_I(curve)
        nf = affine.normal_form(curve.jet(0.0, 10))
        expected = affine.INFL_NF_FACTOR * value
        worst = max(worst, abs(nf.c - expected) / max(1.0, abs(expected)))
    return _result(worst, 1e-8, "model germs and the catalog, c vs mu_A / mu_I")


def check_singular_moments() -> Outcome:
    worst = 0.0
    for alpha in (1.0 / 3.0, 2.0 / 3.0, 1.0):
        for phi, phi0 in ((lambda u: np.ones_like(u), 1.0), (lambda u: u, 0.0), (np.cos, 1.0)):
            got = moment_quotient(phi, alpha, 0.0)
            worst = max(worst, abs(got - phi0 / (1.0 + alpha)))
    for t in np.linspace(-1.0, 1.0, 9):
        got = moment_quotient(lambda u: u, 2.0 / 3.0, float(t))
        worst = max(worst, abs(got - 3.0 * t / 8.0))
        got = moment_quotient(lambda u: np.full_like(u, 2.5), 1.0 / 3.0, float(t))
        worst = max(worst, abs(got - 2.5 / (4.0 / 3.0)))
    return _result(worst, 1e-12, "weighted-mean values at and through t = 0")


def _run(name: str, check) -> CheckResult:
    """The check's result; a check that raises fails, its detail the exception."""
    try:
        return CheckResult(name, *check())
    except Exception as exc:
        return CheckResult(name, False, math.nan, math.nan, f"{type(exc).__name__}: {exc}")


def run_all(seed: int = DEFAULT_SEED) -> dict:
    """Run every check; returns a deterministic, JSON-ready report.

    A check that raises is reported as a failure, and the others still run.
    """
    checks = {
        "01_mu_g_closed_forms": check_mu_g_closed_forms,
        "02_cusp_limit_richardson": check_cusp_limit_richardson,
        "03_canonical_cusp_synthesis": check_canonical_cusp_synthesis,
        "04_cusp_profile_germ_values": check_cusp_profile_germ_values,
        "05_mu_A_values_and_invariance": lambda: check_mu_A_values_and_invariance(seed),
        "06_h0_mu_A_relation": check_h0_mu_A_relation,
        "07_inflection_germ_values": check_inflection_germ_values,
        "08_g0_mu_I_relation": check_g0_mu_I_relation,
        "09_inflection_identities": lambda: check_inflection_identities(seed),
        "10_synthesis_roundtrips": check_synthesis_roundtrips,
        "11_synthesis_brackets": check_synthesis_brackets,
        "12_normal_forms": check_normal_forms,
        "13_singular_moments": check_singular_moments,
    }
    results = [_run(name, check) for name, check in checks.items()]
    return {
        "seed": seed,
        "passed": all(r.passed for r in results),
        "checks": [asdict(r) for r in results],
    }
