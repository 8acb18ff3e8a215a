import functools
import math
import re
import warnings

import numpy as np
import pytest

from cuspkit import profiles
from cuspkit.affine import (
    AFFINE_CUSP,
    INFLECTION,
    cusp_profile_jets,
    inflection_profile_jets,
    profile_A_cusp,
    profile_A_inflection,
)
from cuspkit.dsl import CATALOG_CUSPS, CATALOG_INFLECTIONS, CurveSpec, catalog_lookup, parse_curve
from cuspkit.euclidean import EUCLID_CUSP, euclidean_profile_jets, profile_g
from cuspkit.jets import Jet, PlaneJet, moment_quotient
from cuspkit.profiles import (
    CHEB_DEGREES,
    SEED_CHOP,
    SEED_NODES,
    Profiler,
    _chebyshev_interpolant,
    _chopped,
    _first_kind,
    _germ_start,
    _t_range,
    invert_monotone,
)


def cycloid_t_of_tau(taus, a):
    """Closed-form inverse of tau = sqrt(8a) sin(t/4) on the cycloid."""
    return 4.0 * np.arcsin(taus / math.sqrt(8.0 * a))


# -- inversion accuracy -----------------------------------------------------------

GRIDS = {
    "two_points": np.array([-0.5, 1.2]),
    "seed_size": np.linspace(-1.0, 1.5, SEED_NODES),
    "seed_size_plus_one": np.linspace(-1.0, 1.5, SEED_NODES + 1),
    "symmetric_4001": np.linspace(-2.0, 2.0, 4001),
    "one_sided_right": np.linspace(0.0, 2.0, 1001),
    "one_sided_left": np.linspace(-2.0, -0.1, 1000),
    "without_zero": np.linspace(-1.3, 1.7, 1000),
    "constant": np.full(100, 0.7),
    "descending": np.linspace(2.0, -1.0, 500),
}


@pytest.mark.parametrize("name", sorted(GRIDS))
@pytest.mark.parametrize("a", [0.5, 1.0])
def test_inversion_matches_cycloid_closed_form(name, a):
    grid = GRIDS[name] * math.sqrt(a)
    t = Profiler(catalog_lookup("cycloid", {"a": a}), EUCLID_CUSP).t_of_tau(grid)
    np.testing.assert_allclose(t, cycloid_t_of_tau(grid, a), rtol=0.0, atol=1e-12)
    assert np.all(t[grid == 0.0] == 0.0)


def test_inversion_past_next_singular_point_raises_value_error():
    # [g', g''] vanishes again at t = -pi/2, where tau34 = -0.985: the grid
    # reaches past it.
    curve = catalog_lookup("skew_cycloid", {"a": 1.0})
    with pytest.raises(ValueError, match="did not converge.*next singular point"):
        profile_A_inflection(curve, np.linspace(-1.5, 0.0, 4001))


# -- cost guard -------------------------------------------------------------------

# One 4001-point profile may use at most four 64-node quadrature passes over
# the grid, counted as curve-derivative nodes (inversion plus evaluation).
COST_CASES = {
    "inflection_skew_cycloid": (profile_A_inflection, "skew_cycloid", (-0.75, 1.5)),
    "affine_cusp_cycloid": (profile_A_cusp, "cycloid", (-0.7, 0.7)),
    "affine_cusp_canonical_cusp": (profile_A_cusp, "canonical_cusp", (-1.5, 1.5)),
    "euclid_cusp_cycloid": (profile_g, "cycloid", (-2.5, 2.5)),
}


@pytest.mark.parametrize("case", sorted(COST_CASES))
def test_profile_node_budget(case, monkeypatch):
    fn, name, (left, right) = COST_CASES[case]
    curve = catalog_lookup(name, {"a": 1.0})
    n = 4001
    nodes = 0
    original = CurveSpec.derivatives_at

    def counted(self, ts, max_order):
        nonlocal nodes
        nodes += np.size(ts)
        return original(self, ts, max_order)

    monkeypatch.setattr(CurveSpec, "derivatives_at", counted)
    fn(curve, np.linspace(left, right, n))
    assert nodes <= 4 * 64 * n


@pytest.mark.parametrize("case", sorted(COST_CASES))
def test_profile_inverts_on_the_interpolant_of_L(case, monkeypatch):
    # The quadrature runs only to sample L once and to solve the two extreme
    # targets: a quarter of one 64-node pass over the grid at most.
    fn, name, (left, right) = COST_CASES[case]
    n = 4001
    nodes = []
    original = CurveSpec.derivatives_at
    monkeypatch.setattr(
        CurveSpec,
        "derivatives_at",
        lambda self, ts, max_order: nodes.append(np.size(ts)) or original(self, ts, max_order),
    )
    fn(catalog_lookup(name, {"a": 1.0}), np.linspace(left, right, n))
    assert sum(nodes) <= 16 * n


@pytest.mark.parametrize(
    "kind, name", [(EUCLID_CUSP, "cycloid"), (AFFINE_CUSP, "cycloid"), (INFLECTION, "skew_cycloid")]
)
def test_exact_newton_step_evaluates_phi_once(kind, name, monkeypatch):
    # phi runs on the quadrature nodes and the ts together; L keeps the
    # rounding of the factor's own panel and the slope that of phi at ts.
    curve = catalog_lookup(name, {"a": 1.0})
    p = Profiler(curve, kind)
    ts = np.array([-0.4, -1e-9, 0.0, 0.03, 0.2, 0.7])
    L = p._factor(ts)
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = kind.p * kind.phi(curve, ts) * L**kind.p / L
    calls = []
    original = CurveSpec.derivatives_at
    monkeypatch.setattr(
        CurveSpec,
        "derivatives_at",
        lambda self, us, max_order: calls.append(np.size(us)) or original(self, us, max_order),
    )
    tau, dtau = p._tau_and_slope(ts)
    assert calls == [64 * 5 + len(ts)]
    far = np.abs(ts) >= 1e-8
    np.testing.assert_array_equal(tau[far], ts[far] * L[far] ** kind.p)
    np.testing.assert_array_equal(dtau[far], slope[far])
    # Below |t| = 1e-8 both are the germ's, where phi may underflow at the nodes.
    np.testing.assert_array_equal(tau[~far], p.jets.tau_t(ts[~far]))
    assert np.all(dtau[~far] == p._slope0)


# -- the interpolant of the arclength factor L(t) ---------------------------------


def test_chebyshev_interpolant_resolves_a_smooth_function():
    L = _chebyshev_interpolant(np.exp, (-1.0, 2.0))
    assert L.degree in CHEB_DEGREES[:2]
    t = np.linspace(-1.0, 2.0, 1001)
    np.testing.assert_allclose(L(t), np.exp(t), rtol=1e-14)
    np.testing.assert_allclose(L.value_and_derivative(t)[1], np.exp(t), rtol=1e-12)
    for batch in np.array_split(t, 20):  # <= SEED_NODES points: the barycentric route
        value, slope = L.value_and_derivative(batch)
        np.testing.assert_allclose(value, np.exp(batch), rtol=1e-14)
        np.testing.assert_allclose(slope, np.exp(batch), rtol=1e-12)


# (kind, curve, tau range) of the interpolants of L below.
FACTOR_INTERPOLANTS = {
    "euclid_cusp_cycloid": (EUCLID_CUSP, "cycloid", (-2.0, 2.5)),
    "euclid_cusp_canonical_cusp": (EUCLID_CUSP, "canonical_cusp", (-1.0, 1.0)),
    "euclid_cusp_cuspidal_cubic": (EUCLID_CUSP, "cuspidal_cubic", (-1.5, 1.5)),
    "affine_cusp_hyperbolic_cycloid": (AFFINE_CUSP, "hyperbolic_cycloid", (-0.8, 0.8)),
    "affine_cusp_canonical_cusp": (AFFINE_CUSP, "canonical_cusp", (-1.5, 1.5)),
    "affine_cusp_cycloid": (AFFINE_CUSP, "cycloid", (-0.7, 0.7)),
    "inflection_skew_cycloid": (INFLECTION, "skew_cycloid", (-0.75, 1.5)),
    "inflection_cubic_graph": (INFLECTION, "cubic_graph", (-1.0, 1.0)),
}


def _factor_interpolant(case):
    kind, name, (left, right) = FACTOR_INTERPOLANTS[case]
    profiler = Profiler(catalog_lookup(name, {"a": 1.0}), kind)
    return profiler, profiler._invert(np.linspace(left, right, 101))[1]


@pytest.mark.parametrize("case", sorted(FACTOR_INTERPOLANTS))
def test_barycentric_and_clenshaw_routes_agree(case):
    _, L = _factor_interpolant(case)
    rng = np.random.default_rng(3)
    for _ in range(5):
        ts = rng.uniform(*L.domain, SEED_NODES)
        value, slope = L._barycentric(ts)
        want_value, want_slope = L._clenshaw(ts)
        assert np.max(np.abs(value - want_value)) <= 1e-15 * np.max(np.abs(want_value))
        assert np.max(np.abs(slope - want_slope)) <= 1e-12 * np.max(np.abs(want_slope))
        assert np.array_equal(L(ts), want_value)


@pytest.mark.parametrize("case", sorted(FACTOR_INTERPOLANTS))
def test_a_point_on_a_node_returns_its_sample(case):
    _, L = _factor_interpolant(case)
    n = L.degree
    ts = np.concatenate([L.nodes[[0, 1, n // 2, n]], [0.5 * (L.nodes[2] + L.nodes[3])]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value, slope = L.value_and_derivative(ts)
    assert np.array_equal(value[:4], L.samples[[0, 1, n // 2, n]])
    assert np.array_equal(slope[:4], L.derivative_samples[[0, 1, n // 2, n]])
    assert np.all(np.isfinite(value)) and np.all(np.isfinite(slope))


@pytest.mark.parametrize("case", sorted(FACTOR_INTERPOLANTS))
def test_grid_values_do_not_depend_on_the_grid_size(case):
    # The 101- and 1001-point grids are every 40th and every 4th point of
    # the 4001-point grid, over the same range.
    profiler, _ = _factor_interpolant(case)
    _, _, (left, right) = FACTOR_INTERPOLANTS[case]
    grid = np.linspace(left, right, 4001)
    values = profiler.profile(grid).values
    for step in (4, 40):
        assert np.array_equal(profiler.profile(grid[::step]).values, values[::step]), step


def test_first_kind_coefficient_map_inverts_the_chebyshev_basis():
    points, basis = _first_kind(SEED_NODES)
    for k in range(SEED_NODES):
        want = np.zeros(SEED_NODES)
        want[k] = 1.0
        np.testing.assert_allclose(basis @ np.cos(k * np.arccos(points)), want, rtol=0, atol=1e-14)


def test_inversion_starts_from_the_interpolant_samples(monkeypatch):
    calls = []
    original = profiles.invert_monotone
    monkeypatch.setattr(
        profiles, "invert_monotone", lambda *args: calls.append(args) or original(*args)
    )
    _, L = _factor_interpolant("euclid_cusp_cycloid")
    [(_, _, _, _, (taus, ts))] = calls
    assert np.array_equal(ts, L.nodes[::-1])
    assert np.array_equal(taus, ts * L.samples[::-1] ** EUCLID_CUSP.p)
    assert np.all(np.diff(taus) > 0)


def test_a_sample_table_starts_newton_closer():
    # tau = t + t^3: the linear interpolation of 17 samples is a closer start
    # than tau / slope0, and both reach the same tolerance.
    def value_and_slope(t):
        calls.append(1)
        return t + t**3, 1.0 + 3.0 * t**2

    targets = np.linspace(-2.0, 2.0, SEED_NODES)
    table_t = np.linspace(-1.5, 1.5, 17)
    counts = []
    for table in (None, (table_t + table_t**3, table_t)):
        calls = []
        t = invert_monotone(value_and_slope, targets, 1.0, table=table)
        assert np.max(np.abs(t + t**3 - targets)) < 2e-13
        counts.append(len(calls))
    assert counts[1] < counts[0]


def test_chebyshev_interpolant_rejects_a_kink():
    with pytest.raises(ValueError, match="did not converge.*next singular point"):
        _chebyshev_interpolant(lambda t: np.abs(t - 0.3), (-1.0, 1.0))


# kind: (curve, profile-jet function, integrand of s in mpmath at a = 1, exponent e),
# with s(t) = sgn(t) |t|^e L(t).
FACTOR_CASES = {
    "euclid_cusp": (
        "cycloid",
        euclidean_profile_jets,
        lambda mp, u: 2 * abs(mp.sin(u / 2)),  # |gamma'|
        2,
    ),
    "affine_cusp": (
        "hyperbolic_cycloid",
        cusp_profile_jets,
        lambda mp, u: mp.cbrt(mp.cosh(u) - 1),  # |[g', g'']|^(1/3)
        "5/3",
    ),
    "inflection": (
        "skew_cycloid",
        inflection_profile_jets,
        lambda mp, u: mp.cbrt(abs(1 - mp.cos(u) + mp.sin(u))),
        "4/3",
    ),
}


@pytest.mark.parametrize("case", sorted(FACTOR_CASES))
def test_profile_jets_carry_the_arclength_factor(case):
    # The jet of L that samples the interpolant inside SWITCH_RADIUS, against
    # a 30-digit quadrature of the closed-form integrand.
    mp = pytest.importorskip("mpmath")
    name, build, integrand, e = FACTOR_CASES[case]
    jets = build(catalog_lookup(name, {"a": 1.0}).jet(0.0, 12))
    ts = [-0.049, -0.02, 0.01, 0.049]
    with mp.workdps(30):
        want = [
            float(mp.quad(lambda u: integrand(mp, u), [0, t]) / (mp.sign(t) * abs(t) ** mp.mpf(e)))
            for t in ts
        ]
    np.testing.assert_allclose(jets.L(np.array(ts)), want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize(
    "name, a, n, left, right",
    [
        ("hyperbolic_cycloid", 1.8851494512572553, 1001, -0.20803, 0.30974),
        ("cycloid", 1.5332797785656338, 4001, -0.098453, 0.67538),
    ],
)
def test_tail_rule_accepts_noisy_samples(name, a, n, left, right):
    # Quadrature samples of L near t = 0 carry cancellation noise of the
    # curve's derivatives; a chop rule at rounding level rejected these grids.
    curve = catalog_lookup(name, {"a": a})
    grid = np.linspace(left, right, n)
    prof, _ = profile_A_cusp(curve, grid)
    assert np.all(np.isfinite(prof.values))
    # Against Newton and the direct route on the exact quadrature map.
    p = Profiler(curve, AFFINE_CUSP)
    exact = p.values_at_t(invert_monotone(p._tau_and_slope, grid, p._slope0))
    err = np.abs(prof.values - exact) / np.maximum(1.0, np.abs(exact))
    assert np.max(err) <= 1e-11


@pytest.mark.parametrize("fn", [profile_g, profile_A_cusp])
@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_newton_stays_on_the_interpolated_range(fn, a):
    # Starting guesses beyond the t-range would extrapolate L below zero.
    curve = catalog_lookup("cuspidal_cubic", {"a": a})
    grid = np.linspace(-1.5, 1.5, 1001)
    with np.errstate(all="raise"):
        out = fn(curve, grid)
    values = (out if fn is profile_g else out[0]).values
    assert np.all(np.isfinite(values))


# -- the t-range and the seed on the benchmark's profile pairs -------------------------


def _cycloid_tau35_end(a):
    """The 3/5-power affine arclength of the cycloid at its next cusp t = 2 pi."""
    s = 2.0 ** (4.0 / 3.0) * a ** (2.0 / 3.0) * math.sqrt(math.pi) * math.gamma(5.0 / 6.0)
    return (s / math.gamma(4.0 / 3.0)) ** 0.6


def _tau_limits(kind, name, a):
    """The widest tau range of a profile pair, well inside its domain, capped at 1.5."""
    if kind is EUCLID_CUSP and name == "cycloid":
        left = right = 0.9 * math.sqrt(8.0 * a)  # the next cusp is at tau^2 = 8a
    elif kind is AFFINE_CUSP and name == "cycloid":
        left = right = 0.75 * _cycloid_tau35_end(a)
    elif name == "skew_cycloid":
        left, right = 0.8 * 0.985 * math.sqrt(a), 1.5  # [g', g''] = 0 at tau34 = -0.985
    else:
        left = right = 1.5
    return min(left, 1.5), min(right, 1.5)


# (kind, curve) -> the most exact-map evaluations `_t_range` may use at
# a = 0.5, 1, 2 over the pair's widest range.  From tau / slope0 they were
# [5, 4, 4] on both cycloids and [6, 5, 5] on the hyperbolic cycloid.
T_RANGE_EVALUATIONS = {
    (EUCLID_CUSP, "cycloid"): (2, 2, 1),
    (EUCLID_CUSP, "cuspidal_cubic"): (5, 5, 4),
    (EUCLID_CUSP, "canonical_cusp"): (1, 1, 2),
    (EUCLID_CUSP, "hyperbolic_cycloid"): (4, 4, 3),
    (AFFINE_CUSP, "cycloid"): (3, 2, 2),
    (AFFINE_CUSP, "cuspidal_cubic"): (1, 1, 1),
    (AFFINE_CUSP, "canonical_cusp"): (1, 1, 1),
    (AFFINE_CUSP, "hyperbolic_cycloid"): (2, 2, 2),
    (INFLECTION, "cubic_graph"): (1, 1, 1),
    (INFLECTION, "skew_cycloid"): (4, 3, 3),
}
PAIRS = sorted(T_RANGE_EVALUATIONS, key=lambda pair: (pair[0].name, pair[1]))
PAIR_IDS = [f"{kind.name}-{name}" for kind, name in PAIRS]


def _counted(profiler):
    """The exact map of a profiler, and the list its evaluations append to."""
    calls = []

    def value_and_slope(ts):
        calls.append(np.size(ts))
        return profiler._tau_and_slope(ts)

    return value_and_slope, calls


def _solved_extremes(profiler, targets):
    """`_t_range` with its exact-map evaluations counted, and its unpadded extremes."""
    counted, calls = _counted(profiler)
    lo, hi = _t_range(counted, targets, profiler.jets.tau_t)
    # The range is padded by 1e-6 of the solved width on each side.
    width = (hi - lo) / (1.0 + 2e-6)
    return np.array([lo + 1e-6 * width, hi - 1e-6 * width]), len(calls)


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_t_range_extremes_meet_the_newton_stop_on_the_exact_map(pair):
    kind, name = pair
    for a, pinned in zip((0.5, 1.0, 2.0), T_RANGE_EVALUATIONS[pair]):
        profiler = Profiler(catalog_lookup(name, {"a": a}), kind)
        left, right = _tau_limits(kind, name, a)
        ends = np.array([-left, right])
        extremes, evaluations = _solved_extremes(profiler, ends)
        tau, _ = profiler._tau_and_slope(extremes)
        assert np.all(np.abs(tau - ends) < 1e-13 * np.maximum(1.0, np.abs(ends))), a
        assert evaluations <= pinned, a


@pytest.mark.parametrize("a", [0.25, 0.5, 1.0])
def test_t_range_converges_from_a_germ_start_outside_the_jet_radius(a):
    # L of the Euclidean cuspidal cubic is singular at t = +-2i/3, and the
    # extreme targets +-1.5 solve beyond |t| = 1: the germ's root lies
    # outside the jet's radius (its reversion t(tau) reads -280 at tau = 1.5
    # for a = 1).  The exact Newton still converges from that root, with no
    # more evaluations than from tau / slope0.
    profiler = Profiler(catalog_lookup("cuspidal_cubic", {"a": a}), EUCLID_CUSP)
    ends = np.array([-1.5, 1.5])
    extremes, evaluations = _solved_extremes(profiler, ends)
    tau, _ = profiler._tau_and_slope(extremes)
    assert np.all(np.abs(tau - ends) < 1.5e-13)
    counted, calls = _counted(profiler)
    profiles._newton(counted, ends, ends / profiler._slope0, profiler._slope0)
    assert evaluations <= len(calls)


def test_germ_start_falls_back_without_a_root():
    # tau = t - t^3 rises to 2 / (3 sqrt(3)) = 0.385 at t = 1 / sqrt(3).
    germ = Jet([0.0, 1.0, 0.0, -1.0])
    assert _germ_start(germ, 0.3) == pytest.approx(0.3389, abs=1e-4)
    assert _germ_start(germ, 1.0) == 1.0  # the slope turns negative
    assert _germ_start(germ, -1.0) == -1.0


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_the_germ_start_is_close_inside_the_jet_radius(pair):
    # Inside the jet's radius the root of the germ's tau(t) polynomial is
    # within the jet's truncation error of the exact one.
    kind, name = pair
    profiler = Profiler(catalog_lookup(name, {"a": 1.0}), kind)
    for end in (-0.3, 0.3):
        t = _germ_start(profiler.jets.tau_t, end)
        tau, _ = profiler._tau_and_slope(np.array([t]))
        assert abs(tau[0] - end) < 1e-6


def test_chopped_drops_the_longest_tail_within_budget():
    c = np.array([1.0, -0.5, 6e-15, -3e-15, 1e-15])
    assert _chopped(c, 1e-14) == [1.0, -0.5]
    assert _chopped(c, 5e-15) == [1.0, -0.5, 6e-15]
    assert _chopped(c, 0.0) == c.tolist()
    assert _chopped(np.array([1.0, 1e-20, 0.0]), 1e-14) == [1.0, 1e-20]  # two are kept


def _final_newton_evaluations(monkeypatch):
    """Record, per grid, the evaluations of the Newton run on the whole grid."""
    runs = []
    original = profiles._newton

    def newton(value_and_slope, targets, *args):
        calls = []
        if targets.size > SEED_NODES:
            runs.append(calls)
        return original(lambda ts: calls.append(1) or value_and_slope(ts), targets, *args)

    monkeypatch.setattr(profiles, "_newton", newton)
    return runs


def _chop_records(monkeypatch):
    """Record (coefficients, budget, kept) of every seed chop."""
    records = []
    original = profiles._chopped

    def chopped(c, tol):
        kept = original(c, tol)
        records.append((c, tol, kept))
        return kept

    monkeypatch.setattr(profiles, "_chopped", chopped)
    return records


# The 64-node seed does not resolve t(tau) of the Euclidean cuspidal cubic
# over [-1.5, 1.5] (L is singular at t = +-2i/3); unchopped, it also took two.
FINAL_NEWTON_EVALUATIONS = {(EUCLID_CUSP, "cuspidal_cubic"): 2}


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_chopped_seed_starts_the_final_newton_one_step_away(pair, monkeypatch):
    kind, name = pair
    profiler = Profiler(catalog_lookup(name, {"a": 1.0}), kind)
    left, right = _tau_limits(kind, name, 1.0)
    grid = np.linspace(-left, right, 4001)
    runs = _final_newton_evaluations(monkeypatch)
    records = _chop_records(monkeypatch)
    t = profiler.t_of_tau(grid)
    with monkeypatch.context() as unchopped:
        unchopped.setattr(profiles, "SEED_CHOP", -1.0)  # every coefficient is kept
        profiler.t_of_tau(grid)
    chopped_run, full_run = (len(calls) for calls in runs)
    assert chopped_run == full_run == FINAL_NEWTON_EVALUATIONS.get(pair, 1)
    (c, tol, kept), (_, _, full) = records
    assert len(full) == SEED_NODES
    assert 2 <= len(kept) <= SEED_NODES
    assert np.sum(np.abs(c[len(kept) :])) <= tol
    # The budget is SEED_CHOP of max(1, max |t_j|) over the seed's nodes,
    # which sit inside the grid's range by at most 1 - cos(pi / 128).
    assert tol == pytest.approx(SEED_CHOP * max(1.0, float(np.max(np.abs(t)))), rel=1e-3)
    # The dropped tail moves the seed by at most its budget (|T_k| <= 1).
    x = np.linspace(-1.0, 1.0, 1001)
    full = np.polynomial.chebyshev.chebval(x, c)
    short = np.polynomial.chebyshev.chebval(x, kept)
    assert np.max(np.abs(full - short)) <= tol + 1e-15 * np.max(np.abs(full))


@pytest.mark.parametrize("pair", PAIRS, ids=PAIR_IDS)
def test_t_of_tau_does_not_depend_on_the_grid_size(pair):
    # The 101- and 1001-point grids are every 40th and every 4th point of
    # the 4001-point grid, over the same range, so they share the seed.
    kind, name = pair
    profiler = Profiler(catalog_lookup(name, {"a": 1.0}), kind)
    left, right = _tau_limits(kind, name, 1.0)
    grid = np.linspace(-left, right, 4001)
    t = profiler.t_of_tau(grid)
    for step in (4, 40):
        assert np.array_equal(profiler.t_of_tau(grid[::step]), t[::step]), step


# -- the domain: the cycloid's next cusp ----------------------------------------------


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("f", [0.99, 0.999, 0.9999, 1.0005, 1.01, 1.15])
def test_profile_g_past_the_next_cusp_raises(a, f):
    # tau = sqrt(8a) sin(t/4) reaches its largest value sqrt(8a) at the next
    # cusp t = 2 pi, where L(t) stops being smooth in |gamma'|.  The grid
    # ending at f = 0.9999 has t within 0.06 of the cusp, so the t-range of
    # the interpolant must not be padded beyond it.
    curve = catalog_lookup("cycloid", {"a": a})
    grid = np.linspace(-0.5, f * math.sqrt(8.0 * a), 1001)
    if f > 1.0:
        with pytest.raises(ValueError, match="did not converge.*next singular point"):
            profile_g(curve, grid)
    else:
        want = 1.0 / np.sqrt(8.0 * a - grid**2)
        got = profile_g(curve, grid).values
        np.testing.assert_allclose(got, want, rtol=1e-11, atol=0.0)


@pytest.mark.parametrize("n", [1, 2, SEED_NODES])
def test_small_grids_past_the_next_cusp_raise(n):
    # The interpolant spans t from 0, so one point past the cusp suffices.
    curve = catalog_lookup("cycloid", {"a": 1.0})
    grid = np.linspace(1.05 * math.sqrt(8.0), 1.1 * math.sqrt(8.0), n)
    with pytest.raises(ValueError, match="did not converge.*next singular point"):
        profile_g(curve, grid)


# -- non-finite grids -----------------------------------------------------------------

NON_FINITE_CASES = {
    "profile_g": (profile_g, "cycloid"),
    "profile_A_cusp": (profile_A_cusp, "cycloid"),
    "profile_A_inflection": (profile_A_inflection, "skew_cycloid"),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_non_finite_grid_raises(name, bad):
    fn, curve_name = NON_FINITE_CASES[name]
    curve = catalog_lookup(curve_name, {"a": 1.0})
    for grid, i in (([bad], 0), ([0.0, 0.1, bad, 0.3], 2), ([-0.2, 0.1, bad], 2)):
        with pytest.raises(ValueError, match=f"finite, got tau = {bad!r} at index {i}"):
            fn(curve, np.array(grid))


@pytest.mark.parametrize("grid", [[], np.zeros((0, 3)), [[0.1, 0.2]], np.zeros((2, 2)), 0.3])
@pytest.mark.parametrize("name", sorted(NON_FINITE_CASES))
def test_grid_that_is_not_a_non_empty_vector_raises(name, grid):
    fn, curve_name = NON_FINITE_CASES[name]
    curve = catalog_lookup(curve_name, {"a": 1.0})
    shape = np.shape(grid)
    with pytest.raises(ValueError, match=f"non-empty 1-D array, got shape {re.escape(str(shape))}"):
        fn(curve, grid)


@pytest.mark.parametrize(
    "kind, name", [(EUCLID_CUSP, "cycloid"), (AFFINE_CUSP, "cycloid"), (INFLECTION, "skew_cycloid")]
)
def test_grid_of_zeros_is_solved_without_evaluating_the_curve(kind, name, monkeypatch):
    profiler = Profiler(catalog_lookup(name, {"a": 1.0}), kind)
    monkeypatch.setattr(CurveSpec, "derivatives_at", lambda *args: pytest.fail("curve evaluated"))
    ts, factor = profiler._invert(np.array([0.0, -0.0, 0.0]))
    assert ts.tolist() == [0.0, 0.0, 0.0] and factor is None
    assert profiler.profile([0.0, 0.0]).values.tolist() == [profiler.f0, profiler.f0]


@pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize(
    "kind, name", [(EUCLID_CUSP, "cycloid"), (AFFINE_CUSP, "cycloid"), (INFLECTION, "skew_cycloid")]
)
def test_arclength_at_a_non_finite_t_raises(kind, name, t):
    profiler = Profiler(catalog_lookup(name, {"a": 1.0}), kind)
    with pytest.raises(ValueError, match=f"non-finite jet at t0={t!r}"):
        profiler.arclength(np.array([t]))


# -- one quadrature for every caller -----------------------------------------------


@pytest.mark.parametrize(
    "kind, name",
    [(EUCLID_CUSP, "cycloid"), (AFFINE_CUSP, "hyperbolic_cycloid"), (INFLECTION, "skew_cycloid")],
)
def test_moment_quotient_is_the_profilers_quadrature(kind, name):
    # Verify check 13 pins moment_quotient, so it must be the sum profiles run;
    # one batch against single points: each t's Gauss sum is taken on its own.
    curve = catalog_lookup(name, {"a": 1.0})
    phi = functools.partial(kind.phi, curve)
    ts = np.array([-0.6, -0.05, -1e-3, 2e-3, 0.049, 0.3, 0.8])
    batch = Profiler(curve, kind)._factor(ts)
    assert [moment_quotient(phi, kind.alpha, t) for t in ts] == batch.tolist()


# -- the jets record's f_tau, built on first read ----------------------------------


@pytest.mark.parametrize(
    "kind, name",
    [(EUCLID_CUSP, name) for name in CATALOG_CUSPS]
    + [(AFFINE_CUSP, name) for name in CATALOG_CUSPS]
    + [(INFLECTION, name) for name in CATALOG_INFLECTIONS],
)
def test_f_tau_on_first_read_is_the_eager_composition(kind, name):
    jets = kind.jets(catalog_lookup(name, {"a": 1.0}).jet(0.0, profiles.PROFILE_JET_ORDER))
    assert "f_tau" not in vars(jets)
    want = jets.f_t.compose(jets.tau_t.inverted())
    got = jets.f_tau
    assert got.base_point == want.base_point
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
    assert jets.f_tau is got
    c = want.coeffs
    assert (jets.f0, jets.fdot0, jets.fddot0) == (float(c[0]), float(c[1]), 2.0 * float(c[2]))
    if kind is AFFINE_CUSP:
        assert jets.h0 == float(c[2])
    if kind is INFLECTION:
        assert jets.g0 == float(c[1])
        assert jets.identity_residual_tau == 32.0 * float(c[1]) ** 2 + 9.0 * 2.0 * float(c[2])


# -- sign rules of f_tau under orientation reversal and reflection --------------

# Germs with odd and even terms in both components, whose f_tau has odd and
# even coefficients, so that each sign rule below is tested on both.
ASYMMETRIC_CUSP = "(t^2 + 0.3*t^3, t^3 + 0.7*t^4 - 0.2*t^5)"
ASYMMETRIC_INFLECTION = "(t + 0.4*t^2, t^3 + 0.5*t^4 + 0.3*t^5)"
SIGN_RULE_CASES = (
    [(EUCLID_CUSP, name) for name in CATALOG_CUSPS + (ASYMMETRIC_CUSP,)]
    + [(AFFINE_CUSP, name) for name in CATALOG_CUSPS + (ASYMMETRIC_CUSP,)]
    + [(INFLECTION, name) for name in CATALOG_INFLECTIONS + (ASYMMETRIC_INFLECTION,)]
)


def _f_tau_of(kind, germ):
    return kind.jets(germ).f_tau.coeffs


@pytest.mark.parametrize(
    "kind, name", SIGN_RULE_CASES, ids=[f"{k.name}-{n}" for k, n in SIGN_RULE_CASES]
)
def test_f_tau_sign_rules(kind, name):
    # Reversal t -> -t: the Euclidean f becomes -f(-tau), c_k -> (-1)^(k+1) c_k,
    # and the affine f becomes f(-tau), c_k -> (-1)^k c_k.  Reflection
    # y -> -y: the Euclidean c_k change sign, the affine ones stay.
    asymmetric = name in (ASYMMETRIC_CUSP, ASYMMETRIC_INFLECTION)
    curve = parse_curve(name) if asymmetric else catalog_lookup(name, {"a": 1.0})
    germ = curve.jet(0.0, profiles.PROFILE_JET_ORDER)
    alternating = (-1.0) ** np.arange(profiles.PROFILE_JET_ORDER + 1)
    reversed_germ = PlaneJet.from_coeffs(germ.x.coeffs * alternating, germ.y.coeffs * alternating)
    reflected_germ = PlaneJet.from_coeffs(germ.x.coeffs, -germ.y.coeffs)
    c = _f_tau_of(kind, germ)
    signs = (-1.0) ** np.arange(len(c))
    euclidean = kind is EUCLID_CUSP
    bound = 1e-14 * np.maximum(1.0, np.abs(c))
    reversed_c = _f_tau_of(kind, reversed_germ)
    assert np.all(np.abs(reversed_c - (-signs if euclidean else signs) * c) <= bound)
    assert np.all(np.abs(_f_tau_of(kind, reflected_germ) - (-c if euclidean else c)) <= bound)
    if asymmetric:  # f has odd terms, so reversal is not the identity on it
        assert np.max(np.abs(c[1::2])) > 0.1
