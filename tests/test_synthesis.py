import dataclasses
import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cuspkit import affine, cli
from cuspkit import synthesis as S
from cuspkit.dsl import parse_expression
from cuspkit.jets import Jet, PlaneJet, _gauss_01, deflate
from cuspkit.profiles import ProfileJets


@pytest.mark.parametrize("method", ["frame", "quadrature"])
@pytest.mark.parametrize("f", [1.0, lambda t: 1.0 + 0.3 * t - 0.2 * t**2])
def test_euclidean_roundtrip_both_signs(method, f):
    res = S.synthesize("euclid-cusp", f, 0.5, method=method)
    assert np.all(np.sign(res.arclength) == np.sign(res.taus))
    tau_n = res.tau_normalized()
    target = np.asarray(res.input_profile(tau_n))
    assert np.max(np.abs(res.profile_recomputed() - target)) < 1e-10


# -- the batched propagator against a textbook per-step RK4 ------------------------

PROFILES = {
    "euclid-cusp": "1 + 0.3*t - 0.2*t^2",
    "affine-cusp": "0.5 + 0.1*t - 0.12*t^2",
    # f''(0)/2 = -16 f'(0)^2 / 9 satisfies the inflection germ constraint.
    "inflection": "-5/16 + 0.3*t - 0.16*t^2 + 0.1*t^3",
}
KINDS = tuple(PROFILES)


def _system(kind, taus_half):
    """(A, C, speed, frame0) of one kind's frame system on a half-step grid.

    A is the textbook (n, 3, 3) coefficient matrix, C the entries-first
    blocks that the integrator takes.
    """
    profile = S.as_profile(parse_expression(PROFILES[kind]))
    system = S.SYSTEMS[kind]
    values, _ = system.inputs(profile)
    entries = system.coefficients(taus_half, *values(taus_half))
    A = np.zeros((len(taus_half), 3, 3))
    for (i, j), a in entries.items():
        if i < 3:
            A[:, i, j] = a
    return A, S._frame_blocks(entries, len(taus_half)), system.speed, system.frame0


def _textbook_rk4(A, frame0, h, n_steps, speed):
    def sigma(d, z):  # gamma', xi and xi' of a stage state
        return speed(d[0], z[1], d[1])

    y, s = frame0.copy(), 0.0
    frames, arclength = [y], [s]
    for k in range(n_steps):
        z1 = y
        d1 = A[2 * k] @ z1
        z2 = y + 0.5 * h * d1
        d2 = A[2 * k + 1] @ z2
        z3 = y + 0.5 * h * d2
        d3 = A[2 * k + 1] @ z3
        z4 = y + h * d3
        d4 = A[2 * k + 2] @ z4
        y = y + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        s = s + h / 6.0 * (
            sigma(d1, z1) + 2.0 * sigma(d2, z2) + 2.0 * sigma(d3, z3) + sigma(d4, z4)
        )
        frames.append(y)
        arclength.append(s)
    return np.array(frames), np.array(arclength)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_steps", [1, 2, 7, 1000])
@pytest.mark.parametrize("tau_max", [1.0, -1.0])
def test_rk4_matches_textbook_loop(kind, n_steps, tau_max):
    taus_half = np.linspace(0.0, tau_max, 2 * n_steps + 1)
    h = tau_max / n_steps
    A, C, speed, frame0 = _system(kind, taus_half)
    frames, s = S._rk4(C, frame0, h, n_steps, speed)
    want_frames, want_s = _textbook_rk4(A, frame0, h, n_steps, speed)
    assert frames.shape == (3, 2, n_steps + 1)
    assert _rel_err(frames.transpose(2, 0, 1), want_frames) <= 1e-13
    assert _rel_err(s, want_s) <= 1e-13


def _loop_product(a, b):
    """a @ b entry by entry in Python floats, b broadcast over a length-1 last axis."""
    out = np.empty(a.shape[:-2] + (2, a.shape[-1]))
    for lead in np.ndindex(*a.shape[:-2]):
        for c in range(2):
            for k in range(a.shape[-1]):
                kb = k if b.shape[-1] > 1 else 0
                row = [float(a[lead + (j, k)]) for j in range(2)]
                out[lead + (c, k)] = row[0] * float(b[0, c, kb]) + row[1] * float(b[1, c, kb])
    return out


# The shapes of the step maps, the stage states, A Y and a step map on the initial frame.
@pytest.mark.parametrize(
    "a_shape, b_shape",
    [((3, 2, 7), (2, 2, 7)), ((4, 2, 2, 7), (2, 2, 7)), ((4, 2, 7), (2, 2, 7)),
     ((3, 2, 5), (2, 2, 1)), ((3, 2, 1), (2, 2, 1))],
)
def test_block_product_matches_an_explicit_loop(a_shape, b_shape, rng):
    a = rng.standard_normal(a_shape)
    b = rng.standard_normal(b_shape)
    a.flat[::3] = -0.0  # signed zeros in both factors
    b.flat[1::4] = 0.0
    got = S._matmul(a, b)
    assert got.shape == a.shape[:-2] + (2, a_shape[-1])
    assert np.all(got == _loop_product(a, b))


@pytest.mark.parametrize("kind", KINDS)
def test_no_frame_system_feeds_gamma_back(kind):
    taus = np.linspace(-0.5, 0.5, 11)
    system = S.SYSTEMS[kind]
    values, _ = system.inputs(S.as_profile(parse_expression(PROFILES[kind])))
    assert all(j != 0 for _, j in system.coefficients(taus, *values(taus)))


def test_block_assembly_rejects_a_gamma_column_entry():
    with pytest.raises(ValueError, match="a20"):
        S._frame_blocks({(0, 1): 1.0, (2, 0): 0.5}, 3)


@pytest.mark.parametrize("kind", KINDS)
def test_synthesis_is_fourth_order(kind):
    fn = parse_expression(PROFILES[kind])
    ends = [
        S.synthesize(kind, fn, 1.0, step=step).positions[-1]
        for step in (4e-3, 2e-3, 1e-3)
    ]
    ratio = np.linalg.norm(ends[0] - ends[1]) / np.linalg.norm(ends[1] - ends[2])
    assert 14.0 <= ratio <= 18.0


# -- the quadrature route's theta ---------------------------------------------------------


@pytest.mark.parametrize("k", range(8))
def test_integration_matrix_is_exact_through_degree_seven(k):
    x, _ = _gauss_01(8)
    M = S._gauss_integration_matrix(8)
    assert np.max(np.abs(M @ x**k - x ** (k + 1) / (k + 1))) <= 1e-15


@pytest.mark.parametrize("tau_end, n", [(0.9, 50), (-0.9, 50), (1.0, 7)])
def test_quadrature_theta_matches_the_closed_form_of_a_cubic(tau_end, n):
    c = [0.7, -1.3, 0.9, 2.1]
    h = tau_end / n
    starts = h * np.arange(n)
    main = starts[:, None] + h * _gauss_01(8)[0]
    theta_start, theta_main = S._quadrature_theta(np.polyval(c[::-1], main), h)

    def theta(t):  # 2 * integral_0^t of the cubic
        return 2.0 * sum(ck * t ** (k + 1) / (k + 1) for k, ck in enumerate(c))

    assert np.max(np.abs(theta_start - theta(np.concatenate([[0.0], starts + h])))) <= 1e-14
    assert np.max(np.abs(theta_main - theta(main))) <= 1e-14


# -- the Richardson step error ---------------------------------------------------------

ROUTES = [(kind, {}) for kind in KINDS] + [("euclid-cusp", {"method": "quadrature"})]


def _reference_step_error(kind, kw, tau_max, step):
    """Rerun each side in full, 2n steps of h/2, and compare endpoints."""
    fn = parse_expression(PROFILES[kind])
    res = S.synthesize(kind, fn, tau_max, step=step, **kw)
    n = S._step_count(tau_max, step)
    errs = []
    for sign, end in ((1.0, res.positions[-1]), (-1.0, res.positions[0])):
        if kw.get("method") == "quadrature":
            half = S._euclid_quadrature(res.input_profile, sign * tau_max, 2 * n)[2][0]
        else:
            _, C, speed, frame0 = _system(kind, np.linspace(0.0, sign * tau_max, 4 * n + 1))
            half = S._rk4(C, frame0, 0.5 * (sign * tau_max / n), 2 * n, speed)[0][0]
        assert half.shape == (2, 2 * n + 1)
        errs.append(float(np.max(np.abs(end - half[:, -1]))))
    return max(errs)


@pytest.mark.parametrize("kind, kw", ROUTES)
@pytest.mark.parametrize("steps", [1, 2, 3, 7, 64, 65, 1000])
def test_step_error_is_the_full_half_step_rerun(kind, kw, steps):
    # Binary fractions: the run takes exactly ``steps`` steps per side.
    step = 2.0**-10
    tau_max = steps * step
    assert S._step_count(tau_max, step) == steps
    fn = parse_expression(PROFILES[kind])
    res = S.synthesize(kind, fn, tau_max, step=step, **kw)
    assert res.step_error == _reference_step_error(kind, kw, tau_max, step)


@pytest.mark.parametrize("kind, kw", ROUTES)
def test_step_error_rerun_doubles_a_rounded_up_step_count(kind, kw):
    # 0.3004 / 1e-3 rounds up to n = 301 steps; the rerun takes 2n = 602,
    # where ceil(0.6008 / 1e-3) = 601 half steps would not double the run.
    tau_max, step = 0.3004, 1e-3
    assert S._step_count(tau_max, step) == 301
    assert math.ceil(tau_max / (0.5 * step)) == 601
    fn = parse_expression(PROFILES[kind])
    res = S.synthesize(kind, fn, tau_max, step=step, **kw)
    assert res.step_error == _reference_step_error(kind, kw, tau_max, step)


@pytest.mark.parametrize("kind, kw", ROUTES)
def test_step_error_reruns_each_side_once_on_first_read(kind, kw, monkeypatch):
    method = kw.get("method", "frame")
    routes = S.SYSTEMS[kind].routes
    route, reruns = routes[method], []

    def counted(system, values, profile, tau_end, n):
        if n == 2 * S._step_count(0.5, S.DEFAULT_STEP):
            reruns.append(tau_end)
        return route(system, values, profile, tau_end, n)

    monkeypatch.setitem(routes, method, counted)
    res = S.synthesize(kind, parse_expression(PROFILES[kind]), 0.5, **kw)
    assert reruns == []
    first = res.step_error
    assert reruns == [0.5, -0.5]
    assert res.step_error == first
    assert len(reruns) == 2


def test_step_error_refuses_a_point_of_its_own_grid():
    # D = 18 + 25 tau^2 h dips below 0 near tau = 1/16 only: a point of the
    # rerun's grid of h/4, not of the run's grid of h/2.
    h = parse_expression("-1e6*exp(-1e8*(t - 0.0625)^2)")
    res = S.synthesize("affine-cusp", h, 1.0, step=0.25)
    with pytest.raises(ValueError, match=r"18 \+ 25 tau\^2 h\(tau\) > 0 .* at tau = 0\.0625$"):
        res.step_error


def test_step_error_names_a_pole_on_its_own_grid():
    # 1/(tau - 1/16) has its pole on the rerun's grid of h/4, not on the run's of h/2.
    res = S.synthesize("euclid-cusp", parse_expression("1 + 1/(t - 0.0625)"), 1.0, step=0.25)
    with pytest.raises(ZeroDivisionError, match=r"zero constant coefficient at t = 0\.0625$"):
        res.step_error


@pytest.mark.parametrize("kind", KINDS)
def test_step_error_shrinks_at_fourth_order(kind):
    # The quadrature route's error is at rounding level already.
    fn = parse_expression(PROFILES[kind])
    coarse, fine = (S.synthesize(kind, fn, 1.0, step=step).step_error for step in (4e-3, 2e-3))
    assert 0.0 < fine <= coarse / 10.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau_max", [0.35, 1.0])
def test_roundtrip_every_kind(kind, tau_max):
    fn = parse_expression(PROFILES[kind])
    res = S.synthesize(kind, fn, tau_max)
    assert np.all(np.sign(res.arclength) == np.sign(res.taus))
    assert S.roundtrip(fn, kind, tau_max) <= 1e-9


# -- invalid ranges ------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize("which", ["tau_max", "step"])
def test_invalid_range_raises_before_germ_work(kind, bad, which):
    calls = []
    value = {"euclid-cusp": 1.0, "affine-cusp": 0.5, "inflection": -5.0 / 16.0}[kind]

    def fn(tau):
        calls.append(tau)
        return value

    args = {"tau_max": 0.5, "step": 1e-3, which: bad}
    with pytest.raises(ValueError, match=re.escape(f"{which}={bad!r}")):
        S.synthesize(kind, fn, args["tau_max"], step=args["step"])
    assert calls == []


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize(
    "tau_max, step, count",
    [(1e308, 0.3, "inf"), (1e10, S.DEFAULT_STEP, "1e+13")],
)
def test_step_count_above_the_cap_raises_before_germ_work(kind, tau_max, step, count):
    calls = []
    value = {"euclid-cusp": 1.0, "affine-cusp": 0.5, "inflection": -5.0 / 16.0}[kind]

    def fn(tau):
        calls.append(tau)
        return value

    with pytest.raises(ValueError) as info:
        S.synthesize(kind, fn, tau_max, step=step)
    assert str(info.value) == f"synthesis needs tau_max / step <= {S.MAX_STEPS}, got {count}"
    assert calls == []


@pytest.mark.parametrize(
    "text, named",
    [("-5/16 + t*(1e300)", "f'(0) = 1e+300 and f''(0) = 0.0"),
     ("-5/16 + t^2*(1e308)", "f'(0) = 0.0 and f''(0) = inf")],
)
def test_inflection_constraint_that_overflows_names_the_derivatives(text, named):
    with pytest.raises(ValueError, match=re.escape(f"finite 32 f'(0)^2 + 9 f''(0), got {named}")):
        S.synthesize("inflection", parse_expression(text), 0.5)


@pytest.mark.parametrize("slope, valid", [(1.0, "tau > -0.5625"), (-1.0, "tau < 0.5625")])
def test_reparametrization_pole_raises_before_germ_work(slope, valid, monkeypatch):
    # f = -5/16 + slope tau has c = 32 / (18 slope) = +-16/9: its reparametrization
    # t = tau / (1 + c tau) has a pole at tau = -1/c = -+0.5625.
    calls = []

    def fn(tau):
        calls.append(tau)
        return -5.0 / 16.0 + slope * tau

    assert S.synthesize("inflection", fn, 0.55).taus[-1] == 0.55
    calls.clear()
    monkeypatch.setattr(S, "_synthesize", lambda *args: pytest.fail("germ work started"))
    with pytest.raises(ValueError) as info:
        S.synthesize("inflection", fn, 0.6)
    message = str(info.value)
    for part in (f"c = {32.0 / (18.0 * slope):.6g}", valid, "tau_max = 0.6", "tau_max < 0.5625"):
        assert part in message
    assert [tau.order for tau in calls] == [4]  # the constraint check's jet alone
    profile, _ = S.restore_inflection_constraint(fn)
    for tau in (-0.6 * slope, np.array([0.0, -0.6 * slope]), Jet.variable(-0.6 * slope, 2)):
        with pytest.raises(ValueError, match=re.escape(f"defined only for {valid}")):
            profile(tau)


@pytest.mark.parametrize(
    "kind, text, kw, message",
    [
        ("euclid-cusp", "0", {}, "Euclidean cusp synthesis needs f(0) != 0"),
        ("euclid-cusp", "t", {}, "Euclidean cusp synthesis needs f(0) != 0"),
        ("inflection", "-1/4", {}, "inflection synthesis needs f(0) = -5/16, got f(0) = -0.25"),
        ("inflection", "-5/16 + t^2", {}, "f'(0) = 0 but f''(0) != 0 cannot be repaired"),
        ("cusp", "1", {}, "use 'euclid-cusp', 'affine-cusp', or 'inflection'"),
        ("euclid-cusp", "1", {"method": "rk4"}, "unknown method 'rk4'; use 'frame' or 'quadrature'"),
    ],
)
def test_inadmissible_input_raises_before_germ_work(kind, text, kw, message, monkeypatch):
    monkeypatch.setattr(S, "_taylor_germ", lambda *args: pytest.fail("germ work started"))
    with pytest.raises(ValueError, match=re.escape(message)):
        S.synthesize(kind, parse_expression(text), 0.5, **kw)


# -- the synthesize subcommand -------------------------------------------------------


def _synthesize_argv(kind, out, svg_path, *extra):
    expr_flag = "--h" if kind == "affine-cusp" else "--f"
    return [
        "synthesize", "--kind", kind, expr_flag, PROFILES[kind], "--tau-max", "0.5",
        "--out", str(out), "--svg", str(svg_path), *extra,
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_cli_synthesize_is_repeatable_and_renders_every_row(kind, tmp_path):
    outputs = []
    for run in ("a", "b"):
        csv_path, svg_path = tmp_path / f"{run}.csv", tmp_path / f"{run}.svg"
        assert cli.main(_synthesize_argv(kind, csv_path, svg_path)) == 0
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]
    csv_text, svg_bytes = outputs[0]
    rows = csv_text.decode().splitlines()
    assert rows[0] == "tau,x,y"
    line = ET.fromstring(svg_bytes).find("{http://www.w3.org/2000/svg}polyline")
    assert len(line.get("points").split()) == len(rows) - 1


@pytest.mark.parametrize("kind", KINDS)
def test_cli_synthesize_skips_the_unreported_rerun(kind, tmp_path, monkeypatch):
    results = []
    original = S.synthesize

    def recorded(*args, **kw):
        results.append(original(*args, **kw))
        return results[-1]

    monkeypatch.setattr(S, "synthesize", recorded)
    assert cli.main(_synthesize_argv(kind, tmp_path / "c.csv", tmp_path / "c.svg")) == 0
    assert len(results) == 1 and "step_error" not in vars(results[0])


def test_cli_synthesize_rejects_zero_step(tmp_path, capsys):
    argv = _synthesize_argv("euclid-cusp", tmp_path / "c.csv", tmp_path / "c.svg", "--step", "0")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error [synthesize]")


# -- the affine cusp's coefficient denominator ------------------------------------------


@pytest.mark.parametrize("h, sign", [(-1.9, 1.0), ("-3*t", 1.0), ("3*t", -1.0)])
def test_affine_cusp_denominator_sign_change_raises(h, sign):
    # D = 18 + 25 tau^2 h changes sign between grid nodes near |tau| = 0.62:
    # h = -1.9 on both sides, h = -3t for tau > 0 only, h = 3t for tau < 0 only.
    fn = parse_expression(h) if isinstance(h, str) else h
    with pytest.raises(ValueError, match=re.escape("18 + 25 tau^2 h(tau) > 0")) as info:
        S.synthesize("affine-cusp", fn, 0.7)
    found = re.search(r"it is (\S+) at tau = (\S+)$", str(info.value))
    D, tau = float(found.group(1)), float(found.group(2))
    assert D <= 0.0
    assert np.sign(tau) == sign and 0.6 < abs(tau) < 0.63


def test_affine_cusp_inside_the_denominator_range_still_round_trips():
    assert S.roundtrip(-1.9, "affine-cusp", 0.5) <= 1e-9


# -- the spliced arclength ----------------------------------------------------------

CONSTANT_PROFILES = {"euclid-cusp": "1", "affine-cusp": "0.5", "inflection": "-5/16"}


@pytest.mark.parametrize("kind, kw", ROUTES)
def test_spliced_arclength_continues_from_the_value_it_stores(kind, kw, monkeypatch):
    splice, sides = S._spliced_arclength, []

    def recorded(taus, s, tau_t, p):
        sides.append((taus, s, splice(taus, s, tau_t, p)))
        return sides[-1][2]

    monkeypatch.setattr(S, "_spliced_arclength", recorded)
    for text in (CONSTANT_PROFILES[kind], PROFILES[kind]):
        for tau_max in (0.3, 0.5, 1.0):
            for step in (1e-3, 7e-3):
                S.synthesize(kind, parse_expression(text), tau_max, step=step, **kw)
    assert len(sides) == 24
    for taus, s, out in sides:
        b = int(np.flatnonzero(np.abs(taus) >= S.SWITCH_RADIUS)[0])
        assert np.array_equal(out[b + 1 :], out[b] + (s[b + 1 :] - s[b]))


# -- the synthesize entry point -------------------------------------------------------


@pytest.mark.parametrize("kind", ["affine-cusp", "inflection"])
def test_synthesize_takes_the_method_of_every_kind(kind):
    fn = parse_expression(CONSTANT_PROFILES[kind])
    with pytest.raises(ValueError, match=f"^{kind} synthesis has only the 'frame' route, not "):
        S.synthesize(kind, fn, 0.3, method="quadrature")
    res = S.synthesize(kind, fn, 0.3, method="frame")
    assert res.method == "frame" and res.taus[-1] == 0.3


# -- the germ's profile jets -----------------------------------------------------------


@pytest.mark.parametrize(
    "kind, kw",
    [("euclid-cusp", {}), ("euclid-cusp", {"method": "quadrature"}), ("affine-cusp", {}),
     ("inflection", {})],
)
def test_profile_jets_are_built_once_per_synthesis(kind, kw, monkeypatch):
    record = S.SYSTEMS[kind].kind
    build, inverted = record.jets, Jet.inverted
    builds, reversions = [], []

    def counted_build(germ):
        builds.append(germ)
        return build(germ)

    def counted_inverted(self):
        reversions.append(self.order)
        return inverted(self)

    # Kind is frozen: its field is swapped in the instance dict.
    monkeypatch.setitem(vars(record), "jets", counted_build)
    monkeypatch.setattr(Jet, "inverted", counted_inverted)
    res = S.synthesize(kind, parse_expression(PROFILES[kind]), 0.5, **kw)
    res.profile_recomputed()
    res.profile_recomputed()
    assert len(builds) == 1
    assert reversions == []  # f_tau, the only reversion, is never read


def test_germ_of_another_kind_raises_from_the_kind_before_integration(monkeypatch):
    system = dataclasses.replace(S.INFLECTION_SYSTEM, kind=affine.AFFINE_CUSP)
    monkeypatch.setattr(S, "_rk4", lambda *args: pytest.fail("integration started"))
    profile = S.as_profile(parse_expression(PROFILES["inflection"]))
    with pytest.raises(ValueError, match="needs a 3/2-cusp germ, got PositiveInflection") as info:
        S._synthesize(system, profile, 0.5, 1e-3)
    assert any(entry.name == "cusp_profile_jets" for entry in info.traceback)


@pytest.mark.parametrize("kind", KINDS)
def test_every_kind_builds_a_profile_jets_record(kind):
    res = S.synthesize(kind, parse_expression(PROFILES[kind]), 0.1)
    assert isinstance(res.profile_jets, ProfileJets)
    names = [field.name for field in dataclasses.fields(res.profile_jets)]
    assert names[:3] == ["f_t", "tau_t", "L"]


# -- the germ against an independent Picard iteration ------------------------------------


def _antiderivative(jet, constant):
    """The jet of the integral of ``jet`` from its base point, plus ``constant``."""
    k = np.arange(1, len(jet.coeffs) + 1)
    return Jet(np.concatenate([[constant], jet.coeffs / k]), jet.base_point)


def _picard_germ(rhs_jets, y0, order):
    """Power-series solution of y' = F(tau, y) at tau = 0 by Picard iteration.

    ``rhs_jets(tau_jet, state_jets)`` evaluates the right-hand side in jet
    arithmetic.  Each sweep gains one order, so order + 2 sweeps settle all
    retained coefficients.
    """
    tau = Jet.variable(0.0, order)
    state = [Jet.constant(v, order) for v in y0]
    for _ in range(order + 2):
        rhs = rhs_jets(tau, state)
        state = [_antiderivative(r.truncated(order - 1), v) for r, v in zip(rhs, y0)]
    return PlaneJet(state[0], state[1])


def _euclid_cusp_reference(profile, order):
    f = profile.jet(0.0, order)

    def rhs(tau, state):
        u1x, u1y, u2x, u2y = state[2:]
        denom = 1.0 + 4.0 * tau * tau * f * f
        q = 2.0 * tau / denom.sqrt()
        m = -2.0 * tau * f
        omega = 2.0 * (2.0 * f + 4.0 * tau * tau * f * f * f + tau * f.derivative()) / denom
        return [q * (u1x + m * u2x), q * (u1y + m * u2y),
                omega * u2x, omega * u2y, -omega * u1x, -omega * u1y]

    return _picard_germ(rhs, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0], order)


def _affine_cusp_reference(profile, order):
    h = profile.jet(0.0, order)
    hd = h.derivative()

    def rhs(tau, state):
        xix, xiy, etax, etay = state[2:]
        D = 18.0 + 25.0 * tau * tau * h
        a1 = 18.0 * tau / D
        a2 = -9.0 * tau * tau / D
        b1 = -25.0 * (18.0 * tau * hd + 25.0 * tau * tau * h * h + 54.0 * h) / (9.0 * D)
        b2 = 25.0 * tau * (tau * hd + 2.0 * h) / D
        return [a1 * xix + a2 * etax, a1 * xiy + a2 * etay, etax, etay,
                b1 * xix + b2 * etax, b1 * xiy + b2 * etay]

    return _picard_germ(rhs, [0.0, 0.0, 1.0, 0.0, 0.0, S.AFFINE_CUSP_ETA0], order)


def _inflection_reference(profile, order):
    # f = -5/16 + tau g and 9 g' + 16 g^2 = tau h.
    g = deflate(profile.jet(0.0, order) + 5.0 / 16.0, 1, tol=1e-9)
    h = deflate(9.0 * g.derivative() + 16.0 * g * g, 1, tol=1e-7)
    a11 = 16.0 * g / 9.0
    a21 = -16.0 * h / 81.0

    def rhs(tau, state):
        xix, xiy, etax, etay = state[2:]
        return [xix, xiy, a11 * xix + tau * etax, a11 * xiy + tau * etay,
                a21 * xix - a11 * etax, a21 * xiy - a11 * etay]

    return _picard_germ(rhs, [0.0, 0.0, 1.0, 0.0, 0.0, S.INFLECTION_ETA0], order)


GERM_CASES = [
    ("euclid-cusp", "1 + 0.3*t - 0.2*t^2", _euclid_cusp_reference),
    ("euclid-cusp", "-2 + sin(t)", _euclid_cusp_reference),
    ("euclid-cusp", "cos(t)", _euclid_cusp_reference),
    ("affine-cusp", "0.5 + 0.1*t - 0.12*t^2", _affine_cusp_reference),
    ("affine-cusp", "-2 + sin(t)", _affine_cusp_reference),
    ("affine-cusp", "cos(t)", _affine_cusp_reference),
    ("inflection", PROFILES["inflection"], _inflection_reference),
    # 32 f'(0)^2 + 9 f''(0) = 0 with f'(0) = 0.3, f''(0) = -0.32.
    ("inflection", "-5/16 + 0.3*sin(t) - 0.32*(1 - cos(t))", _inflection_reference),
    # Violates the constraint, so the synthesis reparametrizes it first.
    ("inflection", "-5/16 + 0.2*sin(t)", _inflection_reference),
]


@pytest.mark.parametrize("kind, text, reference", GERM_CASES)
def test_germ_matches_picard_iteration(kind, text, reference):
    res = S.synthesize(kind, parse_expression(text), 0.04)
    want = reference(res.input_profile, S.GERM_ORDER)
    assert res.germ.order == S.GERM_ORDER
    for got, ref in ((res.germ.x.coeffs, want.x.coeffs), (res.germ.y.coeffs, want.y.coeffs)):
        assert np.all(np.isfinite(got))
        assert np.all(np.abs(got - ref) <= 1e-10 * np.maximum(1.0, np.abs(ref)))
