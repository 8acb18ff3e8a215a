import math
import re
import warnings

import numpy as np
import pytest
from conftest import MODEL_GERMS

from cuspkit import dsl
from cuspkit.dsl import (
    CATALOG_NAMES,
    Num,
    ParseError,
    catalog_lookup,
    evaluate,
    parse_curve,
    parse_expression,
)
from cuspkit.euclidean import profile_g
from cuspkit.jets import Jet

ALL_CATALOG = [
    ("cuspidal_cubic", {"a": 1.0}),
    ("cycloid", {"a": 1.0}),
    ("canonical_cusp", {"a": 1.0}),
    ("hyperbolic_cycloid", {"a": 1.0}),
    ("cubic_graph", {"a": 1.0}),
    ("skew_cycloid", {"a": 1.0}),
    ("circle", {"r": 1.0}),
    ("parabola", {}),
    ("line", {}),
]


def test_parse_cuspidal_cubic():
    spec = parse_curve("(t^2, t^3)")
    j = spec.jet(0.0, 3)
    assert np.allclose(j.x.coeffs, [0, 0, 1, 0])
    assert np.allclose(j.y.coeffs, [0, 0, 0, 1])


def test_parse_cycloid_with_binding():
    spec = parse_curve("(a*(t - sin(t)), a*(-1 + cos(t))) with a=1")
    j = spec.jet(0.0, 3)
    assert np.allclose(j.x.coeffs, [0, 0, 0, 1 / 6])
    assert np.allclose(j.y.coeffs, [0, 0, -0.5, 0])


def test_missing_second_component_is_a_syntax_error():
    with pytest.raises(ParseError, match="second curve component") as err:
        parse_curve("(t,)")
    assert err.value.line == 1
    assert err.value.column == 4


def test_unbound_parameter_reported():
    with pytest.raises(ParseError, match="unbound parameter"):
        parse_curve("(a*t, t)")


def test_zero_denominator_exponent_rejected():
    with pytest.raises(ParseError, match="zero denominator"):
        parse_curve("(t^(1/0), t)")


def test_error_positions_point_at_the_problem():
    with pytest.raises(ParseError) as err:
        parse_curve("(t, 2*)")
    assert err.value.column == 7


@pytest.mark.parametrize(
    "text, message",
    [
        ("(a*t,\n  t^2 $ 1) with a=1", "line 2, column 7: unexpected character '$'"),
        ("(t,\n t^(1/0))", "line 2, column 8: zero denominator in rational exponent"),
        (
            "(t^2,\n  t^3)\nwith a=",
            "line 3, column 8: expected a numeric parameter value, got end of input",
        ),
        (
            "(t^2,\n\n    t^3 + 2*)",
            "line 3, column 13: expected a number, name, function call, or '(', got ')'",
        ),
        ("(t,\n t) with\n  a = x", "line 3, column 7: expected a numeric parameter value, got 'x'"),
    ],
)
def test_errors_past_the_first_line_name_their_line_and_column(text, message):
    with pytest.raises(ParseError) as err:
        parse_curve(text)
    assert str(err.value) == message
    line, column = message.split(":")[0].removeprefix("line ").split(", column ")
    assert (err.value.line, err.value.column) == (int(line), int(column))


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_curve, "(t,\n   b*t)", "line 2, column 4: unbound parameter(s): b"),
        (parse_curve, "(t,\n  t^2\n   + 2*c)", "line 3, column 8: unbound parameter(s): c"),
        # Two names: the error points at the first occurrence of either.
        (parse_curve, "(t,\n  t + c*t\n  + b + c)", "line 2, column 7: unbound parameter(s): b, c"),
        (parse_curve, "(t,\n  t^2\n  + b) with a=1", "line 3, column 5: unbound parameter(s): b"),
        (parse_expression, "1 +\n  t*\n  k", "line 3, column 3: unbound parameter(s): k"),
        # Names under a function, a power and a negation, and in both components.
        (parse_curve, "(t, sin(k*t))", "line 1, column 9: unbound parameter(s): k"),
        (parse_curve, "(t, t + (q)^2)", "line 1, column 10: unbound parameter(s): q"),
        (parse_curve, "(t, -w)", "line 1, column 6: unbound parameter(s): w"),
        (parse_curve, "(cos(t) - u, t\n  + v^3)", "line 1, column 11: unbound parameter(s): u, v"),
        (parse_curve, "(exp(-b*t), t) with a=1", "line 1, column 7: unbound parameter(s): b"),
        (parse_expression, "sinh(-(m)^2 * t)", "line 1, column 8: unbound parameter(s): m"),
    ],
)
def test_unbound_parameter_error_points_at_its_first_occurrence(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_precedence_matches_standard_notation():
    # ^ binds tighter than unary minus, which binds tighter than * and /
    spec = parse_curve("(-t^2, 2*t + t*t)")
    j = spec.jet(1.0, 0)
    assert j.x.value() == pytest.approx(-1.0)
    assert j.y.value() == pytest.approx(3.0)


def test_rational_exponent_uses_signed_convention():
    expr = parse_expression("t^(1/3)")
    from cuspkit.dsl import evaluate

    assert evaluate(expr, -8.0, {}) == pytest.approx(-2.0)
    expr = parse_expression("t^(1/2)")
    assert evaluate(expr, -4.0, {}) == pytest.approx(2.0)


def test_line_has_no_higher_coefficients():
    j = parse_curve("(t, 2*t)").jet(0.37, 6)
    assert np.allclose(j.x.coeffs[2:], 0.0)
    assert np.allclose(j.y.coeffs[2:], 0.0)


@pytest.mark.parametrize("name, params", ALL_CATALOG)
def test_catalog_round_trips_through_parser(name, params):
    spec = catalog_lookup(name, params)
    again = parse_curve(str(spec))
    assert again.x_expr == spec.x_expr
    assert again.y_expr == spec.y_expr
    assert again.params == spec.params


def test_catalog_lookup_substitutes_parameters():
    spec = catalog_lookup("cycloid", {"a": 2.0})
    assert spec.params == {"a": 2.0}
    assert np.allclose(spec.point(0.0), [0.0, 0.0])
    # doubled amplitude: y(pi) = 2 * (-2)
    assert spec.point(np.pi)[1] == pytest.approx(-4.0)


def test_catalog_hyperbolic_and_skew_forms():
    hyp = catalog_lookup("hyperbolic_cycloid", {"a": 1.0})
    assert "sinh" in str(hyp) and "cosh" in str(hyp)
    skew = catalog_lookup("skew_cycloid", {"a": 1.0})
    assert skew.point(0.0)[1] == pytest.approx(1.0)


def test_catalog_errors():
    with pytest.raises(ValueError, match="unknown catalog curve"):
        catalog_lookup("helix", {})
    with pytest.raises(ValueError, match="requires parameter"):
        catalog_lookup("cycloid", {})
    with pytest.raises(ValueError, match="> 0"):
        catalog_lookup("cycloid", {"a": -1.0})
    with pytest.raises(ValueError, match="takes no parameter"):
        catalog_lookup("parabola", {"a": 1.0})


def test_catalog_lookups_share_the_parsed_trees(monkeypatch):
    dsl._parsed.cache_clear()
    parses = []
    original = dsl._Parser
    monkeypatch.setattr(dsl, "_Parser", lambda *args: parses.append(args) or original(*args))
    given = {"a": 1.0}
    one = catalog_lookup("cycloid", given)
    two = catalog_lookup("cycloid", {"a": 2.5})
    assert len(parses) == 1
    assert one.x_expr is two.x_expr and one.y_expr is two.y_expr
    assert (one.params, two.params) == ({"a": 1.0}, {"a": 2.5})
    assert (one.label, two.label) == ("cycloid(a=1)", "cycloid(a=2.5)")
    given["a"] = 7.0  # the caller's dict is copied
    assert (one.params, two.params) == ({"a": 1.0}, {"a": 2.5})
    assert one.point(np.pi)[1] == pytest.approx(-2.0)
    assert two.point(np.pi)[1] == pytest.approx(-5.0)


CATALOG_ERRORS = [
    ("cycloid", {"a": math.nan}, "catalog curve 'cycloid' needs a > 0, got a=nan"),
    ("cycloid", {"a": math.inf}, "curve parameter a must be finite, got a=inf"),
    ("cycloid", {"a": -math.inf}, "catalog curve 'cycloid' needs a > 0, got a=-inf"),
    ("cycloid", {"a": 0.0}, "catalog curve 'cycloid' needs a > 0, got a=0.0"),
    ("cycloid", {"a": -1.5}, "catalog curve 'cycloid' needs a > 0, got a=-1.5"),
    ("cycloid", {}, "catalog curve 'cycloid' requires parameter 'a'"),
    (
        "cycloid",
        {"a": 1.0, "c": 1.0, "b": 2.0},
        "catalog curve 'cycloid' takes no parameter(s): b, c",
    ),
    ("circle", {"r": math.inf}, "curve parameter r must be finite, got r=inf"),
    ("parabola", {"a": 1.0}, "catalog curve 'parabola' takes no parameter(s): a"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["first-use", "cached"])
@pytest.mark.parametrize("name, params, message", CATALOG_ERRORS)
def test_catalog_errors_are_the_same_before_and_after_the_first_parse(
    name, params, message, warm, monkeypatch
):
    dsl._parsed.cache_clear()
    if warm:
        catalog_lookup(name, dict.fromkeys(dsl._CATALOG[name][1], 1.0))
    with pytest.raises(ValueError) as exc:
        catalog_lookup(name, params)
    assert str(exc.value) == message


# The DSL-text twin of CATALOG_ERRORS: (text, params, the error message, or
# the bound parameters of a text that parses).
CURVE_TEXT_CASES = [
    ("(a*t^2,\n t^3 + b*t)", {"a": 1.0}, "line 2, column 8: unbound parameter(s): b"),
    ("(a*t^2, t^3) with a=1e999", None, "curve parameter a must be finite, got a=inf"),
    ("(a*t^2, t^3)", {"a": math.nan}, "curve parameter a must be finite, got a=nan"),
    ("(a*t^2, t^3) with a=2", {"a": math.nan}, {"a": 2.0}),
    ("(a*t^2, t^3 + c*t^5) with c=-1.5", {"a": 3.0, "c": 7.0}, {"a": 3.0, "c": -1.5}),
    ("(t^2, t^3)", {"zzz": 1.0}, "curve '(t^2, t^3)' takes no parameter(s): zzz"),
    ("(a*t^2,\n t^3) with a=2", {"c": math.nan, "b": 1.0},
     "curve '(a*t^2, t^3) with a=2' takes no parameter(s): b, c"),
]


@pytest.mark.parametrize("warm", [False, True], ids=["first-use", "cached"])
@pytest.mark.parametrize("text, params, expect", CURVE_TEXT_CASES)
def test_curve_text_errors_are_the_same_before_and_after_the_first_parse(
    text, params, expect, warm
):
    dsl._parsed.cache_clear()
    if warm:
        dsl._parsed(text)
        assert dsl._parsed.cache_info().currsize == 1
    if isinstance(expect, dict):
        spec = parse_curve(text, params)
        assert spec.params == expect and list(spec.params) == list(expect)
        return
    with pytest.raises(ValueError) as exc:
        parse_curve(text, params)
    assert str(exc.value) == expect
    assert isinstance(exc.value, ParseError) == expect.startswith("line ")


def test_a_syntax_error_is_raised_again_and_never_cached():
    dsl._parsed.cache_clear()
    messages = []
    for _ in range(2):
        with pytest.raises(ParseError) as exc:
            parse_curve("(t^2, t^3) with a=")
        messages.append((str(exc.value), exc.value.line, exc.value.column))
    assert messages == [
        ("line 1, column 19: expected a numeric parameter value, got end of input", 1, 19)
    ] * 2
    assert dsl._parsed.cache_info().currsize == 0


def test_more_distinct_texts_than_the_cache_holds_still_parse_right():
    dsl._parsed.cache_clear()
    count = dsl._PARSE_CACHE_SIZE + 20
    for i in range(count):
        assert parse_curve(f"(t^2, t^3 + {i}*t^4)").point(1.0).tolist() == [1.0, 1.0 + i]
    assert dsl._parsed.cache_info().currsize == dsl._PARSE_CACHE_SIZE
    for i in range(10):  # evicted texts parse again
        assert parse_curve(f"(t^2, t^3 + {i}*t^4)").point(2.0).tolist() == [4.0, 8.0 + 16.0 * i]


def _nodes(expr):
    """Every node of a tree, once per path to it."""
    yield expr
    for child in vars(expr).values():
        if isinstance(child, dsl._Node):
            yield from _nodes(child)


def test_repeated_subtrees_are_one_node_and_marked_shared():
    spec = parse_curve(MODEL_GERMS[1])
    u = spec.x_expr.left.left.left.right.base  # the first of the six (t + t^2/3)
    assert u == parse_expression("t + t^2/3")
    shared = {id(n): n for root in (spec.x_expr, spec.y_expr) for n in _nodes(root) if n._shared}
    # u and its powers, found in both components, are one node each; the
    # nodes inside u have one parent, so they are not marked.
    assert sorted(dsl.to_text(n) for n in shared.values()) == [
        "(t + t^2 / 3)^2", "(t + t^2 / 3)^3", "(t + t^2 / 3)^5", "t + t^2 / 3"
    ]
    assert all(n.base is u for n in shared.values() if n is not u)
    # Of the catalog, only canonical_cusp has a repeated subtree.
    for name, params in ALL_CATALOG:
        curve = catalog_lookup(name, params)
        marked = any(n._shared for root in (curve.x_expr, curve.y_expr) for n in _nodes(root))
        assert marked == (name == "canonical_cusp"), name


# The model germs, a component that is also the other one, and a shared
# argument of a sin/cos pair.
SHARING_TEXTS = MODEL_GERMS + [
    "(t^2 + t, t^2 + t)",
    "(sin(t + t^2) + (t + t^2)^2, cos(t + t^2))",
]


@pytest.mark.parametrize("text", SHARING_TEXTS)
def test_shared_subtrees_change_no_bit_of_jets_or_derivatives(text):
    spec = parse_curve(text)
    jet = spec.jet(0.0, 12)
    x, y = _plain_components(spec, Jet.variable(0.0, 12))
    assert jet.x.coeffs.tobytes() == x.coeffs.tobytes()
    assert jet.y.coeffs.tobytes() == y.coeffs.tobytes()
    ts = np.linspace(-0.9, 1.1, 41)
    for order in (0, 4, 12):
        x, y = _plain_components(spec, Jet.variable(ts, order))
        factorials = np.array([math.factorial(k) for k in range(order + 1)])[:, None, None]
        want = np.stack([x.coeffs, y.coeffs], axis=1) * factorials
        assert spec.derivatives_at(ts, order).tobytes() == want.tobytes(), order


def test_a_repeated_subtree_is_evaluated_once_per_call(monkeypatch):
    spec = parse_curve(MODEL_GERMS[1])  # six copies of (t + t^2/3)
    inner = parse_expression("t^2/3")  # a node found only inside them
    calls = []
    original = dsl.evaluate

    def counting(expr, *args):
        calls.append(expr == inner)
        return original(expr, *args)

    monkeypatch.setattr(dsl, "evaluate", counting)
    spec.jet(0.0, 12)
    assert sum(calls) == 1
    calls.clear()
    spec.derivatives_at(np.array([0.1, 0.2]), 3)
    assert sum(calls) == 1
    calls.clear()
    _plain_components(spec, Jet.variable(0.0, 12))
    assert sum(calls) == 6


def test_catalog_names_exposed():
    assert "cycloid" in CATALOG_NAMES and len(CATALOG_NAMES) == 9


@pytest.mark.parametrize("name, params", ALL_CATALOG)
def test_jets_match_finite_differences(name, params):
    from conftest import finite_difference

    spec = catalog_lookup(name, params)
    rng = np.random.default_rng(11)
    for t0 in rng.uniform(-1.0, 1.0, size=10):
        jet = spec.jet(float(t0), 4)
        for order in range(1, 5):
            fd = finite_difference(spec.point, float(t0), order)
            exact = jet.derivative_vector(order)
            scale = max(1.0, float(np.max(np.abs(exact))))
            assert np.allclose(fd, exact, atol=2e-5 * scale), (name, order, t0)


def test_jets_are_linear_in_the_curve():
    a = parse_curve("(t - sin(t), t^2)")
    b = parse_curve("(cos(t), exp(t))")
    summed = parse_curve("(t - sin(t) + cos(t), t^2 + exp(t))")
    ja, jb, js = a.jet(0.2, 6), b.jet(0.2, 6), summed.jet(0.2, 6)
    assert np.allclose(js.x.coeffs, ja.x.coeffs + jb.x.coeffs)
    assert np.allclose(js.y.coeffs, ja.y.coeffs + jb.y.coeffs)


@pytest.mark.parametrize(
    "curve",
    [catalog_lookup(name, params) for name, params in ALL_CATALOG]
    + [parse_curve(text) for text in MODEL_GERMS],
    ids=[name for name, _ in ALL_CATALOG] + [f"model{i}" for i in range(len(MODEL_GERMS))],
)
def test_truncated_full_jet_is_the_lower_order_jet(curve):
    full = curve.jet(0.0, 12)
    for k in (2, 4, 10):
        low, cut = curve.jet(0.0, k), full.truncated(k)
        assert np.array_equal(cut.x.coeffs, low.x.coeffs), k
        assert np.array_equal(cut.y.coeffs, low.y.coeffs), k


def test_jet_order_cap():
    curve = parse_curve("(t, t)")
    assert curve.jet(0.0, dsl.MAX_JET_ORDER).order == dsl.MAX_JET_ORDER
    with pytest.raises(ValueError, match="exceeds"):
        curve.jet(0.0, dsl.MAX_JET_ORDER + 1)


@pytest.mark.parametrize("order", [0, 6])
@pytest.mark.parametrize("name, params", ALL_CATALOG)
def test_vectorized_derivatives_match_scalar_jets(name, params, order):
    # A batch seeds sin, cos, sinh, cosh and exp with numpy, a scalar jet
    # with math, and the two may differ in the last bit.
    spec = catalog_lookup(name, params)
    ts = np.array([-1.1, -0.7, -0.05, 0.0, 0.1, 0.37, 0.9])
    d = spec.derivatives_at(ts, order)
    assert d.shape == (order + 1, 2, len(ts))
    for i, t0 in enumerate(ts):
        j = spec.jet(float(t0), order)
        for k in range(order + 1):
            want = j.derivative_vector(k)
            assert np.all(np.abs(d[k, :, i] - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))


def _plain_components(spec, t):
    """Both components by plain ``evaluate``: every sin, cos, sinh and cosh on its own."""
    out = []
    for expr in (spec.x_expr, spec.y_expr):
        v = evaluate(expr, t, spec.params)
        out.append(v if isinstance(v, Jet) else Jet.constant(float(v), t.order, t.base_point))
    return out


# Parameters other than 1, so that they round.
ODD_PARAMS = [(name, {k: 0.77 for k in params}) for name, params in ALL_CATALOG]


@pytest.mark.parametrize("name, params", ODD_PARAMS)
def test_derivatives_and_jets_equal_plain_evaluation(name, params):
    # Shared sin/cos pairs change no bit of a batch or a scalar jet.
    spec = catalog_lookup(name, params)
    ts = np.linspace(-1.3, 1.7, 101)
    for order in range(1, 5):
        x, y = _plain_components(spec, Jet.variable(ts, order))
        factorials = np.array([math.factorial(k) for k in range(order + 1)])[:, None, None]
        want = np.stack([x.coeffs, y.coeffs], axis=1) * factorials
        assert np.array_equal(spec.derivatives_at(ts, order), want), order
    for t0 in (0.0, 0.3, -1.1):
        jet = spec.jet(t0, 12)
        x, y = _plain_components(spec, Jet.variable(t0, 12))
        assert np.array_equal(jet.x.coeffs, x.coeffs) and np.array_equal(jet.y.coeffs, y.coeffs)


@pytest.mark.parametrize(
    "name, params, plain",
    [("cycloid", {"a": 1.0}, 2), ("canonical_cusp", {"a": 1.0}, 4),
     ("hyperbolic_cycloid", {"a": 1.0}, 2), ("circle", {"r": 1.0}, 2)],
)
def test_sin_and_cos_of_one_argument_share_one_recurrence(name, params, plain, monkeypatch):
    spec = catalog_lookup(name, params)
    calls = []
    original = Jet._circular
    monkeypatch.setattr(
        Jet, "_circular", lambda self, hyp: calls.append(hyp) or original(self, hyp)
    )
    _plain_components(spec, Jet.variable(0.2, 6))
    assert len(calls) == plain
    calls.clear()
    spec.jet(0.2, 6)
    spec.derivatives_at(np.array([0.1, 0.2]), 3)
    assert len(calls) == 2


def test_parse_expression_rejects_trailing_junk():
    with pytest.raises(ParseError, match="end of input"):
        parse_expression("1 + t) * 2")


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_param_is_rejected(value):
    with pytest.raises(ValueError, match=f"c={value!r}") as err:
        parse_curve("(t^2, t^3 + c*t^5)", {"c": value})
    assert not isinstance(err.value, ParseError)


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_expression, "1e999", "line 1, column 1: number 1e999 overflows a float"),
        (parse_expression, "-2.5E400*t", "line 1, column 2: number 2.5E400 overflows a float"),
        (parse_curve, "(t^2,\n  1e999*t^3)", "line 2, column 3: number 1e999 overflows a float"),
    ],
)
def test_non_finite_number_literal_is_a_parse_error(parse, text, message):
    with pytest.raises(ParseError) as err:
        parse(text)
    assert str(err.value) == message


def test_largest_finite_number_literal_parses():
    assert parse_expression("1.7976931348623157e308") == Num(1.7976931348623157e308)


@pytest.mark.parametrize(
    "text, t0, message",
    [
        (
            "(t^2, 1e308*10*t^3)",
            0.0,
            "curve (t^2, 1e308*10*t^3) has a non-finite jet at t0=0.0: "
            "coefficient 0 of its y component is nan",
        ),
        (
            "(t + 1e308*10, t^2)",
            0.5,
            "curve (t + 1e308*10, t^2) has a non-finite jet at t0=0.5: "
            "coefficient 0 of its x component is inf",
        ),
        (
            "(t^2, 1e308*t^3 + 1e308*t^3)",
            0.0,
            "curve (t^2, 1e308*t^3 + 1e308*t^3) has a non-finite jet at t0=0.0: "
            "coefficient 3 of its y component is inf",
        ),
    ],
)
def test_non_finite_curve_jet_is_rejected_without_warnings(text, t0, message, recwarn):
    with pytest.raises(ValueError) as err:
        parse_curve(text).jet(t0, 4)
    assert str(err.value) == message
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_non_finite_derivative_stack_is_a_value_error_naming_the_point():
    """A batch names its first non-finite base point, as a scalar jet names t0."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError) as err:
            parse_curve("(t^2, t^3 * exp(t + 710))").derivatives_at(np.array([0.0, 0.1]), 2)
        assert str(err.value) == (
            "curve (t^2, t^3 * exp(t + 710)) has a non-finite jet at t0=0.0: "
            "coefficient 0 of its y component is nan"
        )
        with pytest.raises(ValueError) as err:
            parse_curve("(t + 0*exp(300*t), t^2)").derivatives_at(np.array([0.0, 2.4, 3.0]), 1)
        assert str(err.value).endswith("at t0=2.4: coefficient 0 of its x component is nan")


def test_overflowing_profile_grid_names_the_curve_not_the_inversion():
    text = "(t^2, t^3 + t^4*exp(300*t))"
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(f"curve {text} has a non-finite jet at t0=")):
            profile_g(parse_curve(text), np.linspace(-0.5, 40, 101))


@pytest.mark.parametrize(
    "term, text",
    [
        ("exp(710)", "(t^2, t^3 + exp(710))"),
        ("10^400", "(t^2, t^3 + 10^400)"),
        ("cosh(800)", "(t^2, t^3 + cosh(800))"),
        ("sinh(800)", "(sin(t), sinh(800) * t)"),
    ],
)
def test_overflowing_term_is_a_value_error_naming_it(term, text):
    """Curve jets, derivative stacks and plain float evaluation all name the term."""
    curve = parse_curve(text)
    message = re.escape(f"{term} overflows a float")
    with pytest.raises(ValueError, match=message):
        curve.jet(0.0, 5)
    with pytest.raises(ValueError, match=message):
        curve.derivatives_at(np.array([0.0, 0.1]), 2)
    with pytest.raises(ValueError, match=message):
        evaluate(curve.y_expr, 0.0, curve.params)


@pytest.mark.parametrize(
    "term, text", [("0 / 0", "(0 / 0)*t"), ("0^(-2/3)", "((0)^(-2/3))*t"), ("1 / t", "1/t")]
)
def test_zero_division_of_plain_numbers_names_the_term(term, text):
    expr = parse_expression(text)
    named = f"^{re.escape(term)} divides by zero$"
    with pytest.raises(ZeroDivisionError, match=named):
        evaluate(expr, 0.0, {})
    # A jet operand keeps the message that names its base point.
    on_jets = "zero constant coefficient at t = 0$" if "t" in term else named
    with pytest.raises(ZeroDivisionError, match=on_jets):
        evaluate(expr, Jet.variable(0.0, 3), {})


@pytest.mark.parametrize("literal", ["1e999", "-1e999"])
def test_non_finite_with_clause_is_rejected(literal):
    with pytest.raises(ValueError, match="curve parameter c must be finite"):
        parse_curve(f"(t^2, t^3 + c*t^5) with c={literal}")
