import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuspkit import jets as jets_module
from cuspkit.jets import (
    Jet,
    PlaneJet,
    bracket,
    deflate,
    inflate,
    moment_quotient,
    moment_quotient_jet,
    signed_power,
)

finite = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_mul_polynomial_identity():
    t = Jet.variable(0.0, 2)
    assert np.allclose(((1 + t) * (1 - t)).coeffs, [1.0, 0.0, -1.0])


def test_sin_taylor_coefficients():
    t = Jet.variable(0.0, 5)
    assert np.allclose(t.sin().coeffs, [0, 1, 0, -1 / 6, 0, 1 / 120])


def test_div_geometric_series():
    t = Jet.variable(0.0, 3)
    assert np.allclose((t * t / (1 + t)).coeffs, [0, 0, 1, -1])


def test_division_by_zero_constant_rejected():
    t = Jet.variable(0.0, 4)
    with pytest.raises(ZeroDivisionError):
        (1 + t) / t


def test_base_point_mismatch_rejected():
    a = Jet.variable(0.0, 4)
    b = Jet.variable(1.0, 4)
    with pytest.raises(ValueError, match="base points differ"):
        a + b


BATCH = np.array([-1.1, -0.3, 0.0, 0.25, 0.9])

BATCHED_OPS = {
    "add": lambda t: (t * 3.0 + 1.0) + t * t - 2.0 * t,
    "mul": lambda t: (t + 2.0) * (t * t - 1.5),
    "div": lambda t: (t * t + 1.0) / (t + 3.0) + 2.0 / (1.5 - t),
    "pow": lambda t: (t + 2.0) ** 3 * (t * t + 1.0) ** -2,
    "pow_rational": lambda t: (t * t + 0.5).pow_rational(2, 3) - (t + 3.0).pow_rational(-1, 2),
    "exp": lambda t: (t * 0.7).exp(),
    "sin": lambda t: (t * t).sin() + t.cos(),
    "sinh": lambda t: (t * 1.3).sinh() * t.cosh(),
}


@pytest.mark.parametrize("op", sorted(BATCHED_OPS))
def test_batched_jet_columns_are_the_scalar_jets(op):
    fn = BATCHED_OPS[op]
    batch = fn(Jet.variable(BATCH, 8))
    assert batch.coeffs.shape == (9, len(BATCH))
    for i, t0 in enumerate(BATCH):
        want = fn(Jet.variable(float(t0), 8)).coeffs
        got = batch.coeffs[:, i]
        assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want))), (op, t0)


@pytest.mark.parametrize("fn", ["exp", "sin", "cos", "sinh", "cosh"])
def test_seeds_are_math_for_a_scalar_jet_and_numpy_for_a_batch(fn):
    # math.* and np.* differ in the last bit on some inputs, so each shape
    # seeds with a fixed one of them.
    base = np.random.default_rng(5).uniform(-3.0, 3.0, 200)
    batch = getattr(Jet.variable(base, 2), fn)()
    assert np.array_equal(batch.coeffs[0], getattr(np, fn)(base))
    for t0 in base[:20]:
        assert getattr(Jet.variable(float(t0), 2), fn)().coeffs[0] == getattr(math, fn)(t0)


# The recurrences as they ran on numpy arrays, coefficient by coefficient.


def _array_exp(u):
    v = np.zeros_like(u)
    v[0] = np.exp(u[0]) if u.ndim > 1 else math.exp(u[0])
    for k in range(1, len(u)):
        v[k] = sum(j * u[j] * v[k - j] for j in range(1, k + 1)) / k
    return v


def _array_circular(u, hyperbolic):
    s, c = np.zeros_like(u), np.zeros_like(u)
    lib = np if u.ndim > 1 else math
    if hyperbolic:
        s[0], c[0], sign = lib.sinh(u[0]), lib.cosh(u[0]), 1.0
    else:
        s[0], c[0], sign = lib.sin(u[0]), lib.cos(u[0]), -1.0
    for k in range(1, len(u)):
        s[k] = sum(j * u[j] * c[k - j] for j in range(1, k + 1)) / k
        c[k] = sign * sum(j * u[j] * s[k - j] for j in range(1, k + 1)) / k
    return s, c


def _array_pow_rational(u, m, n):
    r = m / n
    v = np.zeros_like(u)
    v[0] = signed_power(u[0], m, n)
    for k in range(1, len(u)):
        s = 0.0
        for j in range(1, k + 1):
            s += ((r + 1.0) * j - k) * u[j] * v[k - j]
        v[k] = s / (k * u[0])
    return v


# name -> (the method on a jet, its array recurrence on the coefficients)
RECURRENCES = {
    "exp": (Jet.exp, _array_exp),
    "sin": (Jet.sin, lambda u: _array_circular(u, False)[0]),
    "cos": (Jet.cos, lambda u: _array_circular(u, False)[1]),
    "sinh": (Jet.sinh, lambda u: _array_circular(u, True)[0]),
    "cosh": (Jet.cosh, lambda u: _array_circular(u, True)[1]),
    "sqrt": (Jet.sqrt, lambda u: _array_pow_rational(u, 1, 2)),
    "pow_rational(-8, 3)": (
        lambda j: j.pow_rational(-8, 3),
        lambda u: _array_pow_rational(u, -8, 3),
    ),
    "pow_rational(3, 5)": (
        lambda j: j.pow_rational(3, 5),
        lambda u: _array_pow_rational(u, 3, 5),
    ),
}


def _random_jets(rng, count):
    """Scalar jets and batches of 0-5 jets, orders 0-12, constants >= 0.1 in size."""
    for i in range(count):
        order = int(rng.integers(0, 13))
        shape = (order + 1,) if i % 2 else (order + 1, int(rng.integers(0, 6)))
        c = rng.uniform(-3.0, 3.0, shape)
        c[0] = rng.choice([-1.0, 1.0], shape[1:]) * rng.uniform(0.1, 3.0, shape[1:])
        if c.ndim == 1:
            yield Jet(c, float(rng.uniform(-1.0, 1.0)))
        else:
            jet = Jet.constant(0.0, order, rng.uniform(-1.0, 1.0, shape[1]))
            jet.coeffs[:] = c
            yield jet


@pytest.mark.parametrize("name", sorted(RECURRENCES))
def test_recurrences_round_as_they_did_on_arrays(name):
    method, reference = RECURRENCES[name]
    for jet in _random_jets(np.random.default_rng(11), 400):
        got = method(jet).coeffs
        assert got.shape == jet.coeffs.shape
        assert np.array_equal(got, reference(jet.coeffs)), (name, jet)


def _left_to_right_power(jet, e):
    out = Jet.constant(1.0, jet.order, jet.base_point) if e == 0 else jet
    for _ in range(e - 1):
        out = out * jet
    return out


@pytest.mark.parametrize("batch", [False, True])
@pytest.mark.parametrize("e", range(8))
def test_integer_power_is_repeated_multiplication(e, batch):
    # Small integer coefficients keep every product exact, whatever the
    # order of the products.
    rng = np.random.default_rng(e)
    if batch:
        jet = Jet.constant(0.0, 8, np.linspace(-1.0, 1.0, 5))
        jet.coeffs[:] = rng.integers(-3, 4, jet.coeffs.shape)
    else:
        jet = Jet(rng.integers(-3, 4, 9).astype(float), 0.4)
    got = (jet**e).coeffs
    assert got.shape == jet.coeffs.shape
    assert np.array_equal(got, _left_to_right_power(jet, e).coeffs)


def _power_from_the_constant_one(jet, e):
    """Binary exponentiation from the constant-1 jet, squaring past the last bit."""
    result, base = Jet.constant(1.0, jet.order, jet.base_point), jet
    while e:
        if e & 1:
            result = result * base
        base = base * base
        e >>= 1
    return result


@pytest.mark.parametrize("e", range(8))
def test_integer_power_skips_only_products_that_change_nothing(e, monkeypatch):
    for jet in _random_jets(np.random.default_rng(7), 100):
        assert np.array_equal((jet**e).coeffs, _power_from_the_constant_one(jet, e).coeffs)
    products = []
    original = jets_module._cauchy
    monkeypatch.setattr(jets_module, "_cauchy", lambda a, b: products.append(1) or original(a, b))
    Jet.variable(np.array([0.1, 0.2]), 6) ** e
    # (bit length - 1) squares and (set bits - 1) products: t^2 1, t^3 2, U^5 3.
    assert len(products) == max(0, e.bit_length() - 1 + bin(e).count("1") - 1)


# -- the scalar hot paths against the generic code they stand in for ----------
# Jet.__mul__, Jet.derivative and Jet.pow_rational skip the truncation and
# dispatch of the generic code, and pow_rational reads its weights from a
# table.  Each must give the generic result bit for bit, signbit included.

# Every exponent m/n with n > 1 that cuspkit's own code passes to pow_rational.
SRC_EXPONENTS = [(1, 2), (1, 3), (8, 3), (3, 4), (3, 5)]

_coefficients = st.one_of(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 1e-300, -1e-300, 5e-324, 1e150, -1e200]),
)
_nonzero = st.one_of(
    st.floats(min_value=1e-3, max_value=1e3), st.floats(min_value=-1e3, max_value=-1e-3)
)


def _same_bits(got, want) -> bool:
    return got.shape == want.shape and got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _generic_mul(a, b):
    """Jet.__mul__'s product as the generic code forms it: both cut to the lower order, then _cauchy."""
    k = min(len(a), len(b))
    a, b = a[:k], b[:k]
    if a.ndim == 1:
        return np.convolve(a, b)[:k]
    out = np.zeros_like(a)
    for i in range(k):
        out[i] = np.einsum("ij,ij->j", a[: i + 1], b[i::-1])
    return out


def _generic_derivative(c, n):
    for _ in range(n):
        if len(c) == 1:
            c = np.zeros(1)
            continue
        c = c[1:] * np.arange(1, len(c))
    return c


def _generic_pow_rational(c, m, n):
    r = m / n
    u = c.tolist() if c.ndim == 1 else list(c)
    v = [signed_power(u[0], m, n)]
    for k in range(1, len(u)):
        s = 0.0
        for j in range(1, k + 1):
            s += ((r + 1.0) * j - k) * u[j] * v[k - j]
        v.append(s / (k * u[0]))
    return np.array(v)


@st.composite
def _coefficient_arrays(draw, batch, first=_coefficients):
    """Coefficients of order 0-12, one column or ``batch`` columns, the first row from ``first``."""
    rows = draw(st.integers(min_value=1, max_value=13))
    shape = (rows, batch) if batch else (rows,)
    size = rows * max(batch, 1)
    c = np.array(draw(st.lists(_coefficients, min_size=size, max_size=size))).reshape(shape)
    row = draw(st.lists(first, min_size=max(batch, 1), max_size=max(batch, 1)))
    c[0] = row if batch else row[0]
    return c


def _batch_jet(c, base):
    jet = Jet.constant(0.0, len(c) - 1, base)
    jet.coeffs[:] = c
    return jet


@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda batch: st.tuples(_coefficient_arrays(batch), _coefficient_arrays(batch))
))
@settings(max_examples=300, derandomize=True, database=None)
@example((np.array([-0.0, 1.0]), np.array([0.0, -0.0, 2.0])))
def test_mul_is_the_generic_product_bit_for_bit(pair):
    a, b = pair
    if a.ndim == 1:
        x, y = Jet(a, 0.25), Jet(b, 0.25)
    else:
        base = np.linspace(-1.0, 1.0, a.shape[1])
        x, y = _batch_jet(a, base), _batch_jet(b, base)
    with np.errstate(all="ignore"):
        assert _same_bits((x * y).coeffs, _generic_mul(a, b))
        assert _same_bits((y * x).coeffs, _generic_mul(b, a))


@given(_coefficient_arrays(0), st.integers(min_value=0, max_value=14))
@settings(max_examples=300, derandomize=True, database=None)
def test_derivative_is_the_generic_derivative_bit_for_bit(c, n):
    with np.errstate(all="ignore"):
        got = Jet(c, -0.5).derivative(n)
        assert _same_bits(got.coeffs, _generic_derivative(c, n))
    assert got.base_point == -0.5


@pytest.mark.parametrize("m, n", SRC_EXPONENTS)
@given(st.integers(min_value=0, max_value=3).flatmap(
    lambda batch: _coefficient_arrays(batch, first=_nonzero)
))
@settings(max_examples=150, derandomize=True, database=None)
def test_pow_rational_is_the_generic_recurrence_bit_for_bit(m, n, c):
    jet = Jet(c, 0.0) if c.ndim == 1 else _batch_jet(c, np.linspace(-1.0, 1.0, c.shape[1]))
    with np.errstate(all="ignore"):
        assert _same_bits(jet.pow_rational(m, n).coeffs, _generic_pow_rational(c, m, n))


def test_batched_jets_share_their_base_array():
    t = Jet.variable(BATCH, 4)
    derived = (t * t + 1.0).pow_rational(1, 2) / (t - 2.0)
    assert derived.base_point is t.base_point
    assert Jet.constant(2.0, 4, t.base_point).base_point is t.base_point


def test_batched_base_point_mismatch_rejected():
    a = Jet.variable(BATCH, 3)
    for other in (Jet.variable(BATCH + 0.5, 3), Jet.variable(BATCH[:3], 3), Jet.variable(0.0, 3)):
        with pytest.raises(ValueError, match="base points differ"):
            a * other
        with pytest.raises(ValueError, match="base points differ"):
            a + other
    # equal base points in another array are the same batch
    assert np.array_equal((a * Jet.variable(BATCH.copy(), 3)).coeffs, (a * a).coeffs)


def test_batched_division_by_a_zero_constant_at_one_base_point_rejected():
    t = Jet.variable(BATCH, 3)  # BATCH holds 0.0, so t has a zero constant there
    with pytest.raises(ZeroDivisionError, match="zero constant coefficient"):
        1.0 / t
    with pytest.raises(ZeroDivisionError, match="zero constant coefficient"):
        t.pow_rational(1, 3)
    assert np.all(np.isfinite((1.0 / (t + 2.0)).coeffs))
    # The message names the first base point of the batch whose constant is 0.
    poles = (t - 0.25) * (t + 0.3)
    with pytest.raises(ZeroDivisionError, match=r"coefficient at t = -0\.3$"):
        1.0 / poles
    with pytest.raises(ZeroDivisionError, match=r"^fractional power of .* at t = -0\.3$"):
        poles.pow_rational(1, 3)
    with pytest.raises(ZeroDivisionError, match=r"^division by .* at t = 0\.5$"):
        1.0 / (Jet.variable(0.5, 3) - 0.5)


def test_batched_jet_repr_and_shape_check():
    t = Jet.variable(np.array([0.5, -1.25]), 2)
    text = repr(t * t)
    assert text.startswith("Jet(base=[ 0.5  -1.25], coeffs=[[")
    assert repr(Jet.variable(0.37, 2)).startswith("Jet(base=0.37, coeffs=[")
    with pytest.raises(ValueError, match="one-dimensional, non-empty"):
        Jet(np.zeros((3, 2, 2)), 0.0)
    empty = Jet.variable(np.array([]), 3).sin() / 2.0
    assert empty.coeffs.shape == (4, 0)


def test_result_order_is_minimum_of_inputs():
    a = Jet.variable(0.0, 6)
    b = Jet.variable(0.0, 3)
    assert (a * b).order == 3
    assert (a + b).order == 3


def test_bracket_identity_frame():
    e1 = PlaneJet.from_coeffs([1, 0, 0], [0, 0, 0])
    e2 = PlaneJet.from_coeffs([0, 0, 0], [1, 0, 0])
    assert np.allclose(bracket(e1, e2).coeffs, [1, 0, 0])


def test_bracket_constant_vectors():
    a = PlaneJet.from_coeffs([2, 0], [3, 0])
    b = PlaneJet.from_coeffs([4, 0], [5, 0])
    assert bracket(a, b).value() == pytest.approx(-2.0)


def test_bracket_cycloid_second_third_derivatives():
    # cycloid, a=1: gamma''(0) = (0,-1), gamma'''(0) = (1,0)
    from cuspkit.dsl import catalog_lookup

    j = catalog_lookup("cycloid", {"a": 1.0}).jet(0.0, 8)
    b = bracket(j.derivative(2), j.derivative(3))
    assert b.value() == pytest.approx(1.0, abs=1e-14)


@pytest.mark.parametrize(
    "x, m, n, expected",
    [
        (-4.0, 1, 2, 2.0),
        (-8.0, 2, 3, 4.0),
        (-8.0, 3, 5, -(8.0 ** (3 / 5))),
        (9.0, 1, 2, 3.0),
        (-27.0, 1, 3, -3.0),
    ],
)
def test_signed_power_values(x, m, n, expected):
    assert signed_power(x, m, n) == pytest.approx(expected, rel=1e-13)


def test_signed_power_pole():
    with pytest.raises(ZeroDivisionError):
        signed_power(0.0, -1, 2)


def test_signed_power_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        signed_power(1.0, 1, 0)


@given(st.floats(min_value=0.05, max_value=10.0), st.booleans(),
       st.integers(min_value=-7, max_value=7), st.integers(min_value=1, max_value=9))
@settings(max_examples=200)
def test_signed_power_odd_root_inverts(mag, neg, m, n):
    if n % 2 == 0 or m == 0:
        return
    x = -mag if neg else mag
    y = signed_power(x, m, n)
    assert np.sign(y) ** n * abs(y) ** n == pytest.approx(x**m, rel=1e-12)


def test_deflate_exact_polynomial():
    j = Jet([0, 0, 1, 1, 0])
    out = deflate(j, 2)
    assert out.order == 2
    assert np.allclose(out.coeffs, [1, 1, 0])


def test_deflate_cuspidal_cubic_bracket():
    from cuspkit.dsl import parse_curve

    j = parse_curve("(t^2, t^3)").jet(0.0, 6)
    b = bracket(j.derivative(1), j.derivative(2))
    assert deflate(b, 2).value() == pytest.approx(6.0)


def test_deflate_rejects_nonvanishing_leading_terms():
    with pytest.raises(ValueError, match="not divisible"):
        deflate(Jet([1.0, 1.0, 0.0]), 1)


@pytest.mark.parametrize("lead, passes", [(1e-8, False), (2e-9, False), (5e-10, True), (1e-10, True)])
def test_deflate_default_tolerance_is_1e_9_of_the_largest_coefficient(lead, passes):
    # Nine coefficients, as the invariant report's order-8 germ gives: the
    # scale is the largest magnitude, here the last coefficient's.  Leads a
    # factor 2 either side of the edge catch the tolerance moved by 2 or more.
    scale = 4.0
    rest = [0.0, 1.0, -2.0, 0.5, 0.25, 1.5, -3.0, -scale]
    for worst, coeffs in ((0, [lead * scale, *rest]), (1, [0.0, -lead * scale, *rest[1:]])):
        if passes:
            assert deflate(Jet(coeffs), 2).coeffs.tolist() == rest[1:]
        else:
            with pytest.raises(ValueError, match=rf"not divisible by t\^2: coefficient {worst}"):
                deflate(Jet(coeffs), 2)


@given(st.lists(finite, min_size=1, max_size=8), st.integers(min_value=1, max_value=4))
@settings(max_examples=100)
def test_deflate_undoes_inflate(coeffs, k):
    j = Jet(coeffs)
    back = deflate(inflate(j, k), k)
    assert np.allclose(back.coeffs, j.coeffs, atol=1e-12)


@given(st.lists(finite, min_size=2, max_size=9))
@settings(max_examples=100)
def test_multiplicative_inverse(coeffs):
    if abs(coeffs[0]) < 0.5:
        coeffs[0] = 1.0 + abs(coeffs[0])
    j = Jet(coeffs)
    inv = 1.0 / j
    unit = j * inv
    expect = np.zeros_like(unit.coeffs)
    expect[0] = 1.0
    # cancellation scale: the product sums terms of this magnitude
    scale = max(1.0, float(np.max(np.abs(inv.coeffs)) * np.max(np.abs(j.coeffs))))
    assert np.allclose(unit.coeffs, expect, atol=1e-12 * scale)


@pytest.mark.parametrize("fn", ["sin", "cos", "exp"])
def test_elementary_jets_match_finite_differences(fn):
    from conftest import finite_difference

    rng = np.random.default_rng(7)
    for _ in range(5):
        t0 = rng.uniform(-1.0, 1.0)
        jet = getattr(Jet.variable(t0, 4), fn)()
        ref = getattr(np, fn)
        for order in range(1, 5):
            fd = finite_difference(ref, t0, order)
            exact = jet.derivative_value(order)
            assert fd == pytest.approx(exact, rel=1e-5, abs=1e-5)


def test_compose_and_invert_roundtrip():
    s = Jet([0.3, 2.0, -0.5, 0.25, 0.0, 0.1], base_point=1.0)
    inv = s.inverted()
    assert inv.base_point == pytest.approx(0.3)
    # s(inv(tau)) is the identity map: its jet at base 0.3 is 0.3 + (tau - 0.3)
    ident = s.compose(inv)
    expect = np.zeros_like(ident.coeffs)
    expect[0], expect[1] = inv.base_point, 1.0
    assert np.allclose(ident.coeffs, expect, atol=1e-12)


def test_compose_base_mismatch_rejected():
    outer = Jet.variable(1.0, 3)
    inner = Jet.variable(0.0, 3)  # constant coefficient 0 != 1
    with pytest.raises(ValueError, match="does not match"):
        outer.compose(inner)


def _horner_compose(outer: Jet, inner: Jet) -> Jet:
    """Reference composition: Horner's scheme in jet arithmetic."""
    k = min(outer.order, inner.order)
    w = Jet(np.concatenate([[0.0], inner.coeffs[1 : k + 1]]), inner.base_point)
    acc = Jet.constant(float(outer.coeffs[k]), k, inner.base_point)
    for c in outer.coeffs[k - 1 :: -1] if k >= 1 else []:
        acc = acc * w + float(c)
    return acc


@st.composite
def composable_pairs(draw):
    """(outer, inner) of orders 0-12 with inner's constant at outer's base point."""
    coeffs = lambda: st.lists(finite, min_size=1, max_size=13)
    base = draw(finite)
    inner = draw(coeffs())
    inner[0] = base
    return Jet(draw(coeffs()), base), Jet(inner, draw(finite))


@given(composable_pairs())
@settings(max_examples=300)
def test_compose_matches_horner(pair):
    outer, inner = pair
    got = outer.compose(inner)
    ref = _horner_compose(outer, inner)
    assert got.order == ref.order
    assert got.base_point == inner.base_point
    # The sizes of the terms summed in each coefficient; the worst error
    # measured on random pairs is about 3 eps of it.
    a, b = np.abs(outer.coeffs), np.abs(inner.coeffs)
    b[0] = 0.0
    scale = _horner_compose(Jet(a), Jet(b)).coeffs
    bound = np.maximum(1e-13 * scale, np.finfo(float).tiny)
    assert np.all(np.abs(got.coeffs - ref.coeffs) <= bound)


@given(composable_pairs(), st.lists(finite, min_size=13, max_size=13))
@settings(max_examples=100)
def test_plane_jet_compose_is_the_componentwise_compose(pair, y):
    x, inner = pair
    germ = PlaneJet(x, Jet(y[: x.order + 1], x.base_point))
    got = germ.compose(inner)
    assert np.array_equal(got.x.coeffs, germ.x.compose(inner).coeffs)
    assert np.array_equal(got.y.coeffs, germ.y.compose(inner).coeffs)
    assert got.base_point == inner.base_point


def test_plane_jet_compose_base_mismatch_rejected():
    germ = PlaneJet(Jet.variable(1.0, 3), Jet.variable(1.0, 3))
    with pytest.raises(ValueError, match="does not match outer base point 1.0"):
        germ.compose(Jet.variable(0.0, 3))


def test_invert_needs_nonzero_slope():
    with pytest.raises(ValueError, match="zero linear coefficient"):
        Jet([0.0, 0.0, 1.0]).inverted()


# -- series reversion ----------------------------------------------------------


@st.composite
def invertible_jets(draw):
    """Jets of order 1-16 with |s1| >= 0.1 and base points in [-1, 1]."""
    order = draw(st.integers(min_value=1, max_value=16))
    slope = draw(st.floats(min_value=0.1, max_value=2.0)) * draw(st.sampled_from([-1.0, 1.0]))
    unit = st.floats(min_value=-1.0, max_value=1.0, allow_subnormal=False)
    rest = draw(st.lists(unit, min_size=order - 1, max_size=order - 1))
    return Jet([draw(finite), slope, *rest], draw(unit))


def _newton_reversion(jet: Jet) -> Jet:
    """Reference reversion by Newton's iteration on S(T(y)) = y.

    Its result has order one less than the input's.
    """
    s, k = jet.coeffs, jet.order
    S = Jet(np.concatenate([[0.0], s[1:]]), 0.0)
    ident = Jet.variable(0.0, k)
    T = Jet(np.concatenate([[0.0], [1.0 / s[1]], np.zeros(max(0, k - 1))]), 0.0)
    dS = S.derivative()
    for _ in range(max(1, math.ceil(math.log2(k + 1))) + 1):
        err = S.compose(T) - ident
        T = T - err / dS.compose(T)
    return Jet(np.concatenate([[jet.base_point], T.coeffs[1:]]), float(s[0]))


def _reversion_scale(jet: Jet) -> np.ndarray:
    """Per-coefficient size of the terms that sum to the reversion of ``jet``.

    The reversion of |a1| x - |a2| x^2 - |a3| x^3 - ... has, in each
    coefficient, the sum of the magnitudes of the terms the Lagrange
    formula adds, so rounding errors are measured against it.  Entry 0 is
    max(1, |t0|).
    """
    m = -np.abs(jet.coeffs)
    m[0], m[1] = 0.0, -m[1]
    scale = np.abs(Jet(m).inverted().coeffs)
    scale[0] = max(1.0, abs(jet.base_point))
    return scale


@given(invertible_jets())
@settings(max_examples=200)
def test_inverted_keeps_the_order(s):
    inv = s.inverted()
    assert inv.order == s.order
    assert inv.base_point == s.value()
    assert inv.value() == s.base_point


@given(invertible_jets())
@settings(max_examples=200)
def test_inverted_composes_to_the_identity(s):
    ident = s.compose(s.inverted())
    expect = np.zeros_like(ident.coeffs)
    expect[0], expect[1] = s.value(), 1.0
    # The sizes of the terms summed in each coefficient of the composition.
    a, b = np.abs(s.coeffs), np.abs(s.inverted().coeffs)
    a[0] = b[0] = 0.0
    scale = np.maximum(1.0, Jet(a).compose(Jet(b)).coeffs)
    scale[0] = max(1.0, abs(s.value()))
    assert np.all(np.abs(ident.coeffs - expect) <= 1e-12 * scale)


@given(invertible_jets())
@example(Jet([0.0, -2.0, 2.2e-131, 4.9e-192, 0.0]))
@settings(max_examples=200)
def test_inverted_twice_is_the_jet(s):
    inv = s.inverted()
    back = inv.inverted()
    assert back.base_point == s.base_point
    assert back.order == s.order
    scale = _reversion_scale(inv)
    scale[0] = max(1.0, abs(s.value()))
    # The floor keeps an underflowed coefficient (-1e-323 against 0) in bounds.
    bound = np.maximum(1e-12 * scale, np.finfo(float).tiny)
    assert np.all(np.abs(back.coeffs - s.coeffs) <= bound)


@given(invertible_jets())
@example(Jet([0.0, -0.109375, 7.8e-165, 0.0, 0.0]))
@settings(max_examples=200)
def test_inverted_matches_newton_reversion(s):
    inv = s.inverted()
    ref = _newton_reversion(s)
    k = ref.order + 1  # the orders both results carry
    assert ref.base_point == inv.base_point
    # The floor keeps an underflowed coefficient (-4.9e-324 against 0) in bounds.
    bound = np.maximum(1e-13 * _reversion_scale(s)[:k], np.finfo(float).tiny)
    assert np.all(np.abs(inv.coeffs[:k] - ref.coeffs) <= bound)


@given(finite, st.floats(min_value=0.1, max_value=2.0), st.booleans(), finite)
@settings(max_examples=50)
def test_order_one_jet_inverts_to_the_reciprocal_slope(s0, mag, neg, t0):
    s1 = -mag if neg else mag
    inv = Jet([s0, s1], t0).inverted()
    assert inv.base_point == s0
    assert inv.coeffs.tolist() == [t0, 1.0 / s1]


def test_rational_power_of_jet_matches_binomial_series():
    t = Jet.variable(0.0, 6)
    got = (1 + t).pow_rational(1, 2).coeffs
    expect = [math.comb(2 * k, k) / ((-4) ** k * (1 - 2 * k)) for k in range(7)]
    assert np.allclose(got, expect, rtol=1e-13)


def test_fractional_power_of_zero_constant_rejected():
    t = Jet.variable(0.0, 4)
    with pytest.raises(ZeroDivisionError):
        t.pow_rational(1, 2)


def test_jet_evaluation_is_horner_polynomial():
    j = Jet([1.0, 2.0, 3.0], base_point=0.5)
    assert j(1.5) == pytest.approx(1 + 2 * 1.0 + 3 * 1.0)


@pytest.mark.parametrize("alpha", [1 / 3, 2 / 3, 1.0])
@pytest.mark.parametrize("t", [-1.0, -0.4, 0.0, 0.3, 1.0])
def test_moment_quotient_constant(alpha, t):
    got = moment_quotient(lambda u: np.full_like(u, 2.5), alpha, t)
    assert got == pytest.approx(2.5 / (1 + alpha), abs=1e-12)


@pytest.mark.parametrize("t", [1.0, -1.0, 0.25])
def test_moment_quotient_linear(t):
    assert moment_quotient(lambda u: u, 2 / 3, t) == pytest.approx(3 * t / 8, abs=1e-12)


def test_moment_quotient_rejects_nonpositive_alpha():
    with pytest.raises(ValueError):
        moment_quotient(lambda u: u, 0.0, 1.0)
    with pytest.raises(ValueError):
        moment_quotient_jet(Jet([1.0, 0.0]), -1.0)


def test_moment_quotient_jet_divides_coefficients():
    phi = Jet([2.0, 3.0, 4.0])
    out = moment_quotient_jet(phi, 1.0)
    assert np.allclose(out.coeffs, [2 / 2, 3 / 3, 4 / 4])


def test_moment_quotient_accepts_jets():
    phi = Jet([1.0, 1.0, 0.5, 0.0, 0.0])
    direct = moment_quotient(lambda u: 1 + u + 0.5 * u**2, 1.0, 0.5)
    via_jet = moment_quotient(phi, 1.0, 0.5)
    assert via_jet == pytest.approx(direct, abs=1e-13)


def test_plane_jet_component_consistency():
    with pytest.raises(ValueError, match="share a base point"):
        PlaneJet(Jet.variable(0.0, 3), Jet.variable(1.0, 3))


def test_plane_jet_transform_is_affine_action():
    g = PlaneJet.from_coeffs([0.0, 1.0, 0.5], [1.0, -1.0, 0.0])
    m = np.array([[0.0, -1.0], [1.0, 0.0]])
    moved = g.transform(m, (2.0, 3.0))
    p = g(0.3)
    q = moved(0.3)
    assert np.allclose(q, m @ p + [2.0, 3.0])


def test_reversed_orientation_alternates_signs():
    g = PlaneJet.from_coeffs([0, 1, 2, 3], [1, 0, -1, 0])
    r = g.reversed_orientation()
    assert np.allclose(r.x.coeffs, [0, -1, 2, -3])
    assert np.allclose(r.y.coeffs, [1, 0, -1, 0])
