"""Truncated Taylor-series (jet) arithmetic.

A :class:`Jet` stores the Taylor coefficients of a scalar quantity about a
base parameter value t0, or, with a batch axis (``coeffs`` of shape
(order+1, n)), about each base point of an array (Griewank & Walther,
*Evaluating Derivatives*, 2nd ed., ch. 13)::

    coeffs[k] == (d^k f / dt^k)(t0) / k!

All operations are exact to the retained order, which makes jets the single
carrier of derivative data for every curvature formula in this package.  A
:class:`PlaneJet` pairs two jets into the germ of a plane curve.

The module also provides the three singular-analysis primitives the
geometry layers rely on:

* ``signed_power`` -- fractional powers with a sign convention that keeps
  odd roots odd and even roots nonnegative (so ``x**(1/2) == sqrt(|x|)``),
* ``deflate`` -- exact division of a jet by t^k (factoring out a known zero),
* ``moment_quotient`` -- the smooth value of
  ``(integral_0^t |u|^a phi(u) du) / (sgn(t) |t|^(1+a))``, computed through
  the regular representation ``integral_0^1 u^a phi(t u) du`` so that t = 0
  is an ordinary point.  Its Gauss rule, ``_weighted_mean``, is the only
  one for weighted means in the package: the profiler's L(t) sums through
  it too.

Everything here is an immutable value; all functions are pure.
"""

from __future__ import annotations

import math
from functools import cache, partial
from math import gcd
from typing import Sequence, Union

import numpy as np

Scalar = Union[int, float]


def _reduce_exponent(m: int, n: int) -> tuple[int, int]:
    """Normalize a rational exponent m/n to lowest terms with n >= 1."""
    if n == 0:
        raise ZeroDivisionError("rational exponent has zero denominator")
    if n < 0:
        m, n = -m, -n
    g = gcd(abs(m), n)
    if g > 1:
        m, n = m // g, n // g
    return m, n


def signed_power(x, m: int, n: int = 1):
    """sgn(x)^(m*n) * |x|^(m/n) for a reduced rational exponent m/n.

    Odd n behaves like the real n-th root (sign of x^m is carried through);
    even n always yields a nonnegative result.  Works elementwise on numpy
    arrays.  Raises for a pole (x == 0 with m < 0).
    """
    m, n = _reduce_exponent(m, n)
    xa = np.asarray(x, dtype=float)
    if m < 0 and np.any(xa == 0.0):
        raise ZeroDivisionError("signed_power: zero base with negative exponent")
    sign = np.where(xa < 0.0, -1.0, 1.0) if (m * n) % 2 else 1.0
    out = sign * np.abs(xa) ** (m / n)
    if np.ndim(x) == 0:
        return float(out)
    return out


def _cauchy(a: np.ndarray, b: np.ndarray, divide: bool = False) -> np.ndarray:
    """Truncated product of two series, or with ``divide`` the quotient q with q*b = a.

    The sums over the order axis (axis 0) use ``np.convolve`` and ``np.dot``
    for a scalar jet and one einsum per coefficient for a batch.
    """
    if a.ndim == 1:
        if not divide:
            return np.convolve(a, b)[: len(a)]
        dot = np.dot
    else:
        dot = partial(np.einsum, "ij,ij->j")
    out = np.zeros_like(a)
    if not divide:
        for i in range(len(a)):
            out[i] = dot(a[: i + 1], b[i::-1])
        return out
    out[0] = a[0] / b[0]
    for i in range(1, len(a)):
        out[i] = (a[i] - dot(out[:i], b[i:0:-1])) / b[0]
    return out


def _require_nonzero(what: str, c0, base) -> None:
    """Raise ``ZeroDivisionError`` on ``what`` a jet whose constant coefficient c0 is 0.

    The message names the base point, in a batch the first where c0 is 0.
    np.any on a scalar's numpy float is slow, so a scalar is compared alone.
    """
    if bool(np.any(c0 == 0.0)) if c0.ndim else c0 == 0.0:
        at = np.ravel(base)[np.argmax(c0 == 0.0)] if c0.ndim else base
        raise ZeroDivisionError(f"{what} a jet with zero constant coefficient at t = {float(at):.6g}")


def _terms(coeffs: np.ndarray) -> list:
    """The coefficients as a list: Python floats for a scalar jet, row arrays for a batch.

    A recurrence over single coefficients runs faster on floats than on
    numpy scalars, and rounds the same.
    """
    return coeffs.tolist() if coeffs.ndim == 1 else list(coeffs)


@cache
def _float_range(n: int) -> np.ndarray:
    """The floats 1, 2, ..., n, one read-only array per n."""
    r = np.arange(1.0, n + 1.0)
    r.flags.writeable = False
    return r


@cache
def _power_weights(m: int, n: int, order: int) -> tuple[tuple[float, ...], ...]:
    """Row k holds the weights (r + 1) j - k, j = 1..k, of ``pow_rational``'s
    recurrence for the exponent r = m/n, rows 0 to ``order``."""
    r = m / n
    return tuple(tuple((r + 1.0) * j - k for j in range(1, k + 1)) for k in range(order + 1))


def _wrap(coeffs: np.ndarray, base_point) -> "Jet":
    """A jet on ``coeffs`` and ``base_point`` as they are: no copy, no check."""
    jet = object.__new__(Jet)
    jet.base_point, jet.coeffs = base_point, coeffs
    return jet


class Jet:
    """Truncated Taylor series of a scalar quantity at one or many base points.

    ``coeffs`` has shape (order+1,) at one base point, a float, or (order+1, n)
    for a batch at the n base points of one array, which every jet derived
    from it shares.  Only ``variable`` and ``constant`` make a batch; the
    calculus operations are scalar only.
    """

    __slots__ = ("base_point", "coeffs")

    def __init__(self, coeffs: Sequence[float], base_point: float = 0.0):
        c = np.array(coeffs, dtype=float)
        if c.ndim != 1 or c.size == 0:
            raise ValueError("jet needs a one-dimensional, non-empty coefficient array")
        self.base_point = float(base_point)
        self.coeffs = c

    # -- construction ------------------------------------------------------

    @classmethod
    def constant(cls, value, order: int, base_point=0.0) -> "Jet":
        """The constant jet at base_point, a float or a 1-D array of base points."""
        batch = isinstance(base_point, np.ndarray) and base_point.ndim == 1
        c = np.zeros((order + 1, base_point.size) if batch else order + 1)
        c[0] = value
        return _wrap(c, base_point if batch else float(base_point))

    @classmethod
    def variable(cls, base_point, order: int) -> "Jet":
        """The jet of the identity map t |-> t, at one base point or at an array of them."""
        jet = cls.constant(base_point, order, base_point)
        if order >= 1:
            jet.coeffs[1] = 1.0
        return jet

    # -- basic queries -----------------------------------------------------

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def value(self) -> float:
        return float(self.coeffs[0])

    def derivative_value(self, k: int) -> float:
        """k-th derivative at the base point (coefficient times k!)."""
        if k > self.order:
            raise ValueError(f"jet of order {self.order} has no derivative of order {k}")
        return float(self.coeffs[k]) * math.factorial(k)

    def __call__(self, t: float):
        """Evaluate the truncated polynomial at parameter value t (Horner)."""
        dt = np.asarray(t, dtype=float) - self.base_point
        acc = np.zeros_like(dt) + self.coeffs[-1]
        for c in self.coeffs[-2::-1]:
            acc = acc * dt + c
        if np.ndim(t) == 0:
            return float(acc)
        return acc

    def truncated(self, order: int) -> "Jet":
        if order >= self.order:
            return self
        return Jet(self.coeffs[: order + 1], self.base_point)

    def __repr__(self) -> str:
        return f"Jet(base={self.base_point}, coeffs={np.array2string(self.coeffs, precision=6)})"

    # -- arithmetic --------------------------------------------------------

    def _check_base(self, other: "Jet") -> None:
        a, b = self.base_point, other.base_point
        if a is b:
            return
        if not (a == b if isinstance(a, float) and isinstance(b, float) else np.array_equal(a, b)):
            raise ValueError(f"jet base points differ: {a} vs {b}")

    def _binary(self, other):
        """The two coefficient arrays, a number as a constant jet, both to the lower order;
        (None, None) for an operand of any other type."""
        if isinstance(other, Jet):
            self._check_base(other)
            a, b = self.coeffs, other.coeffs
            if len(a) != len(b):
                k = min(len(a), len(b))
                a, b = a[:k], b[:k]
            return a, b
        if isinstance(other, (int, float)):
            c = np.zeros_like(self.coeffs)
            c[0] = other
            return self.coeffs, c
        return None, None

    def __add__(self, other):
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        return _wrap(a + b, self.base_point)

    __radd__ = __add__

    def __sub__(self, other):
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        return _wrap(a - b, self.base_point)

    def __rsub__(self, other):
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        return _wrap(b - a, self.base_point)

    def __neg__(self):
        return _wrap(-self.coeffs, self.base_point)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(self.coeffs * other, self.base_point)
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        return _wrap(_cauchy(a, b), self.base_point)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, float)):
            return _wrap(self.coeffs / other, self.base_point)
        a, b = self._binary(other)
        if a is None:
            return NotImplemented
        _require_nonzero("division by", b[0], self.base_point)
        return _wrap(_cauchy(a, b, divide=True), self.base_point)

    def __rtruediv__(self, other):
        if isinstance(other, (int, float)):
            return Jet.constant(other, self.order, self.base_point) / self
        return NotImplemented

    def __pow__(self, e):
        """Integer power by binary exponentiation (a negative e inverts first).

        Only products that change the value are formed: none with the
        constant-1 jet, and no square past the highest bit of e.  So t^2
        takes 1 truncated product, t^3 2 and t^5 3.
        """
        if isinstance(e, int):
            if e < 0:
                return (1.0 / self) ** (-e)
            if e == 0:
                return Jet.constant(1.0, self.order, self.base_point)
            result = None
            base = self
            while True:
                if e & 1:
                    result = base if result is None else result * base
                e >>= 1
                if not e:
                    return result
                base = base * base
        return NotImplemented

    def pow_rational(self, m: int, n: int) -> "Jet":
        """self**(m/n) under the signed_power convention.

        The constant term must be nonzero unless the exponent is a
        nonnegative integer.
        """
        m, n = _reduce_exponent(m, n)
        if n == 1:
            return self ** m
        _require_nonzero("fractional power of", self.coeffs[0], self.base_point)
        u = _terms(self.coeffs)
        u0, u1 = u[0], u[1:]
        v = [signed_power(u0, m, n)]
        for k, weights in enumerate(_power_weights(m, n, len(u) - 1)[1:], start=1):
            s = 0.0
            # v[k - j] for j = 1..k is v reversed: v holds v[0..k-1].
            for w, uj, vkj in zip(weights, u1, reversed(v)):
                s += w * uj * vkj
            v.append(s / (k * u0))
        return _wrap(np.array(v), self.base_point)

    def sqrt(self) -> "Jet":
        return self.pow_rational(1, 2)

    # -- elementary functions (standard Taylor recurrences) -----------------
    # Coefficient 0 comes from the dispatchers below: math.* for a scalar, np.* for a batch.
    # The products j * u[j] of the argument's coefficients are formed once per call.

    def exp(self) -> "Jet":
        u = _terms(self.coeffs)
        ju = [j * u[j] for j in range(len(u))]
        v = [exp(u[0])]
        for k in range(1, len(u)):
            v.append(sum(ju[j] * v[k - j] for j in range(1, k + 1)) / k)
        return _wrap(np.array(v), self.base_point)

    def _circular(self, hyperbolic: bool) -> tuple["Jet", "Jet"]:
        """(sin, cos) of this jet, or (sinh, cosh) with ``hyperbolic``, from one recurrence."""
        u = _terms(self.coeffs)
        ju = [j * u[j] for j in range(len(u))]
        if hyperbolic:
            s, c = [sinh(u[0])], [cosh(u[0])]
            sign = 1.0
        else:
            s, c = [sin(u[0])], [cos(u[0])]
            sign = -1.0
        for k in range(1, len(u)):
            s.append(sum(ju[j] * c[k - j] for j in range(1, k + 1)) / k)
            c.append(sign * sum(ju[j] * s[k - j] for j in range(1, k + 1)) / k)
        return _wrap(np.array(s), self.base_point), _wrap(np.array(c), self.base_point)

    def sin(self) -> "Jet":
        return self._circular(False)[0]

    def cos(self) -> "Jet":
        return self._circular(False)[1]

    def sinh(self) -> "Jet":
        return self._circular(True)[0]

    def cosh(self) -> "Jet":
        return self._circular(True)[1]

    # -- calculus ----------------------------------------------------------

    def derivative(self, n: int = 1) -> "Jet":
        """The jet of the n-th derivative, of order max(0, order - n), one factor k per step."""
        c = self.coeffs
        for _ in range(n):
            c = c[1:] * _float_range(len(c) - 1) if len(c) > 1 else np.zeros(1)
        return _wrap(c, self.base_point)

    def compose(self, inner: "Jet") -> "Jet":
        """Jet of self(inner(t)) at inner's base point.

        The constant coefficient of ``inner`` must equal this jet's base
        point.  With w = inner - inner(t0), the result is sum_j a_j w^j: the
        outer coefficients a_j times the power matrix of w, whose row j is
        the jet of w^j, built by k truncated products (Brent & Kung, "Fast
        algorithms for manipulating formal power series", JACM 1978).
        """
        return _composed((self,), inner)[0]

    def inverted(self) -> "Jet":
        """Series reversion by Lagrange inversion: the jet of the inverse map.

        If this jet represents s(t) with s'(t0) != 0, the result represents
        t(s) about the base point s(t0), to the same order.  With the offset
        series S(x) = s(t0 + x) - s0 = a1 x + a2 x^2 + ... and
        h(x) = x / S(x) = 1 / (a1 + a2 x + ...), the inverse is
        t0 + sum_n b_n (s - s0)^n with b_n = [x^(n-1)] h^n / n (Knuth, TAOCP
        vol. 2, sec. 4.7).  That is one jet division and one truncated
        product per order, and no composition.
        """
        s = self.coeffs
        if len(s) < 2 or s[1] == 0.0:
            raise ValueError("cannot invert a jet with zero linear coefficient")
        k = self.order
        h = (1.0 / Jet(s[1:])).coeffs  # x / S(x) through x^(k-1)
        out = np.empty(k + 1)
        out[0], out[1] = self.base_point, h[0]
        h_n = h
        for n in range(2, k + 1):
            h_n = np.convolve(h_n, h)[:k]
            out[n] = h_n[n - 1] / n
        return Jet(out, float(s[0]))


def _composed(outers: Sequence[Jet], inner: Jet) -> list[Jet]:
    """Each outer jet of one base point composed with ``inner``, on one power matrix."""
    base = outers[0].base_point
    if abs(inner.coeffs[0] - base) > 1e-9 * max(1.0, abs(base)):
        raise ValueError(
            "compose: inner constant coefficient "
            f"{inner.coeffs[0]} does not match outer base point {base}"
        )
    k = min(inner.order, *(jet.order for jet in outers))
    w = inner.coeffs[: k + 1].copy()
    w[0] = 0.0
    powers = np.zeros((k + 1, k + 1))
    powers[0, 0] = 1.0
    if k >= 1:
        powers[1] = w
    for j in range(2, k + 1):
        powers[j] = _cauchy(powers[j - 1], w)
    return [_wrap(jet.coeffs[: k + 1] @ powers, inner.base_point) for jet in outers]


# -- polymorphic elementary functions ---------------------------------------


def _dispatch(x, method: str, np_fn, math_fn):
    if hasattr(x, method):
        return getattr(x, method)()
    if isinstance(x, np.ndarray):
        return np_fn(x)
    return math_fn(x)


def sin(x):
    return _dispatch(x, "sin", np.sin, math.sin)


def cos(x):
    return _dispatch(x, "cos", np.cos, math.cos)


def sinh(x):
    return _dispatch(x, "sinh", np.sinh, math.sinh)


def cosh(x):
    return _dispatch(x, "cosh", np.cosh, math.cosh)


def exp(x):
    return _dispatch(x, "exp", np.exp, math.exp)


def rational_pow(x, m: int, n: int):
    """x**(m/n) for jets, arrays, or scalars, with signed_power semantics."""
    m, n = _reduce_exponent(m, n)
    if hasattr(x, "pow_rational"):
        return x.pow_rational(m, n)
    if n == 1:
        if isinstance(x, (int, float)) and m < 0 and x == 0:
            raise ZeroDivisionError("zero base with negative exponent")
        return x ** m
    return signed_power(x, m, n)


# -- deflation ---------------------------------------------------------------


def deflate(jet: Jet, k: int, tol: float | None = None) -> Jet:
    """Divide a jet by t^k, exactly, by shifting coefficients down.

    The base point must be 0 and the first k coefficients must vanish to
    within ``tol`` (default: 1e-9 relative to the largest coefficient
    magnitude).  The result has order reduced by k.
    """
    if k < 1:
        raise ValueError("deflation order k must be >= 1")
    if jet.base_point != 0.0:
        raise ValueError("deflate requires a jet based at t = 0")
    if k > jet.order:
        raise ValueError(f"cannot deflate an order-{jet.order} jet by t^{k}")
    scale = float(np.max(np.abs(jet.coeffs)))
    if tol is None:
        tol = 1e-9 * scale
    lead = np.abs(jet.coeffs[:k])
    if scale > 0.0 and np.any(lead > tol):
        worst = int(np.argmax(lead))
        raise ValueError(
            f"not divisible by t^{k}: coefficient {worst} has magnitude "
            f"{lead[worst]:.3e} > tol {tol:.3e}"
        )
    return Jet(jet.coeffs[k:].copy(), 0.0)


def inflate(jet: Jet, k: int) -> Jet:
    """Multiply a jet based at 0 by t^k (shift coefficients up)."""
    if jet.base_point != 0.0:
        raise ValueError("inflate requires a jet based at t = 0")
    return Jet(np.concatenate([np.zeros(k), jet.coeffs]), 0.0)


# -- plane curve germs --------------------------------------------------------


class PlaneJet:
    """A pair of jets (x- and y-component) describing a plane-curve germ."""

    __slots__ = ("x", "y")

    def __init__(self, x: Jet, y: Jet):
        if x.base_point != y.base_point:
            raise ValueError("component jets must share a base point")
        if x.order != y.order:
            k = min(x.order, y.order)
            x, y = x.truncated(k), y.truncated(k)
        self.x = x
        self.y = y

    @property
    def base_point(self) -> float:
        return self.x.base_point

    @property
    def order(self) -> int:
        return self.x.order

    @classmethod
    def from_coeffs(cls, x_coeffs, y_coeffs) -> "PlaneJet":
        """The germ at t = 0 with these x and y coefficients."""
        return cls(Jet(x_coeffs), Jet(y_coeffs))

    def __call__(self, t: float) -> np.ndarray:
        return np.array([self.x(t), self.y(t)])

    def derivative(self, n: int = 1) -> "PlaneJet":
        return PlaneJet(self.x.derivative(n), self.y.derivative(n))

    def derivative_vector(self, k: int) -> np.ndarray:
        """gamma^(k) at the base point, as a 2-vector."""
        return np.array([self.x.derivative_value(k), self.y.derivative_value(k)])

    def transform(self, matrix, shift=(0.0, 0.0)) -> "PlaneJet":
        """Apply an affine map p |-> M p + b to the curve germ."""
        m = np.asarray(matrix, dtype=float)
        newx = self.x * m[0, 0] + self.y * m[0, 1] + float(shift[0])
        newy = self.x * m[1, 0] + self.y * m[1, 1] + float(shift[1])
        return PlaneJet(newx, newy)

    def compose(self, inner: Jet) -> "PlaneJet":
        """Reparametrize the germ by t = inner(u), both components on one power matrix."""
        return PlaneJet(*_composed((self.x, self.y), inner))

    def reversed_orientation(self) -> "PlaneJet":
        """The germ of t |-> gamma(-t); base point must be 0."""
        if self.base_point != 0.0:
            raise ValueError("orientation reversal implemented for base point 0 only")
        signs = (-1.0) ** np.arange(self.order + 1)
        return PlaneJet.from_coeffs(self.x.coeffs * signs, self.y.coeffs * signs)

    def truncated(self, order: int) -> "PlaneJet":
        return PlaneJet(self.x.truncated(order), self.y.truncated(order))


def bracket(a: PlaneJet, b: PlaneJet) -> Jet:
    """Jet of the plane determinant a_x b_y - a_y b_x."""
    return a.x * b.y - a.y * b.x


def cross(a, b):
    """The plane determinant a_x b_y - a_y b_x of arrays with (x, y) on the first axis."""
    return a[0] * b[1] - a[1] * b[0]


# -- smooth quotients of singular integrals ----------------------------------


@cache
def _gauss_01(n: int = 64) -> tuple[np.ndarray, np.ndarray]:
    x, w = np.polynomial.legendre.leggauss(n)
    return 0.5 * (x + 1.0), 0.5 * w


def _weighted_mean(phi, alpha: float, ts, also_at=None):
    """For each t of ``ts``, the 64-node Gauss value of integral_0^1 u^alpha phi(t u) du.

    The substitution u = v^q, with the smallest q making alpha*q an integer,
    makes the weight polynomial; when no q <= 16 does, the smallest q with
    alpha*q >= 1 still removes the endpoint singularity.  ``phi`` maps the
    flat array of every t * v_j^q to its values in one call, so a whole grid
    of quadratures is one vectorized evaluation.  Given points ``also_at``,
    the same call evaluates phi there too, and (means, phi(also_at)) is
    returned.

    Each t's sum is numpy's pairwise sum over its own row of products, so
    its rounding depends neither on the other t's of the batch nor on
    ``also_at``.  (A BLAS matrix-vector product rounds a 1-row and an n-row
    batch differently.)
    """
    for q in range(1, 17):
        if abs(alpha * q - round(alpha * q)) < 1e-9:
            e = float(round(alpha * q) + q - 1)
            break
    else:
        q = max(1, math.ceil(1.0 / alpha))
        e = alpha * q + q - 1.0
    v, w = _gauss_01()
    ts = np.atleast_1d(ts)
    args = np.outer(ts, v**q).ravel()
    values = phi(args if also_at is None else np.concatenate([args, also_at]))
    means = (values[: args.size].reshape(len(ts), len(v)) * (q * w * v**e)).sum(axis=1)
    return means if also_at is None else (means, values[args.size :])


def moment_quotient(phi, alpha: float, t: float) -> float:
    """Smooth quotient of the weighted integral of phi by sgn(t)|t|^(1+alpha).

    Returns f(t) with ``f(t) * sgn(t) * |t|**(1+alpha) == integral_0^t
    |u|**alpha * phi(u) du``, evaluated through the everywhere-regular form
    ``integral_0^1 u**alpha * phi(t*u) du``.  At t = 0 that is
    ``phi(0)/(1+alpha)``; the 64-node Gauss sum returned for a callable
    meets it up to rounding, not exactly.  ``phi`` may be a Jet based at 0,
    or a callable defined on the segment between 0 and t; a callable is
    called once, on the array of every quadrature node, and must return an
    array of the same shape.
    """
    if alpha <= 0:
        raise ValueError(f"moment_quotient needs alpha > 0, got {alpha}")
    if isinstance(phi, Jet):
        return moment_quotient_jet(phi, alpha)(t)
    return float(_weighted_mean(phi, alpha, t)[0])


def moment_quotient_jet(phi: Jet, alpha: float) -> Jet:
    """Jet (about 0) of t |-> moment_quotient(phi, alpha, t).

    The weighted mean acts diagonally on Taylor coefficients:
    coefficient k is divided by (1 + alpha + k).
    """
    if alpha <= 0:
        raise ValueError(f"moment_quotient needs alpha > 0, got {alpha}")
    if phi.base_point != 0.0:
        raise ValueError("moment_quotient_jet requires a jet based at t = 0")
    k = np.arange(len(phi.coeffs))
    return Jet(phi.coeffs / (1.0 + alpha + k), 0.0)
