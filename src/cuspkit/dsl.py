"""Parser and evaluator for textual plane-curve definitions.

Curves are written as a pair of component expressions with optional named
parameters::

    (a*(t - sin(t)), a*(-1 + cos(t))) with a=1

Grammar (whitespace insignificant)::

    curve    := "(" expr "," expr ")" [ "with" binding { "," binding } ]
    binding  := ident "=" number
    expr     := term { ("+"|"-") term }
    term     := unary { ("*"|"/") unary }
    unary    := "-" unary | power
    power    := atom [ "^" rational ]
    atom     := number | ident | "(" expr ")" | func "(" expr ")"
    func     := "sin" | "cos" | "sinh" | "cosh" | "exp"
    rational := ["-"] integer | "(" ["-"] integer "/" integer ")"

Precedence is ^  >  unary -  >  * /  >  + -, all left-associative.  Rational
exponents are stored reduced and evaluated with the signed fractional-power
convention of :func:`cuspkit.jets.signed_power`, so odd roots of negative
quantities stay real.  Expressions evaluate over any algebra implementing the
arithmetic operators (floats, numpy arrays, jets), which is how curve
derivatives are obtained exactly, without finite differences.
"""

from __future__ import annotations

import functools
import math
import operator
import re
from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .jets import (
    Jet,
    PlaneJet,
    _reduce_exponent,
    cos,
    cosh,
    exp,
    rational_pow,
    sin,
    sinh,
)

MAX_JET_ORDER = 12

FUNCTIONS = {"sin": sin, "cos": cos, "sinh": sinh, "cosh": cosh, "exp": exp}


class ParseError(ValueError):
    """Syntax or binding error in a curve definition, with position info."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# -- expression tree ----------------------------------------------------------


class _Node:
    """Base of the tree nodes.

    :func:`parse_curve` sets ``_shared`` on a compound node that its trees
    reach by more than one path; :func:`evaluate` keeps the value of such a
    node in ``pairs``.  It takes no part in equality or hashing.
    """

    _shared = False


@dataclass(frozen=True)
class Num(_Node):
    value: float


@dataclass(frozen=True)
class Sym(_Node):
    name: str


@dataclass(frozen=True)
class Neg(_Node):
    arg: "Expression"


@dataclass(frozen=True)
class BinOp(_Node):
    op: str  # one of + - * /
    left: "Expression"
    right: "Expression"


@dataclass(frozen=True)
class Func(_Node):
    name: str
    arg: "Expression"


@dataclass(frozen=True)
class Power(_Node):
    base: "Expression"
    num: int
    den: int  # reduced, den >= 1


Expression = Union[Num, Sym, Neg, BinOp, Func, Power]


# Functions that come in pairs from one Taylor recurrence on jets: the
# pair's hyperbolic flag and the function's place in it.
_PAIRED = {"sin": (False, 0), "cos": (False, 1), "sinh": (True, 0), "cosh": (True, 1)}
_PENDING = object()  # in ``pairs``: the value of a repeated subtree being computed


def evaluate(expr: Expression, t, params: dict[str, float], pairs: dict | None = None):
    """Evaluate an expression with the parameter symbol bound to ``t``.

    ``t`` may be a float, a numpy array or a Jet (scalar or batched); the
    result is whatever the algebra produces (a plain float if the expression
    does not involve t).  ``pairs``, a dict shared by the calls on one ``t``,
    keeps (sin, cos) and (sinh, cosh) of each argument, so that both members
    of a pair come from one evaluation of the argument and, on jets, one
    recurrence.  It also keeps the value of each subtree that
    :func:`parse_curve` found more than once in its text, keyed by the
    node's identity, so that a repeated subtree is evaluated once per ``t``;
    a tree with no repeated subtree stores nothing there.  The values are
    the same with or without ``pairs``.  A function or power whose float
    value overflows raises ``ValueError`` naming the term, and a division or
    power of plain numbers that divides by zero raises ``ZeroDivisionError``
    naming it.
    """
    if isinstance(expr, Num):
        return expr.value
    if isinstance(expr, Sym):
        if expr.name == "t":
            return t
        try:
            return params[expr.name]
        except KeyError:
            raise ValueError(f"unbound parameter '{expr.name}'") from None
    if pairs is not None and expr._shared and pairs.get(id(expr)) is not _PENDING:
        # A repeated subtree: the nested call, which finds the key pending,
        # computes the value that every later visit on this t reads.
        key = id(expr)
        if key not in pairs:
            pairs[key] = _PENDING
            pairs[key] = evaluate(expr, t, params, pairs)
        return pairs[key]
    if isinstance(expr, Neg):
        return -evaluate(expr.arg, t, params, pairs)
    if isinstance(expr, BinOp):
        a = evaluate(expr.left, t, params, pairs)
        b = evaluate(expr.right, t, params, pairs)
        if expr.op == "+":
            return a + b
        if expr.op == "-":
            return a - b
        if expr.op == "*":
            return a * b
        return _named_zero_division(expr, operator.truediv, a, b)
    try:
        if isinstance(expr, Func):
            if pairs is None or expr.name not in _PAIRED:
                return FUNCTIONS[expr.name](evaluate(expr.arg, t, params, pairs))
            hyperbolic, member = _PAIRED[expr.name]
            key = (expr.arg, hyperbolic)
            if key not in pairs:
                arg = evaluate(expr.arg, t, params, pairs)
                if isinstance(arg, Jet):
                    pairs[key] = arg._circular(hyperbolic)
                else:
                    pairs[key] = (sinh(arg), cosh(arg)) if hyperbolic else (sin(arg), cos(arg))
            return pairs[key][member]
        if isinstance(expr, Power):
            base = evaluate(expr.base, t, params, pairs)
            return _named_zero_division(expr, rational_pow, base, expr.num, expr.den)
    except OverflowError:  # a float function or power past 1.8e308, as in exp(710)
        raise ValueError(f"{to_text(expr)} overflows a float") from None
    raise TypeError(f"not an expression node: {expr!r}")


def _named_zero_division(expr: Expression, op, *args):
    """``op(*args)``; a zero division among plain numbers raises naming ``expr``.

    A jet operand raises its own message, which names its base point.
    """
    try:
        return op(*args)
    except ZeroDivisionError:
        if not all(isinstance(a, (int, float)) for a in args):
            raise
        raise ZeroDivisionError(f"{to_text(expr)} divides by zero") from None


def _format_number(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_POW, _PREC_ATOM = 1, 2, 3, 4, 5


def _prec(expr: Expression) -> int:
    if isinstance(expr, BinOp):
        return _PREC_ADD if expr.op in "+-" else _PREC_MUL
    if isinstance(expr, Neg):
        return _PREC_UNARY
    if isinstance(expr, Power):
        return _PREC_POW
    return _PREC_ATOM


def to_text(expr: Expression) -> str:
    """Render an expression in the DSL grammar (round-trips through parse)."""
    if isinstance(expr, Num):
        return _format_number(expr.value)
    if isinstance(expr, Sym):
        return expr.name
    if isinstance(expr, Neg):
        inner = to_text(expr.arg)
        if _prec(expr.arg) < _PREC_UNARY:
            inner = f"({inner})"
        return f"-{inner}"
    if isinstance(expr, BinOp):
        p = _prec(expr)
        left = to_text(expr.left)
        if _prec(expr.left) < p:
            left = f"({left})"
        right = to_text(expr.right)
        if _prec(expr.right) < p or (_prec(expr.right) == p and expr.op in "-/"):
            right = f"({right})"
        return f"{left} {expr.op} {right}"
    if isinstance(expr, Func):
        return f"{expr.name}({to_text(expr.arg)})"
    if isinstance(expr, Power):
        base = to_text(expr.base)
        if _prec(expr.base) < _PREC_ATOM:
            base = f"({base})"
        if expr.den == 1:
            return f"{base}^{expr.num}"
        return f"{base}^({expr.num}/{expr.den})"
    raise TypeError(f"not an expression node: {expr!r}")


# -- tokenizer ----------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|(?P<ident>[A-Za-z_]\w*)|(?P<op>[()+\-*/^,=]))"
)


@dataclass
class _Token:
    kind: str  # 'num', 'ident', 'op', 'end'
    text: str
    offset: int  # of the token's first character in the source text


def _error_at(text: str, offset: int, message: str) -> ParseError:
    """A ParseError at ``offset`` of ``text``; line and column count from 1."""
    line_start = text.rfind("\n", 0, offset) + 1
    return ParseError(message, text.count("\n", 0, offset) + 1, offset - line_start + 1)


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad_pos = len(text) - len(stripped)
            raise _error_at(text, bad_pos, f"unexpected character {stripped[0]!r}")
        kind = m.lastgroup  # exactly one of num, ident and op matches
        start = m.start(kind)
        tokens.append(_Token(kind, text[start : m.end()], start))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.names: set[str] = set()  # of every Sym parsed so far

    def node(self, cls, *fields) -> Expression:
        return cls(*fields)

    def fail_unbound(self, names: set[str]):
        """Report the names at the first occurrence of any of them."""
        offset = next(tok.offset for tok in self.tokens if tok.kind == "ident" and tok.text in names)
        raise _error_at(self.text, offset, f"unbound parameter(s): {', '.join(sorted(names))}")

    @property
    def current(self) -> _Token:
        return self.tokens[self.i]

    def _fail(self, expected: str):
        tok = self.current
        got = "end of input" if tok.kind == "end" else repr(tok.text)
        raise _error_at(self.text, tok.offset, f"expected {expected}, got {got}")

    def accept(self, text: str) -> bool:
        if self.current.kind == "op" and self.current.text == text:
            self.i += 1
            return True
        return False

    def expect(self, text: str, expected: str | None = None):
        if not self.accept(text):
            self._fail(expected or f"'{text}'")

    def parse_expr(self):
        node = self.parse_term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.current.text
            self.i += 1
            node = self.node(BinOp, op, node, self.parse_term())
        return node

    def parse_term(self):
        node = self.parse_unary()
        while self.current.kind == "op" and self.current.text in "*/":
            op = self.current.text
            self.i += 1
            node = self.node(BinOp, op, node, self.parse_unary())
        return node

    def parse_unary(self):
        if self.accept("-"):
            return self.node(Neg, self.parse_unary())
        return self.parse_power()

    def parse_power(self):
        base = self.parse_atom()
        if self.accept("^"):
            m, n = self.parse_rational()
            return self.node(Power, base, m, n)
        return base

    def parse_rational(self) -> tuple[int, int]:
        if self.accept("("):
            m = self.parse_signed_integer()
            self.expect("/", "'/' in rational exponent")
            n = self.parse_signed_integer()
            self.expect(")", "')' closing the rational exponent")
        else:
            m, n = self.parse_signed_integer(), 1
        if n == 0:
            tok = self.tokens[self.i - 1]
            raise _error_at(self.text, tok.offset, "zero denominator in rational exponent")
        return _reduce_exponent(m, n)

    def parse_signed_integer(self) -> int:
        sign = -1 if self.accept("-") else 1
        tok = self.current
        if tok.kind != "num" or ("." in tok.text or "e" in tok.text or "E" in tok.text):
            self._fail("an integer")
        self.i += 1
        return sign * int(tok.text)

    def parse_atom(self):
        tok = self.current
        if tok.kind == "num":
            value = float(tok.text)
            if not math.isfinite(value):
                raise _error_at(self.text, tok.offset, f"number {tok.text} overflows a float")
            self.i += 1
            return self.node(Num, value)
        if tok.kind == "ident":
            self.i += 1
            if tok.text in FUNCTIONS:
                self.expect("(", f"'(' after function {tok.text}")
                arg = self.parse_expr()
                self.expect(")", f"')' closing {tok.text}(...)")
                return self.node(Func, tok.text, arg)
            self.names.add(tok.text)
            return self.node(Sym, tok.text)
        if self.accept("("):
            node = self.parse_expr()
            self.expect(")", "')' closing the parenthesized expression")
            return node
        self._fail("a number, name, function call, or '('")


class _SharingParser(_Parser):
    """A parser that hash-conses its nodes, so that a repeated subtree is one node.

    A node is keyed on its type, its plain fields and the identity of its
    child nodes, which are interned already; ``parents`` counts, per node
    identity, the distinct nodes that hold it.
    """

    def __init__(self, text: str):
        super().__init__(text)
        self.nodes: dict[tuple, Expression] = {}
        self.parents: dict[int, int] = {}

    def node(self, cls, *fields) -> Expression:
        key = (cls, *[id(f) if isinstance(f, _Node) else f for f in fields])
        node = self.nodes.get(key)
        if node is None:
            node = self.nodes[key] = cls(*fields)
            for f in fields:
                if isinstance(f, _Node):
                    self.parents[id(f)] = self.parents.get(id(f), 0) + 1
        return node

    def mark_shared(self, *roots: Expression) -> None:
        """Set ``_shared`` on each compound node reached by more than one path.

        A root counts as a parent, so a component that is also the other
        component, or a subtree of it, is marked too.
        """
        for root in roots:
            self.parents[id(root)] = self.parents.get(id(root), 0) + 1
        for node in self.nodes.values():
            if self.parents.get(id(node), 0) > 1 and not isinstance(node, (Num, Sym)):
                object.__setattr__(node, "_shared", True)


# -- curve specifications -----------------------------------------------------


@dataclass(frozen=True)
class CurveSpec:
    """A parsed plane curve: two component expressions plus bound parameters."""

    x_expr: Expression
    y_expr: Expression
    params: dict[str, float] = field(default_factory=dict)
    label: str = ""

    def __str__(self) -> str:
        text = f"({to_text(self.x_expr)}, {to_text(self.y_expr)})"
        if self.params:
            bindings = ", ".join(
                f"{k}={_format_number(v)}" for k, v in sorted(self.params.items())
            )
            text += f" with {bindings}"
        return text

    def point(self, t):
        """Position gamma(t); works on scalars and numpy arrays."""
        return np.array(
            [evaluate(self.x_expr, t, self.params), evaluate(self.y_expr, t, self.params)]
        )

    def jet(self, t0: float, order: int) -> PlaneJet:
        """Exact Taylor jet of the curve at t0 (automatic differentiation).

        Raises ``ValueError`` on a coefficient that is not finite, as when
        finite literals overflow once multiplied.
        """
        if order > MAX_JET_ORDER:
            raise ValueError(f"jet order {order} exceeds the supported maximum {MAX_JET_ORDER}")
        if not math.isfinite(t0):
            raise ValueError(f"jet base point t0 must be finite, got t0={t0!r}")
        return PlaneJet(*self._components(Jet.variable(float(t0), order)))

    def derivatives_at(self, ts, max_order: int) -> np.ndarray:
        """Array of derivative vectors: shape (max_order+1, 2, len(ts)).

        Entry [k, :, i] is gamma^(k) at ts[i].  Raises ``ValueError`` on a
        derivative that is not finite, as ``jet`` does.
        """
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        x, y = self._components(Jet.variable(ts, max_order))
        out = np.stack([x.coeffs, y.coeffs], axis=1)
        out *= np.array([math.factorial(k) for k in range(max_order + 1)])[:, None, None]
        return out

    def _components(self, t: Jet) -> tuple[Jet, Jet]:
        """Both components on the jet t; one free of t is padded to a constant jet.

        Raises ``ValueError`` naming the first base point of t whose jet has
        a coefficient that is not finite, the component and the coefficient.
        """
        pairs: dict = {}
        with np.errstate(all="ignore"):
            x = evaluate(self.x_expr, t, self.params, pairs)
            y = evaluate(self.y_expr, t, self.params, pairs)
        if not isinstance(x, Jet):
            x = Jet.constant(float(x), t.order, t.base_point)
        if not isinstance(y, Jet):
            y = Jet.constant(float(y), t.order, t.base_point)
        if not (np.isfinite(x.coeffs).all() and np.isfinite(y.coeffs).all()):
            # coeffs[c, k, i]: coefficient k of component c (x, y) at base point i.
            coeffs = np.stack([x.coeffs, y.coeffs]).reshape(2, t.order + 1, np.size(t.base_point))
            i, c, k = np.argwhere(~np.isfinite(coeffs.transpose(2, 0, 1)))[0]
            raise ValueError(
                f"curve {self.label or self} has a non-finite jet at "
                f"t0={float(np.atleast_1d(t.base_point)[i])!r}: "
                f"coefficient {k} of its {'xy'[c]} component is {coeffs[c, k, i]}"
            )
        return x, y


def parse_expression(text: str) -> Expression:
    """Parse a single scalar expression in the variable t (no parameters)."""
    parser = _Parser(text)
    expr = parser.parse_expr()
    if parser.current.kind != "end":
        parser._fail("end of input")
    unbound = parser.names - {"t"}
    if unbound:
        parser.fail_unbound(unbound)
    return expr


def parse_curve(text: str, params: dict[str, float] | None = None) -> CurveSpec:
    """Parse a curve definition; extra parameter bindings may be supplied.

    Each text is parsed once per process while it stays among the
    ``_PARSE_CACHE_SIZE`` most recently parsed, and its expression trees
    are shared by every call; each call gets its own ``params`` and
    ``label``.  Raises :class:`ParseError` (with line/column) on malformed
    input and on parameters that remain unbound after the with-clause, and
    a plain ``ValueError`` on a binding that is not finite.
    """
    x_expr, y_expr, names, with_bindings = _parsed(text)
    bindings: dict[str, float] = dict(params or {})
    bindings.update(with_bindings)
    unbound = names - set(bindings)
    if unbound:
        _Parser(text).fail_unbound(unbound)
    _check_finite(bindings)
    return CurveSpec(x_expr, y_expr, bindings, text.strip())


_PARSE_CACHE_SIZE = 256  # curve texts kept parsed, the catalog's among them


@functools.lru_cache(maxsize=_PARSE_CACHE_SIZE)
def _parsed(text: str) -> tuple[Expression, Expression, frozenset, tuple]:
    """The (x, y) trees of a curve text, its parameter names and its with-clause bindings.

    A ``ParseError`` is raised again on every call with the text; only
    texts that parse are kept.
    """
    parser = _SharingParser(text)
    parser.expect("(", "'(' opening the curve definition")
    x_expr = parser.parse_expr()
    parser.expect(",", "',' between the two curve components")
    if parser.current.kind == "op" and parser.current.text == ")":
        parser._fail("an expression for the second curve component")
    y_expr = parser.parse_expr()
    parser.expect(")", "')' closing the curve definition")

    bindings = []
    tok = parser.current
    if tok.kind == "ident" and tok.text == "with":
        parser.i += 1
        while True:
            name_tok = parser.current
            if name_tok.kind != "ident":
                parser._fail("a parameter name")
            parser.i += 1
            parser.expect("=", "'=' in parameter binding")
            sign = -1.0 if parser.accept("-") else 1.0
            val_tok = parser.current
            if val_tok.kind != "num":
                parser._fail("a numeric parameter value")
            parser.i += 1
            bindings.append((name_tok.text, sign * float(val_tok.text)))
            if not parser.accept(","):
                break
    if parser.current.kind != "end":
        parser._fail("end of input")
    parser.mark_shared(x_expr, y_expr)
    return x_expr, y_expr, frozenset(parser.names - {"t"}), tuple(bindings)


def _check_finite(bindings: dict[str, float]) -> None:
    for name, value in bindings.items():
        if not math.isfinite(value):
            raise ValueError(f"curve parameter {name} must be finite, got {name}={value!r}")


# -- named example curves -----------------------------------------------------

# Definitions are stored as DSL text, so the parser is on the path of each
# catalog curve's first use in a process; its frozen expression trees are
# kept by the parse cache of ``parse_curve`` and shared by every later lookup.
_CATALOG: dict[str, tuple[str, tuple[str, ...]]] = {
    "cuspidal_cubic": ("(a*t^2, a*t^3)", ("a",)),
    "cycloid": ("(a*(t - sin(t)), a*(-1 + cos(t)))", ("a",)),
    "canonical_cusp": (
        "((2*a*t*sin(2*a*t) + cos(2*a*t))/(2*a^2),"
        " (sin(2*a*t) - 2*a*t*cos(2*a*t))/(2*a^2))",
        ("a",),
    ),
    "hyperbolic_cycloid": ("(a*(t - sinh(t)), a*(-1 + cosh(t)))", ("a",)),
    "cubic_graph": ("(a*t, a*t^3)", ("a",)),
    "skew_cycloid": ("(a*(t - sin(t)), a*(-t + cos(t)))", ("a",)),
    "circle": ("(r*cos(t), r*sin(t))", ("r",)),
    "parabola": ("(t, t^2)", ()),
    "line": ("(t, 2*t)", ()),
}

CATALOG_NAMES = tuple(sorted(_CATALOG))

# Curves whose parameter origin is a 3/2-cusp / a generic inflection point.
CATALOG_CUSPS = ("canonical_cusp", "cuspidal_cubic", "cycloid", "hyperbolic_cycloid")
CATALOG_INFLECTIONS = ("cubic_graph", "skew_cycloid")


def catalog_lookup(name: str, params: dict[str, float] | None = None) -> CurveSpec:
    """Fetch a named example curve with its parameters bound.

    Parameters required by the curve must be present, positive and finite.
    The expression trees come from the parse cache that ``parse_curve``
    reads: parsed on the curve's first lookup in the process and shared by
    every later one.  Each lookup gets its own ``params`` and ``label``.
    """
    if name not in _CATALOG:
        known = ", ".join(CATALOG_NAMES)
        raise ValueError(f"unknown catalog curve '{name}' (known: {known})")
    required = _CATALOG[name][1]
    params = dict(params or {})
    for p in required:
        if p not in params:
            raise ValueError(f"catalog curve '{name}' requires parameter '{p}'")
        if not params[p] > 0:
            raise ValueError(
                f"catalog curve '{name}' needs {p} > 0, got {p}={params[p]}"
            )
    extra = set(params) - set(required)
    if extra:
        raise ValueError(f"catalog curve '{name}' takes no parameter(s): {', '.join(sorted(extra))}")
    _check_finite(params)
    label = name if not params else (
        name + "(" + ", ".join(f"{k}={_format_number(v)}" for k, v in sorted(params.items())) + ")"
    )
    x_expr, y_expr, _, _ = _parsed(_CATALOG[name][0])
    return CurveSpec(x_expr, y_expr, params, label)
