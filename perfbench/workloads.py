"""Seeded operation streams for the benchmark's three workloads.

A workload hands out its operations in *blocks*.  Every block holds the same
fixed mix of operation kinds and input-size classes; the seed draws the
parameters inside each class and the order of the block.  Whole blocks keep
the mix, and therefore the cost per operation, the same from seed to seed,
while every run still sees fresh inputs.  Block ``k`` of a seed is the same
on every run and on every commit.

Each operation is a call into the public cuspkit API (or its CLI entry
point) and a check of the output against :mod:`references`.  A few
operations per block are out-of-domain *probes* whose correct outcome is a
``ValueError`` (for the CLI, exit code 1 with an error message).

A check returns PASS, FAIL, or DEFECT.  DEFECT is a miss that a defect known
today explains: a probe that does not raise ``ValueError``, or a round trip
through the Euclidean quadrature route, whose arclength has the wrong sign
for tau < 0.  Both FAIL and DEFECT count as failed operations; only FAIL
makes a run incorrect.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import references as ref

# Relative tolerances of the checks.  Each sits at least thirtyfold above
# the largest error seen over many seeds.
TOL_PROFILE = 1e-9  # closed-form profiles, sampled on the whole grid
TOL_GERM = 1e-10  # germ values 4/25, -5/16 and mu_g / (2 sqrt 2)
TOL_INVARIANT = 1e-8  # mu_g, mu_A, mu_I, kappa_g, kappa_A and c
TOL_ROUNDTRIP = 1e-6  # synthesized curve's recomputed profile vs the prescribed one
TOL_POSITIONS = 1e-8  # constant Euclidean profile vs the closed-form canonical cusp
TOL_IDENTITY = 1e-6  # residuals of the universal inflection identity


PASS, FAIL, DEFECT = "pass", "fail", "known-defect"


@dataclass
class Op:
    """One operation: ``call(ck)`` is timed, ``check(out, exc)`` is not.

    ``inputs`` is a plain description of the request, used to show that a
    seed reproduces its inputs.  ``check`` returns PASS, FAIL or DEFECT.
    """

    kind: str
    inputs: dict
    call: Callable[[Any], Any]
    check: Callable[[Any, BaseException | None], str]


def _returns(check):
    """An in-domain check: the call must return and pass ``check``."""
    return lambda out, exc: PASS if exc is None and check(out) else FAIL


def _raises_value_error(out, exc) -> str:
    return PASS if isinstance(exc, ValueError) else DEFECT


def _close(got, want, tol, scale=1.0) -> bool:
    return ref.rel_err(float(got), float(want), scale) <= tol


def _all_close(got, want, tol) -> bool:
    got = np.asarray(got, dtype=float)
    want = np.broadcast_to(np.asarray(want, dtype=float), got.shape)
    if not np.all(np.isfinite(got)):
        return False
    return bool(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))) <= tol)


class Workload:
    name = ""
    key = 0  # mixed into the seed so workloads draw independent streams

    def __init__(self, seed: int):
        self.seed = seed

    def block(self, index: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, self.key, index])
        ops = self._block(rng, index)
        return [ops[i] for i in rng.permutation(len(ops))]

    def _block(self, rng: np.random.Generator, index: int) -> list[Op]:
        raise NotImplementedError

    def warm_up(self, ck) -> None:
        """One fixed, small call of each operation kind."""
        raise NotImplementedError


# -- profile ------------------------------------------------------------------

PROFILE_COMBOS = (
    ("profile_g", "cycloid"),
    ("profile_g", "cuspidal_cubic"),
    ("profile_g", "canonical_cusp"),
    ("profile_g", "hyperbolic_cycloid"),
    ("profile_A_cusp", "cycloid"),
    ("profile_A_cusp", "cuspidal_cubic"),
    ("profile_A_cusp", "canonical_cusp"),
    ("profile_A_cusp", "hyperbolic_cycloid"),
    ("profile_A_inflection", "cubic_graph"),
    ("profile_A_inflection", "skew_cycloid"),
)
GRID_SIZES = (101, 1001, 4001)  # grid points; one operation of each size per pair
TAU_CAP = 1.5


def _tau_limits(fn: str, curve: str, a: float) -> tuple[float, float]:
    """Largest |tau| on each side that stays well inside the profile's domain."""
    if fn == "profile_g" and curve == "cycloid":
        left = right = 0.9 * math.sqrt(8.0 * a)  # the next cusp is at tau^2 = 8a
    elif fn == "profile_A_cusp" and curve == "cycloid":
        left = right = 0.75 * ref.cycloid_tau35_end(a)
    elif curve == "skew_cycloid":
        # [g', g''] vanishes again at t = -pi/2, where tau34 = -0.985 sqrt(a).
        left, right = 0.8 * 0.985 * math.sqrt(a), TAU_CAP
    else:
        left = right = TAU_CAP
    return min(left, TAU_CAP), min(right, TAU_CAP)


def _grid(n: int, left: float, right: float) -> np.ndarray:
    """n points on [-left, right] that include tau = 0 exactly."""
    nl = min(max(1, round((n - 1) * left / (left + right))), n - 2)
    return np.concatenate(
        [np.linspace(-left, 0.0, nl + 1), np.linspace(0.0, right, n - nl)[1:]]
    )


def _profile_check(fn: str, curve: str, a: float, grid: np.ndarray):
    zero = grid == 0.0

    def check(out) -> bool:
        prof, rep = out
        v = prof.values
        if v.shape != grid.shape or not np.all(np.isfinite(v)):
            return False
        if fn == "profile_g":
            f0 = ref.mu_g(curve, a) / (2.0 * math.sqrt(2.0))
            if not (_close(prof.f0, f0, TOL_GERM) and _all_close(v[zero], f0, TOL_GERM)):
                return False
            if curve == "cycloid":
                return _all_close(v, ref.cycloid_profile_g(grid, a), TOL_PROFILE)
            if curve == "cuspidal_cubic":
                return _all_close(v, ref.cuspidal_cubic_profile_g(grid, a), TOL_PROFILE)
            if curve == "canonical_cusp":
                return _all_close(v, np.full(grid.shape, a), TOL_PROFILE)
            return True
        if fn == "profile_A_cusp":
            if not (
                _close(prof.f0, ref.CUSP_PROFILE_VALUE, TOL_GERM)
                and abs(prof.fdot0) <= TOL_GERM
                and _all_close(v[zero], ref.CUSP_PROFILE_VALUE, TOL_GERM)
            ):
                return False
            want = ref.mu_A(curve, a)
            if want is not None and not _close(rep.mu_A, want, TOL_INVARIANT):
                return False
            if curve == "cuspidal_cubic":
                return _all_close(v, np.full(grid.shape, ref.CUSP_PROFILE_VALUE), TOL_PROFILE)
            return True
        if not (
            _close(prof.f0, ref.INFLECTION_PROFILE_VALUE, TOL_GERM)
            and _all_close(v[zero], ref.INFLECTION_PROFILE_VALUE, TOL_GERM)
            and _close(rep.mu_I, ref.mu_I(curve, a), TOL_INVARIANT)
        ):
            return False
        if curve == "cubic_graph":
            return _all_close(v, np.full(grid.shape, ref.INFLECTION_PROFILE_VALUE), TOL_PROFILE)
        return True

    return check


def _profile_call(fn: str, curve: str, a: float, grid: np.ndarray):
    def call(ck):
        spec = ck.catalog_lookup(curve, {"a": a})
        if fn == "profile_g":
            return ck.profile_g(spec, grid), None
        return getattr(ck, fn)(spec, grid)

    return call


class ProfileWorkload(Workload):
    """Normalized profiles of the catalog cusps and inflections.

    A block is every (profile kind, curve) pair at every grid size, 30
    operations, plus two probes that reach past the profile's domain.
    """

    name = "profile"
    key = 1

    def __init__(self, seed: int):
        super().__init__(seed)
        # The parameter a and the tau range set an operation's cost.  Each of
        # the three is drawn from one of ten equal strata of its interval:
        # within a block, the ten pairs at one grid size use every stratum
        # once, and each pair moves to the next stratum from block to block.
        # Every block then spans the same costs, and a run of a few blocks
        # sees nearly all of them, so the median latency does not wander
        # from seed to seed.  The seed sets the order of the strata.
        rng = np.random.default_rng([seed, self.key])
        self.strata = rng.permuted(
            np.tile(np.arange(len(PROFILE_COMBOS)), (3, len(GRID_SIZES), 1)), axis=2
        )

    def _draw(self, rng, index, which: int, size: int, pair: int, low: float, high: float):
        pairs = len(PROFILE_COMBOS)
        stratum = int(self.strata[which, size, pair] + index) % pairs
        return low + (high - low) * (stratum + float(rng.uniform())) / pairs

    def _block(self, rng, index):
        ops = []
        for i, (fn, curve) in enumerate(PROFILE_COMBOS):
            for j, n in enumerate(GRID_SIZES):
                a = self._draw(rng, index, 0, j, i, 0.5, 2.0)
                lim_l, lim_r = _tau_limits(fn, curve, a)
                left = self._draw(rng, index, 1, j, i, 0.05, 1.0) * lim_l
                right = self._draw(rng, index, 2, j, i, 0.05, 1.0) * lim_r
                grid = _grid(n, left, right)
                ops.append(
                    Op(
                        fn,
                        {"curve": curve, "a": a, "n": n, "left": left, "right": right},
                        _profile_call(fn, curve, a, grid),
                        _returns(_profile_check(fn, curve, a, grid)),
                    )
                )
        # Out of domain: the cycloid's next cusp is at tau^2 = 8a (Euclidean)
        # and at tau = cycloid_tau35_end(a) (affine).
        a = float(rng.uniform(0.5, 2.0))
        right = float(rng.uniform(1.0, 1.15)) * math.sqrt(8.0 * a)
        n = int(rng.integers(101, 202))
        ops.append(
            Op(
                "probe.profile_g_past_next_cusp",
                {"curve": "cycloid", "a": a, "n": n, "left": 0.5, "right": right},
                _profile_call("profile_g", "cycloid", a, _grid(n, 0.5, right)),
                _raises_value_error,
            )
        )
        a = float(rng.uniform(0.5, 2.0))
        right = float(rng.uniform(1.05, 1.3)) * ref.cycloid_tau35_end(a)
        n = int(rng.integers(101, 202))
        ops.append(
            Op(
                "probe.profile_A_cusp_past_next_cusp",
                {"curve": "cycloid", "a": a, "n": n, "left": 0.5, "right": right},
                _profile_call("profile_A_cusp", "cycloid", a, _grid(n, 0.5, right)),
                _raises_value_error,
            )
        )
        return ops

    def warm_up(self, ck):
        grid = np.linspace(-0.5, 0.5, 11)
        ck.profile_g(ck.catalog_lookup("cycloid", {"a": 1.0}), grid)
        ck.profile_A_cusp(ck.catalog_lookup("cycloid", {"a": 1.0}), grid)
        ck.profile_A_inflection(ck.catalog_lookup("skew_cycloid", {"a": 1.0}), grid)


# -- synthesis ----------------------------------------------------------------


def _poly_text(coeffs) -> str:
    """A DSL expression in t for sum(c_k t^k); the constant term may be text."""
    terms = [coeffs[0] if isinstance(coeffs[0], str) else repr(coeffs[0])]
    for k, c in enumerate(coeffs[1:], start=1):
        terms.append(f"{c!r}*t" if k == 1 else f"{c!r}*t^{k}")
    return " + ".join(terms)


def _synthesis_call(kind: str, text: str, tau_max: float, kw: dict):
    def call(ck):
        fn = ck.parse_expression(text)
        res = ck.synthesize(kind, fn, tau_max, **kw)
        tau_n = res.tau_normalized()
        recomputed = res.profile_recomputed()
        return res, tau_n, recomputed, ck.render_svg(res.positions)

    return call


def _svg_point_count(text: str) -> int:
    root = ET.fromstring(text)
    line = root.find("{http://www.w3.org/2000/svg}polyline")
    return len(line.get("points").split())


def _synthesis_check(kind: str, coeffs: list[float], tau_max: float, constant: bool,
                     quadrature: bool):
    def check(out, exc) -> str:
        if exc is not None:
            return FAIL
        res, tau_n, recomputed, svg_text = out
        taus = res.taus
        if not (
            abs(taus[0] + tau_max) <= 1e-12 * tau_max
            and abs(taus[-1] - tau_max) <= 1e-12 * tau_max
            and np.all(np.diff(taus) > 0.0)
            and _svg_point_count(svg_text) == len(taus)
        ):
            return FAIL
        if constant:
            closed = ref.canonical_cusp_positions(taus, coeffs[0])
            if not np.max(np.abs(res.positions - closed)) <= TOL_POSITIONS:
                return FAIL
        poly = np.polynomial.polynomial.polyval(tau_n, coeffs)
        target = ref.CUSP_PROFILE_VALUE + tau_n**2 * poly if kind == "affine-cusp" else poly
        if np.max(np.abs(recomputed - target)) <= TOL_ROUNDTRIP:
            return PASS
        return DEFECT if quadrature else FAIL

    return check


SYNTHESIS_PROBES = ("step_zero", "tau_max_negative", "tau_max_zero")
TAU_MAX_BANDS = ((0.3, 0.4), (0.8, 1.0))  # inside [0.25, 1]


class SynthesisWorkload(Workload):
    """Curves synthesized from low-degree polynomial profiles, with Richardson on.

    A block is eight syntheses (Euclidean frame and quadrature, each with a
    constant and a quadratic profile; two affine cusps; two inflections),
    each followed by the round-trip recomputation and an SVG rendering, plus
    one probe with an invalid step or tau_max.
    """

    name = "synthesis"
    key = 2

    def _block(self, rng, index):
        specs = []  # (kind, coefficients, DSL text, keywords, constant profile)
        for method in ("frame", "quadrature"):
            for constant in (True, False):
                f = [float(rng.uniform(0.5, 2.0))]
                if not constant:
                    f += [float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-0.5, 0.5))]
                specs.append(("euclid-cusp", f, _poly_text(f), {"method": method}, constant))
        for _ in range(2):
            h = [float(rng.uniform(-0.25, 1.0)), float(rng.uniform(-0.15, 0.15)),
                 float(rng.uniform(-0.15, 0.15))]
            specs.append(("affine-cusp", h, _poly_text(h), {}, False))
        for _ in range(2):
            g1 = float(rng.uniform(-0.6, 0.6))
            # f''(0) = -32 f'(0)^2 / 9 satisfies the inflection germ constraint.
            f = [ref.INFLECTION_PROFILE_VALUE, g1, -16.0 * g1 * g1 / 9.0, float(rng.uniform(-0.3, 0.3))]
            specs.append(("inflection", f, _poly_text(["-5/16", *f[1:]]), {}, False))
        # Consecutive specs form pairs of one kind: one takes tau_max from each
        # band.  Every block then costs about the same, and the median latency
        # falls inside the cluster of low-band syntheses instead of on a slope
        # of the cost distribution, which keeps latency_p50_ms steady.
        bands = np.concatenate([rng.permutation(2) for _ in range(len(specs) // 2)])
        ops = []
        for (kind, coeffs, text, kw, constant), band in zip(specs, bands):
            tau_max = float(rng.uniform(*TAU_MAX_BANDS[band]))
            ops.append(
                Op(
                    ".".join(["synthesize", kind, *kw.values()]),
                    {"kind": kind, "f": text, "tau_max": tau_max, **kw},
                    _synthesis_call(kind, text, tau_max, kw),
                    _synthesis_check(kind, coeffs, tau_max, constant,
                                     kw.get("method") == "quadrature"),
                )
            )
        probe = SYNTHESIS_PROBES[index % len(SYNTHESIS_PROBES)]
        kind, _, text, kw, _ = specs[int(rng.choice([0, 4, 6]))]  # frame, affine, inflection
        tau_max = float(rng.uniform(0.25, 1.0))
        if probe == "step_zero":
            args = (tau_max, dict(kw, step=0.0))
        elif probe == "tau_max_negative":
            args = (-tau_max, kw)
        else:
            args = (0.0, kw)
        ops.append(
            Op(
                f"probe.synthesize_{probe}",
                {"kind": kind, "f": text, "tau_max": args[0], **args[1]},
                _synthesis_call(kind, text, *args),
                _raises_value_error,
            )
        )
        return ops

    def warm_up(self, ck):
        for kind, text, kw in (
            ("euclid-cusp", "1 + 0.5*t", {"method": "frame"}),
            ("euclid-cusp", "1", {"method": "quadrature"}),
            ("affine-cusp", "0.5", {}),
            ("inflection", "-5/16", {}),
        ):
            _synthesis_call(kind, text, 0.05, kw)(ck)


# -- invariants ---------------------------------------------------------------

CATALOG_CUSPS = ("cuspidal_cubic", "cycloid", "canonical_cusp", "hyperbolic_cycloid")
CATALOG_INFLECTIONS = ("cubic_graph", "skew_cycloid")

# Model germs after u = t + b t^2, a det = +1 linear map P and a shift s.
_U = "(t + b*t^2)"
MODEL_CUSP = (
    f"(p11*{_U}^2 + p12*({_U}^3 + c*{_U}^5) + s1,"
    f" p21*{_U}^2 + p22*({_U}^3 + c*{_U}^5) + s2)"
)
MODEL_INFLECTION = (
    f"(p11*{_U} + p12*({_U}^3 + c*{_U}^4) + s1,"
    f" p21*{_U} + p22*({_U}^3 + c*{_U}^4) + s2)"
)


def _cli_call(argv: list[str]):
    def call(ck):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = ck.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the command line
                rc = exc.code
        return rc, out.getvalue(), err.getvalue()

    return call


def _cli_error(out, exc) -> str:
    """The CLI's report of a ValueError: exit code 1 and an error line."""
    if exc is None:
        rc, stdout, stderr = out
        if rc == 1 and not stdout and stderr.startswith(("error [invariants]", "curve syntax error")):
            return PASS
    return DEFECT


def _report_check(expect: Callable[[dict], bool]):
    def check(out) -> bool:
        rc, stdout, _ = out
        return rc == 0 and expect(json.loads(stdout))

    return check


def _cusp_report_ok(r: dict, mu_g: float | None, mu_A: float | None) -> bool:
    """Germ values of a cusp report, plus whichever closed forms are known."""
    if r["class"] != "PositiveCusp":
        return False
    ok = (
        _close(r["f0"], ref.CUSP_PROFILE_VALUE, TOL_GERM)
        and abs(r["fdot0"]) <= TOL_GERM
        and _close(r["c"], r["mu_A"] / ref.CUSP_NF_DENOM, TOL_INVARIANT)
        and _close(r["f0_g"], r["mu_g"] / (2.0 * math.sqrt(2.0)), TOL_GERM)
    )
    if mu_g is not None:
        ok = ok and _close(r["mu_g"], mu_g, TOL_INVARIANT)
    if mu_A is not None:
        ok = ok and _close(r["mu_A"], mu_A, TOL_INVARIANT, scale=1.0)
    return ok


def _inflection_report_ok(r: dict, mu_I: float) -> bool:
    return (
        r["class"] == "PositiveInflection"
        and _close(r["f0"], ref.INFLECTION_PROFILE_VALUE, TOL_GERM)
        and _close(r["mu_I"], mu_I, TOL_INVARIANT)
        and _close(r["c"], ref.INFL_NF_FACTOR * mu_I, TOL_INVARIANT)
        and abs(r["identity_residual_t"]) <= TOL_IDENTITY
        and abs(r["identity_residual_tau"]) <= TOL_IDENTITY
    )


def _catalog_expect(name: str, p: float | None):
    if name in CATALOG_CUSPS:
        return lambda r: _cusp_report_ok(r, ref.mu_g(name, p), ref.mu_A(name, p))
    if name in CATALOG_INFLECTIONS:
        return lambda r: _inflection_report_ok(r, ref.mu_I(name, p))
    if name == "line":
        return lambda r: r["class"] == "Degenerate"
    return lambda r: (
        r["class"] == "Regular"
        and _close(r["kappa_g"], ref.kappa_g_regular(name, p), TOL_INVARIANT)
        and _close(r["kappa_A"], ref.kappa_A_regular(name, p), TOL_INVARIANT)
    )


def _unimodular(rng) -> np.ndarray:
    """A random 2x2 matrix of determinant +1 with moderate condition."""
    while True:
        m = rng.uniform(-1.5, 1.5, size=(2, 2))
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        if det > 0.5:
            return m / math.sqrt(det)


def _germ_params(rng) -> dict[str, float]:
    m = _unimodular(rng)
    c = float(rng.uniform(-2.0, 2.0))
    return {
        "p11": float(m[0, 0]), "p12": float(m[0, 1]),
        "p21": float(m[1, 0]), "p22": float(m[1, 1]),
        "s1": float(rng.uniform(-1.0, 1.0)), "s2": float(rng.uniform(-1.0, 1.0)),
        "b": float(rng.uniform(-0.5, 0.5)), "c": c,
    }


def _param_args(params: dict[str, float]) -> list[str]:
    args = []
    for k, v in params.items():
        args += ["--param", f"{k}={v!r}"]
    return args


CATALOG_PARAM = {"circle": "r", "parabola": None, "line": None}


class InvariantsWorkload(Workload):
    """In-process `cuspkit invariants` reports.

    A block is every catalog curve with a random parameter, two model cusps
    and two model inflections with random c, reparametrization, map and
    shift, and two probes with a NaN parameter (one in a DSL curve, one in
    a catalog curve).
    """

    name = "invariants"
    key = 3

    def _block(self, rng, index):
        ops = []
        for name in (*CATALOG_CUSPS, *CATALOG_INFLECTIONS, "circle", "parabola", "line"):
            pname = CATALOG_PARAM.get(name, "a")
            p = float(rng.uniform(0.5, 2.0)) if pname else None
            argv = ["invariants", "--curve", name]
            if pname:
                argv += ["--param", f"{pname}={p!r}"]
            ops.append(
                Op("invariants.catalog", {"argv": argv}, _cli_call(argv),
                   _returns(_report_check(_catalog_expect(name, p))))
            )
        for text, cusp in ((MODEL_CUSP, True), (MODEL_INFLECTION, False)) * 2:
            params = _germ_params(rng)
            c = params["c"]
            if cusp:
                expect = lambda r, c=c: (
                    _cusp_report_ok(r, None, c * ref.CUSP_NF_DENOM)
                    and _close(r["c"], c, TOL_INVARIANT)
                )
            else:
                expect = lambda r, c=c: (
                    _inflection_report_ok(r, c / ref.INFL_NF_FACTOR)
                    and _close(r["c"], c, TOL_INVARIANT)
                )
            argv = ["invariants", "--curve", text, *_param_args(params)]
            ops.append(
                Op("invariants.model_germ", {"argv": argv}, _cli_call(argv),
                   _returns(_report_check(expect)))
            )
        params = _germ_params(rng)
        params[str(rng.choice(["p11", "p12", "p21", "p22"]))] = math.nan
        argv = ["invariants", "--curve", MODEL_CUSP, *_param_args(params)]
        ops.append(Op("probe.invariants_nan_dsl", {"argv": argv}, _cli_call(argv), _cli_error))
        argv = ["invariants", "--curve", str(rng.choice(CATALOG_CUSPS)), "--param", "a=nan"]
        ops.append(Op("probe.invariants_nan_catalog", {"argv": argv}, _cli_call(argv), _cli_error))
        return ops

    def warm_up(self, ck):
        _cli_call(["invariants", "--curve", "cycloid", "--param", "a=1"])(ck)
        _cli_call(["invariants", "--curve", "skew_cycloid", "--param", "a=1"])(ck)


WORKLOADS = {w.name: w for w in (ProfileWorkload, SynthesisWorkload, InvariantsWorkload)}
