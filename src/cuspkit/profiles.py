"""The normalized-curvature profiler shared by all three kinds of singular point.

A normalized curvature profile is a sampled graph of f(tau), where tau is
the smooth coordinate adapted to the singularity (half-arclength at
Euclidean cusps, the 3/5- or 3/4-power of affine arclength at affine cusps
and generic inflections).  Grids are given in tau; evaluation happens in the
original curve parameter t, so each profile evaluation inverts the smooth
monotone map tau(t) first.

For all three kinds the map is tau = t L(t)^p.  L is the smooth weighted
mean L(t) = integral_0^1 u^alpha phi(t u) du of the arclength integrand's
smooth factor phi (|ds/dt| = |t|^alpha phi(t), s = sgn(t) |t|^(1 + alpha)
L(t)), and p = 1/(1 + alpha) is 1/2 at Euclidean cusps, 3/5 at affine cusps
and 3/4 at inflections.  A ``Kind`` is the frozen record of what differs
between the three: p and alpha, phi, the direct formula of the profile on a
derivative stack d[k][xy], the builder of the germ's smooth jets and the
profile's value at t = 0.  Each geometry module declares its own kinds
(``euclidean.EUCLID_CUSP``, ``affine.AFFINE_CUSP`` and ``affine.INFLECTION``),
and one ``Profiler(curve, kind)`` evaluates any of them: the jet of the
smooth factorization inside ``SWITCH_RADIUS``, the direct formula with s by
quadrature (``Profiler._factor``) outside.  Both routes are exact up to
truncation and quadrature error and must agree on ``OVERLAP_BAND``.

``Profiler._invert`` samples L once per grid on a Chebyshev interpolant over
the t-range from 0 to the grid's extreme targets.  Those two targets are
solved by Newton on the exact quadrature map, each started from the root of
the germ's own tau(t) polynomial, which inside the jet's radius is within
its truncation error of the exact one.  L is sampled from its jet inside
``SWITCH_RADIUS``, by quadrature outside.  The degree doubles from 16 until
the upper half of the coefficients falls below ``CHOP_TOL`` times the
largest one (after Aurentz & Trefethen, "Chopping a Chebyshev series").
The bound is not set at rounding level because quadrature samples near
t = 0 carry up to about 1e-11 relative cancellation noise from the curve's
derivatives.  A factor that stays unresolved at degree 512 has lost
analyticity between the singular point and the grid, as at the next
singular point of the curve, and raises ``ValueError``.  Newton's method
then runs on the cheap map t L^p, whose slope is L^p + p t L^(p-1) L', and
the direct route reads s from the same interpolant.  A grid of zeros needs
neither: its t is 0.

The interpolant (``ChebyshevInterpolant``) keeps its samples at the
Chebyshev points of the second kind and the values of L' there beside its
coefficients.  A batch of at most ``SEED_NODES`` points reads L and L' from
the samples by the barycentric formula, in a few numpy calls; a larger one,
and every evaluation of s, runs Clenshaw's recurrence on the coefficients,
whose rounding at a point does not depend on the rest of the batch.  So a
grid's values do not depend on the grid's size.

Newton's method itself (``invert_monotone``) calls one fused
``value_and_slope`` evaluation per step.  It starts from the linear
interpolation of the samples' table (t_j L_j^p, t_j).  On grids of more
than ``SEED_NODES`` points it first solves the ``SEED_NODES`` Chebyshev
points of the first kind on the grid's tau range; the interpolant t(tau)
through them only supplies the starting point of the final iteration on
the whole grid.  t(tau) is smooth through the singular point, so its
Chebyshev coefficients fall geometrically until they reach the noise of
the seed solve; the trailing ones below ``SEED_CHOP`` are dropped, and the
final iteration sums a shorter series over the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .jets import Jet, _weighted_mean

# Order of the germ whose jets give the smooth route.
PROFILE_JET_ORDER = 12

# Evaluation switches from direct quadrature formulas to deflated-jet
# formulas inside this radius (in the original parameter t); the two routes
# are required to agree on the overlap band around it.
SWITCH_RADIUS = 0.05
OVERLAP_BAND = (0.04, 0.06)

# Chebyshev points solved to seed the inversion of larger grids.
SEED_NODES = 64

# Largest Newton step in t, and the most steps before an inversion fails.
MAX_STEP = 0.5
NEWTON_STEPS = 60


@dataclass(frozen=True)
class NormalizedProfile:
    """Samples of a normalized curvature function on a tau-grid.

    ``f0``, ``fdot0``, ``fddot0`` are the value and first two tau-derivatives
    at tau = 0, extracted exactly from the deflated jet of f.
    """

    kind: str  # 'euclid-cusp' | 'affine-cusp' | 'inflection'
    grid: np.ndarray
    values: np.ndarray
    f0: float
    fdot0: float
    fddot0: float


def invert_monotone(
    value_and_slope, targets, slope0: float, bounds=(-np.inf, np.inf), table=None
):
    """Solve tau(t) = target for each target of a smooth increasing map.

    ``value_and_slope(t)`` returns (tau(t), dtau/dt(t)) for an array t, so a
    Newton step costs one evaluation.  ``slope0`` is the (positive)
    derivative at t = 0, the floor for the Newton slope near the origin.
    Newton starts from the linear interpolation of ``table``, a pair
    (taus, ts) of samples of the map with taus increasing, or without one
    from t = target / slope0.  Iterates are clipped to ``bounds``, the range
    on which the map is defined.

    When there are more than ``SEED_NODES`` targets, not all equal, the
    ``SEED_NODES`` Chebyshev points of the first kind on [min target,
    max target] are solved first, and their Chebyshev interpolant t(tau)
    gives the starting t of every target.  Its trailing coefficients whose
    magnitudes sum to at most ``SEED_CHOP`` * max(1, max |t_j|) over the
    solved t_j are dropped first (``_chopped``), so no start moves by more
    than that.  Either way the result is the Newton iterate on the given
    map that meets |tau(t) - target| < 1e-13 * max(1, max |target|).
    ``Profiler._invert`` passes the cheap interpolated map tau = t L(t)^p
    here, with the samples of L as the table.

    Raises ``ValueError`` when the iteration does not converge, as when the
    grid reaches past the next singular point of the curve.
    """
    targets = np.asarray(targets, dtype=float)

    def start(taus):
        return taus / slope0 if table is None else np.interp(taus, *table)

    if targets.size > SEED_NODES:
        lo, hi = float(np.min(targets)), float(np.max(targets))
        if lo < hi:
            mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
            points, basis = _first_kind(SEED_NODES)
            taus = mid + half * points
            ts = _newton(value_and_slope, taus, start(taus), slope0, bounds)
            seed = _chopped(basis @ ts, SEED_CHOP * max(1.0, float(np.max(np.abs(ts)))))
            return _newton(
                value_and_slope, targets, _clenshaw((targets - mid) / half, seed), slope0, bounds
            )
    return _newton(value_and_slope, targets, start(targets), slope0, bounds)


# The seed t(tau) drops trailing Chebyshev coefficients whose magnitudes
# sum to at most this times max(1, max |t_j|): a tenth of the final Newton
# tolerance, below which they carry only the seed solve's noise.
SEED_CHOP = 1e-14


def _chopped(c: np.ndarray, tol: float) -> list:
    """c without its longest trailing run whose magnitudes sum to <= tol.

    At least two coefficients are kept, as ``_clenshaw`` needs.
    """
    dropped = np.cumsum(np.abs(c[::-1]))[::-1]  # dropped[k] = sum_{j >= k} |c_j|
    return c[: max(2, int(np.count_nonzero(dropped > tol)))].tolist()


@functools.cache
def _first_kind(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The n Chebyshev points of the first kind, and their coefficient map.

    The points are x_j = cos(pi (j + 1/2) / n); the map is the matrix B with
    c = B @ y the Chebyshev coefficients of the interpolant of samples y at
    them.  Built on first use, like the nodes of ``jets._gauss_01``.
    """
    angles = np.pi * (np.arange(n) + 0.5) / n
    basis = np.cos(np.outer(np.arange(n), angles)) * (2.0 / n)
    basis[0] *= 0.5
    return np.cos(angles), basis


def _clenshaw(x, c: list):
    """sum_k c[k] T_k(x) by Clenshaw's recurrence, in numpy's ``chebval`` order.

    ``c`` is a list of at least two floats; the rounding of each value of x
    does not depend on the others.
    """
    x2 = 2.0 * x
    c0, c1 = c[-2], c[-1]
    for i in range(3, len(c) + 1):
        c0, c1 = c[-i] - c1, c0 + c1 * x2
    return c0 + c1 * x


def _newton(value_and_slope, targets, start, slope0, bounds=(-np.inf, np.inf)):
    zero = targets == 0.0
    tol = 1e-13 * max(1.0, np.max(np.abs(targets)))
    t_next = np.where(zero, 0.0, np.clip(start, *bounds))
    for _ in range(NEWTON_STEPS):
        t = t_next
        tau, slope = value_and_slope(t)
        err = tau - targets
        slope = np.where(np.isfinite(slope) & (slope > 1e-12), slope, slope0)
        step = np.clip(err / slope, -MAX_STEP, MAX_STEP)
        t_next = np.where(zero, 0.0, np.clip(t - step, *bounds))
        if np.max(np.abs(err)) < tol:
            return t_next
    worst = int(np.argmax(np.abs(err)))  # a NaN residual counts as the worst
    raise ValueError(
        "parameter inversion did not converge: at target tau = "
        f"{targets[worst]:.10g} the iteration reached t = {t[worst]:.10g} "
        f"with residual {err[worst]:.3g} (tolerance {tol:.3g}); the grid may "
        "reach past the next singular point of the curve"
    )


# -- the adapted parameter on an interpolant of its arclength factor ----------

# Degrees tried for the interpolant of L(t), and the bound on the upper half
# of its Chebyshev coefficients relative to the largest one.
CHEB_DEGREES = (16, 32, 64, 128, 256, 512)
CHOP_TOL = 1e-12


def _t_range(exact_value_and_slope, targets, tau_jet):
    """The t-range from 0 to the grid's extreme targets, or None if it is {0}.

    Starting at 0 puts the whole path of the arclength integral, from the
    singular point to the grid, under the interpolant.  Each extreme target
    is solved by Newton on the exact map from the root of the germ's tau(t)
    polynomial (``_germ_start``), and meets the same stopping rule as every
    other inversion.  The pad of 1e-6 of the width holds the cheap map's
    solutions for the extreme targets, which the interpolant's error (near
    ``CHOP_TOL``) moves off the exact ones.  A ``ValueError`` of the exact
    map, such as a non-finite jet of the curve at a quadrature node, is
    raised again with the grid end whose solve met it.
    """
    ends = np.array([min(np.min(targets), 0.0), max(np.max(targets), 0.0)])
    if not ends[0] < ends[1]:
        return None

    def exact(ts):
        try:
            return exact_value_and_slope(ts)
        except ValueError:
            for t, end in zip(ts, ends):  # the iterate of each end, alone
                try:
                    exact_value_and_slope(t[None])
                except ValueError as exc:
                    raise ValueError(
                        f"{exc}, while solving for the t of the grid end tau = {end:.10g}"
                    ) from None
            raise

    starts = np.array([_germ_start(tau_jet, float(end)) for end in ends])
    t_lo, t_hi = _newton(exact, ends, starts, float(tau_jet.coeffs[1]))
    pad = 1e-6 * (t_hi - t_lo)
    return float(t_lo - pad), float(t_hi + pad)


def _germ_start(tau_jet, target: float) -> float:
    """The root of the germ's tau(t) polynomial at target, else target / slope0.

    Newton runs from target / slope0 with the steps and the stopping rule of
    ``_newton``, on Python floats: a twentieth of the cost of ``_newton``
    through ``Jet.__call__`` or less, which would exceed the exact
    evaluation it saves.  Outside the jet's radius the root is no better a
    start than target / slope0, and on the catalog curves no worse (the
    Euclidean cuspidal cubic at |tau| = 1.5).  When the iteration does not
    converge, or meets a slope that is not positive, it falls back to
    target / slope0.
    """
    c = tau_jet.coeffs.tolist()
    t = start = target / c[1]
    tol = 1e-13 * max(1.0, abs(target))
    for _ in range(NEWTON_STEPS):
        tau = slope = 0.0
        for ck in reversed(c):  # Horner, with the derivative
            slope = slope * t + tau
            tau = tau * t + ck
        err = tau - target
        if abs(err) < tol:
            return t
        if not slope > 0.0:
            break
        t -= min(max(err / slope, -MAX_STEP), MAX_STEP)
    return start


class ChebyshevInterpolant:
    """A polynomial on [lo, hi], kept as Chebyshev coefficients and as samples.

    ``samples`` are its values at the Chebyshev points of the second kind,
    ``nodes`` t_j = mid + half cos(pi j / n), j = 0..n; ``coeffs`` are the
    coefficients computed from them, and the derivative is kept the same two
    ways.  Calling it evaluates by Clenshaw's recurrence on the coefficients
    (in numpy's ``Chebyshev`` order): O(n) numpy calls, and a value's
    rounding does not depend on the other points of the batch.
    ``value_and_derivative`` does the same for batches of more than
    ``SEED_NODES`` points, so a grid's values do not depend on its size.
    Smaller batches, such as the seed solve's, use the barycentric formula
    on the samples (Berrut & Trefethen, "Barycentric Lagrange
    interpolation", SIAM Review 46, 2004): O(1) numpy calls on an
    (m, n + 1) array, and a point on a node returns the node's sample.
    """

    def __init__(self, coeffs: np.ndarray, domain, samples: np.ndarray):
        lo, hi = domain
        n = len(coeffs) - 1
        self.domain = (lo, hi)
        self.coeffs = coeffs
        self.samples = samples
        self.nodes = 0.5 * (hi + lo) + 0.5 * (hi - lo) * np.cos(np.pi * np.arange(n + 1) / n)
        # t -> x in [-1, 1] as numpy's Chebyshev class maps its domain.
        self._off, self._scl = (-hi - lo) / (hi - lo), 2.0 / (hi - lo)
        self._c = coeffs.tolist()
        self._dc = np.polynomial.chebyshev.chebder(coeffs, scl=self._scl).tolist()
        # The derivative's values at the nodes, sum_k dc_k cos(pi j k / n),
        # through the even extension as in ``_chebyshev_interpolant``.
        dc = np.zeros(n + 1)
        dc[:n] = self._dc
        dc[0] *= 2.0
        self.derivative_samples = np.fft.rfft(np.concatenate([dc, dc[-2:0:-1]])).real / 2.0
        self._weights = np.where(np.arange(n + 1) % 2, -1.0, 1.0)
        self._weights[[0, n]] *= 0.5

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, ts):
        return _clenshaw(self._off + self._scl * ts, self._c)

    def value_and_derivative(self, ts):
        """(L(ts), L'(ts)): barycentric up to ``SEED_NODES`` points, Clenshaw beyond."""
        if np.size(ts) > SEED_NODES:
            return self._clenshaw(ts)
        return self._barycentric(ts)

    def _clenshaw(self, ts):
        x = self._off + self._scl * ts
        return _clenshaw(x, self._c), _clenshaw(x, self._dc)

    def _barycentric(self, ts):
        d = np.subtract.outer(ts, self.nodes)
        hit = d == 0.0
        on_node = hit.any()
        if on_node:  # those rows take the node's samples below
            d[hit] = 1.0
        r = self._weights / d
        den = r.sum(axis=1)
        L = (r * self.samples).sum(axis=1) / den
        dL = (r * self.derivative_samples).sum(axis=1) / den
        if on_node:
            rows, cols = np.nonzero(hit)
            L[rows], dL[rows] = self.samples[cols], self.derivative_samples[cols]
        return L, dL


def _chebyshev_interpolant(f, domain) -> ChebyshevInterpolant:
    """Chebyshev interpolant of f on ``domain``, its degree chosen adaptively.

    Samples sit at the Chebyshev points of the second kind, so each doubling
    of the degree reuses every earlier sample.  The first degree in
    ``CHEB_DEGREES`` whose upper half of coefficients is at most ``CHOP_TOL``
    times the largest coefficient is kept, with its samples.
    """
    lo, hi = domain
    mid, half = 0.5 * (hi + lo), 0.5 * (hi - lo)
    n = CHEB_DEGREES[0]
    vals = f(mid + half * np.cos(np.pi * np.arange(n + 1) / n))
    for n in CHEB_DEGREES:
        if len(vals) < n + 1:
            both = np.empty(n + 1)
            both[0::2] = vals
            both[1::2] = f(mid + half * np.cos(np.pi * np.arange(1, n, 2) / n))
            vals = both
        # Coefficients from values at cos(pi j / n), through the even extension.
        c = np.fft.rfft(np.concatenate([vals, vals[-2:0:-1]])).real / n
        c[0] /= 2.0
        c[n] /= 2.0
        scale = np.max(np.abs(c))
        tail = np.max(np.abs(c[n // 2 :]))
        if tail <= CHOP_TOL * scale:
            return ChebyshevInterpolant(c, (lo, hi), vals)
    raise ValueError(
        "parameter inversion did not converge: the arclength factor L(t) on "
        f"t in [{lo:.10g}, {hi:.10g}] is not resolved by a Chebyshev interpolant "
        f"of degree {n} (tail {tail / scale:.3g} of the largest coefficient, "
        f"tolerance {CHOP_TOL:g}); the grid may reach past the next singular "
        "point of the curve"
    )


# -- one profiler for every kind -----------------------------------------------


@dataclass(frozen=True)
class ProfileJets:
    """The smooth jets of a germ at t = 0, in the germ's parameter t.

    ``f_t`` is the profile, ``tau_t`` the adapted parameter tau = t L^p and
    ``L`` the arclength factor; each kind's record adds its invariants.
    ``f0``, ``fdot0`` and ``fddot0``, f and its tau-derivatives at 0, read ``f_tau``.
    """

    f_t: Jet
    tau_t: Jet
    L: Jet

    @functools.cached_property
    def f_tau(self) -> Jet:
        """The profile as a jet in tau, f_t after the reversion of tau_t, built on first read."""
        return self.f_t.compose(self.tau_t.inverted())

    @property
    def f0(self) -> float:
        return float(self.f_tau.coeffs[0])

    @property
    def fdot0(self) -> float:
        return float(self.f_tau.coeffs[1])

    @property
    def fddot0(self) -> float:
        return 2.0 * float(self.f_tau.coeffs[2])


def trapped_jets(kind: str, build: Callable, *args) -> ProfileJets:
    """``build(*args)``, a germ's jets record, and its ``f_tau``, built with overflow trapped.

    A field or coefficient that is not finite raises ``ValueError`` naming
    the kind and the first such one, in field order with ``f_tau`` last.
    """
    with np.errstate(all="ignore"):
        jets = build(*args)
        jets.f_tau
    for name, value in vars(jets).items():  # the fields in order, then the cached f_tau
        coeffs = value.coeffs.tolist() if isinstance(value, Jet) else [value]
        if all(map(math.isfinite, coeffs)):
            continue
        k = next(k for k, c in enumerate(coeffs) if not math.isfinite(c))
        if isinstance(value, Jet):
            name = f"the {'tau' if name == 'f_tau' else 't'}^{k} coefficient of {name}"
        raise ValueError(f"the {kind} jets of the germ are not finite: {name} = {coeffs[k]!r}")
    return jets


@dataclass(frozen=True)
class Kind:
    """What the profiler needs to know about one kind of singular point.

    ``phi(curve, us)`` is the smooth factor of the arclength integrand,
    |ds/dt| = |t|^alpha phi(t); ``direct(d, s)`` is the defining formula of
    the profile on a derivative stack ``d[k][xy]`` through ``order`` (the
    layout of ``CurveSpec.derivatives_at`` and ``SynthesisResult.stacks``)
    with arclength s; ``jets(germ)`` builds the kind's ``ProfileJets``
    record of a germ at t = 0 and raises ``ValueError`` on a germ of
    another kind; ``origin(jets)`` is the profile's value at t = 0.
    """

    name: str  # NormalizedProfile.kind
    p: float  # tau = t L(t)^p
    alpha: float  # s = sgn(t) |t|^(1 + alpha) L(t)
    phi: Callable
    order: int
    direct: Callable
    jets: Callable
    origin: Callable


class Profiler:
    """Evaluator of a kind's normalized profile through the singular point t = 0.

    Inside ``SWITCH_RADIUS`` it evaluates the jet f_t of the smooth
    factorization; outside, the kind's direct formula with s from
    quadrature.  Grids are inverted, and their s evaluated, on a Chebyshev
    interpolant of L (see ``_invert``).  The kind's jets record of the
    germ (``mu_g``, ``mu_A``, ``f_tau``, ...) is ``self.jets``.
    """

    def __init__(self, curve, kind: Kind):
        self.curve = curve
        self.kind = kind
        self.jets = trapped_jets(kind.name, kind.jets, curve.jet(0.0, PROFILE_JET_ORDER))
        self.f0 = kind.origin(self.jets)
        self._slope0 = float(self.jets.tau_t.coeffs[1])

    def _factor(self, ts: np.ndarray, with_phi: bool = False):
        """L(t) = integral_0^1 u^alpha phi(t u) du, by ``jets._weighted_mean``.

        That is the rule ``moment_quotient`` sums by, so verify check 13
        pins it.  At t = 0 the value is the jet's L(0).  With ``with_phi``,
        returns (L, phi(ts)), phi at ts coming from the same call as the
        rule's nodes.
        """
        ts = np.atleast_1d(ts)
        out = np.full(len(ts), self.jets.L.value())
        nonzero = ts != 0.0
        phi = functools.partial(self.kind.phi, self.curve)
        if with_phi:
            out[nonzero], phi_ts = _weighted_mean(phi, self.kind.alpha, ts[nonzero], also_at=ts)
            return out, phi_ts
        if np.any(nonzero):
            out[nonzero] = _weighted_mean(phi, self.kind.alpha, ts[nonzero])
        return out

    def arclength(self, ts: np.ndarray, L: np.ndarray | None = None) -> np.ndarray:
        """s at ts, from the factor values L at ts if given."""
        ts = np.atleast_1d(ts)
        if L is None:
            L = self._factor(ts)
        return np.sign(ts) * np.abs(ts) ** (1.0 + self.kind.alpha) * L

    def _tau_and_slope(self, ts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """tau = t L^p and dtau/dt = p phi L^(p-1), from one evaluation of phi.

        phi runs once, on the quadrature nodes and the ts together.  Below
        |t| = 1e-8 it may be 0/0, or underflow at the nodes, so tau and the
        slope there are the germ's; far out it may overflow, which Newton's
        residual reports.
        """
        ts = np.atleast_1d(ts)
        p = self.kind.p
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            L, phi = self._factor(ts, with_phi=True)
            Lp = L**p
            tau, slope = ts * Lp, p * phi * Lp / L
        near = np.abs(ts) < 1e-8
        if near.any():
            tau[near] = self.jets.tau_t(ts[near])
        return tau, np.where(near, self._slope0, slope)

    def t_of_tau(self, taus: np.ndarray) -> np.ndarray:
        return self._invert(taus)[0]

    def _invert(self, taus):
        """t(tau) for tau = t L(t)^p, and the interpolant of L it used.

        The two extreme targets, with 0 among them, are solved on the exact
        map ``_tau_and_slope`` from the roots of the germ's tau(t)
        polynomial (``_t_range``), and L is interpolated on that t-range (a
        ``ChebyshevInterpolant``): from its jet inside ``SWITCH_RADIUS``, by
        quadrature outside.  ``invert_monotone`` then runs on the cheap map,
        clipped to the range, from the table of the interpolant's own
        samples (t_j L_j^p, t_j).  The interpolant is returned so that the
        caller can evaluate s on the same grid.  A grid of zeros returns
        t = 0 and None, and a t-range narrower than 1e-8 t from the germ's
        tau(t), the exact map there, and None: an interpolant's derivative
        scales L by 2 / width, which can overflow.  A grid that is not a
        non-empty 1-D array, or a non-finite target, raises ``ValueError``.
        """
        targets = np.asarray(taus, dtype=float)
        if targets.ndim != 1 or targets.size == 0:
            raise ValueError(f"tau grid must be a non-empty 1-D array, got shape {targets.shape}")
        bad = ~np.isfinite(targets)
        if np.any(bad):
            i = int(np.argmax(bad))
            raise ValueError(
                f"tau grid values must be finite, got tau = {float(targets.flat[i])!r} at index {i}"
            )
        t_range = _t_range(self._tau_and_slope, targets, self.jets.tau_t)
        if t_range is None:
            return np.zeros(len(targets)), None
        if t_range[1] - t_range[0] < 1e-8:
            tau, slope = self.jets.tau_t, self.jets.tau_t.derivative()
            ts = invert_monotone(lambda t: (tau(t), slope(t)), targets, self._slope0, t_range)
            return ts, None

        def factor(ts):
            out = np.empty(len(ts))
            near = np.abs(ts) < SWITCH_RADIUS
            out[near] = self.jets.L(ts[near])
            out[~near] = self._factor(ts[~near])
            return out

        L = _chebyshev_interpolant(factor, t_range)
        p = self.kind.p

        def value_and_slope(ts):
            Lt, dL = L.value_and_derivative(ts)
            Lp = Lt**p
            return ts * Lp, Lp + p * ts * Lp / Lt * dL

        table = (L.nodes[::-1] * L.samples[::-1] ** p, L.nodes[::-1])
        return invert_monotone(value_and_slope, targets, self._slope0, t_range, table), L

    def value_direct(self, ts: np.ndarray, L: np.ndarray) -> np.ndarray:
        """The defining formula, with s from the factor values L at ts."""
        ts = np.atleast_1d(ts)
        d = self.curve.derivatives_at(ts, self.kind.order)
        return self.kind.direct(d, self.arclength(ts, L))

    def value_smooth(self, ts: np.ndarray) -> np.ndarray:
        return self.jets.f_t(np.atleast_1d(ts))

    def values_at_t(self, ts: np.ndarray, factor) -> np.ndarray:
        """Profile values at ts, with L outside ``SWITCH_RADIUS`` from the callable ``factor``.

        ``profile`` passes the interpolant that inverted the grid (None if no
        ts lies outside); ``Profiler._factor`` is L by quadrature.
        """
        ts = np.atleast_1d(ts)
        out = np.empty(len(ts))
        near = np.abs(ts) < SWITCH_RADIUS
        if np.any(near):
            out[near] = self.value_smooth(ts[near])
        if np.any(~near):
            far = ts[~near]
            out[~near] = self.value_direct(far, factor(far))
        out[ts == 0.0] = self.f0
        return out

    def profile(self, tau_grid) -> NormalizedProfile:
        grid = np.asarray(tau_grid, dtype=float)
        ts, factor = self._invert(grid)
        return NormalizedProfile(
            kind=self.kind.name,
            grid=grid,
            values=self.values_at_t(ts, factor),
            f0=self.jets.f0,
            fdot0=self.jets.fdot0,
            fddot0=self.jets.fddot0,
        )

    def overlap_consistency(self) -> float:
        """Max disagreement of the two evaluation routes on the overlap band."""
        band = np.linspace(*OVERLAP_BAND, 9)
        ts = np.concatenate([-band[::-1], band])
        direct = self.value_direct(ts, self._factor(ts))
        return float(np.max(np.abs(direct - self.value_smooth(ts))))
