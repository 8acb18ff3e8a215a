"""Shared profile types and the parameter-inversion helpers.

A normalized curvature profile is a sampled graph of f(tau), where tau is
the smooth coordinate adapted to the singularity (half-arclength at
Euclidean cusps, the 3/5- or 3/4-power of affine arclength at affine cusps
and generic inflections).  Grids are given in tau; evaluation happens in the
original curve parameter t, so each profile evaluation inverts the smooth
monotone map tau(t) first.

For all three kinds the map is tau = t L(t)^p.  L is the smooth weighted
mean of the arclength integrand (s = sgn(t) |t|^(1/p) L(t)) and p is 1/2 at
Euclidean cusps, 3/5 at affine cusps and 3/4 at inflections.
``invert_adapted`` samples L once per grid on a Chebyshev interpolant over
the t-range from 0 to the grid's extreme targets: from its jet inside
``SWITCH_RADIUS``, by quadrature outside.  The degree doubles from 16 until
the upper half of the coefficients falls below ``CHOP_TOL`` times the
largest one (after Aurentz & Trefethen, "Chopping a Chebyshev series").
The bound is not set at rounding level because quadrature samples near
t = 0 carry up to about 1e-11 relative cancellation noise from the curve's
derivatives.  A factor that stays unresolved at degree 512 has lost
analyticity between the singular point and the grid, as at the next
singular point of the curve, and raises ``ValueError``.  Newton's method
then runs on the cheap map t L^p, whose slope is L^p + p t L^(p-1) L', and
the direct route reads s from the same interpolant.  Only a grid of zeros
uses the exact quadrature map.

Newton's method itself (``invert_monotone``) calls one fused
``value_and_slope`` evaluation per step.  On grids of more than
``SEED_NODES`` points it first solves the Chebyshev points of the grid's
tau range; the interpolant t(tau) through them only supplies the starting
point of the final iteration on the whole grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Evaluation switches from direct quadrature formulas to deflated-jet
# formulas inside this radius (in the original parameter t); the two routes
# are required to agree on the overlap band around it.
SWITCH_RADIUS = 0.05
OVERLAP_BAND = (0.04, 0.06)

# Chebyshev points solved to seed the inversion of larger grids.
SEED_NODES = 64


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
    value_and_slope, targets, slope0: float, t_scale: float = 1.0, bounds=(-np.inf, np.inf)
):
    """Solve tau(t) = target for each target of a smooth increasing map.

    ``value_and_slope(t)`` returns (tau(t), dtau/dt(t)) for an array t, so a
    Newton step costs one evaluation.  ``slope0`` is the (positive)
    derivative at t = 0, used as the starting guess t = target / slope0 and
    as a floor for the Newton slope near the origin.  Iterates are clipped
    to ``bounds``, the range on which the map is defined.

    When there are more than ``SEED_NODES`` targets, not all equal, the
    ``SEED_NODES`` Chebyshev points of [min target, max target] are solved
    first, and their Chebyshev interpolant t(tau) gives the starting t of
    every target.  Either way the result is the Newton iterate on the given
    map that meets |tau(t) - target| < 1e-13 * max(1, max |target|).
    ``invert_adapted`` passes the cheap interpolated map tau = t L(t)^p here.

    Raises ``ValueError`` when the iteration does not converge, as when the
    grid reaches past the next singular point of the curve.
    """
    targets = np.asarray(targets, dtype=float)
    start = targets / slope0
    if targets.size > SEED_NODES:
        lo, hi = float(np.min(targets)), float(np.max(targets))
        if lo < hi:
            seed = np.polynomial.Chebyshev.interpolate(
                lambda taus: _newton(value_and_slope, taus, taus / slope0, slope0, t_scale, bounds),
                SEED_NODES - 1,
                domain=[lo, hi],
            )
            start = seed(targets)
    return _newton(value_and_slope, targets, start, slope0, t_scale, bounds)


def _newton(value_and_slope, targets, start, slope0, t_scale, bounds=(-np.inf, np.inf)):
    zero = targets == 0.0
    tol = 1e-13 * max(1.0, np.max(np.abs(targets)))
    t_next = np.where(zero, 0.0, np.clip(start, *bounds))
    for _ in range(60):
        t = t_next
        tau, slope = value_and_slope(t)
        err = tau - targets
        slope = np.where(np.isfinite(slope) & (slope > 1e-12), slope, slope0)
        step = np.clip(err / slope, -0.5 * t_scale, 0.5 * t_scale)
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


def invert_adapted(
    targets, p: float, exact_value_and_slope, factor_jet, factor_quadrature, slope0: float
):
    """Solve tau(t) = target for tau = t L(t)^p; returns (t, L or None).

    ``exact_value_and_slope`` is the quadrature map with its slope;
    ``factor_jet`` (a jet of L at t = 0) and ``factor_quadrature`` (an array
    function) give L inside and outside ``SWITCH_RADIUS``.  The two extreme
    targets, with 0 among them, are solved on the exact map, L is
    interpolated on that t-range, and ``invert_monotone`` runs on the cheap
    map, clipped to the range.  The interpolant of L is returned with the
    solution so that the caller can evaluate s on the same grid; it is None
    when every target is 0 and the exact map was used.  A non-finite
    target raises ``ValueError``.
    """
    targets = np.asarray(targets, dtype=float)
    bad = ~np.isfinite(targets)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise ValueError(
            f"tau grid values must be finite, got tau = {float(targets.flat[i])!r} at index {i}"
        )
    t_range = _t_range(exact_value_and_slope, targets, slope0)
    if t_range is None:
        return invert_monotone(exact_value_and_slope, targets, slope0), None

    def factor(ts):
        out = np.empty(len(ts))
        near = np.abs(ts) < SWITCH_RADIUS
        out[near] = factor_jet(ts[near])
        out[~near] = factor_quadrature(ts[~near])
        return out

    L = _chebyshev_interpolant(factor, t_range)
    dL = L.deriv()

    def value_and_slope(ts):
        Lt = L(ts)
        Lp = Lt**p
        return ts * Lp, Lp + p * ts * Lp / Lt * dL(ts)

    return invert_monotone(value_and_slope, targets, slope0, bounds=t_range), L


def _t_range(exact_value_and_slope, targets, slope0: float):
    """The t-range from 0 to the grid's extreme targets, or None if it is {0}.

    Starting at 0 puts the whole path of the arclength integral, from the
    singular point to the grid, under the interpolant.  The pad of 1e-6 of
    the width holds the cheap map's solutions for the extreme targets, which
    the interpolant's error (near ``CHOP_TOL``) moves off the exact ones.
    """
    ends = np.array([min(np.min(targets), 0.0), max(np.max(targets), 0.0)])
    if not ends[0] < ends[1]:
        return None
    t_lo, t_hi = _newton(exact_value_and_slope, ends, ends / slope0, slope0, 1.0)
    pad = 1e-6 * (t_hi - t_lo)
    return float(t_lo - pad), float(t_hi + pad)


def _chebyshev_interpolant(f, domain):
    """Chebyshev interpolant of f on ``domain``, its degree chosen adaptively.

    Samples sit at the Chebyshev points of the second kind, so each doubling
    of the degree reuses every earlier sample.  The first degree in
    ``CHEB_DEGREES`` whose upper half of coefficients is at most ``CHOP_TOL``
    times the largest coefficient is kept.
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
            return np.polynomial.Chebyshev(c, domain=[lo, hi])
    raise ValueError(
        "parameter inversion did not converge: the arclength factor L(t) on "
        f"t in [{lo:.10g}, {hi:.10g}] is not resolved by a Chebyshev interpolant "
        f"of degree {n} (tail {tail / scale:.3g} of the largest coefficient, "
        f"tolerance {CHOP_TOL:g}); the grid may reach past the next singular "
        "point of the curve"
    )
