"""Shared profile types and the parameter-inversion helper.

A normalized curvature profile is a sampled graph of f(tau), where tau is
the smooth coordinate adapted to the singularity (half-arclength at
Euclidean cusps, the 3/5- or 3/4-power of affine arclength at affine cusps
and generic inflections).  Grids are given in tau; evaluation happens in the
original curve parameter t, so each profile evaluation inverts the smooth
monotone map tau(t) first.

The inversion is Newton's method on the exact quadrature map.  Each step
calls one fused ``value_and_slope`` evaluation, which returns tau and
dtau/dt from a single quadrature pass.  On grids of more than
``SEED_NODES`` points, the same iteration first solves the Chebyshev points
of the grid's tau range; the interpolant t(tau) through them only supplies
the starting point of the final iteration on the whole grid.
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


def invert_monotone(value_and_slope, targets, slope0: float, t_scale: float = 1.0):
    """Solve tau(t) = target for each target of a smooth increasing map.

    ``value_and_slope(t)`` returns (tau(t), dtau/dt(t)) for an array t, so a
    Newton step costs one evaluation.  ``slope0`` is the (positive)
    derivative at t = 0, used as the starting guess t = target / slope0 and
    as a floor for the Newton slope near the origin.

    When there are more than ``SEED_NODES`` targets, not all equal, the
    ``SEED_NODES`` Chebyshev points of [min target, max target] are solved
    first, and their Chebyshev interpolant t(tau) gives the starting t of
    every target.  Either way the result is the Newton iterate on the full
    map that meets |tau(t) - target| < 1e-13 * max(1, max |target|).

    Raises ``ValueError`` when the iteration does not converge, as when the
    grid reaches past the next singular point of the curve.
    """
    targets = np.asarray(targets, dtype=float)
    start = targets / slope0
    if targets.size > SEED_NODES:
        lo, hi = float(np.min(targets)), float(np.max(targets))
        if lo < hi:
            seed = np.polynomial.Chebyshev.interpolate(
                lambda taus: _newton(value_and_slope, taus, taus / slope0, slope0, t_scale),
                SEED_NODES - 1,
                domain=[lo, hi],
            )
            start = seed(targets)
    return _newton(value_and_slope, targets, start, slope0, t_scale)


def _newton(value_and_slope, targets, start, slope0: float, t_scale: float):
    zero = targets == 0.0
    tol = 1e-13 * max(1.0, np.max(np.abs(targets)))
    t_next = np.where(zero, 0.0, start)
    for _ in range(60):
        t = t_next
        tau, slope = value_and_slope(t)
        err = tau - targets
        slope = np.where(np.isfinite(slope) & (slope > 1e-12), slope, slope0)
        step = np.clip(err / slope, -0.5 * t_scale, 0.5 * t_scale)
        t_next = np.where(zero, 0.0, t - step)
        if np.max(np.abs(err)) < tol:
            return t_next
    worst = int(np.argmax(np.abs(err)))  # a NaN residual counts as the worst
    raise ValueError(
        "parameter inversion did not converge: at target tau = "
        f"{targets[worst]:.10g} the iteration reached t = {t[worst]:.10g} "
        f"with residual {err[worst]:.3g} (tolerance {tol:.3g}); the grid may "
        "reach past the next singular point of the curve"
    )
