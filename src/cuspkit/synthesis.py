"""Construction of curve germs from prescribed normalized curvature.

Three inverse problems are solved, one per singularity type:

* Euclidean cusp: given f with f(0) != 0, build a 3/2-cusp whose
  half-arclength parameter is tau and whose profile sqrt(|s_g|)*kappa_g
  equals f.  Two independent routes are provided: direct quadrature of

      gamma(tau) = 2 * integral_0^tau u (cos theta(u), sin theta(u)) du,
      theta(tau) = 2 * integral_0^tau f(u) du,

  and integration of the moving-frame system for (gamma, u1, u2).

* Affine cusp: given the tau^2-coefficient function h (the profile is
  4/25 + tau^2 h(tau)), integrate the linear system for (gamma, xi, eta)
  with xi = gamma'', eta = gamma''', whose coefficients are rational in
  tau and h.  The result has tau as its 3/5-arclength parameter, with
  [gamma', gamma''] = 125 tau^2 / 27.

* Generic inflection: given f with f(0) = -5/16 satisfying the universal
  second-order constraint 32 f'(0)^2 + 9 f''(0) = 0, integrate the linear
  system for (gamma, xi, eta) with xi = gamma', eta = gamma'''.  Inputs
  violating the constraint but with f'(0) != 0 are first composed with the
  quadratic reparametrization tau = t + c t^2 that restores it.  The result
  has tau as its 3/4-arclength parameter ([gamma', gamma''] = 64 tau / 27,
  [gamma', gamma'''] = 64/27).

All integrations use classical fixed-step RK4 (default step 1e-3) with a
half-step comparison as a built-in error estimate.  The three frame
systems are linear, Y' = A(tau) Y, and act alike on the x and y columns,
so each kind supplies only its 3x3 coefficient matrix A and its arclength
integrand.  The linear frame system is advanced by batched RK4 step
matrices chained with a log-depth prefix product; the arclength is the RK4
quadrature of the integrand over the stage states.  Derivatives of the
synthesized curve are reconstructed from the right-hand sides and the
frame relations, never by differencing positions; the germ at tau = 0 is
obtained by Picard iteration of the same system in jet arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import affine as _affine
from . import euclidean as _euclid
from .dsl import BinOp, Func, Neg, Num, Power, Sym, evaluate
from .jets import Jet, PlaneJet, VecJet, deflate
from .profiles import SWITCH_RADIUS

_KINDS = {k.name: k for k in (_euclid.EUCLID_CUSP, _affine.AFFINE_CUSP, _affine.INFLECTION)}

_EXPR_NODES = (Num, Sym, Neg, BinOp, Func, Power)

DEFAULT_STEP = 1e-3
GERM_ORDER = 12

AFFINE_CUSP_ETA0 = 250.0 / 27.0  # [gamma'', gamma'''](0) of the normalized cusp system
INFLECTION_ETA0 = 64.0 / 27.0  # [gamma', gamma'''](0) of the inflection system


# -- profile functions ---------------------------------------------------------


class ProfileFunction:
    """A smooth scalar function of tau, evaluable on floats, arrays and jets.

    Wraps either a DSL expression in the variable t or any callable built
    from arithmetic operators and the polymorphic functions in
    :mod:`cuspkit.jets` (so that jet evaluation works unchanged).
    """

    def __init__(self, fn: Union[Callable, float, int], label: str = ""):
        if isinstance(fn, (int, float)):
            value = float(fn)
            self._fn = lambda tau: value
            self.label = label or repr(value)
        elif isinstance(fn, _EXPR_NODES):
            self._fn = lambda tau: evaluate(fn, tau, {})
            self.label = label or "expression"
        elif callable(fn):
            self._fn = fn
            self.label = label or getattr(fn, "__name__", "profile")
        else:
            raise TypeError(f"cannot interpret {fn!r} as a profile function")

    def __call__(self, tau):
        out = self._fn(tau)
        if isinstance(out, (int, float)) and isinstance(tau, np.ndarray):
            return np.full(tau.shape, float(out))
        return out

    def jet(self, base: float, order: int) -> Jet:
        out = self._fn(Jet.variable(float(base), order))
        if isinstance(out, (int, float)):
            return Jet.constant(float(out), order, float(base))
        if not isinstance(out, Jet):
            raise TypeError(
                "profile function is not jet-evaluable; build it from DSL "
                "expressions or the polymorphic operators in cuspkit.jets"
            )
        return out

    def value_and_slope(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        out = self._fn(VecJet.variable(taus, 1))
        if isinstance(out, (int, float)):
            return np.full(taus.shape, float(out)), np.zeros(taus.shape)
        return out.coeffs[0].copy(), out.coeffs[1].copy()


class ReparametrizedProfile:
    """f composed with the parameter change t = tau / (1 + c tau).

    The forward map tau(t) = t / (1 - c t) = t + c t^2 + ... carries
    d(tau)/dt = 1 and d^2(tau)/dt^2 = 2c at the origin, which is all the
    second-order germ constraint sees; unlike the inverse of the plain
    quadratic t + c t^2 it stays defined on |tau| < 1/|c|.
    """

    def __init__(self, base: ProfileFunction, c: float):
        self.base = base
        self.c = float(c)
        self.label = f"{base.label} after tau = t + {c:g} t^2 + O(t^3)"

    def _t_of_tau(self, tau):
        if self.c == 0.0:
            return tau
        denom = 1.0 + self.c * tau
        if np.any(np.asarray(denom) <= 0.0):
            raise ValueError(
                f"reparametrized profile is defined only for tau > {-1.0 / self.c:g}"
            )
        return tau / denom

    def __call__(self, tau):
        return self.base(self._t_of_tau(tau))

    def jet(self, base_tau: float, order: int) -> Jet:
        t0 = float(self._t_of_tau(base_tau))
        tau_jet = Jet.variable(float(base_tau), order)
        inner = tau_jet / (1.0 + self.c * tau_jet)
        return self.base.jet(t0, order).compose(inner)

    def value_and_slope(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        t = self._t_of_tau(taus)
        v, s = self.base.value_and_slope(t)
        return v, s / (1.0 + self.c * taus) ** 2


def as_profile(fn, label: str = "") -> ProfileFunction:
    if isinstance(fn, (ProfileFunction, ReparametrizedProfile)):
        return fn
    return ProfileFunction(fn, label)


# -- fixed-step RK4 over a precomputed half-step grid ---------------------------


def _rk4(
    A: np.ndarray, frame0: np.ndarray, h: float, n_steps: int, speed
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for the linear frame system Y' = A(tau) Y, plus arclength.

    ``A`` holds the coefficient matrix on the half-step grid, shape
    (2 n_steps + 1, 3, 3); the state Y (rows gamma, xi, eta; columns x, y)
    starts at ``frame0``, shape (3, 2).  Because the system is linear, each
    step is a 3x3 matrix P_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) with stage
    matrices K1 = A_k, K2 = A_{k+1/2} (I + h/2 K1), K3 = A_{k+1/2} (I + h/2 K2)
    and K4 = A_{k+1} (I + h K3).  All steps are built in one batched pass and
    chained by a log-depth inclusive prefix product, so Y_{k+1} = P_k ... P_0 Y_0.

    The arclength is the RK4 quadrature of ``speed(AZ, Z)`` over the four
    stage states Z = S_i Y_k (S = I, I + h/2 K1, I + h/2 K2, I + h K3), where
    AZ = K_i Y_k is the state's derivative there.

    Returns the frames at every full step, shape (n_steps + 1, 3, 2), and
    the arclength there, shape (n_steps + 1,).
    """
    eye = np.eye(3)
    k1, a_mid, a_end = A[0:-1:2], A[1::2], A[2::2]
    s2 = eye + (0.5 * h) * k1
    k2 = a_mid @ s2
    s3 = eye + (0.5 * h) * k2
    k3 = a_mid @ s3
    s4 = eye + h * k3
    k4 = a_end @ s4
    chain = eye + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    # After the pass with stride d, chain[k] = P_k ... P_{max(0, k - 2d + 1)}.
    d = 1
    while d < n_steps:
        chain[d:] = chain[d:] @ chain[:-d]
        d *= 2
    frames = np.empty((n_steps + 1, 3, 2))
    frames[0] = frame0
    frames[1:] = chain @ frame0

    y = frames[:-1]
    stages = np.stack([y, s2 @ y, s3 @ y, s4 @ y])
    slopes = np.stack([k1, k2, k3, k4]) @ y
    sigma = speed(slopes, stages)
    ds = (h / 6.0) * (sigma[0] + 2.0 * sigma[1] + 2.0 * sigma[2] + sigma[3])
    return frames, np.concatenate([[0.0], np.cumsum(ds)])


def _half_grid(tau_max: float, step: float) -> tuple[np.ndarray, float, int]:
    n = max(1, math.ceil(abs(tau_max) / step))
    h = tau_max / n
    return np.linspace(0.0, tau_max, 2 * n + 1), h, n


def _check_range(tau_max: float, step: float) -> None:
    """Reject a synthesis range unless tau_max and step are finite and > 0."""
    for name, value in (("tau_max", tau_max), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"synthesis needs a finite {name} > 0, got {name}={value!r}")


def _picard_germ(rhs_jets, y0: list[float], order: int) -> list[Jet]:
    """Power-series solution of y' = F(tau, y) at tau = 0 by Picard iteration.

    ``rhs_jets(tau_jet, state_jets)`` must evaluate the right-hand side in
    jet arithmetic.  Each sweep gains one order, so order + 2 sweeps settle
    all retained coefficients.
    """
    tau = Jet.variable(0.0, order)
    state = [Jet.constant(v, order) for v in y0]
    for _ in range(order + 2):
        rhs = rhs_jets(tau, state)
        state = [r.truncated(order - 1).antiderivative(v) for r, v in zip(rhs, y0)]
    return state


# -- results -------------------------------------------------------------------


@dataclass
class SynthesisResult:
    """A synthesized curve germ with its sampled trace and recomputation data.

    ``samples`` holds (tau, x, y) rows on the integration grid.  ``stacks``
    holds gamma and its first four derivative vectors at each grid point,
    reconstructed from the system's right-hand sides; ``arclength`` is the
    recomputed s (Euclidean or affine) with the near-origin part taken from
    the germ jets.  ``step_error`` is the half-step Richardson estimate of
    the endpoint position error.
    """

    kind: str  # 'euclid-cusp' | 'affine-cusp' | 'inflection'
    taus: np.ndarray
    positions: np.ndarray  # shape (n, 2)
    germ: PlaneJet
    input_profile: object
    step: float
    stacks: np.ndarray | None = None  # shape (5, 2, n)
    arclength: np.ndarray | None = None
    step_error: float = math.nan
    method: str = "frame"

    @property
    def samples(self) -> np.ndarray:
        return np.column_stack([self.taus, self.positions])

    def tau_normalized(self) -> np.ndarray:
        """The adapted parameter recomputed from the synthesized data."""
        return np.sign(self.taus) * np.abs(self.arclength) ** _KINDS[self.kind].p

    def profile_recomputed(self) -> np.ndarray:
        """The normalized curvature profile recomputed from the synthesis.

        Direct formulas (with the recomputed arclength) away from the
        origin, germ jets inside the switch radius.
        """
        kind = _KINDS[self.kind]
        ts = self.taus
        out = np.empty(len(ts))
        near = np.abs(ts) < SWITCH_RADIUS
        with np.errstate(divide="ignore", invalid="ignore"):
            out[~near] = kind.direct(self.stacks, self.arclength)[~near]
        out[near] = kind.jets(self.germ).f_t(ts[near])
        return out


# -- shared assembly helpers ----------------------------------------------------


def _integrate_sides(make_system, frame0, tau_max, step, richardson=True):
    """Integrate one system over both signed ranges; return merged arrays.

    ``make_system(taus_half)`` returns the coefficient matrices A on the
    given half-step grid and the arclength integrand (see :func:`_rk4`).
    Returns the grid, the frames (n, 3, 2), the raw arclength and the
    Richardson estimate, which compares endpoint positions against a
    half-step rerun.
    """

    def run(sign, h_scale):
        taus, h, n = _half_grid(sign * tau_max, step * h_scale)
        A, speed = make_system(taus)
        return taus[::2], *_rk4(A, frame0, h, n, speed)

    taus_p, frames_p, s_p = run(+1.0, 1.0)
    taus_m, frames_m, s_m = run(-1.0, 1.0)
    taus = np.concatenate([taus_m[::-1], taus_p[1:]])
    frames = np.concatenate([frames_m[::-1], frames_p[1:]])
    s_raw = np.concatenate([s_m[::-1], s_p[1:]])
    err = math.nan
    if richardson:
        _, fine_p, _ = run(+1.0, 0.5)
        _, fine_m, _ = run(-1.0, 0.5)
        err = max(
            float(np.max(np.abs(frames_p[-1, 0] - fine_p[-1, 0]))),
            float(np.max(np.abs(frames_m[-1, 0] - fine_m[-1, 0]))),
        )
    return taus, frames, s_raw, err


def _cross_last(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """[a, b] over the trailing (x, y) axis."""
    return a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]


def _corrected_arclength(taus: np.ndarray, s_raw: np.ndarray, tau_t_jet: Jet, p: float) -> np.ndarray:
    """Replace the near-origin part of the integrated arclength by germ data.

    The arclength integrand has a fractional-power kink at 0, which costs
    the integrator accuracy on the first few steps; the germ jets give the
    exact value at the switch boundary.  ``tau_t_jet`` is the jet of the
    adapted parameter, and |s| = |tau|^(1/p).
    """
    out = s_raw.copy()
    for sign in (1.0, -1.0):
        side = np.sign(taus) == sign
        if not np.any(side):
            continue
        boundary_candidates = np.abs(taus[side]) >= SWITCH_RADIUS
        if not np.any(boundary_candidates):
            # Whole side inside the germ region: use the jet everywhere.
            tau_n = tau_t_jet(taus[side])
            out[side] = np.sign(tau_n) * np.abs(tau_n) ** (1.0 / p)
            continue
        idx = np.where(side)[0]
        abs_side = np.abs(taus[idx])
        b = idx[np.argmin(np.where(abs_side >= SWITCH_RADIUS, abs_side, np.inf))]
        tau_b = tau_t_jet(taus[b])
        s_b = np.sign(tau_b) * abs(tau_b) ** (1.0 / p)
        inner = side & (np.abs(taus) <= np.abs(taus[b]))
        outer = side & ~inner
        tau_n = tau_t_jet(taus[inner])
        out[inner] = np.sign(tau_n) * np.abs(tau_n) ** (1.0 / p)
        out[outer] = s_b + (s_raw[outer] - s_raw[b])
    return out


# -- Euclidean cusp synthesis ----------------------------------------------------


def _euclid_frame_rhs_factory(profile, taus_half):
    """A for (gamma, u1, u2): gamma' = q (u1 + m u2), u1' = omega u2, u2' = -omega u1."""
    f, fd = profile.value_and_slope(taus_half)
    denom = 1.0 + 4.0 * taus_half**2 * f**2
    q = 2.0 * taus_half / np.sqrt(denom)
    m = -2.0 * taus_half * f
    omega = 2.0 * (2.0 * f + 4.0 * taus_half**2 * f**3 + taus_half * fd) / denom
    A = np.zeros((len(taus_half), 3, 3))
    A[:, 0, 1] = q
    A[:, 0, 2] = q * m
    A[:, 1, 2] = omega
    A[:, 2, 1] = -omega
    return A, lambda dz, z: np.hypot(dz[..., 0, 0], dz[..., 0, 1])


def _euclid_frame_germ(profile, order: int) -> tuple[PlaneJet, Jet]:
    f_jet = profile.jet(0.0, order)

    def rhs_jets(tau, state):
        u1x, u1y, u2x, u2y = state[2], state[3], state[4], state[5]
        f = f_jet
        denom = 1.0 + 4.0 * tau * tau * f * f
        q = 2.0 * tau / denom.sqrt()
        m = -2.0 * tau * f
        omega = 2.0 * (2.0 * f + 4.0 * tau * tau * f * f * f + tau * f.derivative()) / denom
        velx = q * (u1x + m * u2x)
        vely = q * (u1y + m * u2y)
        return [velx, vely, omega * u2x, omega * u2y, -omega * u1x, -omega * u1y]

    state = _picard_germ(rhs_jets, [0.0, 0.0, 1.0, 0.0, 0.0, 1.0], order)
    return PlaneJet(state[0], state[1]), f_jet


def synthesize_euclidean_cusp(
    f,
    tau_max: float,
    method: str = "frame",
    step: float = DEFAULT_STEP,
    richardson: bool = True,
) -> SynthesisResult:
    """Build a 3/2-cusp whose normalized Euclidean profile is f.

    ``f`` must have f(0) != 0 (curves with f(0) = 0 are not cusps).  The
    returned parameter is the half-arclength parameter: |gamma'| = 2|tau|.
    """
    _check_range(tau_max, step)
    profile = as_profile(f)
    f0 = float(profile(0.0))
    if f0 == 0.0:
        raise ValueError("Euclidean cusp synthesis needs f(0) != 0")
    if method not in ("frame", "quadrature"):
        raise ValueError(f"unknown method {method!r}; use 'frame' or 'quadrature'")

    germ, _ = _euclid_frame_germ(profile, GERM_ORDER)
    if not _euclid.classify(germ).is_cusp:
        raise ValueError("synthesized germ failed to classify as a cusp")

    if method == "frame":
        taus, frames, s_raw, err = _integrate_sides(
            lambda th: _euclid_frame_rhs_factory(profile, th),
            np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]),
            tau_max,
            step,
            richardson,
        )
        positions = frames[:, 0]
        # gamma' from the frame relation, gamma'' = 2 sqrt(1 + 4 tau^2 f^2) u1.
        fvals, fd = profile.value_and_slope(taus)
        denom = 1.0 + 4.0 * taus**2 * fvals**2
        q = 2.0 * taus / np.sqrt(denom)
        u1 = frames[:, 1].T
        u2 = frames[:, 2].T
        d1 = q * (u1 - 2.0 * taus * fvals * u2)
        d2 = 2.0 * np.sqrt(denom) * u1
        stacks = np.zeros((5, 2, len(taus)))
        stacks[0] = positions.T
        stacks[1] = d1
        stacks[2] = d2
    else:
        taus, positions, s_raw, d1, d2, err = _euclid_quadrature(profile, tau_max, step, richardson)
        stacks = np.zeros((5, 2, len(taus)))
        stacks[0] = positions.T
        stacks[1] = d1
        stacks[2] = d2

    kind = _euclid.EUCLID_CUSP
    s = _corrected_arclength(taus, s_raw, kind.jets(germ).tau_t, kind.p)
    return SynthesisResult(
        kind=kind.name,
        taus=taus,
        positions=positions,
        germ=germ,
        input_profile=profile,
        step=step,
        stacks=stacks,
        arclength=s,
        step_error=err,
        method=method,
    )


def _euclid_quadrature(profile, tau_max, step, richardson):
    """Direct quadrature route: nested Gauss panels per step for theta and gamma."""
    x8, w8 = np.polynomial.legendre.leggauss(8)
    x8 = 0.5 * (x8 + 1.0)
    w8 = 0.5 * w8

    def run(sign, h_scale):
        n = max(1, math.ceil(abs(tau_max) / (step * h_scale)))
        h = sign * tau_max / n
        starts = h * np.arange(n)
        # main nodes per step: a + h x_i ; inner nodes: a + h x_i x_j
        main = starts[:, None] + h * x8[None, :]
        inner = starts[:, None, None] + h * (x8[:, None] * x8[None, :])[None, :, :]
        fm = np.asarray(profile(main.ravel()), dtype=float).reshape(main.shape)
        fi = np.asarray(profile(inner.ravel()), dtype=float).reshape(inner.shape)
        # theta at step starts (cumulative) and at main nodes
        dtheta = 2.0 * h * (fm @ w8)
        theta_start = np.concatenate([[0.0], np.cumsum(dtheta)])
        theta_main = theta_start[:-1, None] + 2.0 * h * x8[None, :] * (fi @ w8)
        # gamma increment per step and speed samples
        cx = np.cos(theta_main)
        sx = np.sin(theta_main)
        gx = h * ((2.0 * main * cx) @ w8)
        gy = h * ((2.0 * main * sx) @ w8)
        pos = np.zeros((n + 1, 2))
        pos[1:, 0] = np.cumsum(gx)
        pos[1:, 1] = np.cumsum(gy)
        ds = h * ((2.0 * np.abs(main)) @ w8)
        s = np.concatenate([[0.0], np.cumsum(ds)])
        taus = np.concatenate([[0.0], starts + h])
        # derivatives at step points from theta there
        theta_pts = theta_start
        f_pts = np.asarray(profile(taus), dtype=float)
        d1 = 2.0 * taus * np.array([np.cos(theta_pts), np.sin(theta_pts)])
        d2 = 2.0 * np.array([np.cos(theta_pts), np.sin(theta_pts)]) + 2.0 * taus * 2.0 * f_pts * np.array(
            [-np.sin(theta_pts), np.cos(theta_pts)]
        )
        return taus, pos, s, d1, d2

    tp, pp, sp, d1p, d2p = run(+1.0, 1.0)
    tm, pm, sm, d1m, d2m = run(-1.0, 1.0)
    taus = np.concatenate([tm[::-1], tp[1:]])
    positions = np.vstack([pm[::-1], pp[1:]])
    s_raw = np.concatenate([sm[::-1], sp[1:]])
    d1 = np.concatenate([d1m[:, ::-1], d1p[:, 1:]], axis=1)
    d2 = np.concatenate([d2m[:, ::-1], d2p[:, 1:]], axis=1)
    err = math.nan
    if richardson:
        _, pp2, *_ = run(+1.0, 0.5)
        _, pm2, *_ = run(-1.0, 0.5)
        err = max(
            float(np.max(np.abs(pp[-1] - pp2[-1]))),
            float(np.max(np.abs(pm[-1] - pm2[-1]))),
        )
    return taus, positions, s_raw, d1, d2, err


# -- affine cusp synthesis --------------------------------------------------------


def _affine_cusp_coeffs(h_vals, hd_vals, taus):
    D = 18.0 + 25.0 * taus**2 * h_vals
    if np.any(D == 0.0):
        raise ValueError("affine cusp synthesis: coefficient denominator 18 + 25 tau^2 h vanishes")
    a1 = 18.0 * taus / D
    a2 = -9.0 * taus**2 / D
    b1 = -25.0 * (18.0 * taus * hd_vals + 25.0 * taus**2 * h_vals**2 + 54.0 * h_vals) / (9.0 * D)
    b2 = 25.0 * taus * (taus * hd_vals + 2.0 * h_vals) / D
    return a1, a2, b1, b2


def _affine_cusp_rhs_factory(profile, taus_half):
    """A for (gamma, xi, eta): gamma' = a1 xi + a2 eta, xi' = eta, eta' = b1 xi + b2 eta."""
    hv, hd = profile.value_and_slope(taus_half)
    a1, a2, b1, b2 = _affine_cusp_coeffs(hv, hd, taus_half)
    A = np.zeros((len(taus_half), 3, 3))
    A[:, 0, 1] = a1
    A[:, 0, 2] = a2
    A[:, 1, 2] = 1.0
    A[:, 2, 1] = b1
    A[:, 2, 2] = b2
    return A, lambda dz, z: np.abs(_cross_last(dz[..., 0, :], z[..., 1, :])) ** (1.0 / 3.0)


def _affine_cusp_germ(profile, order: int) -> PlaneJet:
    h_jet = profile.jet(0.0, order)

    def rhs_jets(tau, state):
        xix, xiy, etax, etay = state[2], state[3], state[4], state[5]
        hd = h_jet.derivative()
        D = 18.0 + 25.0 * tau * tau * h_jet
        a1 = 18.0 * tau / D
        a2 = -9.0 * tau * tau / D
        b1 = (
            -25.0
            * (18.0 * tau * hd + 25.0 * tau * tau * h_jet * h_jet + 54.0 * h_jet)
            / (9.0 * D)
        )
        b2 = 25.0 * tau * (tau * hd + 2.0 * h_jet) / D
        return [
            a1 * xix + a2 * etax,
            a1 * xiy + a2 * etay,
            etax,
            etay,
            b1 * xix + b2 * etax,
            b1 * xiy + b2 * etay,
        ]

    state = _picard_germ(rhs_jets, [0.0, 0.0, 1.0, 0.0, 0.0, AFFINE_CUSP_ETA0], order)
    return PlaneJet(state[0], state[1])


def synthesize_affine_cusp(
    h, tau_max: float, step: float = DEFAULT_STEP, richardson: bool = True
) -> SynthesisResult:
    """Build a 3/2-cusp whose normalized affine profile is 4/25 + tau^2 h(tau).

    tau is the 3/5-arclength parameter of the result.
    """
    _check_range(tau_max, step)
    profile = as_profile(h)
    germ = _affine_cusp_germ(profile, GERM_ORDER)
    if not _euclid.classify(germ).is_cusp:
        raise ValueError("synthesized germ failed to classify as a cusp")

    frame0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, AFFINE_CUSP_ETA0]])
    taus, frames, s_raw, err = _integrate_sides(
        lambda th: _affine_cusp_rhs_factory(profile, th), frame0, tau_max, step, richardson
    )

    hv, hd = profile.value_and_slope(taus)
    a1, a2, b1, b2 = _affine_cusp_coeffs(hv, hd, taus)
    xi = frames[:, 1].T
    eta = frames[:, 2].T
    stacks = np.zeros((5, 2, len(taus)))
    stacks[0] = frames[:, 0].T
    stacks[1] = a1 * xi + a2 * eta
    stacks[2] = xi
    stacks[3] = eta
    stacks[4] = b1 * xi + b2 * eta

    kind = _affine.AFFINE_CUSP
    s = _corrected_arclength(taus, s_raw, kind.jets(germ).tau_t, kind.p)
    return SynthesisResult(
        kind=kind.name,
        taus=taus,
        positions=frames[:, 0],
        germ=germ,
        input_profile=profile,
        step=step,
        stacks=stacks,
        arclength=s,
        step_error=err,
    )


# -- generic inflection synthesis ---------------------------------------------------


def _inflection_gh_jets(profile, order: int) -> tuple[Jet, Jet, Jet]:
    f_jet = profile.jet(0.0, order)
    if abs(f_jet.value() - _affine.INFLECTION_PROFILE_VALUE) > 1e-9:
        raise ValueError(
            f"inflection synthesis needs f(0) = -5/16, got f(0) = {f_jet.value()}"
        )
    g_jet = deflate(f_jet - _affine.INFLECTION_PROFILE_VALUE, 1, tol=1e-9)
    constraint = 9.0 * float(g_jet.derivative().value()) + 16.0 * float(g_jet.value()) ** 2
    scale = max(1.0, abs(float(g_jet.value())) ** 2)
    if abs(constraint) > 1e-8 * scale:
        raise ValueError(
            "profile violates the inflection germ constraint "
            f"32 f'(0)^2 + 9 f''(0) = 0 (residual {2*constraint:.3e})"
        )
    h_jet = deflate(9.0 * g_jet.derivative() + 16.0 * g_jet * g_jet, 1, tol=max(1e-9, 1e-7 * scale))
    return f_jet, g_jet, h_jet


def restore_inflection_constraint(profile) -> tuple[object, float]:
    """Reparametrize f so the universal inflection constraint holds at 0.

    Returns (possibly wrapped profile, c).  Inputs already satisfying
    32 f'(0)^2 + 9 f''(0) = 0 are returned unchanged with c = 0; otherwise
    f'(0) must be nonzero and tau = t + c t^2 with
    c = (32 f'(0)^2 + 9 f''(0)) / (18 f'(0)) restores the constraint.
    """
    profile = as_profile(profile)
    f_jet = profile.jet(0.0, 4)
    if abs(f_jet.value() - _affine.INFLECTION_PROFILE_VALUE) > 1e-9:
        raise ValueError(
            f"inflection synthesis needs f(0) = -5/16, got f(0) = {f_jet.value()}"
        )
    fd = float(f_jet.coeffs[1])
    fdd = 2.0 * float(f_jet.coeffs[2])
    residual = 32.0 * fd**2 + 9.0 * fdd
    scale = max(1.0, fd**2, abs(fdd))
    if abs(residual) <= 1e-9 * scale:
        return profile, 0.0
    if abs(fd) <= 1e-9:
        raise ValueError(
            "profile is outside the admissible class: f'(0) = 0 but f''(0) != 0 "
            "cannot be repaired by reparametrization"
        )
    c = residual / (18.0 * fd)
    return ReparametrizedProfile(profile, c), c


def _inflection_coeff_arrays(profile, f_jet, g_jet, h_jet, taus):
    f_v, fd_v = profile.value_and_slope(taus)
    g = np.empty_like(taus)
    hh = np.empty_like(taus)
    near = np.abs(taus) < SWITCH_RADIUS
    far = ~near
    if np.any(near):
        g[near] = g_jet(taus[near])
        hh[near] = h_jet(taus[near])
    if np.any(far):
        tf = taus[far]
        gf = (f_v[far] - _affine.INFLECTION_PROFILE_VALUE) / tf
        gd = (fd_v[far] - gf) / tf
        g[far] = gf
        hh[far] = (9.0 * gd + 16.0 * gf**2) / tf
    return 16.0 * g / 9.0, taus.copy(), -16.0 * hh / 81.0, -16.0 * g / 9.0


def _inflection_rhs_factory(profile, jets, taus_half):
    """A for (gamma, xi, eta): gamma' = xi, xi' = a11 xi + a12 eta, eta' = a21 xi + a22 eta."""
    a11, a12, a21, a22 = _inflection_coeff_arrays(profile, *jets, taus_half)
    A = np.zeros((len(taus_half), 3, 3))
    A[:, 0, 1] = 1.0
    A[:, 1, 1] = a11
    A[:, 1, 2] = a12
    A[:, 2, 1] = a21
    A[:, 2, 2] = a22
    return A, lambda dz, z: np.abs(_cross_last(z[..., 1, :], dz[..., 1, :])) ** (1.0 / 3.0)


def _inflection_germ(g_jet: Jet, h_jet: Jet, order: int) -> PlaneJet:
    def rhs_jets(tau, state):
        xix, xiy, etax, etay = state[2], state[3], state[4], state[5]
        a11 = 16.0 * g_jet / 9.0
        a21 = -16.0 * h_jet / 81.0
        return [
            xix,
            xiy,
            a11 * xix + tau * etax,
            a11 * xiy + tau * etay,
            a21 * xix - a11 * etax,
            a21 * xiy - a11 * etay,
        ]

    state = _picard_germ(rhs_jets, [0.0, 0.0, 1.0, 0.0, 0.0, INFLECTION_ETA0], order)
    return PlaneJet(state[0], state[1])


def synthesize_inflection(
    f, tau_max: float, step: float = DEFAULT_STEP, richardson: bool = True
) -> SynthesisResult:
    """Build a generic inflection whose normalized affine profile is f.

    Requires f(0) = -5/16.  If f violates the universal constraint
    32 f'(0)^2 + 9 f''(0) = 0 it is first reparametrized by tau = t + c t^2
    (which needs f'(0) != 0); the profile actually realized is then the
    reparametrized one, available as ``result.input_profile``.  tau is the
    3/4-arclength parameter of the result.
    """
    _check_range(tau_max, step)
    profile, _ = restore_inflection_constraint(f)
    f_jet, g_jet, h_jet = _inflection_gh_jets(profile, GERM_ORDER)
    germ = _inflection_germ(g_jet, h_jet, GERM_ORDER)
    if not _euclid.classify(germ).is_inflection:
        raise ValueError("synthesized germ failed to classify as a generic inflection")

    frame0 = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, INFLECTION_ETA0]])
    jets3 = (f_jet, g_jet, h_jet)
    taus, frames, s_raw, err = _integrate_sides(
        lambda th: _inflection_rhs_factory(profile, jets3, th),
        frame0,
        tau_max,
        step,
        richardson,
    )

    a11, a12, a21, a22 = _inflection_coeff_arrays(profile, f_jet, g_jet, h_jet, taus)
    xi = frames[:, 1].T
    eta = frames[:, 2].T
    stacks = np.zeros((5, 2, len(taus)))
    stacks[0] = frames[:, 0].T
    stacks[1] = xi
    stacks[2] = a11 * xi + a12 * eta
    stacks[3] = eta
    stacks[4] = a21 * xi + a22 * eta

    kind = _affine.INFLECTION
    s = _corrected_arclength(taus, s_raw, kind.jets(germ).tau_t, kind.p)
    return SynthesisResult(
        kind=kind.name,
        taus=taus,
        positions=frames[:, 0],
        germ=germ,
        input_profile=profile,
        step=step,
        stacks=stacks,
        arclength=s,
        step_error=err,
    )


# -- round trips ------------------------------------------------------------------


def synthesize(kind: str, fn, tau_max: float, step: float = DEFAULT_STEP, **kw) -> SynthesisResult:
    if kind == "euclid-cusp":
        return synthesize_euclidean_cusp(fn, tau_max, step=step, **kw)
    if kind == "affine-cusp":
        return synthesize_affine_cusp(fn, tau_max, step=step, **kw)
    if kind == "inflection":
        return synthesize_inflection(fn, tau_max, step=step, **kw)
    raise ValueError(
        f"unknown synthesis kind {kind!r}; use 'euclid-cusp', 'affine-cusp', or 'inflection'"
    )


def roundtrip(fn, kind: str, tau_max: float, step: float = DEFAULT_STEP) -> float:
    """Synthesize, recompute the profile from the result, compare.

    For the affine cusp the prescribed function is h (the profile being
    4/25 + tau^2 h); for the other kinds it is the profile itself.  Returns
    the sup-norm deviation between the recomputed profile and the prescribed
    one evaluated at the recomputed adapted parameter.
    """
    result = synthesize(kind, fn, tau_max, step=step, richardson=False)
    tau_n = result.tau_normalized()
    recomputed = result.profile_recomputed()
    profile = result.input_profile
    if kind == "affine-cusp":
        target = _affine.CUSP_PROFILE_VALUE + tau_n**2 * np.asarray(profile(tau_n))
    else:
        target = np.asarray(profile(tau_n))
    return float(np.max(np.abs(recomputed - target)))
