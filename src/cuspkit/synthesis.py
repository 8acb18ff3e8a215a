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

One entry, ``synthesize(kind, ...)``, serves all three; each kind's input
rules and routes live in its :class:`FrameSystem` record.

All integrations use classical fixed-step RK4 (default step 1e-3).  The
three frame systems are linear, Y' = A(tau) Y, and act alike on the x and
y columns.  Each kind declares its system once, as a :class:`FrameSystem`
record: the entries of the 3x3 coefficient matrix A, written once as a
function that runs on arrays and on jets, the initial frame, the arclength
integrand and the rows of Y and A Y that hold the derivatives of gamma.
One driver serves every kind.  Column 0 of A is zero in every system
(gamma never feeds back), so A is stored entries-first as its 3x2 block of
columns (xi, eta), and an RK4 step is the affine map Z_{k+1} = Q_k Z_k,
gamma_{k+1} = gamma_k + g_k Z_k of the 2x2 block Z = (xi, eta).  The step
maps are chained by a log-depth prefix scan under one associative combine
(Blelloch, "Prefix sums and their applications", 1990); the arclength is
the RK4 quadrature of the integrand over the stage states.  A result's
``step_error`` is a half-step Richardson rerun, exactly 2n steps of h/2,
made when it is first read by the same side function as the run.
Derivatives of the synthesized curve are read from Y and A Y, never by
differencing positions; the germ at tau = 0 comes from the Taylor
recurrence Y_{k+1} = (A_0 Y_k + ... + A_k Y_0) / (k + 1) on the jet
coefficients of the same A.  The quadrature route gets theta at the Gauss
nodes of each step from one spectral integration matrix (Greengard, SIAM
J. Numer. Anal. 28, 1991).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from . import affine as _affine
from . import euclidean as _euclid
from .dsl import BinOp, Func, Neg, Num, Power, Sym, evaluate
from .jets import Jet, PlaneJet, _gauss_01, cross, deflate, rational_pow
from .profiles import SWITCH_RADIUS, Kind

_EXPR_NODES = (Num, Sym, Neg, BinOp, Func, Power)

DEFAULT_STEP = 1e-3
GERM_ORDER = 12
MAX_STEPS = 10**6  # tau_max / step; 10**5 steps peak at ~0.08 GB, ~0.17 GB on a step_error read

AFFINE_CUSP_ETA0 = 250.0 / 27.0  # [gamma'', gamma'''](0) of the normalized cusp system
INFLECTION_ETA0 = 64.0 / 27.0  # [gamma', gamma'''](0) of the inflection system


# -- profile functions ---------------------------------------------------------


class ProfileFunction:
    """A smooth scalar function of tau, evaluable on floats, arrays and jets.

    Wraps either a DSL expression in the variable t or any callable built
    from arithmetic operators and the polymorphic functions in
    :mod:`cuspkit.jets` (so that jet evaluation works unchanged).  A value
    that is not finite, as where the function overflows or, at a float tau,
    has a pole, raises ``ValueError``.
    """

    def __init__(self, fn: Union[Callable, float, int]):
        if isinstance(fn, (int, float)):
            value = float(fn)
            self._fn = lambda tau: value
        elif isinstance(fn, _EXPR_NODES):
            self._fn = lambda tau: evaluate(fn, tau, {})
        elif callable(fn):
            self._fn = fn
        else:
            raise TypeError(f"cannot interpret {fn!r} as a profile function")

    def __call__(self, tau):
        try:
            with np.errstate(all="ignore"):
                out = self._fn(tau)
        except ZeroDivisionError:
            if not isinstance(tau, (int, float)):
                raise
            out = math.inf
        finite = np.isfinite(out.coeffs).all(axis=0) if isinstance(out, Jet) else np.isfinite(out)
        if not np.all(finite):
            taus = np.ravel(tau.base_point if isinstance(tau, Jet) else tau)
            at = float(taus[np.argmin(np.ravel(finite))])
            raise ValueError(f"the prescribed function is not finite at tau = {at:.6g}")
        if isinstance(out, (int, float)) and isinstance(tau, np.ndarray):
            return np.full(tau.shape, float(out))
        return out

    def jet(self, base, order: int) -> Jet:
        out = self(Jet.variable(base, order))
        if isinstance(out, (int, float)):
            return Jet.constant(float(out), order, base)
        if not isinstance(out, Jet):
            raise TypeError(
                "profile function is not jet-evaluable; build it from DSL "
                "expressions or the polymorphic operators in cuspkit.jets"
            )
        return out

    def value_and_slope(self, taus: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        jet = self.jet(taus, 1)
        return jet.coeffs[0].copy(), jet.coeffs[1].copy()


def _reparametrized(base: ProfileFunction, c: float) -> ProfileFunction:
    """f composed with the parameter change t = tau / (1 + c tau).

    The forward map tau(t) = t / (1 - c t) = t + c t^2 + ... carries
    d(tau)/dt = 1 and d^2(tau)/dt^2 = 2c at the origin, which is all the
    second-order germ constraint sees; unlike the inverse of the plain
    quadratic t + c t^2 it stays defined on |tau| < 1/|c|.  A tau on the
    far side of the pole -1/c, or on it, raises ``ValueError``.
    """

    def fn(tau):
        denom = 1.0 + c * tau
        if np.any(np.asarray(denom.coeffs[0] if isinstance(denom, Jet) else denom) <= 0.0):
            raise ValueError(
                f"the reparametrized profile with c = {c:.6g} is defined only for {_valid_side(c)}"
            )
        return base._fn(tau / denom)

    return ProfileFunction(fn)


def _valid_side(c: float) -> str:
    """Where 1 + c tau > 0, for c != 0."""
    return f"tau {'<' if c < 0.0 else '>'} {-1.0 / c:.6g}"


def as_profile(fn) -> ProfileFunction:
    if isinstance(fn, ProfileFunction):
        return fn
    return ProfileFunction(fn)


# -- the frame system: RK4 by affine step maps, Taylor germ at 0 ------------------


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for a 2x2 ``b``, batched over the last axis of both.

    ``a`` stacks rows of length 2 on its second-to-last axis, shape
    (..., 2, n), and b[j] is row j of b, shape (2, 2, n) or (2, 2, 1).  Row
    r of the result is a[r, 0] b[0] + a[r, 1] b[1], as one ``einsum``
    contraction with no full-size temporaries, where a batched ``@`` would
    pay its overhead once per tiny matrix.  The sum starts from +0.0, so an
    entry whose two products are both -0.0 comes out +0.0.
    """
    return np.einsum("...jn,jcn->...cn", a, b)


def _compose(second: np.ndarray, first: np.ndarray) -> np.ndarray:
    """The step map ``second`` after ``first``: (Q2 Q1, g1 + g2 Q1).

    A step map sends the frame (gamma, Z), Z the 2x2 block of rows
    (xi, eta), to (gamma + g Z, Q Z).  It is stored entries-first as
    [g; Q], shape (3, 2, n): columns 1 and 2 of the 3x3 step matrix, whose
    column 0 is (1, 0, 0).
    """
    out = _matmul(second, first[1:])
    out[0] += first[0]
    return out


def _step_maps(C: np.ndarray, h: float):
    """The RK4 steps of the frame system on a half-step grid, as step maps.

    ``C`` holds A's blocks from ``_frame_blocks`` on the half-step grid,
    shape (4, 2, 2 n + 1); rows 0-2 are A's rows without the zero column 0.
    Since gamma never feeds back, each stage matrix K_i = A S_i is such a
    3x2 block too, and the stage maps S2 = I + h/2 K1, S3 = I + h/2 K2 and
    S4 = I + h K3 act on the 2x2 block Z alone.  Returns the step maps
    [g; Q] = [0; I] + h/6 (K1 + 2 K2 + 2 K3 + K4), shape (3, 2, n), and the
    stage matrices (K1, K2, K3, K4), each of shape (3, 2, n).
    """
    A = C[:3]
    k1, a_mid, a_end = A[..., 0:-1:2], A[..., 1::2], A[..., 2::2]
    eye = np.eye(2)[..., None]
    k2 = _matmul(a_mid, eye + (0.5 * h) * k1[1:])
    k3 = _matmul(a_mid, eye + (0.5 * h) * k2[1:])
    k4 = _matmul(a_end, eye + h * k3[1:])
    maps = (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    maps[1:] += eye
    return maps, (k1, k2, k3, k4)


def _rk4(
    C: np.ndarray, frame0: np.ndarray, h: float, n_steps: int, speed
) -> tuple[np.ndarray, np.ndarray]:
    """Classical RK4 for the linear frame system Y' = A(tau) Y, plus arclength.

    The state Y (rows gamma, xi, eta; columns x, y) starts at ``frame0``,
    shape (3, 2).  ``C`` holds A's blocks on the half-step grid, and each
    step is the affine map of ``_step_maps``.  The maps are chained by a
    log-depth inclusive prefix scan with the combine ``_compose`` (the
    doubling scan), so Y_{k+1} is the composite of steps k, ..., 0 applied
    to Y_0.

    The arclength is the RK4 quadrature of ``speed(gamma', xi, xi')`` over
    the four stage states of each step, each argument with (x, y) on its
    first axis.  gamma' and xi' there are K_i Z_k, and xi follows from xi'
    by the RK4 stage updates.

    Returns the frames at every full step entries-first, shape
    (3, 2, n_steps + 1), and the arclength there, shape (n_steps + 1,).
    """
    maps, stages = _step_maps(C, h)
    # After the pass with stride d, map k is the composite of steps
    # k, ..., max(0, k - 2d + 1).
    d = 1
    while d < n_steps:
        maps[..., d:] = _compose(maps[..., d:], maps[..., :-d])
        d *= 2
    frames = np.concatenate([frame0[..., None], _compose(maps, frame0[..., None])], axis=-1)

    z = frames[1:, :, :-1]
    slopes = _matmul(np.stack([k[:2] for k in stages]), z)  # [stage, (gamma', xi'), x|y, step]
    xi = np.empty_like(slopes[:, 1])
    xi[0] = z[0]
    xi[1:] = z[0] + np.array([0.5 * h, 0.5 * h, h])[:, None, None] * slopes[:3, 1]
    sigma = speed(*(v.swapaxes(0, 1) for v in (slopes[:, 0], xi, slopes[:, 1])))
    ds = (h / 6.0) * (sigma[0] + 2.0 * sigma[1] + 2.0 * sigma[2] + sigma[3])
    return frames, np.concatenate([[0.0], np.cumsum(ds)])


def _step_count(tau_max: float, step: float) -> int:
    """Steps of a side: the fewest that keep the step size at most ``step``."""
    return max(1, math.ceil(abs(tau_max) / step))


def _check_range(tau_max: float, step: float) -> None:
    """Reject a range unless tau_max and step are finite and > 0 and tau_max / step <= MAX_STEPS."""
    for name, value in (("tau_max", tau_max), ("step", step)):
        if not (math.isfinite(value) and value > 0.0):
            raise ValueError(f"synthesis needs a finite {name} > 0, got {name}={value!r}")
    if not tau_max / step <= MAX_STEPS:
        raise ValueError(f"synthesis needs tau_max / step <= {MAX_STEPS}, got {tau_max / step:.6g}")


def _taylor_germ(entries: dict, frame0: np.ndarray, order: int) -> PlaneJet:
    """The germ at tau = 0 of Y' = A(tau) Y, Y(0) = frame0, to the given order.

    ``entries`` holds A's entries as jets at 0 or as constants.  With
    A = sum_k A_k tau^k and Y = sum_k Y_k tau^k, matching the coefficients
    of tau^k gives Y_{k+1} = (A_0 Y_k + ... + A_k Y_0) / (k + 1), which needs
    A through order - 1.  A constant enters A_0 only.  A coefficient of A or
    Y that is not finite raises ``ValueError`` naming it.
    """
    series = {}
    for ij, a in entries.items():
        if isinstance(a, Jet) and a.order < order - 1:
            raise ValueError(
                f"a germ of order {order} needs A through order {order - 1}; a{ij} has {a.order}"
            )
        series[ij] = a.coeffs[:order] if isinstance(a, Jet) else Jet.constant(a, order - 1).coeffs
    C = _finite(_frame_blocks(series, order), lambda k: f"in its tau^{k} coefficient at tau = 0")
    C = C[:3]
    Y = np.zeros((order + 1, 3, 2))
    Y[0] = frame0
    for k in range(order):
        Y[k + 1] = np.einsum("ijk,kjc->ic", C[..., : k + 1], Y[k::-1, 1:]) / (k + 1)
    finite = np.isfinite(Y).all(axis=(1, 2))
    if not finite.all():
        raise ValueError(f"the synthesis germ overflows in its tau^{np.argmin(finite)} coefficient")
    return PlaneJet.from_coeffs(Y[:, 0, 0], Y[:, 0, 1])


def _frame_blocks(entries: dict, n: int) -> np.ndarray:
    """A's entries at n points, entries-first: C[i, j - 1] = a_ij, shape (4, 2, n).

    Rows 0-2 are A's rows (gamma, xi, eta) and row 3 the extra derivative
    row of a ``FrameSystem``.  Column 0 of A must be zero, since gamma never
    feeds back; so only columns 1 and 2 (xi, eta) are stored.
    """
    C = np.zeros((4, 2, n))
    for (i, j), a in entries.items():
        if j == 0:
            raise ValueError(
                f"frame system entry a{i}{j} is not allowed: gamma (column 0) must not feed back"
            )
        C[i, j - 1] = a
    return C


def _finite(C: np.ndarray, at: Callable) -> np.ndarray:
    """C, or ``ValueError`` naming its first entry that is not finite and ``at`` of its point."""
    finite = np.isfinite(C)
    if not finite.all():
        k, i, j = np.argwhere(~finite.transpose(2, 0, 1))[0]  # (point, i, j - 1)
        raise ValueError(f"frame system entry a{i}{j + 1} is not finite {at(k)}")
    return C


# -- results -------------------------------------------------------------------


@dataclass
class SynthesisResult:
    """A synthesized curve germ with its sampled trace and recomputation data.

    ``stacks`` holds gamma and its first four derivative vectors at each
    grid point, read from the frame system.  ``arclength`` is the recomputed
    s (Euclidean or affine): on each side, |s| = |tau_t(tau)|^(1/p) from the
    germ jets up to the first point at or past ``SWITCH_RADIUS``, and that
    value plus the integrated increments beyond it (``_spliced_arclength``).
    ``profile_jets`` holds those jets (the kind's ``jets(germ)``, built once
    per synthesis; a synthesis reads only ``tau_t`` and the value f_t(0), so
    its ``f_tau`` is not built unless read).  ``tau_max`` is the range as
    asked; the grid's last tau need not equal it bit for bit.
    """

    kind: str  # 'euclid-cusp' | 'affine-cusp' | 'inflection'
    taus: np.ndarray
    positions: np.ndarray  # shape (n, 2)
    germ: PlaneJet
    input_profile: object
    step: float
    tau_max: float
    stacks: np.ndarray  # shape (5, 2, n)
    arclength: np.ndarray
    method: str
    profile_jets: object

    @functools.cached_property
    def step_error(self) -> float:
        """The half-step Richardson estimate of the endpoint position error.

        The largest change of an endpoint position when each side of n steps
        of h is rerun as exactly 2n steps of h/2, on first read, by the
        route's side function that made the run.  A point of the rerun's
        grid that the run's checks refuse raises their ``ValueError``.
        """
        system = SYSTEMS[self.kind]
        route = system.routes[self.method]
        n = _step_count(self.tau_max, self.step)
        with np.errstate(all="ignore"):  # what is not finite raises in the route
            values = system.inputs(self.input_profile)[0]
            halves = [
                route(system, values, self.input_profile, tau_end, 2 * n)[2][0, :, -1]
                for tau_end in (self.tau_max, -self.tau_max)
            ]
            return float(np.max(np.abs(self.positions[[-1, 0]] - halves)))

    def tau_normalized(self) -> np.ndarray:
        """The adapted parameter recomputed from the synthesized data."""
        return np.sign(self.taus) * np.abs(self.arclength) ** SYSTEMS[self.kind].kind.p

    def profile_recomputed(self) -> np.ndarray:
        """The normalized curvature profile recomputed from the synthesis.

        The kind's direct formula on the frame's ``stacks``, where nothing
        cancels near 0, with the recomputed arclength at every tau != 0; at
        tau = 0, where the formula is 0/0, the germ's own f_t(0).
        """
        with np.errstate(divide="ignore", invalid="ignore"):
            out = SYSTEMS[self.kind].kind.direct(self.stacks, self.arclength)
        out[self.taus == 0.0] = self.profile_jets.f_t(0.0)
        return out


# -- shared assembly helpers ----------------------------------------------------


def _both_sides(side):
    """Run a one-sided integrator on [0, tau_max] and on [-tau_max, 0] and merge.

    ``side(sign)`` integrates from 0 to sign * tau_max.  It returns arrays
    with the grid on the last axis: the grid, the arclength, then the
    derivative stacks, positions first.
    """
    plus, minus = side(1.0), side(-1.0)
    return [np.concatenate([m[..., ::-1], p[..., 1:]], axis=-1) for p, m in zip(plus, minus)]


def _spliced_arclength(taus: np.ndarray, s: np.ndarray, tau_t: Jet, p: float) -> np.ndarray:
    """One side's arclength, from 0 outward, with its near-origin part from the germ.

    The arclength integrand has a fractional-power kink at 0, which costs
    the integrator accuracy on the first few steps.  Up to the first point
    b at or past ``SWITCH_RADIUS`` (every point if there is none),
    |s| = |tau_t(tau)|^(1/p) from the jet ``tau_t`` of the adapted
    parameter; beyond b, s is the stored s at b plus the integrated
    increments.
    """
    past = np.flatnonzero(np.abs(taus) >= SWITCH_RADIUS)
    b = int(past[0]) if past.size else len(taus) - 1
    tau_n = tau_t(taus[: b + 1])
    near = np.sign(tau_n) * np.abs(tau_n) ** (1.0 / p)
    return np.concatenate([near, near[-1] + (s[b + 1 :] - s[b])])


# -- the frame systems -------------------------------------------------------------


@dataclass(frozen=True)
class FrameSystem:
    """One kind's frame system Y' = A(tau) Y and how a synthesis reads it.

    Y has rows (gamma, xi, eta) and columns (x, y) and starts at gamma = 0,
    xi = (1, 0), eta = (0, eta0).  ``coefficients(tau, u, v)`` returns the
    nonzero entries {(i, j): a_ij} of A, none in column 0; it runs on arrays
    for the integrator and on jets for the germ.  An entry in row 3 is no
    part of the system: it gives one more derivative of gamma as a
    combination of the frame.  ``inputs(profile)`` returns the function that
    makes (u, v) on a tau array and the jets (u, v) at tau = 0.
    ``speed(gamma', xi, xi')`` is the arclength integrand at states with
    those rows, each with (x, y) on its first axis.  ``stack_rows[k]`` names
    the row that holds the k-th derivative of gamma: ("Y", i) or ("AY", i).
    The germ must be of ``kind``: ``kind.jets`` raises ``ValueError`` on
    any other.  ``prepare(fn, tau_max)`` holds the kind's admissibility
    rules: it returns the profile to integrate, or raises ``ValueError``
    before any germ work.  ``routes`` maps each method the kind has to its
    side function, route(system, values, profile, tau_end, n) -> (taus, s,
    derivatives): n steps from 0 to tau_end, with the grid on the last axis
    and the derivative stacks positions first.  The run and the
    ``step_error`` rerun both call it.
    """

    kind: Kind
    coefficients: Callable
    inputs: Callable
    eta0: float
    speed: Callable
    stack_rows: tuple
    prepare: Callable
    routes: dict

    @property
    def frame0(self) -> np.ndarray:
        return np.array([[0.0, 0.0], [1.0, 0.0], [0.0, self.eta0]])


def _frame_side(system: FrameSystem, values, profile, tau_end: float, n: int):
    """The frame route: n RK4 steps of Y' = A Y from 0 to tau_end.

    A's blocks come from one grid of 2n + 1 points at half steps: RK4 reads
    every point, the stacks every second.  An entry of A that is not
    finite raises ``ValueError`` naming its tau.  The derivatives are read
    from Y and A Y by ``stack_rows``.
    """
    taus = np.linspace(0.0, tau_end, 2 * n + 1)
    C = _frame_blocks(system.coefficients(taus, *values(taus)), 2 * n + 1)
    C = _finite(C, lambda k: f"at tau = {taus[k]:.6g}")
    frames, s = _rk4(C, system.frame0, tau_end / n, n, system.speed)
    rows = {"Y": frames, "AY": _matmul(C[..., ::2], frames[1:])}
    return taus[::2], s, np.stack([rows[source][i] for source, i in system.stack_rows])


def _quadrature_side(system: FrameSystem, values, profile, tau_end: float, n: int):
    """The Euclidean quadrature route, which reads the profile alone."""
    return _euclid_quadrature(profile, tau_end, n)


def _profile_inputs(profile):
    """(u, v) = (f, f') of the prescribed function, on arrays and as jets at 0."""
    f_jet = profile.jet(0.0, GERM_ORDER)
    return profile.value_and_slope, (f_jet, f_jet.derivative())


def _euclid_cusp_coefficients(tau, f, fd):
    """(gamma, u1, u2): gamma' = q (u1 + m u2), u1' = omega u2, u2' = -omega u1.

    Row 3 is gamma'' = 2 sqrt(1 + 4 tau^2 f^2) u1.
    """
    denom = 1.0 + 4.0 * tau**2 * f**2
    root = rational_pow(denom, 1, 2)
    q = 2.0 * tau / root
    m = -2.0 * tau * f
    omega = 2.0 * (2.0 * f + 4.0 * tau**2 * f**3 + tau * fd) / denom
    return {(0, 1): q, (0, 2): q * m, (1, 2): omega, (2, 1): -omega, (3, 1): 2.0 * root}


def _affine_cusp_coefficients(tau, h, hd):
    """(gamma, xi, eta): gamma' = a1 xi + a2 eta, xi' = eta, eta' = b1 xi + b2 eta."""
    D = 18.0 + 25.0 * tau**2 * h
    if isinstance(D, np.ndarray) and np.any(D <= 0.0):
        i = int(np.argmax(D <= 0.0))
        raise ValueError(
            "affine cusp synthesis needs 18 + 25 tau^2 h(tau) > 0 over the whole range, "
            f"but it is {D[i]:.6g} at tau = {tau[i]:.6g}"
        )
    return {
        (0, 1): 18.0 * tau / D,
        (0, 2): -9.0 * tau**2 / D,
        (1, 2): 1.0,
        (2, 1): -25.0 * (18.0 * tau * hd + 25.0 * tau**2 * h**2 + 54.0 * h) / (9.0 * D),
        (2, 2): 25.0 * tau * (tau * hd + 2.0 * h) / D,
    }


def _inflection_gh_jets(profile, order: int) -> tuple[Jet, Jet]:
    """g and h of a profile that ``restore_inflection_constraint`` returned."""
    f_jet = profile.jet(0.0, order)
    g_jet = deflate(f_jet - _affine.INFLECTION_PROFILE_VALUE, 1, tol=1e-9)
    scale = max(1.0, abs(float(g_jet.value())) ** 2)
    h_jet = deflate(9.0 * g_jet.derivative() + 16.0 * g_jet * g_jet, 1, tol=1e-7 * scale)
    return g_jet, h_jet


def _inflection_inputs(profile):
    """(u, v) = (g, h) with f = -5/16 + tau g and 9 g' + 16 g^2 = tau h.

    h loses three orders to two deflations and a derivative, so the germ's
    jets start from f at GERM_ORDER + 3.  Inside SWITCH_RADIUS the arrays
    read the same jets cut back to the orders that f at GERM_ORDER gives;
    the three extra orders serve the germ only.
    """
    g_jet, h_jet = _inflection_gh_jets(profile, GERM_ORDER + 3)
    g_near, h_near = g_jet.truncated(GERM_ORDER - 1), h_jet.truncated(GERM_ORDER - 3)

    def values(taus):
        f_v, fd_v = profile.value_and_slope(taus)
        g, hh = np.empty_like(taus), np.empty_like(taus)
        near = np.abs(taus) < SWITCH_RADIUS
        g[near], hh[near] = g_near(taus[near]), h_near(taus[near])
        far = ~near
        tf = taus[far]
        gf = (f_v[far] - _affine.INFLECTION_PROFILE_VALUE) / tf
        gd = (fd_v[far] - gf) / tf
        g[far] = gf
        hh[far] = (9.0 * gd + 16.0 * gf**2) / tf
        return g, hh

    return values, (g_jet, h_jet)


def _inflection_coefficients(tau, g, h):
    """(gamma, xi, eta): gamma' = xi, xi' = a11 xi + tau eta, eta' = a21 xi - a11 eta."""
    return {
        (0, 1): 1.0,
        (1, 1): 16.0 * g / 9.0,
        (1, 2): tau,
        (2, 1): -16.0 * h / 81.0,
        (2, 2): -16.0 * g / 9.0,
    }


def _euclid_cusp_prepare(fn, tau_max):
    """f itself, which must have f(0) != 0: curves with f(0) = 0 are not cusps."""
    profile = as_profile(fn)
    if float(profile(0.0)) == 0.0:
        raise ValueError("Euclidean cusp synthesis needs f(0) != 0")
    return profile


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
    try:
        residual = 32.0 * fd**2 + 9.0 * fdd
    except OverflowError:  # fd**2 is past the float range
        residual = math.inf
    if not math.isfinite(residual):
        raise ValueError(
            f"inflection synthesis needs a finite 32 f'(0)^2 + 9 f''(0), "
            f"got f'(0) = {fd!r} and f''(0) = {fdd!r}"
        )
    scale = max(1.0, fd**2, abs(fdd))
    if abs(residual) <= 1e-9 * scale:
        return profile, 0.0
    if abs(fd) <= 1e-9:
        raise ValueError(
            "profile is outside the admissible class: f'(0) = 0 but f''(0) != 0 "
            "cannot be repaired by reparametrization"
        )
    c = residual / (18.0 * fd)
    return _reparametrized(profile, c), c


def _inflection_prepare(fn, tau_max):
    """f with the inflection constraint restored, if its pole lies past tau_max."""
    profile, c = restore_inflection_constraint(fn)
    if abs(c) * tau_max >= 1.0:
        raise ValueError(
            f"inflection synthesis reparametrizes f by t = tau / (1 + c tau) with "
            f"c = {c:.6g}, defined only for {_valid_side(c)}; tau_max = "
            f"{tau_max!r} reaches past it, so it needs tau_max < {1.0 / abs(c):.6g}"
        )
    return profile


EUCLID_CUSP_SYSTEM = FrameSystem(
    kind=_euclid.EUCLID_CUSP,
    coefficients=_euclid_cusp_coefficients,
    inputs=_profile_inputs,
    eta0=1.0,
    speed=lambda gamma_d, xi, xi_d: np.hypot(gamma_d[0], gamma_d[1]),
    stack_rows=(("Y", 0), ("AY", 0), ("AY", 3)),
    prepare=_euclid_cusp_prepare,
    routes={"frame": _frame_side, "quadrature": _quadrature_side},
)
AFFINE_CUSP_SYSTEM = FrameSystem(
    kind=_affine.AFFINE_CUSP,
    coefficients=_affine_cusp_coefficients,
    inputs=_profile_inputs,
    eta0=AFFINE_CUSP_ETA0,
    speed=lambda gamma_d, xi, xi_d: np.abs(cross(gamma_d, xi)) ** (1.0 / 3.0),
    stack_rows=(("Y", 0), ("AY", 0), ("Y", 1), ("Y", 2), ("AY", 2)),
    prepare=lambda fn, tau_max: as_profile(fn),
    routes={"frame": _frame_side},
)
INFLECTION_SYSTEM = FrameSystem(
    kind=_affine.INFLECTION,
    coefficients=_inflection_coefficients,
    inputs=_inflection_inputs,
    eta0=INFLECTION_ETA0,
    speed=lambda gamma_d, xi, xi_d: np.abs(cross(xi, xi_d)) ** (1.0 / 3.0),
    stack_rows=(("Y", 0), ("Y", 1), ("AY", 1), ("Y", 2), ("AY", 2)),
    prepare=_inflection_prepare,
    routes={"frame": _frame_side},
)
SYSTEMS = {s.kind.name: s for s in (EUCLID_CUSP_SYSTEM, AFFINE_CUSP_SYSTEM, INFLECTION_SYSTEM)}


# -- the driver ---------------------------------------------------------------------


def _synthesize(system: FrameSystem, profile, tau_max, step, method="frame"):
    """Germ, curve, derivative stacks and arclength of one kind's synthesis.

    Each side is the ``method``'s route from ``system.routes`` with its
    arclength spliced to the germ's near 0; the routes share the germ and
    the assembly of the result.  The result's ``step_error`` reruns each
    side on first read.
    """
    with np.errstate(all="ignore"):  # an entry of A that is not finite raises in _taylor_germ
        values, germ_inputs = system.inputs(profile)
        entries = system.coefficients(Jet.variable(0.0, GERM_ORDER), *germ_inputs)
    germ = _taylor_germ(entries, system.frame0, GERM_ORDER)
    jets = system.kind.jets(germ)  # raises ValueError on a germ of another kind

    route = system.routes[method]
    n = _step_count(tau_max, step)

    def side(sign):
        taus, s, derivatives = route(system, values, profile, sign * tau_max, n)
        return taus, _spliced_arclength(taus, s, jets.tau_t, system.kind.p), derivatives

    with np.errstate(all="ignore"):  # what is not finite raises here or below
        taus, s, derivatives = _both_sides(side)
    finite = np.isfinite(derivatives).all(axis=(0, 1)) & np.isfinite(s)
    if not finite.all():
        raise ValueError(
            f"{system.kind.name} synthesis with step {step!r} is not finite from |tau| = "
            f"{float(np.min(np.abs(taus[~finite]))):.6g} on: the step is too large there"
        )
    positions = derivatives[0].T.copy()
    stacks = np.zeros((5, 2, len(taus)))
    stacks[: len(derivatives)] = derivatives
    return SynthesisResult(
        kind=system.kind.name,
        taus=taus,
        positions=positions,
        germ=germ,
        input_profile=profile,
        step=step,
        tau_max=tau_max,
        stacks=stacks,
        arclength=s,
        method=method,
        profile_jets=jets,
    )


# -- the Euclidean quadrature route -------------------------------------------------


def _euclid_quadrature(profile, tau_end: float, n: int):
    """Direct quadrature route from 0 to tau_end in n steps, by Gauss panels per step.

    Returns the grid, the arclength and the derivative stacks
    (gamma, gamma', gamma''), shape (3, 2, n + 1), with the grid on the
    last axis.
    """
    x8, w8 = _gauss_01(8)
    h = tau_end / n
    starts = h * np.arange(n)
    main = starts[:, None] + h * x8[None, :]
    taus = np.concatenate([[0.0], starts + h])
    f = np.asarray(profile(np.concatenate([main.ravel(), taus])), dtype=float)
    theta_start, theta_main = _quadrature_theta(f[: main.size].reshape(main.shape), h)
    # gamma increment per step and speed samples
    gx = h * ((2.0 * main * np.cos(theta_main)) @ w8)
    gy = h * ((2.0 * main * np.sin(theta_main)) @ w8)
    pos = np.zeros((2, n + 1))
    pos[0, 1:] = np.cumsum(gx)
    pos[1, 1:] = np.cumsum(gy)
    ds = h * ((2.0 * np.abs(main)) @ w8)
    s = np.concatenate([[0.0], np.cumsum(ds)])
    # derivatives at step points from theta there
    f_pts = f[main.size :]
    unit = np.array([np.cos(theta_start), np.sin(theta_start)])
    normal = np.array([-unit[1], unit[0]])
    d1 = 2.0 * taus * unit
    d2 = 2.0 * unit + 2.0 * taus * 2.0 * f_pts * normal
    return taus, s, np.stack([pos, d1, d2])


def _quadrature_theta(f_main: np.ndarray, h: float) -> tuple[np.ndarray, np.ndarray]:
    """theta = 2 * integral of f at the step points and at the Gauss nodes of each step.

    ``f_main`` holds f at the 8 Gauss nodes of each step, shape (n, 8).
    theta at the step points is the cumulative Gauss sum; at the nodes of a
    step it adds 2 h (f_main @ M^T), with M the integration matrix of
    ``_gauss_integration_matrix``.  Returns theta at the n + 1 step points
    and at the nodes, shape (n, 8).
    """
    _, w8 = _gauss_01(8)
    theta_start = np.concatenate([[0.0], np.cumsum(2.0 * h * (f_main @ w8))])
    return theta_start, theta_start[:-1, None] + 2.0 * h * (f_main @ _gauss_integration_matrix(8).T)


@functools.cache
def _gauss_integration_matrix(n: int) -> np.ndarray:
    """M[i, j] = integral_0^{x_i} l_j(u) du over the n Gauss nodes x of [0, 1].

    l_j is the Lagrange basis polynomial of node j, so M @ f(x) integrates
    the interpolant of f from 0 to each node, exactly for polynomials of
    degree < n (Greengard's spectral integration matrix).  l_j is evaluated
    in product form at the nested nodes x_i x_m, where the n-point Gauss
    rule on [0, x_i] integrates it exactly; no Vandermonde matrix is
    inverted.  Built on first use, like the nodes of ``jets._gauss_01``.
    """
    x, w = _gauss_01(n)
    others = ~np.eye(n, dtype=bool)
    # factors[i, m, j, k] = (x_i x_m - x_k) / (x_j - x_k), and 1 for k = j.
    nested = np.outer(x, x)[:, :, None, None]
    factors = np.where(others, (nested - x) / np.where(others, x[:, None] - x, 1.0), 1.0)
    basis = np.prod(factors, axis=-1)  # basis[i, m, j] = l_j(x_i x_m)
    return x[:, None] * np.einsum("m,imj->ij", w, basis)


# -- the entry and round trips ----------------------------------------------------


def synthesize(
    kind: str,
    fn,
    tau_max: float,
    step: float = DEFAULT_STEP,
    method: str = "frame",
) -> SynthesisResult:
    """The curve germ of ``kind`` whose normalized profile is fn, for |tau| <= tau_max.

    euclid-cusp: fn is sqrt(|s_g|) kappa_g, with f(0) != 0 (f(0) = 0 gives
    no cusp); tau is the half-arclength parameter, |gamma'| = 2|tau|; and
    ``method`` is "frame" or "quadrature".  affine-cusp: fn is h, the
    profile being 4/25 + tau^2 h(tau); tau is the 3/5-arclength parameter.
    inflection: fn is (s_A)^2 kappa_A, with f(0) = -5/16; tau is the
    3/4-arclength parameter.  An f that violates 32 f'(0)^2 + 9 f''(0) = 0
    is first reparametrized by t = tau / (1 + c tau), which needs
    f'(0) != 0 and |c| tau_max < 1, and the profile realized is then
    ``result.input_profile``.  These rules are the kind's
    ``FrameSystem.prepare`` and ``routes``; an input that breaks one raises
    ``ValueError`` before any germ work.  The result's ``step_error`` is
    computed when first read.
    """
    system = SYSTEMS.get(kind)
    if system is None:
        names = [repr(name) for name in SYSTEMS]
        raise ValueError(
            f"unknown synthesis kind {kind!r}; use {', '.join(names[:-1])}, or {names[-1]}"
        )
    _check_range(tau_max, step)
    profile = system.prepare(fn, tau_max)
    if method not in system.routes:
        use = " or ".join(repr(route) for route in system.routes)
        if len(system.routes) == 1:
            raise ValueError(f"{kind} synthesis has only the {use} route, not method {method!r}")
        raise ValueError(f"unknown method {method!r}; use {use}")
    return _synthesize(system, profile, tau_max, step, method)


def roundtrip(fn, kind: str, tau_max: float) -> float:
    """Synthesize, recompute the profile from the result, compare.

    For the affine cusp the prescribed function is h (the profile being
    4/25 + tau^2 h); for the other kinds it is the profile itself.  Returns
    the sup-norm deviation between the recomputed profile and the prescribed
    one evaluated at the recomputed adapted parameter.
    """
    result = synthesize(kind, fn, tau_max)
    tau_n = result.tau_normalized()
    recomputed = result.profile_recomputed()
    profile = result.input_profile
    if kind == "affine-cusp":
        target = _affine.CUSP_PROFILE_VALUE + tau_n**2 * np.asarray(profile(tau_n))
    else:
        target = np.asarray(profile(tau_n))
    return float(np.max(np.abs(recomputed - target)))

