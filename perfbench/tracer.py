"""Spans and counts recorded around cuspkit's layers from outside the package.

``Tracer.install`` replaces each function or method named in ``TARGETS`` by
a wrapper, wherever the package looks it up: on its class for a method, and
in every loaded ``cuspkit`` module that binds the function for a plain
function (so ``from .profiles import invert_monotone`` in both ``euclidean``
and ``affine`` is covered).  The package's source is never touched, and
``uninstall`` puts every original back.  A target that no longer exists is
listed in ``absent`` and its metrics read 0; the run goes on.

A span records its name, start, end and parent.  Self time is a span's
duration minus that of its direct children.  The per-layer metrics the
benchmark reports are computed by ``layer_metrics`` from the spans and the
counts.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter

import numpy as np

# The checks of cuspkit.verification.run_all, reported one metric each.
VERIFY_CHECKS = (
    "01_mu_g_closed_forms",
    "02_cusp_limit_richardson",
    "03_canonical_cusp_synthesis",
    "04_cusp_profile_germ_values",
    "05_mu_A_values_and_invariance",
    "06_h0_mu_A_relation",
    "07_inflection_germ_values",
    "08_g0_mu_I_relation",
    "09_inflection_identities",
    "10_synthesis_roundtrips",
    "11_synthesis_brackets",
    "12_normal_forms",
    "13_singular_moments",
)

# name, unit, better: the per-layer metrics, in the order they are reported.
PER_LAYER = (
    ("dsl.derivatives_at.s", "s", "lower"),
    ("dsl.derivatives_at.nodes", "count", "lower"),
    ("dsl.parse.s", "s", "lower"),
    ("dsl.parse.calls", "count", "lower"),
    ("dsl.curve_jet.s", "s", "lower"),
    ("dsl.curve_jet.calls", "count", "lower"),
    ("profiles.invert_monotone.s", "s", "lower"),
    ("profiles.invert_monotone.calls", "count", "lower"),
    ("profiles.invert_monotone.targets", "count", "lower"),
    ("profiles.invert_monotone.failures", "count", "lower"),
    ("profiles.newton_iters", "iter/inversion", "lower"),
    ("euclidean.tau_of_t.s", "s", "lower"),
    ("euclidean.tau_of_t.calls", "count", "lower"),
    ("affine.arclength.s", "s", "lower"),
    ("affine.arclength.calls", "count", "lower"),
    ("affine.arclength.passes_per_newton_iter", "pass/iter", "lower"),
    ("euclidean.profiler_init.s", "s", "lower"),
    ("affine.profiler_init.s", "s", "lower"),
    ("euclidean.values_at_t.s", "s", "lower"),
    ("affine.values_at_t.s", "s", "lower"),
    ("euclidean.classify.s", "s", "lower"),
    ("euclidean.classify.calls", "count", "lower"),
    ("affine.normal_form.s", "s", "lower"),
    ("affine.normal_form.calls", "count", "lower"),
    ("jets.compose.s", "s", "lower"),
    ("jets.compose.calls", "count", "lower"),
    ("jets.inverted.s", "s", "lower"),
    ("jets.inverted.calls", "count", "lower"),
    ("jets.pow_rational.s", "s", "lower"),
    ("jets.pow_rational.calls", "count", "lower"),
    ("jets.moment_quotient_jet.s", "s", "lower"),
    ("jets.moment_quotient_jet.calls", "count", "lower"),
    ("jets.mul.calls", "count", "lower"),
    ("jets.div.calls", "count", "lower"),
    ("jets.vec_mul.calls", "count", "lower"),
    ("synthesis.rk4.s", "s", "lower"),
    ("synthesis.rk4.steps", "count", "lower"),
    ("synthesis.rk4.kept_frac", "ratio", "higher"),
    ("synthesis.picard_germ.s", "s", "lower"),
    ("synthesis.value_and_slope.s", "s", "lower"),
    ("synthesis.profile_recomputed.s", "s", "lower"),
    ("synthesis.self_s", "s", "lower"),
    ("svg.render_svg.s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("verification.run_all.s", "s", "lower"),
    *((f"verification.{c}.err", "err", "lower") for c in VERIFY_CHECKS),
    ("verification.max_err_over_tol", "ratio", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, nested in same name]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._open: Counter = Counter()
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> None:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent, self._open[name] > 0])
        self._open[name] += 1

    def end(self) -> None:
        span = self.spans[self._stack.pop()]
        span[2] = time.perf_counter()
        self._open[span[0]] -= 1

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, name: str, fn, hook):
        tracer = self
        counts = self.counts
        if hook is COUNT_ONLY:

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                counts[name + ".calls"] += 1
                return fn(*args, **kwargs)

            return counted

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            after = None
            if hook:
                args, after = hook(tracer, args)
            result = None
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                counts[name + ".failures"] += 1
                raise
            finally:
                tracer.end()
                if after:
                    after(result)

        return wrapper

    def install(self) -> None:
        modules = {
            n: m for n, m in sys.modules.items() if n == "cuspkit" or n.startswith("cuspkit.")
        }
        for name, module, qualname, hook in TARGETS:
            mod = modules.get("cuspkit." + module)
            owner_name, _, attr = qualname.rpartition(".")
            owner = getattr(mod, owner_name, None) if owner_name else mod
            original = (
                owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
            )
            if not callable(original):
                self.absent.append(f"{module}.{qualname}")
                continue
            wrapper = self._wrap(name, original, hook)
            # Patch every binding of the original: aliases on the class
            # (``__rmul__ = __mul__``) and from-imports in other modules.
            holders = [owner] if isinstance(owner, type) else list(modules.values())
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            holder, key, original = self._patches.pop()
            setattr(holder, key, original)


# -- hooks: hook(tracer, args) -> (args to call with, after(result) or None);
#    ``after`` runs once the call has ended, with None if it raised. ---------


def _count_nodes(tracer, args):
    if len(args) > 1:
        tracer.counts["dsl.derivatives_at.nodes"] += int(np.size(args[1]))
    return args, None


def _count_inversion(tracer, args):
    """Count targets, and Newton iterations as calls of the tau_of_t argument."""
    if len(args) > 2:
        tracer.counts["profiles.invert_monotone.targets"] += int(np.size(args[2]))
    if not (args and callable(args[0])):
        return args, None
    tau_of_t = args[0]
    iters = 0
    passes_before = tracer.counts["affine.arclength.calls"]

    def counted(ts):
        nonlocal iters
        iters += 1
        return tau_of_t(ts)

    def after(_):
        tracer.counts["profiles.newton_iters_total"] += iters
        passes = tracer.counts["affine.arclength.calls"] - passes_before
        if passes:  # an affine inversion: arclength passes per Newton iteration
            tracer.counts["affine.inversion_passes"] += passes
            tracer.counts["affine.inversion_iters"] += iters

    return (counted, *args[1:]), after


def _count_rk4_steps(tracer, args):
    if len(args) > 3:
        tracer.counts["synthesis.rk4.steps"] += int(args[3])
    return args, None


def _count_kept_steps(tracer, args):
    """Steps whose states a synthesis returns: one per interval of its grid."""
    steps_before = tracer.counts["synthesis.rk4.steps"]

    def after(result):
        if result is not None and tracer.counts["synthesis.rk4.steps"] > steps_before:
            tracer.counts["synthesis.rk4.kept_steps"] += len(result.taus) - 1

    return args, after


COUNT_ONLY = "count only"

# (span or counter name, module, qualified name, hook).  A hook adds counts
# from the call's arguments and may wrap them; COUNT_ONLY records no span.
# A name listed twice sums both targets.
TARGETS = (
    ("dsl.derivatives_at", "dsl", "CurveSpec.derivatives_at", _count_nodes),
    ("dsl.parse", "dsl", "parse_curve", None),
    ("dsl.parse", "dsl", "parse_expression", None),
    ("dsl.curve_jet", "dsl", "CurveSpec.jet", None),
    ("profiles.invert_monotone", "profiles", "invert_monotone", _count_inversion),
    ("euclidean.tau_of_t", "euclidean", "CuspProfiler.tau_of_t", None),
    ("euclidean.profiler_init", "euclidean", "CuspProfiler.__init__", None),
    ("euclidean.values_at_t", "euclidean", "CuspProfiler.values_at_t", None),
    ("euclidean.classify", "euclidean", "classify", None),
    ("affine.arclength", "affine", "AffineProfilerBase.arclength", None),
    ("affine.profiler_init", "affine", "AffineProfilerBase.__init__", None),
    ("affine.values_at_t", "affine", "AffineProfilerBase.values_at_t", None),
    ("affine.normal_form", "affine", "normal_form", None),
    ("jets.compose", "jets", "Jet.compose", None),
    ("jets.inverted", "jets", "Jet.inverted", None),
    ("jets.pow_rational", "jets", "Jet.pow_rational", None),
    ("jets.moment_quotient_jet", "jets", "moment_quotient_jet", None),
    ("jets.mul", "jets", "Jet.__mul__", COUNT_ONLY),
    ("jets.div", "jets", "Jet.__truediv__", COUNT_ONLY),
    ("jets.vec_mul", "jets", "VecJet.__mul__", COUNT_ONLY),
    ("synthesis.synthesize", "synthesis", "synthesize", _count_kept_steps),
    ("synthesis.rk4", "synthesis", "_rk4", _count_rk4_steps),
    ("synthesis.picard_germ", "synthesis", "_picard_germ", None),
    ("synthesis.value_and_slope", "synthesis", "ProfileFunction.value_and_slope", None),
    ("synthesis.value_and_slope", "synthesis", "ReparametrizedProfile.value_and_slope", None),
    ("synthesis.tau_normalized", "synthesis", "SynthesisResult.tau_normalized", None),
    ("synthesis.profile_recomputed", "synthesis", "SynthesisResult.profile_recomputed", None),
    ("svg.render_svg", "svg", "render_svg", None),
    ("cli.main", "cli", "main", None),
)


# -- metrics -----------------------------------------------------------------


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, verification: dict, verify_s: float, overhead: float) -> dict:
    """Every PER_LAYER metric as {name: (value, unit)}."""
    inclusive: Counter = Counter()
    child_time: Counter = Counter()
    for name, start, end, parent, nested in tracer.spans:
        if not nested:
            inclusive[name] += end - start
        if parent >= 0:
            child_time[parent] += end - start
    self_time: Counter = Counter()
    for i, (name, start, end, _, _) in enumerate(tracer.spans):
        self_time[name] += end - start - child_time[i]

    c = tracer.counts
    errors = {chk["name"]: chk["error"] for chk in verification["checks"]}
    values = {
        "profiles.newton_iters": _ratio(
            c["profiles.newton_iters_total"], c["profiles.invert_monotone.calls"]
        ),
        "affine.arclength.passes_per_newton_iter": _ratio(
            c["affine.inversion_passes"], c["affine.inversion_iters"]
        ),
        "synthesis.rk4.kept_frac": _ratio(c["synthesis.rk4.kept_steps"], c["synthesis.rk4.steps"]),
        "synthesis.self_s": sum(t for n, t in self_time.items() if n.startswith("synthesis.")),
        "cli.main.self_s": self_time["cli.main"],
        "verification.run_all.s": verify_s,
        "verification.max_err_over_tol": max(
            _ratio(chk["error"], chk["tolerance"]) for chk in verification["checks"]
        ),
        "trace.overhead_frac": overhead,
    }
    for check in VERIFY_CHECKS:
        values[f"verification.{check}.err"] = float(errors.get(check, 0.0))
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".s"):
            value = inclusive[name[:-2]]
        else:
            value = c[name]
        out[name] = (float(value), unit)
    return out
