import math
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from cuspkit import cli
from cuspkit import synthesis as S
from cuspkit.dsl import parse_expression
from cuspkit.synthesis import synthesize_euclidean_cusp


@pytest.mark.parametrize("method", ["frame", "quadrature"])
@pytest.mark.parametrize("f", [1.0, lambda t: 1.0 + 0.3 * t - 0.2 * t**2])
def test_euclidean_roundtrip_both_signs(method, f):
    res = synthesize_euclidean_cusp(f, 0.5, method=method)
    assert np.all(np.sign(res.arclength) == np.sign(res.taus))
    tau_n = res.tau_normalized()
    target = np.asarray(res.input_profile(tau_n))
    assert np.max(np.abs(res.profile_recomputed() - target)) < 1e-10


# -- the batched propagator against a textbook per-step RK4 ------------------------

PROFILES = {
    "euclid-cusp": "1 + 0.3*t - 0.2*t^2",
    "affine-cusp": "0.5 + 0.1*t - 0.12*t^2",
    # f''(0)/2 = -16 f'(0)^2 / 9 satisfies the inflection germ constraint.
    "inflection": "-5/16 + 0.3*t - 0.16*t^2 + 0.1*t^3",
}
KINDS = tuple(PROFILES)


def _system(kind, taus_half):
    """(A, speed, frame0) of one kind's frame system on a half-step grid."""
    profile = S.as_profile(parse_expression(PROFILES[kind]))
    if kind == "euclid-cusp":
        A, speed = S._euclid_frame_rhs_factory(profile, taus_half)
        return A, speed, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]])
    if kind == "affine-cusp":
        A, speed = S._affine_cusp_rhs_factory(profile, taus_half)
        return A, speed, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, S.AFFINE_CUSP_ETA0]])
    jets = S._inflection_gh_jets(profile, S.GERM_ORDER)
    A, speed = S._inflection_rhs_factory(profile, jets, taus_half)
    return A, speed, np.array([[0.0, 0.0], [1.0, 0.0], [0.0, S.INFLECTION_ETA0]])


def _textbook_rk4(A, frame0, h, n_steps, speed):
    y, s = frame0.copy(), 0.0
    frames, arclength = [y], [s]
    for k in range(n_steps):
        z1 = y
        d1 = A[2 * k] @ z1
        z2 = y + 0.5 * h * d1
        d2 = A[2 * k + 1] @ z2
        z3 = y + 0.5 * h * d2
        d3 = A[2 * k + 1] @ z3
        z4 = y + h * d3
        d4 = A[2 * k + 2] @ z4
        y = y + h / 6.0 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
        s = s + h / 6.0 * (
            speed(d1, z1) + 2.0 * speed(d2, z2) + 2.0 * speed(d3, z3) + speed(d4, z4)
        )
        frames.append(y)
        arclength.append(s)
    return np.array(frames), np.array(arclength)


def _rel_err(got, want):
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want))))


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("n_steps", [1, 2, 7, 1000])
@pytest.mark.parametrize("tau_max", [1.0, -1.0])
def test_rk4_matches_textbook_loop(kind, n_steps, tau_max):
    taus_half = np.linspace(0.0, tau_max, 2 * n_steps + 1)
    h = tau_max / n_steps
    A, speed, frame0 = _system(kind, taus_half)
    frames, s = S._rk4(A, frame0, h, n_steps, speed)
    want_frames, want_s = _textbook_rk4(A, frame0, h, n_steps, speed)
    assert frames.shape == (n_steps + 1, 3, 2)
    assert _rel_err(frames, want_frames) <= 1e-13
    assert _rel_err(s, want_s) <= 1e-13


@pytest.mark.parametrize("kind", KINDS)
def test_synthesis_is_fourth_order(kind):
    fn = parse_expression(PROFILES[kind])
    ends = [
        S.synthesize(kind, fn, 1.0, step=step, richardson=False).positions[-1]
        for step in (4e-3, 2e-3, 1e-3)
    ]
    ratio = np.linalg.norm(ends[0] - ends[1]) / np.linalg.norm(ends[1] - ends[2])
    assert 14.0 <= ratio <= 18.0


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("tau_max", [0.35, 1.0])
def test_roundtrip_every_kind(kind, tau_max):
    fn = parse_expression(PROFILES[kind])
    res = S.synthesize(kind, fn, tau_max, richardson=False)
    assert np.all(np.sign(res.arclength) == np.sign(res.taus))
    assert S.roundtrip(fn, kind, tau_max) <= 1e-9


# -- invalid ranges ------------------------------------------------------------------


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("bad", [0.0, -1e-3, math.nan, math.inf])
@pytest.mark.parametrize("which", ["tau_max", "step"])
def test_invalid_range_raises_before_germ_work(kind, bad, which):
    calls = []
    value = {"euclid-cusp": 1.0, "affine-cusp": 0.5, "inflection": -5.0 / 16.0}[kind]

    def fn(tau):
        calls.append(tau)
        return value

    args = {"tau_max": 0.5, "step": 1e-3, which: bad}
    with pytest.raises(ValueError, match=re.escape(f"{which}={bad!r}")):
        S.synthesize(kind, fn, args["tau_max"], step=args["step"])
    assert calls == []


# -- the synthesize subcommand -------------------------------------------------------


def _synthesize_argv(kind, out, svg_path, *extra):
    expr_flag = "--h" if kind == "affine-cusp" else "--f"
    return [
        "synthesize", "--kind", kind, expr_flag, PROFILES[kind], "--tau-max", "0.5",
        "--out", str(out), "--svg", str(svg_path), *extra,
    ]


@pytest.mark.parametrize("kind", KINDS)
def test_cli_synthesize_is_repeatable_and_renders_every_row(kind, tmp_path):
    outputs = []
    for run in ("a", "b"):
        csv_path, svg_path = tmp_path / f"{run}.csv", tmp_path / f"{run}.svg"
        assert cli.main(_synthesize_argv(kind, csv_path, svg_path)) == 0
        outputs.append((csv_path.read_bytes(), svg_path.read_bytes()))
    assert outputs[0] == outputs[1]
    csv_text, svg_bytes = outputs[0]
    rows = csv_text.decode().splitlines()
    assert rows[0] == "tau,x,y"
    line = ET.fromstring(svg_bytes).find("{http://www.w3.org/2000/svg}polyline")
    assert len(line.get("points").split()) == len(rows) - 1


def test_cli_synthesize_rejects_zero_step(tmp_path, capsys):
    argv = _synthesize_argv("euclid-cusp", tmp_path / "c.csv", tmp_path / "c.svg", "--step", "0")
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error [synthesize]")
