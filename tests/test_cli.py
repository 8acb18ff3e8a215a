import contextlib
import io
import json
import os
import subprocess
import sys
import warnings

import pytest
from conftest import MODEL_GERMS
from contract import CONTRACT, assert_contract, row_id
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cuspkit
from cuspkit import affine, cli, euclidean
from cuspkit.dsl import CATALOG_CUSPS, CATALOG_INFLECTIONS, catalog_lookup, parse_curve
from cuspkit.profiles import Profiler


def _run(capsys, argv):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, out, err


# -- import cost ------------------------------------------------------------------


def test_import_does_not_load_numpy_polynomial():
    # The Gauss nodes and the seed interpolant look numpy.polynomial up on
    # first use, so a run that never needs them does not load it.
    src = os.path.dirname(os.path.dirname(os.path.abspath(cuspkit.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = "import sys, cuspkit, cuspkit.cli; print('numpy.polynomial' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"


# -- one parser per process ------------------------------------------------------


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["invariants", "--help"], ["profile", "--help"], ["synthesize", "--axes", "-h"]],
)
def test_help_exits_zero(capsys, argv):
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 0
        assert "usage: cuspkit" in capsys.readouterr().out


def test_param_does_not_leak_between_calls(capsys):
    code, out, _ = _run(capsys, ["invariants", "--curve", "cycloid", "--param", "a=2"])
    assert code == 0
    assert json.loads(out)["params"] == {"a": 2.0}
    # 'parabola' takes no parameter, so a leaked a=2 would be an error here.
    code, out, err = _run(capsys, ["classify", "--curve", "parabola"])
    assert (code, out, err) == (0, "Regular\n", "")
    code, out, _ = _run(capsys, ["invariants", "--curve", "cycloid", "--param", "a=0.5"])
    assert json.loads(out)["params"] == {"a": 0.5}


def test_append_action_starts_empty_on_every_parse():
    parser = cli.build_parser()
    first = parser.parse_args(["invariants", "--curve", "c", "--param", "a=1", "--param", "b=2"])
    second = parser.parse_args(["invariants", "--curve", "c", "--param", "a=3"])
    third = parser.parse_args(["invariants", "--curve", "c"])
    assert first.param == ["a=1", "b=2"]
    assert second.param == ["a=3"]
    assert third.param is None


def test_out_does_not_leak_between_calls(capsys, tmp_path):
    path = tmp_path / "report.json"
    code, out, _ = _run(
        capsys, ["invariants", "--curve", "cycloid", "--param", "a=1", "--out", str(path)]
    )
    assert (code, out) == (0, "")
    written = path.read_text()
    code, out, _ = _run(capsys, ["invariants", "--curve", "skew_cycloid", "--param", "a=1"])
    assert code == 0
    assert json.loads(out)["class"] == "PositiveInflection"
    assert path.read_text() == written


def test_subcommand_defaults_do_not_leak_between_calls(capsys):
    argv = ["classify", "--curve", "cycloid", "--param", "a=1"]
    assert _run(capsys, argv + ["--at", "0.5"])[1] == "Regular\n"
    assert _run(capsys, argv)[1] == "PositiveCusp\n"
    # The subcommand's function comes from its own defaults on every call.
    code, out, _ = _run(capsys, ["invariants", "--curve", "cycloid", "--param", "a=1"])
    assert json.loads(out)["class"] == "PositiveCusp"
    assert _run(capsys, argv)[1] == "PositiveCusp\n"


# -- inputs outside the domain -----------------------------------------------------


@pytest.mark.parametrize("at", ["nan", "inf"])
def test_classify_rejects_non_finite_base_point(capsys, at):
    code, out, err = _run(capsys, ["classify", "--curve", "cycloid", "--param", "a=1", "--at", at])
    assert (code, out) == (1, "")
    assert "t0 must be finite" in err
    assert f"t0={at}" in err


@pytest.mark.parametrize("grid, name", [("nan:0.1:3", "start"), ("0:inf:3", "stop")])
def test_profile_rejects_non_finite_grid(capsys, grid, name):
    argv = ["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp"]
    code, out, err = _run(capsys, argv + ["--grid", grid])
    assert (code, out) == (1, "")
    assert f"{name} must be finite" in err
    assert repr(grid) in err


@pytest.mark.parametrize(
    "grid, field",
    [
        ("0:1:1.5", "count must be an integer, got '1.5'"),
        ("a:1:3", "start must be a number, got 'a'"),
        ("0:b:3", "stop must be a number, got 'b'"),
        ("0:1:0", "count must be >= 1, got 0"),
    ],
)
def test_profile_names_the_bad_grid_field(capsys, grid, field):
    argv = ["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp"]
    code, out, err = _run(capsys, argv + ["--grid", grid])
    assert (code, out) == (1, "")
    assert err == f"error [profile]: bad --grid {grid!r}; {field}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "--curve", "(t^2, 1e999*t^3)"],
        ["classify", "--curve", "(t^2, 1e999*t^3)"],
        ["synthesize", "--kind", "euclid-cusp", "--f", "1e999", "--tau-max", "0.5"],
    ],
)
def test_non_finite_number_literal_exits_before_any_output(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert "curve syntax error" in err
    assert "number 1e999 overflows a float" in err


@pytest.mark.parametrize("command", ["invariants", "classify"])
def test_non_finite_curve_jet_exits_before_any_output(capsys, command):
    code, out, err = _run(capsys, [command, "--curve", "(t^2, 1e308*10*t^3)"])
    assert (code, out) == (1, "")
    assert err.startswith(f"error [{command}]: curve (t^2, 1e308*10*t^3) has a non-finite jet")


@pytest.mark.parametrize(
    "argv, term",
    [
        (["invariants", "--curve", "(t^2, t^3 + exp(710))"], "exp(710)"),
        (["invariants", "--curve", "(t^2, t^3 + 10^400)"], "10^400"),
        (["invariants", "--curve", "(t^2, t^3 + cosh(800))"], "cosh(800)"),
        (["classify", "--curve", "(t^2, t^3 * exp(t + 710))"], "exp(t + 710)"),
        (["synthesize", "--kind", "euclid-cusp", "--f", "exp(710)", "--tau-max", "0.1"], "exp(710)"),
    ],
)
def test_overflowing_term_exits_before_any_output(capsys, argv, term):
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == f"error [{argv[0]}]: {term} overflows a float\n"


@pytest.mark.parametrize(
    "kind, option, value", [("affine-cusp", "--h", "1"), ("inflection", "--f", "-5/16")]
)
def test_synthesize_refuses_the_quadrature_route_for_affine_kinds(capsys, kind, option, value):
    argv = ["synthesize", "--kind", kind, option, value, "--tau-max", "0.5"]
    code, out, err = _run(capsys, argv + ["--method", "quadrature"])
    assert (code, out) == (1, "")
    assert f"{kind} synthesis has only the 'frame' route, not method 'quadrature'" in err
    code, out, _ = _run(capsys, argv + ["--method", "frame"])
    assert code == 0 and out.startswith("tau,x,y\n")


# -- negative option values ----------------------------------------------------------


def test_negative_value_with_an_exponent_reaches_the_option(capsys):
    argv = ["classify", "--curve", "cycloid", "--param", "a=1", "--at", "-1e-3"]
    assert _run(capsys, argv) == (0, "Regular\n", "")


@pytest.mark.parametrize(
    "option, value, named",
    [("--step", "-1e-3", "step=-0.001"), ("--tau-max", "-inf", "tau_max=-inf")],
)
def test_negative_synthesis_range_is_rejected_by_value(capsys, option, value, named):
    argv = ["synthesize", "--kind", "euclid-cusp", "--f", "1", "--tau-max", "0.5", option, value]
    code, out, err = _run(capsys, argv)
    assert (code, out) == (1, "")
    assert "error [synthesize]" in err
    assert named in err


def test_profile_expression_may_start_with_a_minus_sign(capsys):
    argv = ["synthesize", "--kind", "inflection", "--f", "-5/16+t", "--tau-max", "0.05"]
    code, out, err = _run(capsys, argv + ["--step", "0.01"])
    assert (code, err) == (0, "")
    assert out.startswith("tau,x,y\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("tau,x,y\n", "at least two"),
        ("tau,f\n\n", "at least two"),
        ("tau,x,y\n0,0,0\n", "at least two"),
        ("", "unrecognized CSV header []"),
        ("tau,x,y\n0,0,0\n1,nan,1\n", "finite samples, got (nan, 1.0) at index 1"),
        ("tau,f\n0,0\n1,1\n2,inf\n", "finite samples, got (2.0, inf) at index 2"),
    ],
)
def test_render_rejects_bad_samples_before_any_output(capsys, tmp_path, text, message):
    samples = tmp_path / "samples.csv"
    samples.write_text(text)
    code, out, err = _run(capsys, ["render", "--samples", str(samples), "--svg", "-"])
    assert (code, out) == (1, "")
    assert err.startswith("error [render]")
    assert message in err


def test_synthesize_then_render_round_trip(capsys, tmp_path):
    csv_path, svg_path = tmp_path / "s.csv", tmp_path / "s.svg"
    argv = ["synthesize", "--kind", "euclid-cusp", "--f", "1", "--tau-max", "0.5"]
    assert _run(capsys, argv + ["--out", str(csv_path), "--svg", str(svg_path)]) == (0, "", "")
    direct = svg_path.read_text()
    code, out, err = _run(capsys, ["render", "--samples", str(csv_path), "--svg", "-"])
    assert (code, err) == (0, "")
    assert out == direct


@pytest.mark.parametrize(
    "option, value, named",
    [
        ("--width", "0", "width=0"),
        ("--width", "-5", "width=-5"),
        ("--height", "0", "height=0"),
        ("--stroke-width", "nan", "stroke_width=nan"),
    ],
)
@pytest.mark.parametrize("command", ["synthesize", "render"])
def test_bad_svg_options_exit_before_any_output(capsys, tmp_path, command, option, value, named):
    samples = tmp_path / "samples.csv"
    samples.write_text("tau,x,y\n0,0,0\n1,1,1\n")
    if command == "synthesize":
        argv = ["synthesize", "--kind", "euclid-cusp", "--f", "1", "--tau-max", "0.5", "--svg", "-"]
    else:
        argv = ["render", "--samples", str(samples), "--svg", "-"]
    code, out, err = _run(capsys, argv + [option, value])
    assert (code, out) == (1, "")
    assert err.startswith(f"error [{command}]")
    assert named in err


# -- the invariants report on one germ: cuspkit.invariants, which the CLI prints --


REPORT_NAMES = CATALOG_CUSPS + CATALOG_INFLECTIONS


@pytest.mark.parametrize(
    "spec",
    [catalog_lookup(name, {"a": 1.3}) for name in REPORT_NAMES]
    + [parse_curve(text) for text in MODEL_GERMS],
    ids=list(REPORT_NAMES) + [f"model{i}" for i in range(len(MODEL_GERMS))],
)
def test_report_reads_the_profilers_jets(spec):
    report = cuspkit.invariants(spec)
    if report["class"].endswith("Cusp"):
        want = Profiler(spec, affine.AFFINE_CUSP).jets
        fields = ("mu_A", "f0", "fdot0", "h0")
        euclid = Profiler(spec, euclidean.EUCLID_CUSP)
        assert (report["mu_g"], report["f0_g"]) == (euclid.jets.mu_g, euclid.f0)
    else:
        want = Profiler(spec, affine.INFLECTION).jets
        fields = ("mu_I", "eps_I", "f0", "g0", "identity_residual_t", "identity_residual_tau")
    assert {f: report[f] for f in fields} == {f: getattr(want, f) for f in fields}


def test_report_of_a_regular_point_matches_the_curvature_functions():
    spec = catalog_lookup("circle", {"r": 2.0})
    report = cuspkit.invariants(spec)
    assert report["class"] == "Regular"
    assert report["kappa_g"] == euclidean.kappa_g(spec, 0.0) == 0.5
    assert report["kappa_A"] == affine.kappa_A(spec, 0.0)


@pytest.mark.parametrize("text", ["(t^2, t^4)", "(2*t + t^3, t^4)"])
def test_report_of_a_degenerate_point_carries_the_classifying_brackets(text):
    spec = parse_curve(text)
    report = cuspkit.invariants(spec)
    cls = euclidean.classify(spec.jet(0.0, 10))
    assert report["class"] == "Degenerate"
    assert set(report) == {"label", "params", "class", "diagnostics"}
    want = {"speed": cls.speed, "b12": cls.b12, "b13": cls.b13, "b23": cls.b23}
    assert report["diagnostics"] == want


@pytest.mark.parametrize(
    "name, params",
    [("cycloid", {"a": 1.0}), ("skew_cycloid", {"a": 1.0}), ("circle", {"r": 1.0}), ("line", {})],
)
def test_one_report_classifies_once_and_never_reduces_to_the_normal_form(
    monkeypatch, name, params
):
    calls = []
    classify = euclidean.classify

    def counted(germ):
        calls.append(germ)
        return classify(germ)

    def refused(*args):
        raise AssertionError("the report reads c from mu_A or mu_I, not the normal form")

    # Every binding of classify in the package, as from-imports copy it.
    for module in list(sys.modules.values()):
        if module.__name__.startswith("cuspkit") and vars(module).get("classify") is classify:
            monkeypatch.setattr(module, "classify", counted)
    for fn in ("normal_form", "_normal_form_cusp", "_normal_form_inflection"):
        monkeypatch.setattr(affine, fn, refused)
    report = cuspkit.invariants(catalog_lookup(name, params))
    assert len(calls) == 1
    assert ("c" in report) == (name in ("cycloid", "skew_cycloid"))


def test_regular_point_whose_curvature_overflows_exits_naming_the_speed(capsys):
    # kappa_g = [g', g''] / |g'|^3 with |g'| = 1e300 / 3: |g'|^3 overflows.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, out, err = _run(capsys, ["invariants", "--curve", "(t^2, t^3 + ((1e300*t))^1/3)"])
    assert (code, out) == (1, "")
    assert err.startswith("error [invariants]: overflow encountered")
    assert err.endswith("in the curvature formula at |gamma'| = 3.33333e+299\n")


# -- the output contract of cli.main ---------------------------------------------

# The table of probes is CONTRACT in tests/contract.py, the one list: CI runs
# it through the installed script, and the test below in process.


def _run_with_warnings_as_errors(argv):
    """(exit code, stdout, stderr) of cli.main(argv), with RuntimeWarning an error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("argv, code, text", CONTRACT, ids=[row_id(c[0]) for c in CONTRACT])
def test_every_command_exits_0_with_finite_numbers_or_1_with_one_error_line(argv, code, text):
    got = _run_with_warnings_as_errors(argv)
    assert got[0] == code
    assert_contract(*got)
    assert text in got[1 if code == 0 else 2]


# Curves and synthesis inputs from a small grammar of the DSL: numbers up to
# 1e308, the four operators, unary minus, every function and rational powers.
# Half of the curves are a model cusp or inflection with drawn coefficients
# and a drawn term of higher order, so that the germ's class is often a cusp
# or an inflection.
_NUMBERS = st.sampled_from(
    ["0", "1", "3", "16", "0.5", "(1/3)", "1e-300", "1e-150", "1e100", "1e150", "1e200",
     "1e300", "1e308"]
)


def _expressions(variables):
    return st.recursive(
        st.one_of(_NUMBERS, st.sampled_from(variables)),
        lambda e: st.one_of(
            st.builds("{} {} {}".format, e, st.sampled_from("+-*/"), e),
            st.builds("{}({})".format, st.sampled_from(["sin", "cos", "sinh", "cosh", "exp"]), e),
            st.builds("-{}".format, e),
            st.builds("({})^{}".format, e, st.sampled_from(["2", "-1", "(1/3)", "(5/2)", "(-2/3)"])),
        ),
        max_leaves=5,
    )


_EXPRESSIONS = _expressions(["t", "t^2", "t^3", "t^5", "a"])
_MODELS = [("t^2", "t^3"), ("t", "t^3"), ("t^2", "t^3 + t^5"), ("t", "t^3 + t^4"), ("t^2", "t^4")]
_CURVES = st.one_of(
    st.builds(
        lambda m, cx, cy, ex, ey, k:
            f"({cx}*({m[0]}) + ({ex})*t^{k}, {cy}*({m[1]}) + ({ey})*t^{k + 1})",
        st.sampled_from(_MODELS), _NUMBERS, _NUMBERS, _EXPRESSIONS, _EXPRESSIONS, st.integers(2, 5),
    ),
    st.builds("({}, {})".format, _EXPRESSIONS, _EXPRESSIONS),
)
_PARAMS = st.sampled_from([[], ["--param", "a=2"], ["--param", "a=1e308"], ["--param", "a=nan"]])
_AT = st.sampled_from(["0", "0.5", "-1e-3", "1e-300", "1e308", "nan", "inf"])
# Synthesis inputs are each kind's value at 0 plus a drawn term times t.
_AT_ZERO = {"euclid-cusp": ("--f", "1"), "affine-cusp": ("--h", "0.5"),
            "inflection": ("--f", "-5/16")}
_TAU_MAX = st.sampled_from(["1e-300", "1e-9", "0.049", "0.05", "0.5", "1", "50", "1e308"])
_STEP = st.sampled_from([[], ["--step", "1e-300"], ["--step", "1e-2"], ["--step", "0.3"]])
_METHOD = st.sampled_from([[], ["--method", "quadrature"]])
# Profile lines run each kind on a catalog cusp or inflection or on a drawn
# curve, over a grid whose ends reach from 0 past the subnormal edge to 1e308.
_PROFILE_CURVES = st.one_of(
    st.builds(
        lambda name, a: ["--curve", name, "--param", f"a={a}"],
        st.sampled_from(CATALOG_CUSPS + CATALOG_INFLECTIONS), st.sampled_from(["0.5", "1", "2"]),
    ),
    st.builds(lambda c, p: ["--curve", c, *p], _CURVES, _PARAMS),
)
_GRID_END = st.builds(
    "{}{}".format, st.sampled_from(["", "-"]),
    st.sampled_from(["0", "1e-310", "1e-300", "1e-160", "0.049", "0.05", "1.5", "50", "1e308"]),
)
_COMMANDS = st.one_of(
    st.builds(lambda c, p: ["invariants", "--curve", c, *p], _CURVES, _PARAMS),
    st.builds(lambda c, at, p: ["classify", "--curve", c, "--at", at, *p], _CURVES, _AT, _PARAMS),
    st.builds(
        lambda kind, e, tau_max, step, method: [
            "synthesize", "--kind", kind, _AT_ZERO[kind][0], f"{_AT_ZERO[kind][1]} + ({e})*t",
            "--tau-max", tau_max, *step, *method],
        st.sampled_from(list(_AT_ZERO)), _expressions(["t", "t^2", "t^3", "t^5"]), _TAU_MAX,
        _STEP, _METHOD,
    ),
    st.builds(
        lambda curve, kind, start, stop, count: [
            "profile", *curve, "--kind", kind, "--grid", f"{start}:{stop}:{count}"],
        _PROFILE_CURVES, st.sampled_from(list(_AT_ZERO)), _GRID_END, _GRID_END,
        st.sampled_from(["1", "3", "11", "101"]),
    ),
)


@given(_COMMANDS)
@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@example(["synthesize", "--kind", "affine-cusp", "--h", "1", "--tau-max", "1e308", "--step", "0.3"])
@example(["synthesize", "--kind", "euclid-cusp", "--f", "sinh(16)", "--tau-max", "1",
          "--step", "1e-2"])
@example(["synthesize", "--kind", "euclid-cusp", "--f", "exp((t*t)^3)", "--tau-max", "50"])
@example(["synthesize", "--kind", "inflection", "--f", "-5/16 + t*(1e300)", "--tau-max", "0.5"])
@example(["synthesize", "--kind", "affine-cusp", "--h", "1e300", "--tau-max", "1e-9"])
@example(["synthesize", "--kind", "euclid-cusp", "--f", "1e200", "--tau-max", "0.1"])
@example(["synthesize", "--kind", "euclid-cusp", "--f", "exp(t)", "--tau-max", "300"])
@example(["synthesize", "--kind", "euclid-cusp", "--f", "1 + sinh(1000*t)", "--tau-max", "1"])
@example(["synthesize", "--kind", "inflection", "--f", "-5/16 + 1e100*t*t*t", "--tau-max", "0.01"])
@example(["invariants", "--curve", "(t^2, t^3 + ((1e300*t))^1/3)"])
@example(["invariants", "--curve", "(t^2*1e200, t^3)"])
@example(["profile", "--curve", "(t + t^2*1e300, t^3 + t^4)", "--kind", "euclid-cusp",
          "--grid", "-0.1:0.1:11"])
@example(["profile", "--curve", "(t^2 + t^3*16, t^3 + t^4*1e150)", "--kind", "affine-cusp",
          "--grid", "0:0:1"])
def test_generated_commands_keep_the_output_contract(argv):
    assert_contract(*_run_with_warnings_as_errors(argv))
