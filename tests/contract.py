r"""The output contract of the ``cuspkit`` command, as one table.

Every command exits 0 with finite numbers on stdout and nothing on stderr,
or exits 1 with one error line on stderr and nothing on stdout (see
``cuspkit.cli.main``).  ``CONTRACT`` is the one list of commands that probe
it; a new probe is one more row.  ``tests/test_cli.py`` runs every row in
process.  Run as a script, this module runs every row through the
installed ``cuspkit`` console script, each in its own process with
``PYTHONWARNINGS=error::RuntimeWarning``, and checks the exit code, the
contract and the row's text.  It exits 1 if any row fails, or if no
``cuspkit`` is on PATH.  After ``pip install -e .``::

    python tests/contract.py

Without an install, a shim on PATH runs the checkout's CLI::

    shim=$(mktemp -d)
    printf '#!/bin/sh\nexec python -m cuspkit.cli "$@"\n' > "$shim/cuspkit"
    chmod +x "$shim/cuspkit"
    PATH="$shim:$PATH" PYTHONPATH=src python tests/contract.py
"""

import os
import re
import shlex
import shutil
import subprocess
import sys

TESTS = os.path.dirname(os.path.abspath(__file__))
GOLDEN = os.path.join(TESTS, "golden")
DATA = os.path.join(TESTS, "data")
MISSING = os.path.join(DATA, "missing.csv")  # a path that does not exist
NO_DIR = os.path.join(DATA, "missing", "report.json")  # in a directory that does not exist

# The one list of probes: (argv, exit code, text the stdout (exit 0) or the
# one stderr line (exit 1) must hold).  It holds the console-script probes of
# CI, with their files on stdout, and each input once seen to end in a
# traceback, a RuntimeWarning or non-finite output.
CONTRACT = [
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp",
      "--grid", "-0.5:3.1:101"], 1, "error [profile]"),
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp",
      "--grid", "-1.5:1.5:4001"], 0, "tau,f\n"),
    (["profile", "--curve", "hyperbolic_cycloid", "--param", "a=1", "--kind", "affine-cusp",
      "--grid", "-0.8:0.8:4001"], 0, "tau,f\n"),
    (["profile", "--curve", "skew_cycloid", "--param", "a=1", "--kind", "inflection",
      "--grid", "-0.75:1.5:4001"], 0, "tau,f\n"),
    (["invariants", "--curve", "cycloid", "--param", "a=1"], 0, '"class": "PositiveCusp"'),
    (["invariants", "--curve", "skew_cycloid", "--param", "a=1"], 0, '"class": "PositiveInflection"'),
    (["invariants", "--curve", "circle", "--param", "r=2"], 0, '"class": "Regular"'),
    (["invariants", "--curve", "(a*t^2, a*t^3 + c*t^5) with a=2, c=1"], 0, '"class": "PositiveCusp"'),
    (["synthesize", "--kind", "euclid-cusp", "--f", "1 + t/3", "--tau-max", "0.5"], 0, "tau,x,y\n"),
    (["render", "--samples", os.path.join(GOLDEN, "synthesize_euclid-cusp_frame.csv"),
      "--svg", "-"], 0, "<polyline"),
    # Samples that all sit at (1e10, 1e10) are drawn at the centre; an x extent
    # from -1e308 to 1e308 overflows and is named.
    (["render", "--samples", os.path.join(DATA, "render_coincident.csv"), "--svg", "-"],
     0, 'points="320.000,240.000 320.000,240.000"'),
    (["render", "--samples", os.path.join(DATA, "render_wide.csv"), "--svg", "-"],
     1, "padded extent is finite, got x from -1e+308 to 1e+308"),
    (["synthesize", "--kind", "affine-cusp", "--h", "0.5", "--tau-max", "0.5"], 0, "tau,x,y\n"),
    (["synthesize", "--kind", "inflection", "--f", "-5/16", "--tau-max", "0.5"], 0, "tau,x,y\n"),
    (["synthesize", "--kind", "inflection", "--f", "-5/16 - t", "--tau-max", "0.6"], 1, "0.5625"),
    (["invariants", "--curve", "(t^2, 1e999*t^3)"], 1, "1e999"),
    (["invariants", "--curve", "(t^2, 1e308*10*t^3)"], 1, "non-finite jet"),
    (["invariants", "--curve", "(t^2, t^3 + exp(710))"], 1, "exp(710)"),
    (["profile", "--curve", "(t^2, t^3 + t^4*exp(300*t))", "--kind", "euclid-cusp",
      "--grid", "-0.5:40:101"],
     1, "non-finite jet at t0=2.6800120369181446: coefficient 0 of its y component is inf, "
        "while solving for the t of the grid end tau = 40"),
    (["synthesize", "--kind", "affine-cusp", "--h", "1", "--tau-max", "0.5",
      "--method", "quadrature"], 1, "only the 'frame' route"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "0", "--tau-max", "0.5"], 1, "f(0) != 0"),
    # A value that starts with "-" before a letter or a bracket is the option's value.
    (["synthesize", "--kind", "euclid-cusp", "--f", "-cos(t)", "--tau-max", "0.5"], 0, "tau,x,y\n"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "-t^2", "--tau-max", "0.5"], 1, "f(0) != 0"),
    (["synthesize", "--kind", "affine-cusp", "--h", "-t^5", "--tau-max", "0.5"], 0, "tau,x,y\n"),
    (["synthesize", "--kind", "inflection", "--f", "-1/4", "--tau-max", "0.5"], 1, "-5/16"),
    (["synthesize", "--kind", "affine-cusp", "--h", "1", "--tau-max", "1e308", "--step", "0.3"],
     1, "tau_max / step <= 1000000, got inf"),
    (["synthesize", "--kind", "inflection", "--f", "-5/16 + t*(1e300)", "--tau-max", "0.5"],
     1, "f'(0) = 1e+300"),
    (["invariants", "--curve", "(t^2, t^3 + ((1e300*t))^1/3)"], 1, "|gamma'| = 3.33333e+299"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "sinh(16)", "--tau-max", "1", "--step", "1e-2"],
     1, "euclid-cusp synthesis with step 0.01 is not finite from |tau| = 0.17 on"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "sinh(16)", "--tau-max", "1", "--step", "1e-2",
      "--method", "quadrature"], 0, "tau,x,y\n"),
    (["synthesize", "--kind", "affine-cusp", "--h", "1e300", "--tau-max", "1e-9"],
     1, "frame system entry a21 is not finite in its tau^0 coefficient at tau = 0"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "exp((t*t)^3)", "--tau-max", "50"],
     1, "the prescribed function is not finite at tau = 2.982"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "exp((t*t)^3)", "--tau-max", "50",
      "--method", "quadrature"], 1, "the prescribed function is not finite at tau = 2.98676"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "1 + sinh(1000*t)", "--tau-max", "1"],
     1, "the prescribed function is not finite at tau = 0.704"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "1e200", "--tau-max", "0.1"],
     1, "frame system entry a01 is not finite in its tau^0 coefficient at tau = 0"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "exp(t)", "--tau-max", "300"],
     1, "frame system entry a12 is not finite at tau = 232.269"),
    (["synthesize", "--kind", "inflection", "--f", "-5/16 + 1e100*t*t*t", "--tau-max", "0.01"],
     1, "the synthesis germ overflows in its tau^10 coefficient"),
    (["invariants", "--curve", "(t^2*1e200, t^3)"],
     1, "cuspidal curvature overflows: |gamma''|^(5/2) at |gamma''| = 2e+200"),
    (["profile", "--curve", "(t + t^2*1e300, t^3 + t^4)", "--kind", "euclid-cusp",
      "--grid", "-0.1:0.1:11"],
     1, "cuspidal curvature overflows: |gamma''|^(5/2) at |gamma''| = 2e+300"),
    (["profile", "--curve", "(t^2 + t^3*16, t^3 + t^4*1e150)", "--kind", "affine-cusp",
      "--grid", "0:0:1"],
     1, "the affine-cusp jets of the germ are not finite: the t^3 coefficient of f_t = nan"),
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "affine-cusp",
      "--grid", "-1e308:1e308:3"], 1, "bad --grid '-1e308:1e308:3'; stop - start = inf"),
    # Grids as narrow as the subnormal 1e-310 print the germ's values, also where
    # L is large; a grid out to -1e308 names its target.
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "affine-cusp",
      "--grid", "-1e-160:1e-160:3"], 0, "\n1e-160,0.16"),
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp",
      "--grid", "-1e-300:1e-300:3"], 0, "\n1e-300,0.35355339059327"),
    (["profile", "--curve", "skew_cycloid", "--param", "a=1", "--kind", "inflection",
      "--grid", "-1e-300:1e-300:3"], 0, "\n1e-300,-0.3125\n"),
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp",
      "--grid", "-1e-310:1e-310:3"], 0, "\n1e-310,0.35355339059327"),
    (["profile", "--curve", "(1e10*t^2, t^3)", "--kind", "euclid-cusp",
      "--grid", "-1e-300:1e-300:3"], 0, "\n1e-300,7.5e-16\n"),
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "affine-cusp",
      "--grid", "-1e308:0:2"], 1, "did not converge: at target tau = -1e+308"),
    # A pole of the prescribed function on a grid point, or at tau = 0, is named.
    (["synthesize", "--kind", "euclid-cusp", "--f", "1 + 1/(t - 0.125)", "--tau-max", "1",
      "--step", "0.25"], 1, "zero constant coefficient at t = 0.125"),
    (["synthesize", "--kind", "affine-cusp", "--h", "1/(t-0.125)", "--tau-max", "1",
      "--step", "0.25"], 1, "zero constant coefficient at t = 0.125"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "1 + 1/t", "--tau-max", "1", "--step", "0.25"],
     1, "the prescribed function is not finite at tau = 0"),
    # A canvas size past the float range is named, as a size of 0 is.
    (["render", "--samples", os.path.join(GOLDEN, "synthesize_inflection.csv"), "--svg", "-",
      "--width", str(10**400)], 1, "SVG width must be finite and > 0, got width=1000"),
    (["synthesize", "--kind", "inflection", "--f", "-5/16", "--tau-max", "0.5", "--svg", "-",
      "--height", str(10**400)], 1, "SVG height must be finite and > 0, got height=1000"),
    # A samples row that is not one number per header field is named by its line.
    (["render", "--samples", os.path.join(DATA, "render_ragged.csv"), "--svg", "-"],
     1, "render_ragged.csv line 3 holds '0.1,0.5,0.25,7'; its header tau,x,y expects 3 numbers"),
    (["render", "--samples", os.path.join(DATA, "render_not_a_number.csv"), "--svg", "-"],
     1, "render_not_a_number.csv line 3 holds '0.1,abc'; its header tau,f expects 2 numbers"),
    (["render", "--samples", os.path.join(DATA, "render_missing_column.csv"), "--svg", "-"],
     1, "render_missing_column.csv line 2 holds '0,0'; its header tau,x,y expects 3 numbers"),
    # A --param that a DSL curve never reads is refused, as for a catalog curve.
    (["classify", "--curve", "(t^2, t^3)", "--param", "zzz=1"],
     1, "curve '(t^2, t^3)' takes no parameter(s): zzz"),
    # A division or negative power of constants that divides by zero is named by its term.
    (["synthesize", "--kind", "inflection", "--f", "-5/16 + (0 / 0)*t", "--tau-max", "0.049",
      "--step", "0.3"], 1, "error [synthesize]: 0 / 0 divides by zero\n"),
    (["synthesize", "--kind", "inflection", "--f", "-5/16 + ((0)^(-2/3))*t", "--tau-max", "0.5"],
     1, "error [synthesize]: 0^(-2/3) divides by zero\n"),
    # A path that cannot be opened, to read or to write, is named with the reason.
    (["render", "--samples", MISSING, "--svg", "-"],
     1, f"error [render]: cannot open {MISSING!r}: No such file or directory\n"),
    (["render", "--samples", DATA, "--svg", "-"],
     1, f"error [render]: cannot open {DATA!r}: Is a directory\n"),
    (["render", "--samples", os.path.join(GOLDEN, "synthesize_inflection.csv"), "--svg", DATA],
     1, f"error [render]: cannot open {DATA!r}: Is a directory\n"),
    (["invariants", "--curve", "cycloid", "--param", "a=1", "--out", DATA],
     1, f"error [invariants]: cannot open {DATA!r}: Is a directory\n"),
    (["invariants", "--curve", "cycloid", "--param", "a=1", "--out", NO_DIR],
     1, f"error [invariants]: cannot open {NO_DIR!r}: No such file or directory\n"),
    (["profile", "--curve", "cycloid", "--param", "a=1", "--kind", "euclid-cusp",
      "--grid", "-0.5:0.5:3", "--out", DATA],
     1, f"error [profile]: cannot open {DATA!r}: Is a directory\n"),
    (["synthesize", "--kind", "euclid-cusp", "--f", "1", "--tau-max", "0.5", "--out", DATA],
     1, f"error [synthesize]: cannot open {DATA!r}: Is a directory\n"),
    # The CSV would go to stdout: files are written first, so stdout stays empty.
    (["synthesize", "--kind", "euclid-cusp", "--f", "1", "--tau-max", "0.5", "--svg", DATA],
     1, f"error [synthesize]: cannot open {DATA!r}: Is a directory\n"),
    (["verify", "--json", DATA], 1, f"error [verify]: cannot open {DATA!r}: Is a directory\n"),
    # The invariant report reads the germ to order 8 (affine.REPORT_JET_ORDER):
    # a term past it that overflows the order-12 jets of f no longer fails it.
    (["invariants", "--curve", "(t^2, t^3 + 1e308*t^11)"], 0, '"mu_A": 0.0'),
    (["invariants", "--curve", "(t^2, t^3 + 1e307*t^9)"], 0, '"mu_A": 0.0'),
]


def row_id(argv) -> str:
    """A row's command line, with the checkout's tests directory written as "tests"."""
    return " ".join(argv).replace(TESTS, "tests")


def assert_contract(code, out, err):
    if code == 0:
        assert err == "", "exit 0 with a non-empty stderr"
        assert not re.search(r"\b(nan|inf|infinity)\b", out, re.IGNORECASE), "non-finite output"
    else:
        assert (code, out) == (1, ""), "exit code not 1, or output on stdout"
        assert err.count("\n") == 1 and err.endswith("\n"), "stderr is not one line"


def main() -> int:
    if not __debug__:
        print("contract: the checks are asserts; run without -O", file=sys.stderr)
        return 1
    script = shutil.which("cuspkit")
    if script is None:
        print("contract: no cuspkit script on PATH", file=sys.stderr)
        return 1
    env = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
    failed = 0
    for argv, code, text in CONTRACT:
        run = subprocess.run([script, *argv], capture_output=True, text=True, env=env)
        try:
            assert run.returncode == code, f"exit code {run.returncode}, expected {code}"
            assert_contract(run.returncode, run.stdout, run.stderr)
            assert text in (run.stdout if code == 0 else run.stderr), f"no {text!r} in the output"
        except AssertionError as exc:
            failed += 1
            print(f"FAIL cuspkit {shlex.join(argv)}: {exc}\n{run.stderr}", file=sys.stderr)
    print(f"{len(CONTRACT) - failed} of {len(CONTRACT)} commands keep the output contract")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
