"""Write the golden CLI outputs that ``tests/test_golden.py`` compares against.

Run from the repository root::

    PYTHONPATH=src python tests/golden/regenerate.py [OUT_DIR]

OUT_DIR defaults to this directory.  Before a file is replaced, the script
prints the largest |new - old| / max(1, |old|) over its numbers, so a change
that moves the CLI output shows by how much.  ``versions.json`` records the
numpy and Python versions the files were written with; the test compares
bytes only when numpy matches it.

The set: ``invariants`` JSON for every catalog cusp and inflection at a = 1
and for the two DSL curves ``MODEL_GERMS``, whose subtrees repeat,
``classify`` for the whole catalog, 101-point ``profile`` CSVs of every
applicable kind, one ``render`` SVG of the profile CSV ``RENDER_SAMPLES``,
always read from this directory, ``synthesize`` CSVs of every kind and
method for the profiles ``SYNTHESIS_PROFILES``, and one ``synthesize`` SVG.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import re
import sys

import numpy as np

from cuspkit import cli

GOLDEN_DIR = os.path.dirname(os.path.abspath(__file__))
VERSIONS_FILE = "versions.json"

CUSPS = ("canonical_cusp", "cuspidal_cubic", "cycloid", "hyperbolic_cycloid")
INFLECTIONS = ("cubic_graph", "skew_cycloid")
CATALOG_PARAMS = {"circle": ["r=1"], "line": [], "parabola": []}
# The reparametrized model cusp and inflection of tests/conftest.py
# (MODEL_GERMS[1] and [3]): six copies of (t + t^2/3) in each.
MODEL_GERMS = {
    "model_cusp": "(2*(t + t^2/3)^2 + (t + t^2/3)^3 - 0.5*(t + t^2/3)^5 + 1,"
    " 3*(t + t^2/3)^2 + 2*(t + t^2/3)^3 - (t + t^2/3)^5 - 2)",
    "model_inflection": "(2*(t + t^2/3) + (t + t^2/3)^3 + 0.7*(t + t^2/3)^4 + 1,"
    " 3*(t + t^2/3) + 2*(t + t^2/3)^3 + 1.4*(t + t^2/3)^4 - 2)",
}
GRID = "-0.5:0.5:101"
RENDER_SAMPLES = "profile_affine-cusp_cycloid.csv"
# The profiles of tests/test_synthesis.py; the affine cusp's is h, the
# tau^2-coefficient of its profile.
SYNTHESIS_PROFILES = {
    "euclid-cusp": "1 + 0.3*t - 0.2*t^2",
    "affine-cusp": "0.5 + 0.1*t - 0.12*t^2",
    "inflection": "-5/16 + 0.3*t - 0.16*t^2 + 0.1*t^3",
}
SYNTHESIS_RANGE = ["--tau-max", "0.5", "--step", "1e-2"]


def _curve_args(name: str) -> list[str]:
    params = CATALOG_PARAMS.get(name, ["a=1"])
    return ["--curve", name] + [a for p in params for a in ("--param", p)]


def _synthesize_args(kind: str) -> list[str]:
    flag = "--h" if kind == "affine-cusp" else "--f"
    return ["synthesize", "--kind", kind, flag, SYNTHESIS_PROFILES[kind], *SYNTHESIS_RANGE]


def _cases() -> dict[str, list[list[str]]]:
    """File name -> the argv lists whose standard outputs, joined, make it."""
    cases = {
        f"invariants_{name}.json": [["invariants", *_curve_args(name)]]
        for name in CUSPS + INFLECTIONS
    }
    for name, text in MODEL_GERMS.items():
        cases[f"invariants_{name}.json"] = [["invariants", "--curve", text]]
    cases["classify_catalog.txt"] = [
        ["classify", *_curve_args(name)] for name in cli.CATALOG_NAMES
    ]
    for kind, names in (
        ("euclid-cusp", CUSPS),
        ("affine-cusp", CUSPS),
        ("inflection", INFLECTIONS),
    ):
        for name in names:
            cases[f"profile_{kind}_{name}.csv"] = [
                ["profile", *_curve_args(name), "--kind", kind, "--grid", GRID]
            ]
    cases["render_profile.svg"] = [
        ["render", "--samples", os.path.join(GOLDEN_DIR, RENDER_SAMPLES), "--svg", "-"]
    ]
    for method in ("frame", "quadrature"):
        cases[f"synthesize_euclid-cusp_{method}.csv"] = [
            [*_synthesize_args("euclid-cusp"), "--method", method]
        ]
    for kind in ("affine-cusp", "inflection"):
        cases[f"synthesize_{kind}.csv"] = [_synthesize_args(kind)]
    cases["synthesize_affine-cusp.svg"] = [
        [*_synthesize_args("affine-cusp"), "--out", os.devnull, "--svg", "-"]
    ]
    return cases


CASES = _cases()


def run_case(argvs: list[list[str]]) -> str:
    """The standard output of ``cli.main`` over the argv lists, in order."""
    out = io.StringIO()
    for argv in argvs:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cuspkit {' '.join(argv)} exited with {code}")
    return out.getvalue()


# A number in any of the outputs; everything between numbers is compared
# as text.
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|nan|-?inf")


def max_rel_diff(new: str, old: str) -> float:
    """max |new - old| / max(1, |old|) over the numbers of two outputs.

    Raises ``ValueError`` when the outputs differ in anything but the
    values of their numbers: keys, strings, layout or the count of numbers.
    """
    if _NUMBER.split(new) != _NUMBER.split(old):
        raise ValueError("outputs differ outside their numbers")
    a = np.array([float(m) for m in _NUMBER.findall(new)])
    b = np.array([float(m) for m in _NUMBER.findall(old)])
    if a.size == 0:
        return 0.0
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(invalid="ignore"):  # inf - inf; such pairs are `same`
        rel = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    return float(np.max(np.where(same, 0.0, rel)))


def main(out_dir: str = GOLDEN_DIR) -> None:
    os.makedirs(out_dir, exist_ok=True)
    for name, argvs in CASES.items():
        text = run_case(argvs)
        path = os.path.join(out_dir, name)
        if os.path.exists(path):
            with open(path) as fh:
                old = fh.read()
            try:
                print(f"{name}: max rel diff {max_rel_diff(text, old):.3g}")
            except ValueError as exc:
                print(f"{name}: {exc}")
        else:
            print(f"{name}: new")
        with open(path, "w") as fh:
            fh.write(text)
    versions = {"numpy": np.__version__, "python": platform.python_version()}
    with open(os.path.join(out_dir, VERSIONS_FILE), "w") as fh:
        fh.write(json.dumps(versions, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])
