"""Mutation check: does a change of a numeric literal in ``src`` fail the tests that pin it?

Run from the repository root::

    python tests/mutate.py [LABEL ...]

Each row of ``MUTANTS`` names a source file, a snippet of it that occurs
there once and holds the literal once, a label, and the tests that must
fail when the literal changes.  For each row (or each row whose label is
given) and each factor of ``FACTORS``, the script copies ``src``, ``tests``
and ``pyproject.toml`` to a temporary directory, multiplies the literal by
the factor in the copy, and runs the row's tests there with pytest.  The
mutant is killed when they fail.  An unmutated copy runs every selected
row's tests first, which must pass.  One line per mutant is printed, and
the exit status is 1 if the unmutated tests fail or any mutant survives.

pytest does not collect this file and no CI step runs it.  The eight
mutants of ``MUTANTS`` take about 15 s on two cores.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FACTORS = (100.0, 0.01)


@dataclass(frozen=True)
class Mutant:
    path: str  # relative to the repository root
    snippet: str  # occurs once in the file and holds ``literal`` once
    literal: str
    label: str
    tests: tuple[str, ...]  # pytest node ids, relative to the root


_EUCLID_TESTS = "tests/test_euclidean.py::test_classify_tolerance_decides_"
_SYNTHESIS_TESTS = "tests/test_synthesis.py::test_inflection_"

MUTANTS = (
    Mutant(
        "src/cuspkit/euclidean.py", "CLASSIFY_TOL = 1e-9", "1e-9", "CLASSIFY_TOL",
        (_EUCLID_TESTS + "b12_against_bscale", _EUCLID_TESTS + "the_speed_against_vscale"),
    ),
    Mutant(
        "src/cuspkit/synthesis.py", "INFLECTION_PROFILE_VALUE) > 1e-9", "1e-9",
        "inflection f(0) = -5/16", (_SYNTHESIS_TESTS + "f0_rule_at_its_edge",),
    ),
    Mutant(
        "src/cuspkit/synthesis.py", "abs(residual) <= 1e-9 * scale", "1e-9",
        "inflection 32 f'(0)^2 + 9 f''(0) = 0",
        (_SYNTHESIS_TESTS + "constraint_residual_rule_at_its_edge",),
    ),
    Mutant(
        "src/cuspkit/synthesis.py", "abs(fd) <= 1e-9", "1e-9", "inflection f'(0) = 0",
        (_SYNTHESIS_TESTS + "slope_rule_at_its_edge",),
    ),
)


def _copy_tree(into: str) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(os.path.join(ROOT, name), os.path.join(into, name), ignore=ignore)
    shutil.copy(os.path.join(ROOT, "pyproject.toml"), into)


def _mutated(source: str, row: Mutant, factor: float) -> tuple[str, str]:
    """(the source with the row's literal times ``factor``, the new literal)."""
    if source.count(row.snippet) != 1 or row.snippet.count(row.literal) != 1:
        raise SystemExit(f"{row.label}: {row.snippet!r} must occur once in {row.path}, "
                         f"holding {row.literal!r} once")
    new = f"{float(row.literal) * factor:g}"
    return source.replace(row.snippet, row.snippet.replace(row.literal, new)), new


def _tests_pass(tree: str, tests) -> bool:
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"))
    cmd = [sys.executable, "-W", "error::RuntimeWarning", "-m", "pytest", "-q", "-x",
           "-p", "no:cacheprovider", *tests]
    return subprocess.run(cmd, cwd=tree, env=env, capture_output=True).returncode == 0


def run(rows) -> int:
    with tempfile.TemporaryDirectory() as tree:
        _copy_tree(tree)
        if not _tests_pass(tree, [test for row in rows for test in row.tests]):
            print("the unmutated tests fail; no mutant was run")
            return 1
    survivors = 0
    print(f"{'label':40} {'literal':>8} {'mutant':>8}  result   seconds")
    for row in rows:
        for factor in FACTORS:
            start = time.perf_counter()
            with tempfile.TemporaryDirectory() as tree:
                _copy_tree(tree)
                path = os.path.join(tree, row.path)
                with open(path) as f:
                    source, new = _mutated(f.read(), row, factor)
                with open(path, "w") as f:
                    f.write(source)
                killed = not _tests_pass(tree, row.tests)
            survivors += not killed
            result = "killed" if killed else "SURVIVED"
            seconds = time.perf_counter() - start
            print(f"{row.label:40} {row.literal:>8} {new:>8}  {result:8} {seconds:5.1f}")
    return 1 if survivors else 0


def main(argv) -> int:
    rows = [row for row in MUTANTS if not argv or row.label in argv]
    unknown = set(argv) - {row.label for row in MUTANTS}
    if unknown:
        print(f"unknown label(s): {', '.join(sorted(unknown))}")
        return 2
    return run(rows)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
