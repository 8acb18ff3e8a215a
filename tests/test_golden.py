"""The CLI against the committed outputs under ``tests/golden``.

Text outside numbers (JSON keys, strings, CSV headers, SVG markup) must
match exactly and every number to |new - old| <= 1e-13 max(1, |old|).  When
numpy's version is the one the files were written with, the outputs must
match byte for byte.  ``tests/golden/regenerate.py`` rewrites the files.
"""

import importlib.util
import json
import os

import numpy as np
import pytest

_HERE = os.path.dirname(os.path.abspath(__file__))
_spec = importlib.util.spec_from_file_location(
    "golden_regenerate", os.path.join(_HERE, "golden", "regenerate.py")
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

REL_TOL = 1e-13

with open(os.path.join(golden.GOLDEN_DIR, golden.VERSIONS_FILE)) as _fh:
    SAME_NUMPY = json.load(_fh)["numpy"] == np.__version__


@pytest.mark.parametrize("name", sorted(golden.CASES))
def test_cli_output_matches_golden_file(name):
    with open(os.path.join(golden.GOLDEN_DIR, name)) as fh:
        expect = fh.read()
    got = golden.run_case(golden.CASES[name])
    assert golden.max_rel_diff(got, expect) <= REL_TOL
    if SAME_NUMPY:
        assert got == expect


def test_the_model_germ_cases_are_those_of_the_tests():
    from conftest import MODEL_GERMS

    assert list(golden.MODEL_GERMS.values()) == [MODEL_GERMS[1], MODEL_GERMS[3]]


def test_every_golden_file_has_a_case():
    names = set(os.listdir(golden.GOLDEN_DIR)) - {"regenerate.py", golden.VERSIONS_FILE}
    names = {n for n in names if not n.startswith("__")}
    assert names == set(golden.CASES)


def test_comparison_sees_text_and_number_changes():
    assert golden.max_rel_diff('{"f": 1.5}', '{"f": 1.5}') == 0.0
    assert golden.max_rel_diff('{"f": 3.0000000000001}', '{"f": 3.0}') == pytest.approx(
        1e-13 / 3.0, rel=1e-2
    )
    with pytest.raises(ValueError, match="outside their numbers"):
        golden.max_rel_diff('{"g": 1.5}', '{"f": 1.5}')
    with pytest.raises(ValueError, match="outside their numbers"):
        golden.max_rel_diff("1.5,2.5", "1.5")
