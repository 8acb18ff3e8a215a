import pytest

from cuspkit import cli, verification


def test_verify_suite_passes():
    report = verification.run_all()
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"], failed
    assert len(report["checks"]) == 13


@pytest.mark.parametrize(
    "argv",
    [
        ["--curve", "(t^2, t^3 + c*t^5)", "--param", "c=nan"],
        ["--curve", "(t^2, t^3 + c*t^5) with c=1e999"],
        ["--curve", "cycloid", "--param", "a=nan"],
    ],
)
def test_invariants_rejects_non_finite_parameter(argv, capsys):
    assert cli.main(["invariants", *argv]) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error [invariants]")
