import pytest

from cuspkit import cli, verification


def test_verify_suite_passes():
    report = verification.run_all()
    failed = [c["name"] for c in report["checks"] if not c["passed"]]
    assert report["passed"], failed
    assert len(report["checks"]) == 13


def test_a_check_that_raises_fails_and_the_others_still_run(monkeypatch, capsys):
    def raises():
        raise ValueError("inflection synthesis needs f(0) = -5/16")

    monkeypatch.setattr(verification, "check_g0_mu_I_relation", raises)
    assert cli.main(["verify"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 14 and lines[-1] == "seed 0: FAILURES"
    report = lines[:-1]
    assert [line.split(":")[0] for line in report if not line.startswith("PASS")] == [
        "FAIL 08_g0_mu_I_relation"
    ]
    assert report[7].endswith("- ValueError: inflection synthesis needs f(0) = -5/16")


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
