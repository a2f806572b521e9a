"""The ``python -m repro.verify`` command-line harness."""

import io

import pytest

from repro.verify.cli import main, run_selftest, run_verification
from repro.verify.report import VerificationReport, Violation


def test_quick_battery_passes(capsys):
    assert main(["--quick", "--seed", "2"]) == 0
    out = capsys.readouterr().out
    assert "all invariants hold" in out
    assert "checks run" in out


def test_selftest_detects_planted_violation():
    buf = io.StringIO()
    assert run_selftest(seed=0, out=buf) == 1
    text = buf.getvalue()
    assert "SELFTEST OK" in text
    assert "conservation.sample_balance" in text


def test_selftest_via_main_exits_nonzero(capsys):
    assert main(["--selftest"]) == 1


def test_run_verification_counts_sections():
    report = run_verification(quick=True, seed=1)
    assert report.ok
    assert report.sections["invariants"] >= 5
    assert report.sections["oplaws"] >= 1
    assert report.sections["differential"] == 8


def test_report_formatting():
    report = VerificationReport()
    report.extend([], section="invariants")
    assert report.ok
    assert "all invariants hold" in report.format()
    report.add(Violation(invariant="x.y", detail="boom", subject="cfg"))
    assert not report.ok
    assert "FAIL x.y [cfg]: boom" in report.format()


def test_mutually_exclusive_modes():
    with pytest.raises(SystemExit):
        main(["--quick", "--full"])
