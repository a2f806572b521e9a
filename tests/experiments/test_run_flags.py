"""The run flags both CLIs share (``repro.experiments.runflags``).

Each flag is defined once, with one default, and a value outside its
range is a usage error (exit 2) on either command line — never a
traceback, and never a value that is silently accepted and misbehaves
later (a NaN deadline, a NaN precision target).
"""

from __future__ import annotations

import argparse

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.experiments.runflags import add_run_flags, engine_from_args
from repro.rocc.__main__ import main as rocc_main

#: A rocc run that would take well under a second if it started.
_ROCC = ["--nodes", "2", "--duration-s", "0.1"]

BAD_VALUES = [
    (["--cell-timeout", "0"], "--cell-timeout must be finite and positive"),
    (["--cell-timeout", "-1"], "--cell-timeout must be finite and positive"),
    (["--cell-timeout", "nan"], "--cell-timeout must be finite and positive"),
    (["--cell-timeout", "inf"], "--cell-timeout must be finite and positive"),
    (["--ci-target", "nan"], "--ci-target must be finite and positive"),
    (["--ci-target", "0"], "--ci-target must be finite and positive"),
    (["--max-retries", "-1"], "--max-retries must be >= 0"),
    (["--budget", "0"], "--budget must be >= 1"),
    (["--lp-workers", "0"], "--lp-workers must be >= 1"),
    (["--lp-workers", "two"], "--lp-workers must be an integer"),
]


def _usage_error(main, argv, capsys) -> str:
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    return capsys.readouterr().err


@pytest.mark.parametrize("flags,message", BAD_VALUES)
def test_experiments_cli_rejects(flags, message, capsys):
    assert message in _usage_error(experiments_main, ["figure9", *flags], capsys)


@pytest.mark.parametrize("flags,message", BAD_VALUES)
def test_rocc_cli_rejects(flags, message, capsys):
    assert message in _usage_error(rocc_main, [*_ROCC, *flags], capsys)


def test_experiments_cli_rejects_zero_workers(capsys):
    err = _usage_error(experiments_main, ["figure9", "--workers", "0"], capsys)
    assert "--workers must be >= 1, got 0" in err


def test_one_default_per_flag():
    parser = argparse.ArgumentParser()
    add_run_flags(parser)
    args = parser.parse_args([])
    assert args.max_retries == 0
    assert args.ci_target == 0.35
    assert args.budget is None and args.cell_timeout is None
    assert args.strict and not args.profile
    engine = engine_from_args(args)
    assert engine.retry.max_attempts == 1
    assert engine.cell_timeout is None and engine.journal is None
    assert engine.workers == 1
    assert parser.parse_args(["--lp-workers", "auto"]).lp_workers == "auto"


def test_experiments_reports_ignored_plan(capsys):
    """An id without a planned variant runs unplanned and says so
    instead of dropping --plan without a word."""
    assert experiments_main(["figure9", "--plan", "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert "figure9: no planned variant; --plan ignored" in err
    assert experiments_main(["figure9", "--no-cache"]) == 0
    assert "--plan ignored" not in capsys.readouterr().err


def test_rocc_reports_ignored_lp_workers(capsys):
    """An SMP cell cannot be partitioned: the run goes sequential and
    says why instead of dropping --lp-workers without a word."""
    rc = rocc_main(["--arch", "smp", "--nodes", "4", "--duration-s", "0.2",
                    "--lp-workers", "2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "Pd CPU/node" in out
    assert "[--lp-workers ignored, ran the sequential kernel: SMP" in out


def test_rocc_quiet_without_lp_workers(capsys):
    assert rocc_main(["--arch", "smp", "--nodes", "4",
                      "--duration-s", "0.2"]) == 0
    assert "--lp-workers" not in capsys.readouterr().out


def test_experiments_summary_counts_ignored_lp_workers(capsys):
    """figure22 is an SMP sweep: every cell ignores --lp-workers 2."""
    rc = experiments_main(["figure22", "--no-cache", "--lp-workers", "2"])
    assert rc == 0
    err = capsys.readouterr().err
    line = next(x for x in err.splitlines() if x.startswith("[engine:"))
    run = int(line.split("(")[1].split(" run")[0])
    assert f"{run} ineligible for lp_workers (ran sequential)" in line
