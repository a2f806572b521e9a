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
    # A failed cell fails once and a rerun on the cache resumes it, so
    # --max-retries is gone: any value is an unknown flag.  Like the
    # --lp-workers rows below, the row keeps the id it had when the
    # flag checked its value.
    pytest.param(["--max-retries", "1"], "unrecognized arguments: --max-retries",
                 id="flags6---max-retries must be >= 0"),
    (["--budget", "0"], "--budget must be >= 1"),
    # Cells run only on the sequential kernel; --workers N is the only
    # parallelism.  --lp-workers is gone, so the values it once refused
    # are now an unknown flag.  The rows keep the ids they had when the
    # flag checked its value.
    pytest.param(["--lp-workers", "0"], "unrecognized arguments: --lp-workers",
                 id="flags8---lp-workers must be >= 1"),
    pytest.param(["--lp-workers", "two"], "unrecognized arguments: --lp-workers",
                 id="flags9---lp-workers must be an integer"),
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
    assert args.ci_target == 0.35
    assert args.budget is None and args.cell_timeout is None
    assert args.strict and not hasattr(args, "profile")
    assert not hasattr(args, "max_retries")
    engine = engine_from_args(args)
    assert engine.cell_timeout is None
    assert engine.workers == 1


def test_experiments_reports_ignored_plan(capsys):
    """An id without a planned variant runs unplanned and says so
    instead of dropping --plan without a word."""
    assert experiments_main(["figure9", "--plan", "--no-cache"]) == 0
    err = capsys.readouterr().err
    assert "figure9: no planned variant; --plan ignored" in err
    assert experiments_main(["figure9", "--no-cache"]) == 0
    assert "--plan ignored" not in capsys.readouterr().err


#: Each CLI with arguments that would otherwise start a run.
_CLIS = {
    "experiments": (experiments_main, ["figure22", "--no-cache"]),
    "rocc": (rocc_main, ["--arch", "smp", "--nodes", "4",
                         "--duration-s", "0.2"]),
}


@pytest.mark.parametrize("flags", [["--lp-workers", "2"],
                                   ["--resume", "x.jsonl"],
                                   ["--max-retries", "1"]],
                         ids=["lp-workers", "resume", "max-retries"])
@pytest.mark.parametrize("cli", sorted(_CLIS))
def test_removed_flags_fail_loudly(cli, flags, capsys):
    """A removed flag is a usage error that stops the run before any
    cell, not a flag the run ignores."""
    main, argv = _CLIS[cli]
    err = _usage_error(main, [*argv, *flags], capsys)
    assert f"unrecognized arguments: {' '.join(flags)}" in err
    assert "[engine:" not in err
