"""End-to-end CLI tests for the planner flags on both CLIs.

``--plan``/``--ci-target``/``--budget`` ride the real argument parsers
and engine plumbing: the experiments CLI routes classic table ids to
their ``planned_*`` variants, forwards the planner config, and serves
a rerun from the cell cache; the ROCC CLI turns one configuration into
an adaptively-replicated run with an analytic comparison line.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments.__main__ import main as experiments_main
from repro.rocc.__main__ import main as rocc_main


class TestExperimentsCliPlanned:
    def test_plan_routes_table_id_to_planned_variant(self, capsys):
        rc = experiments_main(["figure30", "--plan", "--no-cache"])
        assert rc == 0
        captured = capsys.readouterr()
        assert "planned_validation completed" in captured.out
        assert "surrogate" in captured.out.lower()
        assert "cells pruned" in captured.out
        # The engine summary shows the planner's savings.
        assert "pruned" in captured.err

    def test_planned_id_accepts_budget_and_ci_target(self, capsys):
        rc = experiments_main([
            "planned_validation", "--no-cache",
            "--ci-target", "0.5", "--budget", "6",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "planned_validation completed" in out

    def test_ci_target_validated(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main(["figure30", "--plan", "--ci-target", "0"])

    def test_budget_validated(self, capsys):
        with pytest.raises(SystemExit):
            experiments_main(["figure30", "--plan", "--budget", "0"])

    def test_plan_rerun_served_from_cache(self, tmp_path: Path, capsys,
                                          monkeypatch):
        """A second planned run on the same cache simulates nothing and
        renders the same table values."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert experiments_main(["figure30", "--plan"]) == 0
        first = capsys.readouterr()
        assert experiments_main(["figure30", "--plan"]) == 0
        second = capsys.readouterr()
        assert " (0 run, " in second.err, (
            "second planned run did not serve its cells from the cache"
        )
        table = lambda text: [  # noqa: E731
            line for line in text.splitlines() if line.startswith("|")
        ]
        assert table(first.out) == table(second.out)


class TestRoccCliPlanned:
    _BASE = [
        "--nodes", "2", "--duration-s", "0.5", "--period-ms", "20",
        "--seed", "3",
    ]

    def test_plan_prints_adaptive_summary(self, capsys):
        rc = rocc_main([*self._BASE, "--plan"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replications  :" in out
        assert "analytic" in out
        assert "pd_cpu_time_per_node" in out

    def test_budget_caps_replications(self, capsys):
        rc = rocc_main([*self._BASE, "--plan", "--budget", "2",
                        "--ci-target", "0.0001"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replications  : 2" in out

    def test_tight_ci_target_grows_replications(self, capsys):
        rc = rocc_main([*self._BASE, "--plan", "--ci-target", "0.0001",
                        "--budget", "4"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replications  : 4" in out

    def test_ci_target_validated(self):
        with pytest.raises(SystemExit):
            rocc_main([*self._BASE, "--plan", "--ci-target", "-1"])

    def test_budget_validated(self):
        with pytest.raises(SystemExit):
            rocc_main([*self._BASE, "--plan", "--budget", "0"])
