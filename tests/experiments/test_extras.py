"""Tests for the extension experiments (adaptive, perturbation,
cross-validation)."""

import json

import pytest

from repro.experiments import run
from repro.experiments.engine import CellCache, ExperimentEngine
from repro.experiments.reporting import artifact_to_dict


@pytest.fixture(scope="module")
def adaptive():
    return run("extra_adaptive", quick=True)


@pytest.fixture(scope="module")
def perturbation():
    return run("extra_perturbation", quick=True)


class TestExtraAdaptive:
    def test_table_shape(self, adaptive):
        table = adaptive.find("static vs regulated")
        assert len(table.rows) == 3
        assert table.column("strategy")[0].startswith("static")

    def test_regulation_hits_budget(self, adaptive):
        table = adaptive.find("static vs regulated")
        settled = table.column("settled_overhead_pct")
        assert settled[0] > 15.0  # static blows the budget
        assert settled[1] < 1.5
        assert settled[2] < 1.5

    def test_batch_strategy_keeps_more_samples(self, adaptive):
        table = adaptive.find("static vs regulated")
        delivered = table.column("samples_delivered")
        assert delivered[2] > 1.5 * delivered[1]


class TestExtraPerturbation:
    def test_rows_cover_both_policies(self, perturbation):
        policies = set(perturbation.column("policy"))
        assert policies == {"CF", "BF"}

    def test_slowdown_decreases_with_period(self, perturbation):
        cf = [
            (p, s)
            for p, pol, s in zip(
                perturbation.column("period_ms"),
                perturbation.column("policy"),
                perturbation.column("slowdown_pct"),
            )
            if pol == "CF"
        ]
        slowdowns = [s for _, s in sorted(cf)]
        assert slowdowns == sorted(slowdowns, reverse=True)

    def test_bf_always_gentler(self, perturbation):
        rows = {}
        for p, pol, s in zip(
            perturbation.column("period_ms"),
            perturbation.column("policy"),
            perturbation.column("slowdown_pct"),
        ):
            rows.setdefault(p, {})[pol] = s
        for p, vals in rows.items():
            assert vals["BF"] < vals["CF"]

    def test_covers_paper_motivating_range(self, perturbation):
        """§1: degradation 'from 10% to more than 50%'."""
        slowdowns = perturbation.column("slowdown_pct")
        assert max(slowdowns) > 50.0
        assert min(slowdowns) < 10.0

    def test_direct_plus_indirect_equals_slowdown(self, perturbation):
        for s, d, i in zip(
            perturbation.column("slowdown_pct"),
            perturbation.column("direct_pct"),
            perturbation.column("indirect_pct"),
        ):
            assert s == pytest.approx(d + i, abs=1e-6)


@pytest.mark.parametrize("id_", ["extra_perturbation", "extra_crossvalidation"])
def test_warm_rerun_simulates_nothing(tmp_path, id_):
    """Both extras submit their cells through the engine: a second run on
    the same cache is served entirely from it and gives the same table."""
    tables = []
    for _ in range(2):
        engine = ExperimentEngine(cache=CellCache(tmp_path))
        table = artifact_to_dict(run(id_, quick=True, engine=engine))
        table.pop("notes")
        tables.append(json.dumps(table, sort_keys=True))
    assert engine.stats.cells_run == 0
    assert engine.stats.cache_hits == engine.stats.cells_submitted > 0
    assert tables[0] == tables[1]


def test_adaptive_warm_rerun_serves_the_static_baseline(tmp_path):
    """The static baseline is an engine cell, served from the cache on a
    rerun; the two regulated runs read the regulator decisions off the
    system object, so they run directly each time."""
    tables = []
    for _ in range(2):
        engine = ExperimentEngine(cache=CellCache(tmp_path))
        table = artifact_to_dict(run("extra_adaptive", quick=True,
                                     engine=engine))
        table.pop("notes")
        tables.append(json.dumps(table, sort_keys=True))
    assert engine.stats.cells_submitted == engine.stats.cache_hits == 1
    assert engine.stats.cells_run == 0
    assert tables[0] == tables[1]
