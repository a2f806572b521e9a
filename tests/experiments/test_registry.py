"""Tests for the experiment registry and CLI plumbing."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments import get, list_experiments
from repro.experiments.registry import EXPERIMENTS, REGISTRY, Experiment, _index

SRC = Path(__file__).resolve().parents[2] / "src"
#: ``python -m repro.experiments list`` as printed before the registry
#: became a table; the listing must not change.
LIST_OUTPUT = Path(__file__).with_name("list_output.txt")


def test_all_paper_artifacts_registered():
    ids = {e.id for e in list_experiments()}
    expected = {
        "table1", "table2", "table3", "table4", "table5", "table6",
        "figure8", "figure9", "figure10", "figure12", "figure13",
        "figure14", "figure15", "figure16", "figure17", "figure18",
        "figure19", "figure20", "figure21", "figure22", "figure23",
        "figure24", "figure25", "figure26", "figure27", "figure28",
        "figure30", "figure31",
    }
    assert expected <= ids


def test_get_known():
    e = get("table1")
    assert e.id == "table1"
    assert "Table 1" in e.title


def test_get_unknown_lists_available():
    with pytest.raises(KeyError, match="available"):
        get("table99")


def test_double_registration_rejected():
    assert "table1" in REGISTRY
    dup = Experiment("table1", "dup", "x", runner=lambda quick=True: None)
    with pytest.raises(ValueError, match="'table1'"):
        _index([get("table1"), dup])


def test_experiments_sorted():
    ids = [e.id for e in list_experiments()]
    assert ids == sorted(ids)


def test_every_experiment_has_metadata():
    for e in list_experiments():
        assert e.title
        assert e.paper_ref
        assert callable(e.runner)


def test_cli_list(capsys):
    from repro.experiments.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table1" in out and "figure31" in out


def test_cli_unknown_id(capsys):
    from repro.experiments.__main__ import main

    assert main(["nope"]) == 2


def test_cli_runs_fast_experiment(capsys):
    from repro.experiments.__main__ import main

    assert main(["figure9"]) == 0
    out = capsys.readouterr().out
    assert "analytic NOW" in out or "Figure 9" in out
    assert "completed in" in out


def test_accepts_inspects_runner_signature():
    def runner(quick=True, workload=None):
        return None

    exp = Experiment(id="probe", title="t", paper_ref="r", runner=runner)
    assert exp.accepts("workload")
    assert exp.accepts("quick")
    assert not exp.accepts("nodes")


def test_accepts_var_keyword_accepts_anything():
    def runner(quick=True, **kwargs):
        return None

    exp = Experiment(id="probe", title="t", paper_ref="r", runner=runner)
    assert exp.accepts("anything_at_all")


def test_run_rejects_unknown_kwargs_with_id_and_signature():
    def my_runner(quick=True, depth=3):
        raise AssertionError("runner must not be reached")

    exp = Experiment(id="probe", title="t", paper_ref="r", runner=my_runner)
    with pytest.raises(TypeError) as err:
        exp.run(quick=True, dpeth=5)
    message = str(err.value)
    assert "'probe'" in message
    assert "dpeth" in message
    assert "my_runner(quick=True, depth=3)" in message


def test_run_forwards_known_kwargs():
    seen = {}

    def runner(quick=True, depth=3):
        seen["depth"] = depth
        return None

    exp = Experiment(id="probe", title="t", paper_ref="r", runner=runner)
    exp.run(quick=True, depth=7)
    assert seen == {"depth": 7}


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )


def test_cli_list_output_is_unchanged():
    proc = subprocess.run(
        [sys.executable, "-m", "repro.experiments", "list"],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == LIST_OUTPUT.read_text()


def test_every_entry_resolves_to_a_function_of_its_module():
    assert len(EXPERIMENTS) == len(REGISTRY)
    for id_, _, _, target in EXPERIMENTS:
        module_name, _, name = target.partition(":")
        module = importlib.import_module(f"repro.experiments.{module_name}")
        runner = get(id_).runner
        assert callable(runner), id_
        assert runner is getattr(module, name), id_
        assert runner.__module__ == module.__name__, id_
        assert get(id_).description == (runner.__doc__ or "").strip().split("\n")[0]


def test_listing_and_lookup_import_no_runner_module():
    proc = _fresh_python(
        "import sys\n"
        "from repro.experiments import get, list_experiments\n"
        "ids = [e.id for e in list_experiments()]\n"
        "get('table1')\n"
        "try:\n"
        "    get('nosuch')\n"
        "except KeyError as exc:\n"
        "    assert 'table1' in str(exc) and 'figure31' in str(exc), exc\n"
        "else:\n"
        "    raise AssertionError('no KeyError')\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.')))\n"
    )
    assert proc.returncode == 0, proc.stderr
    loaded = eval(proc.stdout)
    assert loaded == [
        "repro._lazy", "repro.experiments", "repro.experiments.registry"
    ]


def test_unimportable_runner_module_names_the_id():
    broken = Experiment("broken_probe", "t", "r", runner="no_such_module:run")
    with pytest.raises(ImportError, match="'broken_probe'") as err:
        broken.runner
    assert isinstance(err.value.__cause__, ModuleNotFoundError)
    missing = Experiment("missing_probe", "t", "r", runner="summary:no_such_fn")
    with pytest.raises(ImportError, match="'missing_probe'"):
        missing.accepts("quick")
