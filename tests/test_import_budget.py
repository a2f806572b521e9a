"""The import budget: a lean start-up, a lean warm rerun, no scipy.

Runs ``scripts/check_import_budget.py`` end to end (about 8 s): it
probes the CLI start-up, two quick artifact runs and a warm-cache rerun
in fresh interpreters and scans ``src/repro`` for ``scipy.stats``
imports and for ``scipy.special`` imports of the functions
``repro.special`` ports.  The scan and module-list checks also run on
planted offenders.
"""

import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_import_budget.py"


def test_import_budget_script_passes():
    proc = subprocess.run(
        [sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=600
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "import budget ok" in proc.stdout


def _script():
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        import check_import_budget
    finally:
        sys.path.remove(str(SCRIPT.parent))
    return check_import_budget


def test_source_scan_finds_every_import_form(tmp_path):
    scipy_stats_imports = _script().scipy_stats_imports
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "a.py").write_text("import scipy.stats\n")
    (pkg / "b.py").write_text("def f():\n    from scipy.stats import t\n")
    (pkg / "c.py").write_text("from scipy import stats\n")
    (pkg / "d.py").write_text("from scipy.special import ndtri\nimport scipy.special\n")
    assert scipy_stats_imports(pkg) == ["repro/a.py:1", "repro/b.py:2", "repro/c.py:1"]



def test_ported_scan_allows_only_the_stdtrit_fallback(tmp_path):
    ported_special_imports = _script().ported_special_imports
    pkg = tmp_path / "repro"
    (pkg / "sub").mkdir(parents=True)
    (pkg / "a.py").write_text("from scipy.special import ndtr\n")
    (pkg / "b.py").write_text("def f():\n    from scipy.special import gammainc, ndtri\n")
    (pkg / "c.py").write_text("def stdtrit():\n    from scipy.special import stdtrit\n")
    (pkg / "d.py").write_text("from scipy.special import chdtrc, kolmogorov\nimport scipy.special\n")
    (pkg / "sub" / "special.py").write_text(
        "def stdtrit():\n    from scipy.special import stdtrit\n")
    (pkg / "special.py").write_text(
        "def stdtrit(df, p):\n"
        "    from scipy.special import stdtrit as s\n"
        "    return s(df, p)\n"
        "def ndtr(x):\n"
        "    from scipy.special import ndtr\n"
        "    from scipy.special import stdtrit\n"
        "from scipy.special._ufuncs import ndtri\n"
    )
    assert ported_special_imports(pkg) == [
        "repro/a.py:1", "repro/b.py:2", "repro/c.py:2",
        "repro/special.py:5", "repro/special.py:6", "repro/special.py:7",
        "repro/sub/special.py:2",
    ]


def test_startup_flags_numpy_scipy_and_unlisted_repro_modules():
    budget = _script()
    planted = ["numpy", "numpy.core", "scipy.special", "repro.rocc",
               "repro.experiments.engine", "repro.experiments.now_exp"]
    allowed = list(budget.STARTUP_MODULES) + ["argparse", "numpyish", "reprox"]
    assert budget.startup_offenders(allowed + planted) == sorted(planted)
    assert budget.startup_offenders(allowed) == []


def test_warm_rerun_flags_simulator_planner_analytical_and_unrun_ids():
    budget = _script()
    ran = ["table2", "figure27"]  # workload_exp and mpp_exp
    needed = ["repro.experiments.workload_exp", "repro.experiments.mpp_exp",
              "repro.experiments.engine", "repro.rocc.metrics",
              "repro.rocc.systemic", "repro.planners"]
    planted = ["repro.rocc.system", "repro.rocc.aggregate", "repro.planner",
               "repro.planner.plan", "repro.analytical.mva",
               "repro.experiments.now_exp", "repro.experiments.validation"]
    assert budget.warm_rerun_offenders(needed + planted, ran) == sorted(planted)
    assert budget.warm_rerun_offenders(needed, ran) == []
    # Running an id makes its module legitimate.
    assert budget.warm_rerun_offenders(
        ["repro.experiments.validation"], ran + ["figure30"]) == []
