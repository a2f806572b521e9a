"""The import budget: no scipy at CLI start-up, no scipy.stats anywhere.

Runs ``scripts/check_import_budget.py`` end to end (about 3 s): it
probes the CLI start-up and two quick artifact runs in fresh
interpreters and scans ``src/repro`` for ``scipy.stats`` imports.
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


def test_source_scan_finds_every_import_form(tmp_path):
    sys.path.insert(0, str(SCRIPT.parent))
    try:
        from check_import_budget import scipy_stats_imports
    finally:
        sys.path.remove(str(SCRIPT.parent))
    pkg = tmp_path / "repro"
    pkg.mkdir()
    (pkg / "a.py").write_text("import scipy.stats\n")
    (pkg / "b.py").write_text("def f():\n    from scipy.stats import t\n")
    (pkg / "c.py").write_text("from scipy import stats\n")
    (pkg / "d.py").write_text("from scipy.special import ndtri\nimport scipy.special\n")
    assert scipy_stats_imports(pkg) == ["repro/a.py:1", "repro/b.py:2", "repro/c.py:1"]

