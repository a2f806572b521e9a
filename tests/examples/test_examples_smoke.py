"""End-to-end smoke tests: every ``examples/*.py`` must run clean.

Each example runs as a subprocess (the way a reader would run it) in
quick mode (``REPRO_EXAMPLE_QUICK=1`` shrinks the simulated time) and
must exit 0 with non-trivial stdout.  The examples broke silently
before they were covered here.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
EXAMPLES_DIR = REPO_ROOT / "examples"

EXAMPLES = sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


def test_examples_are_discovered() -> None:
    """The glob must keep finding the examples (guards against renames)."""
    assert len(EXAMPLES) >= 7


@pytest.mark.parametrize("name", EXAMPLES)
def test_example_runs_clean(name: str) -> None:
    env = dict(os.environ)
    env["REPRO_EXAMPLE_QUICK"] = "1"
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        env=env,
        cwd=EXAMPLES_DIR,
        timeout=240,
    )
    assert proc.returncode == 0, (
        f"{name} exited {proc.returncode}\n"
        f"--- stdout ---\n{proc.stdout}\n--- stderr ---\n{proc.stderr}"
    )
    assert len(proc.stdout.strip()) > 40, (
        f"{name} printed almost nothing:\n{proc.stdout!r}"
    )
