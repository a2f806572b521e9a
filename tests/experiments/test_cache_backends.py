"""Cache keys and blob checksums do not depend on the sha256 backend.

The experiments CLI blocks ``_hashlib`` (OpenSSL's hashes), so its
sha256 is CPython's built-in one, while an in-process run under pytest
hashes with OpenSSL.  A cache filled by one must serve the other: if a
cell key or a blob checksum differed, the CLI would miss or quarantine
the entries and run the cells again.
"""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.engine import CellCache, ExperimentEngine, use_engine
from repro.experiments.registry import run

REPO_ROOT = Path(__file__).resolve().parents[2]
ARTIFACT = "figure27"  # 24 quick cells, about a second

# Runs the CLI, then reports whether ``_hashlib`` ended up loaded.  With
# "no-builtin" it first hides CPython's own sha256, as on a Python built
# to hash with OpenSSL only.
CLI = """
import sys
if sys.argv[1] == "no-builtin":
    sys.modules["_sha256"] = sys.modules["_sha2"] = None
from repro.experiments.__main__ import main
status = main(sys.argv[2:])
print(f"[openssl: {sys.modules.get('_hashlib') is not None}]", file=sys.stderr)
sys.exit(status)
"""


@pytest.fixture(scope="module")
def openssl_cache(tmp_path_factory: pytest.TempPathFactory):
    """A cache of ARTIFACT's cells filled in-process, where pytest has
    OpenSSL's hashes loaded; returns ``(cache dir, cell count)``."""
    pytest.importorskip("_hashlib", reason="this Python has no OpenSSL hashes")
    cache = tmp_path_factory.mktemp("openssl-cache")
    with ExperimentEngine(workers=1, cache=CellCache(cache, enabled=True)) as eng:
        with use_engine(eng):
            run(ARTIFACT, quick=True)
    assert eng.stats.cells_run > 0 and eng.stats.cache_hits == 0
    return cache, eng.stats.cells_run


@pytest.mark.parametrize("sha256, openssl", [("builtin", False),
                                             ("no-builtin", True)])
def test_cli_reads_a_cache_filled_with_openssl_hashes(
        openssl_cache, tmp_path: Path, sha256: str, openssl: bool) -> None:
    """The CLI blocks OpenSSL where CPython has its own sha256, keeps it
    where not, and serves every cell from the cache either way."""
    cache, cells = openssl_cache
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"),
               REPRO_CACHE_DIR=str(cache), REPRO_CELL_CACHE="1",
               REPRO_WORKERS="1")
    for knob in ("REPRO_TRACE", "REPRO_PROFILE"):
        env.pop(knob, None)
    proc = subprocess.run(
        [sys.executable, "-c", CLI, sha256, ARTIFACT], capture_output=True,
        text=True, env=env, cwd=tmp_path, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert f"[openssl: {openssl}]" in proc.stderr
    engine_line = re.search(r"\[engine: (.*)\]", proc.stderr).group(1)
    expected = f"{cells} cells (0 run, {cells} cached, 0 failed)"
    assert engine_line.startswith(expected), engine_line
