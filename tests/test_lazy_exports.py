"""Lazy package exports resolve to the same objects eager imports did.

Every ``repro`` package builds ``__all__``, ``__getattr__`` and
``__dir__`` from one ``{name: submodule}`` map (``repro._lazy``).  These
tests read that map from each ``__init__.py`` and check that every name
resolves to the attribute of the submodule it names, is listed by
``dir()`` and is bound by ``from pkg import *``; that an export named
like its own submodule is refused; that every export is used by the
package itself or listed in :data:`NOT_USED_IN_SRC` with the reason it
stays; that a fresh ``import repro`` loads no subpackage; and that
``lazy_module`` imports its module on first use and then rebinds the
global to it.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro._lazy import lazy_exports

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = (
    "repro", "repro.analytical", "repro.des", "repro.expdesign",
    "repro.experiments", "repro.obs", "repro.planner",
    "repro.rocc", "repro.variates", "repro.verify", "repro.workload",
)

#: Exports that no module under ``src/repro`` names, each with the
#: reason it is kept.  Anything else that nothing in the package uses is
#: library surface that only its own tests keep alive: delete it rather
#: than add it here.
NOT_USED_IN_SRC = {
    "utilization_law": "oracle: the analytic models are these laws applied "
                       "to the IS demands (test_operational, test_properties)",
    "forced_flow_law": "oracle for the analytic models (test_properties)",
    "littles_law_response": "oracle for the analytic models (test_operational)",
    "EventLog": "the tests' event-order oracle for the kernel",
    "results_equal": "bit-identity oracle of the engine, cache-resume and "
                     "kernel-equivalence tests",
    "validate_trace_events": "checks the Chrome traces the CLIs write "
                             "(test_cli_e2e, repro.obs tests)",
    "children_indices": "oracle for parent_index (test_forwarding)",
    "Deterministic": "test fixture for streams and the kernel",
    "Uniform": "test fixture for streams and sampling",
    "Empirical": "fixture whose choice draws exercise the streams' "
                 "has_uint32 carry (test_seed_derivation)",
    "Normal": "the family the Anderson-Darling oracle needs",
    "ks_test": "benchmarks/e2e/traced.py wraps it by name",
    "anderson_darling": "benchmarks/e2e/traced.py wraps it by name",
    "chi_square_test": "benchmarks/e2e/traced.py wraps it by name",
    "build_parameters": "examples/workload_characterization.py parameterizes "
                        "the model from a trace with it",
}


def export_map(package: str) -> dict:
    """The ``{name: submodule}`` literal passed to ``lazy_exports``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    for node in ast.walk(ast.parse(path.read_text())):
        if (isinstance(node, ast.Call) and getattr(node.func, "id", None)
                == "lazy_exports"):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{path} does not call lazy_exports")


def run_fresh(code: str) -> str:
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_defining_modules_attribute(package):
    pkg = importlib.import_module(package)
    exports = export_map(package)
    assert set(exports) <= set(pkg.__all__)
    assert set(pkg.__all__) - set(exports) <= {"__version__"}
    for name, sub in exports.items():
        if sub is None:
            expected = importlib.import_module(f"{package}.{name}")
        else:
            expected = getattr(importlib.import_module(f"{package}.{sub}"), name)
        assert getattr(pkg, name) is expected, name
        assert name in dir(pkg), name


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_name(package):
    pkg = importlib.import_module(package)
    namespace: dict = {}
    exec(f"from {package} import *", namespace)
    for name in pkg.__all__:
        assert namespace[name] is getattr(pkg, name), name


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    pkg = importlib.import_module(package)
    with pytest.raises(AttributeError, match="no_such_name"):
        pkg.no_such_name
    assert not hasattr(pkg, "no_such_name")


def test_export_named_like_its_submodule_is_refused():
    # The import system would replace such a name with the module the
    # first time anything imported the submodule by its dotted name.
    with pytest.raises(ValueError, match=r"repro\.fake\.thing"):
        lazy_exports("repro.fake", {"other": "core", "thing": "thing"})


def names_used_in_src() -> set:
    """Every identifier that some non-``__init__`` module under
    ``src/repro`` names: loads and stores, attributes, imported names
    and the components of ``from X.Y import`` module paths."""
    used = set()
    for path in (SRC / "repro").rglob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
                used.update((node.module or "").split("."))
    return used


def test_every_export_is_used_in_src_or_listed_with_a_reason():
    used = names_used_in_src()
    unused = {name for package in PACKAGES for name in export_map(package)
              if name not in used}
    assert sorted(unused - set(NOT_USED_IN_SRC)) == [], (
        "exported but used by no module under src/repro: delete them, or "
        "list each in NOT_USED_IN_SRC with the reason it stays"
    )
    assert sorted(set(NOT_USED_IN_SRC) - unused) == [], (
        "listed in NOT_USED_IN_SRC but used in src/repro or no longer "
        "exported: drop the entry"
    )


def test_lazy_module_imports_on_first_use_and_rebinds_the_global():
    out = run_fresh(
        "import sys\n"
        "from repro._lazy import lazy_module\n"
        "json = lazy_module('json', globals())\n"
        "before = 'json' in sys.modules, type(json).__name__\n"
        "text = json.dumps([1])\n"
        "print(*before, text, json is sys.modules['json'])\n"
    )
    assert out.split() == ["False", "_LazyModule", "[1]", "True"]


def test_fresh_import_repro_loads_no_subpackage():
    out = run_fresh(
        "import sys\n"
        "import repro\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro')))\n"
    )
    assert out.strip() == "['repro', 'repro._lazy']"


def test_subpackage_loads_on_first_attribute_access():
    out = run_fresh(
        "import sys\n"
        "import repro\n"
        "sim = repro.rocc.simulate\n"
        "print(sim.__module__, 'repro.rocc' in sys.modules,"
        " 'repro.planner' in sys.modules)\n"
    )
    assert out.split() == ["repro.rocc.system", "True", "False"]
