"""Lazy package exports resolve to the same objects eager imports did.

Every ``repro`` package builds ``__all__``, ``__getattr__`` and
``__dir__`` from one ``{name: submodule}`` map (``repro._lazy``).  These
tests read that map from each ``__init__.py`` and check that every name
resolves to the attribute of the submodule it names, is listed by
``dir()`` and is bound by ``from pkg import *``; that the two functions
named like their own submodule stay functions; and that a fresh
``import repro`` loads no subpackage.
"""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PACKAGES = (
    "repro", "repro.analytical", "repro.des", "repro.expdesign",
    "repro.experiments", "repro.faults", "repro.obs", "repro.planner",
    "repro.rocc", "repro.variates", "repro.verify", "repro.workload",
)


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


def test_functions_named_like_their_submodule_stay_functions():
    # Importing the submodule by its dotted name must not replace the
    # package attribute with the module (the import system sets it).
    out = run_fresh(
        "import inspect\n"
        "import repro.analytical.mva\n"
        "import repro.expdesign.pca\n"
        "import repro.analytical, repro.expdesign\n"
        "print(inspect.isfunction(repro.analytical.mva),"
        " inspect.isfunction(repro.expdesign.pca))\n"
    )
    assert out.split() == ["True", "True"]


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
