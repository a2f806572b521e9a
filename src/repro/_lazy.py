"""Lazy package exports (PEP 562) shared by every ``repro`` package.

A package ``__init__`` lists what it exports and where each name lives;
nothing is imported until a name is first looked up::

    from .._lazy import lazy_exports

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "Environment": "core",
        "Timeout": "events",
    })

One exception: a name equal to the submodule that defines it (the
function ``repro.analytical.mva`` in ``repro/analytical/mva.py``) is
bound when the package is imported.  The import system sets a package's
attribute to its submodule whenever that submodule is first imported,
so a lazily bound function of the same name would be shadowed by the
module as soon as anything ran ``import repro.analytical.mva``.

A module that needs a heavy dependency only in some of its functions
binds it with :func:`lazy_module`, so importing the module does not
import the dependency::

    np = lazy_module("numpy", globals())
"""

from __future__ import annotations

import sys
from importlib import import_module
from types import ModuleType
from typing import Callable, Dict, List, Mapping, Optional, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, Optional[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for *package*.

    *exports* maps each exported name to the submodule (relative to
    *package*) that defines it, or to ``None`` when the name is itself
    a submodule.  A resolved name is cached on the package, so each
    lookup pays the import once.
    """
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        sub = exports[name]
        module = import_module(f"{package}.{sub or name}")
        value = module if sub is None else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    for name, sub in exports.items():
        if name == sub:
            __getattr__(name)
    return list(exports), __getattr__, __dir__


class _LazyModule:
    """Stand-in for the module global bound to :func:`lazy_module`."""

    def __init__(self, name: str, namespace: Dict[str, object]) -> None:
        self._name = name
        self._namespace = namespace

    def __getattr__(self, attr: str) -> object:
        module = import_module(self._name)
        for key, value in list(self._namespace.items()):
            if value is self:
                self._namespace[key] = module
        return getattr(module, attr)


def lazy_module(name: str, namespace: Dict[str, object]) -> ModuleType:
    """A stand-in for module *name*, to bind as a global of *namespace*.

    The first attribute lookup on it (``np.asarray``) imports *name* and
    rebinds every global of *namespace* that holds the stand-in to the
    module itself, so later lookups are plain global reads of the real
    module and cost nothing extra.
    """
    return _LazyModule(name, namespace)  # type: ignore[return-value]
