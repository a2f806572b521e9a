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
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Optional, Tuple


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
