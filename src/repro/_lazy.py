"""Lazy package barrels (PEP 562).

A package ``__init__`` names the submodule that defines each of its public
names; :func:`attach` turns that table into the package's ``__getattr__``,
``__dir__`` and ``__all__``.  ``from repro.core import Sentence`` then
imports ``repro.core.nouns`` and nothing else, so a command pays only for
the modules its own path runs.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable


def attach(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for *package*.

    *exports* maps a submodule's name to the public names it defines.  The
    first lookup of a name imports its submodule and binds the value in the
    package namespace, so later lookups never reach ``__getattr__``.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        if name not in owner:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(f"{package}.{owner[name]}"), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, list(owner)
