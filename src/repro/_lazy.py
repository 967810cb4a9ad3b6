"""Lazy re-exports for the package ``__init__`` modules.

A package ``__init__`` maps each public name to the module that defines it
(its ``_EXPORTS`` table) and forwards its module ``__getattr__`` to
:func:`resolve`.  Importing a package, or any submodule of it, then imports
nothing its caller does not use: ``hexcc`` loads only what a command calls.
"""

from __future__ import annotations

from collections.abc import Mapping
from importlib import import_module
from typing import Any


def resolve(package: str, exports: Mapping[str, str], name: str) -> Any:
    """Import the module ``exports[name]`` and return ``name`` from it.

    A name that maps to the submodule ``package.name`` is that submodule.
    """
    module_name = exports.get(name)
    if module_name is None:
        raise AttributeError(f"module {package!r} has no attribute {name!r}")
    module = import_module(module_name)
    if module_name == f"{package}.{name}":
        return module
    return getattr(module, name)
