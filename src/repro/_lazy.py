"""PEP 562 re-exports: a package name resolved on first use.

A served interpreter (``repro serve``, a gateway worker) imports the
``repro``, ``repro.core``, ``repro.service`` and ``repro.obs`` package
inits but never the offline-only modules some of their names live in
(rendering, priority assignment, the busy-window bound, the load
generator, the Chrome exporter). Those names are declared here, each
with the module *and* attribute it comes from, so the module is only
compiled and run when someone asks for one of them.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Dict, Tuple


def lazy_exports(
    package: str, names: Dict[str, Tuple[str, str]]
) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package``: each of ``names``
    (``name -> (relative module, attribute)``) imports its module on
    first access and is then cached in the package namespace."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            module, attribute = names[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module, package), attribute)
        namespace[name] = value
        return value

    return __getattr__
