"""Lazy package exports: a package names its API, a module loads on use.

Every package ``__init__`` under ``repro`` re-exports its public names
through :func:`lazy_exports` (PEP 562) instead of importing its
submodules eagerly.  ``import repro.config`` therefore runs
``repro/__init__.py`` without loading any other module of the package,
and ``repro.workloads.PMBTree`` imports ``repro.workloads.pmdk.btree``
on first access.  The resolved object is then stored in the package
namespace, so later lookups are plain attribute reads.

Code inside ``repro`` imports from the defining module, not from a
package, so the modules a run loads are the modules it uses.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(package: str, modules: Mapping[str, Sequence[str]]
                 ) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module-level ``__getattr__`` and ``__dir__`` of ``package``.

    ``modules`` maps each defining module to the names the package
    re-exports from it; ``from package import *`` goes through the
    package's ``__all__`` and so through ``__getattr__``.
    """
    defined_in: Dict[str, str] = {name: module
                                  for module, names in modules.items()
                                  for name in names}

    def __getattr__(name: str) -> object:
        module = defined_in.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(defined_in))

    return __getattr__, __dir__
