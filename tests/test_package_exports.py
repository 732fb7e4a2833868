"""Lazy package exports: the public API is unchanged, and a run loads
only the modules it uses.

Every package ``__init__`` resolves its ``__all__`` names on first
access (:mod:`repro._lazy`), so ``import repro.config`` no longer drags
in analysis, the control plane, every workload and the exporters.  The
footprint test runs in a fresh interpreter: this process has long since
imported everything.
"""

from __future__ import annotations

import importlib
import json
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import repro

SRC = Path(repro.__file__).resolve().parent.parent

PACKAGES = ["repro"] + sorted(
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
    if info.ispkg)

#: Modules a single-rack PMNet run never needs.
UNUSED_BY_A_RACK_RUN = (
    "repro.analysis", "repro.control", "repro.baselines", "repro.failure",
    "repro.workloads.pmdk", "repro.workloads.redis", "repro.workloads.tpcc",
    "repro.workloads.twitter", "repro.obs.export", "repro.sim.profiler",
)

#: ``repro`` modules loaded by the probe below.  A package ``__init__``
#: that imports its submodules eagerly raises it (to 84 if all do).
RACK_RUN_MODULES = 52

FOOTPRINT_PROBE = """
import json, sys
import repro.config, repro.experiments.deploy, repro.workloads.loadgen
from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
build(DeploymentSpec(placement="switch"), SystemConfig())
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
"""


#: ``repro`` modules loaded by ``pmnet-repro --help`` and ``list``: the
#: CLI, the registry (which names each experiment's module by string)
#: and ``repro.config``.  Importing every experiment module to parse a
#: flag loads 97.
CLI_MODULES = 9

CLI_PROBE = """
import contextlib, io, json, sys
from repro.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
print(json.dumps(sorted(name for name in sys.modules
                        if name == "repro" or name.startswith("repro."))))
"""


def _loaded_modules(probe: str, *argv: str) -> list:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    output = subprocess.run(
        [sys.executable, "-c", probe, *argv], env=env, check=True,
        capture_output=True, text=True).stdout
    return json.loads(output)


def test_every_package_is_covered():
    assert len(PACKAGES) == 15


class TestFootprint:
    @pytest.fixture(scope="class")
    def loaded(self):
        return _loaded_modules(FOOTPRINT_PROBE)

    def test_a_rack_run_loads_no_unused_subsystem(self, loaded):
        unused = [name for name in loaded
                  if name.startswith(UNUSED_BY_A_RACK_RUN)]
        assert unused == []

    def test_loaded_module_count_is_pinned(self, loaded):
        assert len(loaded) == RACK_RUN_MODULES, loaded

    @pytest.mark.parametrize("command", ["--help", "list"])
    def test_cli_imports_no_experiment_to_parse_a_flag(self, command):
        loaded = _loaded_modules(CLI_PROBE, command)
        assert len(loaded) == CLI_MODULES, loaded


@pytest.fixture(scope="module")
def plain_modules():
    """Every non-package ``repro`` module, imported."""
    names = [info.name for info in pkgutil.walk_packages(repro.__path__,
                                                          "repro.")
             if not info.ispkg]
    return [importlib.import_module(name) for name in names]


@pytest.mark.parametrize("package", PACKAGES)
class TestPublicAPI:
    def test_names_resolve_to_the_defining_object(self, package,
                                                  plain_modules):
        module = importlib.import_module(package)
        for name in module.__all__:
            value = getattr(module, name)
            assert not isinstance(value, types.ModuleType), name
            owner = getattr(value, "__module__", None)
            if isinstance(owner, str) and owner.startswith("repro."):
                # Classes and functions: the object their module defines.
                assert getattr(sys.modules[owner], name) is value, name
            else:
                # Constants: bound to this very object in some module.
                assert any(vars(plain).get(name) is value
                           for plain in plain_modules), name

    def test_star_import_matches_attribute_access(self, package):
        module = importlib.import_module(package)
        star: dict = {}
        exec(f"from {package} import *", star)
        assert {name: star[name] for name in module.__all__} == {
            name: getattr(module, name) for name in module.__all__}

    def test_dir_lists_every_export(self, package):
        module = importlib.import_module(package)
        assert set(module.__all__) <= set(dir(module))

    def test_unknown_name_raises_attribute_error(self, package):
        module = importlib.import_module(package)
        with pytest.raises(AttributeError, match="no_such_name"):
            module.no_such_name  # noqa: B018
