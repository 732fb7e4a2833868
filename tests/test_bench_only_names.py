"""Names kept only because ``bench/`` reads them.

The benchmark looks some ``repro`` names up by string (``bench/layers.py``
wraps entry points, ``bench/worker.py`` reads counters and the fold
level).  The mechanisms behind them are gone, so each is a stub that
nothing in ``src/repro`` calls; the next change to ``bench/`` deletes
them.  This test keeps the list honest: every name still resolves (or
the benchmark would fail on a name that vanished), and an AST scan of
``src/repro`` finds no call to any of them.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.experiments.deploy import DeploymentSpec, build
from repro.workloads.loadgen import LoadGenConfig, run_loadgen

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

#: ``module:qualified name`` of every callable kept for ``bench/``.
BENCH_ONLY_CALLABLES = (
    "repro.config:fold_level",
    "repro.sim.kernel:Simulator.schedule_deferred",
    "repro.core.pmnet_device:PMNetDevice.arrival_extension",
    "repro.host.node:HostNode.arrival_extension",
    "repro.net.link:Channel._deliver_ext",
    "repro.net.link:Channel.send_in",
)

#: Counters ``bench/worker.py`` reads by attribute; both read 0.
BENCH_ONLY_COUNTERS = ("Channel.folded_sends", "PMNetDevice.folded_stages")

#: ``Simulator.kernel_stats()`` keys of retired mechanisms; all read 0.
BENCH_ONLY_KERNEL_KEYS = ("resequences", "lane_pops", "near_pops")


def _resolve(target: str):
    module_name, _, path = target.partition(":")
    owner = importlib.import_module(module_name)
    *scopes, attribute = path.split(".")
    for scope in scopes:
        owner = getattr(owner, scope)
    # Defined by that owner itself, as ``bench/layers.py`` requires.
    assert attribute in vars(owner), target
    return getattr(owner, attribute)


def _called_names() -> dict:
    """Every name called anywhere in ``src/repro`` -> the files calling
    it (``f(...)`` and ``x.f(...)`` alike)."""
    called: dict = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = (func.attr if isinstance(func, ast.Attribute)
                    else getattr(func, "id", None))
            if name is not None:
                called.setdefault(name, []).append(
                    str(path.relative_to(SRC)))
    return called


@pytest.mark.parametrize("target", BENCH_ONLY_CALLABLES)
def test_bench_only_callable_resolves_and_is_never_called(target):
    assert callable(_resolve(target))
    name = target.rpartition(".")[2].rpartition(":")[2]
    assert name not in _called_names(), (
        f"{target} is kept only for bench/, but src/repro calls it")


def test_bench_only_counters_and_kernel_keys_read_zero():
    deployment = build(DeploymentSpec(placement="switch"),
                       SystemConfig(seed=0).with_payload(100))
    run_loadgen(deployment, LoadGenConfig(mode="closed", users=64,
                                          total_requests=64, window=4))
    channels = [channel for link in deployment.topology.links
                for channel in (link.forward, link.backward)]
    counted = {"Channel.folded_sends": channels,
               "PMNetDevice.folded_stages": deployment.devices}
    assert set(counted) == set(BENCH_ONLY_COUNTERS)
    for name, components in counted.items():
        attribute = name.partition(".")[2]
        assert components
        assert sum(int(getattr(component, attribute))
                   for component in components) == 0, name
    stats = deployment.sim.kernel_stats()
    assert [stats[key] for key in BENCH_ONLY_KERNEL_KEYS] == [0, 0, 0]
    assert stats["far_pops"] == stats["pops"] > 0
