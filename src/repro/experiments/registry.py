"""Registry mapping experiment ids to runnable entries.

Every table/figure of the paper's evaluation has an entry here; the CLI
dispatches through it.  An entry names its defining module by string,
so listing the experiments (or parsing a flag) imports none of them: a
module loads when its experiment is enumerated, run or fingerprinted.

Each entry exposes the experiment at two granularities:

* ``run(quick=...)`` — run the whole sweep serially and return the
  formatted report text.
* ``jobs``/``run_point``/``assemble`` — the job protocol: ``jobs()``
  enumerates the sweep as self-contained :class:`JobSpec`s,
  ``run_point`` executes one spec in any process, and ``assemble``
  turns the collected :class:`JobResult`s back into the *same*
  formatted text ``run`` produces.  The parallel harness
  (``repro.experiments.parallel``) and the result cache build on this.
"""

from __future__ import annotations

import hashlib
import importlib
import importlib.util
from dataclasses import dataclass
from functools import lru_cache
from types import ModuleType, SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence

if TYPE_CHECKING:
    from repro.config import SystemConfig
    from repro.experiments.jobs import JobResult, JobSpec


def _bdp_text() -> str:
    from repro.analysis.bdp import scaling_table
    from repro.analysis.report import dict_rows, format_table

    rows = scaling_table()
    keys = ["bandwidth_gbps", "pm_capacity_mbit", "pm_capacity_mbytes",
            "log_queue_kbit", "log_queue_bytes"]
    return format_table(
        ["BW Gbps", "PM Mbit", "PM MB", "queue kbit", "queue B"],
        dict_rows(rows, keys),
        title="Eq 1/2 — BDP sizing (Sec V-A, Sec VII)")


def _bdp_jobs(config: Optional["SystemConfig"] = None,
              quick: bool = True) -> List["JobSpec"]:
    from repro.config import SystemConfig
    from repro.experiments.common import Scale
    from repro.experiments.jobs import JobSpec

    cfg = config if config is not None else SystemConfig()
    return [JobSpec(experiment="bdp", point="table", params={},
                    seed=cfg.seed, quick=Scale.resolve_quick(quick),
                    config=config)]


#: The job protocol of the one experiment defined here: the analytic
#: BDP table, a single point with no simulation.
_BDP = SimpleNamespace(jobs=_bdp_jobs, run_point=lambda spec: _bdp_text(),
                       assemble=lambda results: results[0].value)


def _report(value: Any) -> str:
    """Report text of an assembled result: the text itself, a dict of
    results (the ablations) joined by blank lines, or ``format()``."""
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return "\n\n".join(result.format() for result in value.values())
    return value.format()


@dataclass(frozen=True)
class Experiment:
    """One reproducible experiment."""

    id: str
    description: str
    #: Defining module, imported on first use; ``None`` for the BDP
    #: table defined here.
    module_name: Optional[str] = None

    @property
    def module(self) -> Optional[ModuleType]:
        """The backing module (None for the builtin)."""
        if self.module_name is None:
            return None
        return importlib.import_module(self.module_name)

    @property
    def _protocol(self) -> Any:
        return self.module if self.module_name is not None else _BDP

    @property
    def jobs(self) -> Callable[..., List["JobSpec"]]:
        """Enumerate the sweep: (config=None, quick=True) -> List[JobSpec]."""
        return self._protocol.jobs

    @property
    def run_point(self) -> Callable[["JobSpec"], Any]:
        """Execute one spec; importable from a worker process."""
        return self._protocol.run_point

    def assemble(self, results: Sequence["JobResult"]) -> str:
        """Collected results (in jobs() order) -> formatted report text."""
        return _report(self._protocol.assemble(results))

    def run(self, quick: bool = True) -> str:
        from repro.experiments.jobs import execute_serial

        return self.assemble(execute_serial(self.jobs(quick=quick),
                                            self.run_point))


EXPERIMENTS: Dict[str, Experiment] = {
    experiment.id: experiment for experiment in (
        Experiment("fig02", "Latency breakdown of an update request",
                   "repro.experiments.fig02_breakdown"),
        Experiment("fig07", "Ordering under reorder/loss/failure",
                   "repro.experiments.fig07_ordering"),
        Experiment("fig15", "Ideal-handler latency vs payload size",
                   "repro.experiments.fig15_payload_latency"),
        Experiment("fig16", "Bandwidth vs latency stress test",
                   "repro.experiments.fig16_stress"),
        Experiment("fig18", "Alternative logging designs",
                   "repro.experiments.fig18_alternatives"),
        Experiment("fig19", "Application throughput vs update ratio",
                   "repro.experiments.fig19_app_throughput"),
        Experiment("fig20", "Latency CDFs with read caching",
                   "repro.experiments.fig20_cdf_caching"),
        Experiment("fig21", "3-way replication latency",
                   "repro.experiments.fig21_replication"),
        Experiment("fig22", "Throughput with libVMA stacks",
                   "repro.experiments.fig22_vma"),
        Experiment("sec6b6", "Server failure recovery",
                   "repro.experiments.sec6b6_recovery"),
        Experiment("sec7", "Scaling to faster ports (Sec VII)",
                   "repro.experiments.sec7_scaling"),
        Experiment("loadgen",
                   "Flow-level load generator: closed/open-loop users",
                   "repro.experiments.loadgen"),
        Experiment("motivation",
                   "Sync vs async vs sync-over-PMNet (Sec II-A)",
                   "repro.experiments.motivation"),
        Experiment("multirack",
                   "Two-rack placement / cross-rack replication",
                   "repro.experiments.multirack"),
        Experiment("rebalance",
                   "Tail latency under live session migration "
                   "(drain / failover / hot-shard)",
                   "repro.experiments.rebalance"),
        Experiment("scaleout",
                   "Fabric tail latency vs shards/chain/hop cost "
                   "(10^4+ loadgen users)",
                   "repro.experiments.scaleout"),
        Experiment("bdp", "BDP sizing equations"),
        Experiment("ablations", "Design-choice ablations",
                   "repro.experiments.ablations"),
        Experiment("chaos",
                   "Seeded chaos sweep: random faults vs R1-R6 + "
                   "durability oracle",
                   "repro.failure.chaos"),
    )
}


def get(experiment_id: str) -> Experiment:
    try:
        return EXPERIMENTS[experiment_id]
    except KeyError:
        known = ", ".join(sorted(EXPERIMENTS))
        raise KeyError(
            f"unknown experiment {experiment_id!r}; known: {known}") from None


@lru_cache(maxsize=None)
def experiment_fingerprint(experiment_id: str) -> str:
    """Digest of the experiment's source, for cache invalidation.

    Editing an experiment module changes its fingerprint, which salts
    every cache key for that experiment — so stale cached sweep points
    are never reused after a code change.  The builtin entry (no backing
    module) uses a constant.
    """
    entry = get(experiment_id)
    if entry.module_name is None:
        return "builtin"
    source = importlib.util.find_spec(entry.module_name).origin
    with open(source, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()[:16]
