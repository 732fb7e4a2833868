"""Job specs: every experiment sweep as self-contained, restartable units.

A figure of the paper's evaluation is a sweep of *independent,
deterministic* simulations (payload sizes in Fig 15, update ratios in
Fig 19, port speeds in Sec VII).  Each experiment module therefore
exposes three functions:

* ``jobs(config, quick, ...)`` — the sweep as a list of
  :class:`JobSpec`, each describing exactly one point;
* ``run_point(spec)`` — execute one point, building its own deployment
  from the spec (so the same-seed → bit-identical guarantee holds per
  job, no matter which process runs it);
* ``assemble(results)`` — reassemble the module's result object from
  the collected per-point values, in spec order, so the formatted
  table is byte-identical whether the points ran serially or fanned
  out across cores (:mod:`repro.experiments.parallel`).

``module.run()`` keeps its historical signature and is implemented as
``assemble(execute_serial(jobs(...)))`` — the serial path and the
parallel path share every line of per-point code.

Specs carry only picklable, JSON-canonicalizable state (primitives in
``params``, the frozen :class:`~repro.config.SystemConfig`), which is
what makes them safe to ship to worker processes and to hash into
on-disk cache keys (:mod:`repro.experiments.cache`).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence

from repro.config import SystemConfig


@dataclass(frozen=True)
class JobSpec:
    """One self-contained sweep point of one experiment."""

    #: Registry id of the experiment this point belongs to ("fig15").
    experiment: str
    #: Unique human-readable point label ("payload=50/design=pmnet-nic").
    point: str
    #: JSON-safe point parameters; ``run_point`` rebuilds everything
    #: (deployment, op maker, sweep knobs) from these.
    params: Dict[str, Any] = field(default_factory=dict)
    #: Simulator seed the point's deployment is built with.
    seed: int = 1
    #: Resolved scale profile (REPRO_FULL already folded in).
    quick: bool = True
    #: Base configuration; ``None`` means the calibrated default.
    config: Optional[SystemConfig] = None

    def resolved_config(self) -> SystemConfig:
        return self.config if self.config is not None else SystemConfig()


@dataclass
class JobResult:
    """What one executed (or cache-served) job hands back."""

    spec: JobSpec
    #: The module's per-point payload (a float, a row, a RunStats...).
    value: Any
    #: Wall-clock seconds spent simulating (0.0 for cache hits).
    elapsed_s: float = 0.0
    #: True when the value came from the on-disk result cache.
    cached: bool = False
    #: repr() of the exception if the point failed in a worker.
    error: Optional[str] = None


def canonical_spec(spec: JobSpec) -> str:
    """A canonical JSON encoding of a spec (stable across processes).

    Raises ``TypeError`` if ``params`` smuggles non-JSON-safe state —
    deliberately, since such a spec could not be faithfully hashed or
    shipped to a worker.
    """
    config = spec.config if spec.config is not None else SystemConfig()
    return json.dumps({
        "experiment": spec.experiment,
        "point": spec.point,
        "params": spec.params,
        "seed": spec.seed,
        "quick": spec.quick,
        "config": dataclasses.asdict(config),
    }, sort_keys=True)


def spec_key(spec: JobSpec, salt: str = "") -> str:
    """Content hash of a spec (plus a caller-supplied salt)."""
    digest = hashlib.sha256()
    digest.update(salt.encode("utf-8"))
    digest.update(canonical_spec(spec).encode("utf-8"))
    return digest.hexdigest()


def execute_serial(specs: Sequence[JobSpec],
                   run_point: Callable[[JobSpec], Any]) -> List[JobResult]:
    """Run a module's own specs inline, in order (the serial path).

    Exceptions propagate, exactly as the pre-harness ``run()`` loops
    did; only the parallel executor converts failures into per-job
    ``error`` records.
    """
    results = []
    for spec in specs:
        started = time.perf_counter()
        value = run_point(spec)
        results.append(JobResult(spec=spec, value=value,
                                 elapsed_s=time.perf_counter() - started))
    return results


def values(results: Sequence[JobResult]) -> List[Any]:
    """The payloads of a result list, in spec order."""
    return [result.value for result in results]
