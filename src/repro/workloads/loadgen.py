"""Flow-level load generator: many modeled users, few simulated objects.

The closed-loop driver (:mod:`repro.experiments.driver`) spawns one
generator Process per client — fine for the paper's 64-host testbed,
hopeless for modeling the 10^5-10^6 users a rack's worth of ToR traffic
really aggregates.  This module models users as *flows* instead: each
deployment client becomes one **shard** that multiplexes thousands of
virtual users, and the only simulated objects are the arrival timers
and the in-flight requests themselves.

Two arrival processes:

* **closed** — ``users`` virtual users, each with at most one
  outstanding request and a fixed ``think_time_ns`` between its
  completion and its next arrival (the classic closed-loop model,
  scaled out).  Users beyond the per-shard ``window`` wait their turn
  in an O(1) counter, not in per-user state.
* **open** — Poisson arrivals per shard with mean
  ``mean_interarrival_ns``, drawn from the shard's seeded stream via
  :func:`repro.sim.rand.exponential_delay`.  Arrivals beyond the
  window queue; latency is measured from *arrival*, so queueing delay
  is part of the sample (the open-loop honesty rule).

Determinism: every draw comes from ``sim.random.stream("loadgen:<i>")``
— per-shard streams, seeded from the simulator seed — and arrival
bookkeeping never touches the wall clock, so one seed reproduces the
exact sample table regardless of worker count, run order, or fold mode.
"""

from __future__ import annotations

import hashlib
import json
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.config import check_field_types
from repro.errors import ConfigurationError, ExperimentError
from repro.sim.monitor import Counter, LatencyRecorder, ThroughputMeter
from repro.sim.rand import exponential_delay
from repro.workloads.ycsb import YCSBConfig, YCSBGenerator, check_zipf_theta

#: The two arrival processes.
MODES = ("closed", "open")


@dataclass(frozen=True)
class LoadGenConfig:
    """Knobs of one load-generator run (all JSON-safe for job specs)."""

    #: ``closed`` (think-time users) or ``open`` (Poisson arrivals).
    mode: str = "closed"
    #: Modeled virtual users across all shards (closed-loop only).
    users: int = 10_000
    #: Total request budget for the whole run, across shards.
    total_requests: int = 20_000
    #: Closed-loop: delay between a user's completion and next arrival.
    think_time_ns: int = 0
    #: Open-loop: per-shard Poisson mean inter-arrival time.
    mean_interarrival_ns: int = 2_000
    #: Per-shard cap on in-flight requests (flow-level concurrency).
    window: int = 64
    #: SET share of the generated YCSB mix.
    update_ratio: float = 1.0
    #: Request payload size handed to the generator.
    payload_bytes: int = 100
    #: Earliest completions per shard excluded from the sample table.
    warmup_requests: int = 0
    #: Zipfian skew of the key popularity (0.0 = uniform).  Defaults
    #: mirror :class:`~repro.workloads.ycsb.YCSBConfig`.
    zipf_theta: float = 0.9
    #: Keyspace size handed to the generator.
    population: int = 10_000

    def __post_init__(self) -> None:
        check_field_types(self, ConfigurationError)
        if self.mode not in MODES:
            raise ConfigurationError(
                f"loadgen mode must be one of {MODES}, got {self.mode!r}")
        if self.mode == "closed" and self.users <= 0:
            raise ConfigurationError("closed-loop needs at least one user")
        if self.total_requests <= 0:
            raise ConfigurationError("total_requests must be positive")
        if self.window <= 0:
            raise ConfigurationError("window must be positive")
        if self.mode == "open" and self.mean_interarrival_ns <= 0:
            raise ConfigurationError(
                "open-loop needs a positive mean inter-arrival time")
        if self.think_time_ns < 0:
            raise ConfigurationError("think time must be non-negative")
        if self.population <= 0:
            raise ConfigurationError("population must be positive")
        if not 0.0 <= self.update_ratio <= 1.0:
            raise ConfigurationError(
                f"update_ratio must be in [0, 1], got {self.update_ratio}")
        if self.payload_bytes <= 0:
            raise ConfigurationError(
                f"payload_bytes must be positive, got {self.payload_bytes}")
        if self.warmup_requests < 0:
            raise ConfigurationError(
                f"warmup_requests must be non-negative, "
                f"got {self.warmup_requests}")
        check_zipf_theta(self.zipf_theta)

    def to_params(self) -> Dict[str, object]:
        """A JSON-safe dict for :class:`~repro.experiments.jobs.JobSpec`."""
        return {"mode": self.mode, "users": self.users,
                "total_requests": self.total_requests,
                "think_time_ns": self.think_time_ns,
                "mean_interarrival_ns": self.mean_interarrival_ns,
                "window": self.window, "update_ratio": self.update_ratio,
                "payload_bytes": self.payload_bytes,
                "warmup_requests": self.warmup_requests,
                "zipf_theta": self.zipf_theta,
                "population": self.population}

    @staticmethod
    def from_params(params: Dict[str, object]) -> "LoadGenConfig":
        return LoadGenConfig(**params)  # type: ignore[arg-type]


@dataclass
class LoadGenResult:
    """The reproducible face of one run: sample table plus totals."""

    mode: str
    modeled_users: int
    shards: int
    issued: int
    completed: int
    errors: int
    duration_ns: int
    #: shard index -> latencies (ns) in completion order, warmup dropped.
    samples: Dict[int, List[int]] = field(default_factory=dict)

    def ops_per_second(self) -> float:
        if self.duration_ns <= 0:
            return 0.0
        return self.completed / (self.duration_ns / 1e9)

    def sample_table(self) -> List[Tuple[int, int, int]]:
        """Canonical ``(shard, index, latency_ns)`` rows, shard-major.

        This is the byte-identity surface: two runs agree exactly when
        their tables agree, independent of dict iteration order."""
        return [(shard, index, latency)
                for shard in sorted(self.samples)
                for index, latency in enumerate(self.samples[shard])]

    def digest(self) -> str:
        """A short stable digest of the sample table."""
        blob = json.dumps(self.sample_table()).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]

    def mean_latency_us(self) -> float:
        rows = [lat for lats in self.samples.values() for lat in lats]
        if not rows:
            return 0.0
        return sum(rows) / len(rows) / 1000.0


class _Shard:
    """One deployment client multiplexing a slice of the user base."""

    __slots__ = ("index", "client", "rng", "users", "waiting_users",
                 "in_flight", "backlog", "issued", "completed", "samples")

    def __init__(self, index: int, client, rng, users: int) -> None:
        self.index = index
        self.client = client
        self.rng = rng
        self.users = users
        #: Closed-loop: users ready to issue but outside the window.
        self.waiting_users = users
        self.in_flight = 0
        #: Open-loop: arrival timestamps waiting for a window slot.
        self.backlog: Deque[int] = deque()
        self.issued = 0
        self.completed = 0
        self.samples: List[int] = []


class FlowLoadGenerator:
    """Drives one deployment with flow-level arrivals, no Processes.

    Everything runs off completion callbacks and plain scheduled
    timers: closed-loop users park in an integer counter while they
    think or wait for a window slot; open-loop arrivals park in a deque
    of timestamps.  The per-request cost is O(1) state, so a single run
    models 10^5-10^6 users without building them.
    """

    def __init__(self, deployment, config: LoadGenConfig,
                 tagger=None) -> None:
        if not deployment.clients:
            raise ExperimentError("deployment has no clients to shard over")
        self.deployment = deployment
        self.config = config
        self.sim = deployment.sim
        #: Optional ``tagger(client, op) -> tag`` evaluated at issue
        #: time; completions land in ``tagged[tag]`` alongside the
        #: per-shard samples (rebalance experiments tag by the key's
        #: *original* ring owner to isolate untouched-shard latency).
        self._tagger = tagger
        self.tagged: Dict[object, List[int]] = {}
        self._generator = YCSBGenerator(YCSBConfig(
            update_ratio=config.update_ratio,
            payload_bytes=config.payload_bytes,
            zipf_theta=config.zipf_theta,
            population=config.population))
        self._budget = config.total_requests
        self._started_at = 0
        self._finished_at = 0
        self.errors = 0
        self.latencies = LatencyRecorder("loadgen.latency")
        self.throughput = ThroughputMeter("loadgen.throughput")
        self.arrivals = Counter("loadgen.arrivals")
        count = len(deployment.clients)
        base, extra = divmod(config.users, count)
        self.shards = [
            _Shard(index, client, self.sim.random.stream(f"loadgen:{index}"),
                   base + (1 if index < extra else 0))
            for index, client in enumerate(deployment.clients)]
        if deployment.obs is not None:
            registry = deployment.obs.registry
            for instrument in self.instruments():
                if instrument.name not in registry:
                    registry.register(instrument)

    def instruments(self) -> tuple:
        return (self.latencies, self.throughput, self.arrivals)

    # ------------------------------------------------------------------
    def start(self) -> None:
        """Arm every shard's arrival process (call before ``sim.run``)."""
        self._started_at = self.sim.now
        if self.config.mode == "closed":
            for shard in self.shards:
                self._pump_closed(shard)
        else:
            for shard in self.shards:
                self._schedule_arrival(shard)

    @property
    def issued(self) -> int:
        return sum(shard.issued for shard in self.shards)

    @property
    def completed(self) -> int:
        return sum(shard.completed for shard in self.shards)

    def result(self) -> LoadGenResult:
        return LoadGenResult(
            mode=self.config.mode,
            modeled_users=(self.config.users
                           if self.config.mode == "closed" else 0),
            shards=len(self.shards), issued=self.issued,
            completed=self.completed, errors=self.errors,
            duration_ns=self._finished_at - self._started_at,
            samples={shard.index: shard.samples for shard in self.shards})

    # ------------------------------------------------------------------
    # Closed loop: users <-> window slots
    # ------------------------------------------------------------------
    def _pump_closed(self, shard: _Shard) -> None:
        while (shard.waiting_users > 0 and self._budget > 0
               and shard.in_flight < self.config.window):
            shard.waiting_users -= 1
            self._issue(shard, self.sim.now)

    def _user_ready(self, shard: _Shard) -> None:
        """A user finished thinking and re-enters the arrival pool."""
        shard.waiting_users += 1
        self._pump_closed(shard)

    # ------------------------------------------------------------------
    # Open loop: Poisson arrival chain per shard
    # ------------------------------------------------------------------
    def _schedule_arrival(self, shard: _Shard) -> None:
        if self._budget <= 0:
            return
        self._budget -= 1
        delay = exponential_delay(shard.rng,
                                  self.config.mean_interarrival_ns)
        self.sim.schedule(delay, self._arrival, shard)

    def _arrival(self, shard: _Shard) -> None:
        self.arrivals.increment()
        if shard.in_flight < self.config.window:
            self._issue_open(shard, self.sim.now)
        else:
            shard.backlog.append(self.sim.now)
        self._schedule_arrival(shard)

    # ------------------------------------------------------------------
    def _issue(self, shard: _Shard, submitted_at: int) -> None:
        """Closed-loop issue: consumes one unit of the request budget."""
        self._budget -= 1
        self.arrivals.increment()
        self._issue_open(shard, submitted_at)

    def _issue_open(self, shard: _Shard, submitted_at: int) -> None:
        op, size = self._generator.make_op(shard.index, shard.issued,
                                           shard.rng)
        shard.issued += 1
        shard.in_flight += 1
        tag = (self._tagger(shard.client, op)
               if self._tagger is not None else None)
        if op.is_update:
            completion = shard.client.send_update(op, size)
        else:
            completion = shard.client.bypass(op, size)
        completion.add_callback(self._on_done, shard, submitted_at, tag)

    def _on_done(self, event, shard: _Shard, submitted_at: int,
                 tag=None) -> None:
        shard.in_flight -= 1
        shard.completed += 1
        now = self.sim.now
        latency = now - submitted_at
        if shard.completed > self.config.warmup_requests:
            shard.samples.append(latency)
            self.latencies.record(latency)
            self.throughput.record(now)
            if tag is not None:
                self.tagged.setdefault(tag, []).append(latency)
        completion = event.value
        result = completion.result
        if not result.ok and not result.is_miss:
            self.errors += 1
        self._finished_at = now
        if self.config.mode == "closed":
            if self._budget > 0:
                if self.config.think_time_ns > 0:
                    self.sim.schedule(self.config.think_time_ns,
                                      self._user_ready, shard)
                else:
                    shard.waiting_users += 1
            self._pump_closed(shard)
        elif shard.backlog:
            self._issue_open(shard, shard.backlog.popleft())


def run_loadgen(deployment, config: LoadGenConfig) -> LoadGenResult:
    """Drive ``deployment`` with flow-level load; return the result."""
    engine = FlowLoadGenerator(deployment, config)
    deployment.open_all_sessions()
    engine.start()
    deployment.sim.run()
    if engine.completed != engine.issued:
        raise ExperimentError(
            f"loadgen lost requests: issued {engine.issued}, completed "
            f"{engine.completed} — the simulation deadlocked or dropped "
            "work without retransmission")
    return engine.result()
