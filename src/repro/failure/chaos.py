"""Seed-driven chaos sweeps: random deployments, faults, and checking.

The failure scenarios in :mod:`repro.failure.scenarios` replay the
paper's *hand-picked* crash points (Figs 12/13).  This module explores
the space around them.  A plan's identity is the pair ``(family,
seed)``; :func:`generate_plan` derives from it

* a randomized deployment, described as a :class:`DeploymentSpec` (see
  :meth:`ChaosPlan.deployment_spec`) — replication chain length, read
  cache on or off, client count, one of the five PMDK structures, and a
  YCSB-style workload mix (update ratio, Zipfian skew, payload size,
  and a deliberately small keyspace so clients contend); and
* a randomized fault schedule composed from the existing
  :class:`~repro.failure.injector.FailureInjector` primitives (server
  power-cut + recovery, device power-cut + recovery, permanent device
  death + blank replacement) plus timed
  :class:`~repro.net.link.Impairments` windows (loss / duplication /
  reordering on one directed channel).

The three families (:data:`FAMILIES`) are ``rack`` (a 1-3 PMNet chain
at one ToR), ``fabric`` (a multi-rack spine/leaf fabric with
cross-rack chains, adding chain-member loss mid-write, leaf-spine
uplink impairment windows and whole-rack outages) and ``control`` (a
fabric with a scripted control plane whose live migrations race
outages and recovery replay).  ``pmnet-repro chaos --family F`` sweeps
one of them.

The run is driven to quiescence and validated twice over: the
PMTest-style :class:`~repro.analysis.persistcheck.PersistenceChecker`
rules R1-R6 on the trace, and a durability oracle comparing every
client-acknowledged update against the recovered store.  Everything is
a pure function of ``(family, seed)`` — the plan, the simulated
timeline, the trace digest, and the verdict — so a failing seed IS the
bug report.

On a violation, :func:`shrink` bisects the fault schedule down to a
1-minimal failing subset and :func:`repro_line` renders the exact CLI
invocation that replays it.  Failing plans land in
``tests/failure/chaos_corpus.txt`` as ``<family> <seed>`` lines (see
:func:`append_to_corpus`), which the tier-1 suite replays as
regression tests.

Fan-out reuses the job protocol (:mod:`repro.experiments.jobs`): the
``chaos`` registry entry exposes ``jobs``/``run_point``/``assemble``,
so ``pmnet-repro chaos --runs 200 --jobs 8`` ships seeds to worker
processes exactly like any figure sweep.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.persistcheck import PersistenceChecker
from repro.analysis.report import format_table
from repro.config import SystemConfig
from repro.errors import ConfigurationError, SimulationError
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.jobs import JobResult, JobSpec, execute_serial
from repro.failure.injector import FailureInjector
from repro.net.link import Impairments
from repro.net.packet import reset_frame_ids
from repro.obs.context import Observability
from repro.protocol.packet import reset_request_ids
from repro.workloads.handlers import StructureHandler
from repro.workloads.structures import PMDK_STRUCTURES
from repro.workloads.ycsb import YCSBConfig, YCSBGenerator

#: Fault kinds a plan may schedule.
SERVER_OUTAGE = "server-outage"
DEVICE_OUTAGE = "device-outage"
DEVICE_REPLACE = "device-replace"
IMPAIRMENT = "impairment"
#: Fabric-only fault kinds (multi-rack plans).
RACK_OUTAGE = "rack-outage"
SPINE_IMPAIRMENT = "spine-impairment"
#: Control-plane fault kind (control plans): a scripted live migration
#: ``target`` server -> ``dest`` server through the deployment's
#: :class:`~repro.control.migrator.SessionMigrator`.
REBALANCE = "rebalance"

#: The adversarial schedule shapes the ``control`` family draws from.
CONTROL_SHAPES = ("rebalance-outage", "migration-replay", "flapping")

#: Default sweep sizes for the registry entry / ``pmnet-repro run chaos``.
QUICK_SWEEP_SEEDS = 12
FULL_SWEEP_SEEDS = 48

#: Window length range of each kind the rack/fabric fault loop draws.
_WINDOW_NS = {
    SERVER_OUTAGE: (100_000, 400_000),
    RACK_OUTAGE: (150_000, 400_000),
    DEVICE_OUTAGE: (50_000, 250_000),
    DEVICE_REPLACE: (50_000, 250_000),
    IMPAIRMENT: (50_000, 250_000),
    SPINE_IMPAIRMENT: (50_000, 250_000),
}


@dataclass(frozen=True)
class _Family:
    """What one plan family draws, and from which RNG namespace."""

    namespace: str
    #: A multi-rack spine/leaf shape; otherwise one ToR chain of 1-3.
    fabric: bool
    clients: Tuple[int, int]  # per rack
    requests_per_client: Tuple[int, int]
    update_ratios: Tuple[float, ...]
    payloads: Tuple[int, ...]
    spine_propagations: Tuple[Optional[int], ...]
    #: The fault loop's kind pool; empty means the control schedule.
    kinds: Tuple[str, ...]


#: The plan families, keyed by name.  Each keeps its own RNG namespace,
#: so no family's plans can perturb another's.
FAMILIES: Dict[str, _Family] = {
    "rack": _Family(
        "chaos", False, (1, 4), (8, 20), (0.5, 0.9, 1.0), (64, 100, 256),
        (), (SERVER_OUTAGE, DEVICE_OUTAGE, DEVICE_REPLACE, IMPAIRMENT)),
    "fabric": _Family(
        "chaos-fabric", True, (1, 2), (6, 14), (0.5, 0.9, 1.0),
        (64, 100, 256), (None, 2_000, 10_000),
        (SERVER_OUTAGE, DEVICE_OUTAGE, DEVICE_REPLACE, IMPAIRMENT,
         RACK_OUTAGE, SPINE_IMPAIRMENT)),
    "control": _Family(
        "chaos-control", True, (1, 2), (6, 14), (0.9, 1.0), (64, 100),
        (None, 2_000), ()),
}


def _family(name: str) -> _Family:
    try:
        return FAMILIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown chaos family {name!r} (expected one of "
            f"{', '.join(FAMILIES)})") from None


@dataclass(frozen=True)
class Fault:
    """One scheduled fault: a window ``[at_ns, at_ns + duration_ns)``.

    ``target`` selects the victim (device index for device faults,
    directed-channel index for impairments; reduced modulo the actual
    population at run time, so it stays valid for any plan shape).
    """

    kind: str
    at_ns: int
    duration_ns: int
    target: int = 0
    loss: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    #: Migration destination (REBALANCE only): server index, reduced
    #: modulo the population and bumped off the source on collision.
    dest: int = 0

    @property
    def end_ns(self) -> int:
        return self.at_ns + self.duration_ns

    def describe(self) -> str:
        window = f"@{self.at_ns}ns +{self.duration_ns}ns"
        if self.kind in (IMPAIRMENT, SPINE_IMPAIRMENT):
            path = "channel" if self.kind == IMPAIRMENT else "uplink"
            return (f"{self.kind} {window} {path}#{self.target} "
                    f"loss={self.loss} dup={self.duplicate} "
                    f"reorder={self.reorder}")
        if self.kind == SERVER_OUTAGE:
            return f"{self.kind} {window} server#{self.target}"
        if self.kind == RACK_OUTAGE:
            return f"{self.kind} {window} rack#{self.target}"
        if self.kind == REBALANCE:
            return (f"{self.kind} @{self.at_ns}ns "
                    f"server#{self.target}->server#{self.dest}")
        return f"{self.kind} {window} device#{self.target}"


@dataclass(frozen=True)
class ChaosPlan:
    """Everything one chaos run does, derived from ``(family, seed)``."""

    seed: int
    replication: int
    enable_cache: bool
    clients: int
    requests_per_client: int
    structure: str
    update_ratio: float
    zipf_theta: float
    payload_bytes: int
    population: int
    faults: Tuple[Fault, ...]
    #: Fabric shape (defaults describe the one-ToR rack deployments).
    racks: int = 1
    spines: int = 1
    devices_per_rack: int = 1
    servers_per_rack: int = 1
    spine_propagation_ns: Optional[int] = None
    #: A key of :data:`FAMILIES`.  ``control`` plans attach a
    #: (scripted, balancer-idle) control plane so REBALANCE faults can
    #: drive its migrator.
    family: str = "rack"
    control_shape: str = ""

    def deployment_spec(self) -> DeploymentSpec:
        """The declarative deployment this plan stands up."""
        return DeploymentSpec(
            racks=self.racks, spines=self.spines, placement="switch",
            chain_length=self.replication,
            devices_per_rack=self.devices_per_rack,
            servers_per_rack=self.servers_per_rack,
            enable_cache=self.enable_cache,
            spine_propagation_ns=self.spine_propagation_ns,
            control_period_ns=(100_000 if self.family == "control"
                               else None))

    def describe(self) -> str:
        fabric = FAMILIES[self.family].fabric
        shape = (f"{self.racks}x{self.devices_per_rack} PMNet(s) over "
                 f"{self.spines} spine(s), "
                 f"{self.servers_per_rack} shard(s)/rack"
                 if fabric else f"{self.replication} PMNet(s)")
        lines = [
            f"chaos seed {self.seed}: {self.clients} client(s), "
            f"{shape}, "
            f"cache {'on' if self.enable_cache else 'off'}, "
            f"{self.structure}, "
            f"{self.requests_per_client} req/client, "
            f"update={self.update_ratio} zipf={self.zipf_theta} "
            f"payload={self.payload_bytes}B keys={self.population}"]
        if fabric:
            lines[0] += f" chain={self.replication}"
        if self.family == "control":
            lines[0] += f" control[{self.control_shape}]"
        if not self.faults:
            lines.append("  (no faults)")
        for index, fault in enumerate(self.faults):
            lines.append(f"  [{index}] {fault.describe()}")
        return "\n".join(lines)


def generate_plan(seed: int, family: str = "rack") -> ChaosPlan:
    """Derive a deployment + fault schedule from ``(family, seed)``.

    Pure: the same pair always yields the same plan.  The RNG is a
    dedicated ``random.Random(f"{namespace}/{seed}")`` (namespaces
    ``chaos``, ``chaos-fabric``, ``chaos-control``), untouched by any
    simulation stream and by the other families.  ``rack`` and
    ``fabric`` schedules come from one fault loop
    (:func:`_fault_loop`); ``control`` schedules from one of
    :data:`CONTROL_SHAPES` (:func:`_control_schedule`).  Fabric and
    control plans always replicate (chain length 2-3).
    """
    row = _family(family)
    rng = random.Random(f"{row.namespace}/{seed}")
    if row.fabric:
        racks = rng.randint(2, 3)
        spines = rng.randint(1, 2)
        devices_per_rack = rng.randint(1, 2)
        servers_per_rack = rng.randint(1, 2)
        devices = racks * devices_per_rack
        replication = rng.randint(2, min(3, devices))
    else:
        racks = spines = devices_per_rack = servers_per_rack = 1
        replication = devices = rng.randint(1, 3)
    enable_cache = rng.random() < 0.5
    clients = rng.randint(*row.clients)
    requests_per_client = rng.randint(*row.requests_per_client)
    structure = rng.choice(sorted(PMDK_STRUCTURES))
    update_ratio = rng.choice(row.update_ratios)
    zipf_theta = rng.choice([0.0, 0.9])
    payload_bytes = rng.choice(row.payloads)
    population = rng.choice([16, 256])
    spine_propagation_ns = (rng.choice(row.spine_propagations)
                            if row.fabric else None)
    servers = racks * servers_per_rack
    if row.kinds:
        shape = ""
        faults = _fault_loop(rng, row, replication, racks, servers,
                             devices)
    else:
        shape, faults = _control_schedule(rng, servers)
    return ChaosPlan(seed=seed, replication=replication,
                     enable_cache=enable_cache, clients=clients,
                     requests_per_client=requests_per_client,
                     structure=structure, update_ratio=update_ratio,
                     zipf_theta=zipf_theta, payload_bytes=payload_bytes,
                     population=population, faults=tuple(faults),
                     racks=racks, spines=spines,
                     devices_per_rack=devices_per_rack,
                     servers_per_rack=servers_per_rack,
                     spine_propagation_ns=spine_propagation_ns,
                     family=family, control_shape=shape)


def _impairment(rng: random.Random, kind: str, start: int, duration: int,
                ceiling: float) -> Fault:
    """A loss/duplication/reordering window on one channel or uplink."""
    return Fault(kind, start, duration, target=rng.randrange(1024),
                 loss=round(rng.uniform(0.05, ceiling), 3),
                 duplicate=round(rng.uniform(0.0, ceiling), 3),
                 reorder=round(rng.uniform(0.0, ceiling), 3))


def _fault_loop(rng: random.Random, row: _Family, replication: int,
                racks: int, servers: int, devices: int) -> List[Fault]:
    """1-4 faults from the family's kind pool, kept recoverable.

    Windows never overlap globally — each starts after the previous
    one ends — so a server recovery never polls a dead device.  At most
    one server outage and one rack outage run per plan, and a rack
    outage never follows a server outage (its shard crashes would
    double-fault the shard tier).  At most ``replication - 1`` devices
    are replaced: a blank board forgets its log, so one durable copy
    must survive (Sec IV-E2).
    """
    faults: List[Fault] = []
    cursor = 60_000  # let the first requests get going
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice(row.kinds)
        taken = [fault.kind for fault in faults]
        if kind == SERVER_OUTAGE and SERVER_OUTAGE in taken:
            kind = DEVICE_OUTAGE
        if kind == RACK_OUTAGE and (RACK_OUTAGE in taken
                                    or SERVER_OUTAGE in taken):
            kind = SPINE_IMPAIRMENT
        if (kind == DEVICE_REPLACE
                and taken.count(DEVICE_REPLACE) >= replication - 1):
            kind = DEVICE_OUTAGE
        start = cursor + rng.randrange(20_000, 150_000)
        duration = rng.randrange(*_WINDOW_NS[kind])
        if kind in (IMPAIRMENT, SPINE_IMPAIRMENT):
            fault = _impairment(rng, kind, start, duration, 0.3)
        elif kind == SERVER_OUTAGE and not row.fabric:
            # The rack stream never drew a victim for its one server,
            # and randrange(1) would still consume bits.
            fault = Fault(kind, start, duration)
        else:
            victims = {SERVER_OUTAGE: servers,
                       RACK_OUTAGE: racks}.get(kind, devices)
            fault = Fault(kind, start, duration,
                          target=rng.randrange(victims))
        faults.append(fault)
        cursor = fault.end_ns
    return faults


def _control_schedule(rng: random.Random,
                      servers: int) -> Tuple[str, List[Fault]]:
    """One adversarial control-plane schedule shape and its faults.

    * ``rebalance-outage`` — a live migration is requested *while* its
      source server is power-cut: the drain must ride out the outage
      (updates early-ACK at the chain tail; reads block until the
      scripted recovery) and commit afterwards without losing an
      acknowledged write.
    * ``migration-replay`` — the migration lands just after an outage
      ends, inside the ~150 ms application-recovery/log-replay window,
      racing the replayed updates (which still target the original
      server, whose store stays in the durable union).
    * ``flapping`` — ownership bounces back and forth between two
      servers several times, stacking overrides and stale store copies.

    Unlike destructive faults, REBALANCE windows may deliberately
    overlap outage windows — that interleaving is the point.
    """
    shape = rng.choice(CONTROL_SHAPES)

    def other(server: int) -> int:
        return (server + 1 + rng.randrange(servers - 1)) % servers

    if shape == "flapping":
        first = rng.randrange(servers)
        second = other(first)
        faults: List[Fault] = []
        cursor = 60_000
        for index in range(rng.randint(2, 4)):
            at = cursor + rng.randrange(20_000, 120_000)
            source, dest = ((first, second) if index % 2 == 0
                            else (second, first))
            faults.append(Fault(REBALANCE, at, 0, target=source, dest=dest))
            cursor = at
        if rng.random() < 0.5:
            start = cursor + rng.randrange(20_000, 100_000)
            faults.append(_impairment(rng, IMPAIRMENT, start,
                                      rng.randrange(50_000, 200_000), 0.2))
        return shape, faults
    victim = rng.randrange(servers)
    outage = Fault(SERVER_OUTAGE, 60_000 + rng.randrange(20_000, 120_000),
                   rng.randrange(150_000, 400_000), target=victim)
    if shape == "rebalance-outage":
        rebalance_at = outage.at_ns + rng.randrange(
            10_000, max(20_000, outage.duration_ns // 2))
        faults = [outage, Fault(REBALANCE, rebalance_at, 0, target=victim,
                                dest=other(victim))]
        if rng.random() < 0.5:
            start = outage.end_ns + rng.randrange(20_000, 100_000)
            faults.append(_impairment(rng, SPINE_IMPAIRMENT, start,
                                      rng.randrange(50_000, 200_000), 0.2))
        return shape, faults
    # migration-replay: the scripted recovery starts at end_ns and
    # replays for ~150 ms; landing the migration shortly after end_ns
    # races it against the replay traffic.
    rebalance_at = outage.end_ns + rng.randrange(5_000, 100_000)
    source = victim if rng.random() < 0.7 else rng.randrange(servers)
    return shape, [outage, Fault(REBALANCE, rebalance_at, 0, target=source,
                                 dest=other(source))]


@dataclass(frozen=True)
class ChaosRunResult:
    """One executed (sub)schedule and its verdict."""

    plan: ChaosPlan
    fault_indices: Tuple[int, ...]
    violations: Tuple[str, ...]
    completions: int
    acknowledged: int
    trace_events: int
    trace_digest: str
    executed_events: int
    #: The simulated clock when the run stopped (ns).
    final_now: int
    spans: int
    instruments: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-safe summary (what workers ship back and reports hold)."""
        return {
            "family": self.plan.family,
            "seed": self.plan.seed,
            "ok": self.ok,
            "violations": list(self.violations),
            "fault_indices": list(self.fault_indices),
            "faults": len(self.plan.faults),
            "completions": self.completions,
            "acknowledged": self.acknowledged,
            "trace_events": self.trace_events,
            "trace_digest": self.trace_digest,
            "executed_events": self.executed_events,
            "final_now": self.final_now,
            "spans": self.spans,
            "instruments": self.instruments,
            "plan": self.plan.describe(),
        }


def _horizon_ns(plan: ChaosPlan) -> int:
    """A generous stop time: quiescent runs end long before it; only a
    genuinely stuck run (a liveness bug) reaches it.

    The dominant term is server recovery: restarting the application
    store costs ~150 ms simulated (``app_recovery_ns``), so the slack
    must dwarf that or mid-recovery runs would be cut short and read
    as liveness/R2 violations.
    """
    fault_end = max((fault.end_ns for fault in plan.faults), default=0)
    workload = plan.clients * plan.requests_per_client * 2_000_000
    return fault_end + workload + 1_000_000_000


def _set_impairments(channel, impairments: Impairments) -> None:
    channel.impairments = impairments


def _schedule_fault(sim, injector: FailureInjector, deployment,
                    channels, fault: Fault) -> None:
    if fault.kind == SERVER_OUTAGE:
        servers = deployment.servers
        server = servers[fault.target % len(servers)]
        record = injector.crash_server_at(server, fault.at_ns)
        injector.recover_server_at(
            server, fault.end_ns,
            deployment.recovery_devices(server.host.name), record)
    elif fault.kind == RACK_OUTAGE:
        fabric = deployment.fabric
        if fabric is None:
            raise SimulationError("rack-outage needs a fabric deployment")
        rack = fabric.racks[fault.target % len(fabric.racks)]
        devices_by_name = {device.name: device
                           for device in deployment.devices}
        for name in rack.devices:
            record = injector.crash_device_at(devices_by_name[name],
                                              fault.at_ns)
            injector.recover_device_at(devices_by_name[name], fault.end_ns,
                                       record)
        servers_by_name = {server.host.name: server
                           for server in deployment.servers}
        for name in rack.servers:
            server = servers_by_name[name]
            record = injector.crash_server_at(server, fault.at_ns)
            # The rack's devices come back at end_ns; stagger the shard
            # recoveries past that so they never poll a dead tail.
            injector.recover_server_at(
                server, fault.end_ns + 20_000,
                deployment.recovery_devices(name), record)
    elif fault.kind in (IMPAIRMENT, SPINE_IMPAIRMENT):
        if fault.kind == IMPAIRMENT:
            impaired_channels = [channels[fault.target % len(channels)]]
        else:
            fabric = deployment.fabric
            if fabric is None:
                raise SimulationError("spine-impairment needs a fabric "
                                      "deployment")
            uplinks = fabric.spine_links
            _rack, _spine, link = uplinks[fault.target % len(uplinks)]
            impaired_channels = [link.forward, link.backward]
        impaired = Impairments(loss_probability=fault.loss,
                               duplicate_probability=fault.duplicate,
                               reorder_probability=fault.reorder)
        for channel in impaired_channels:
            sim.schedule_at(fault.at_ns, _set_impairments, channel,
                            impaired)
            sim.schedule_at(fault.end_ns, _set_impairments, channel,
                            Impairments())
    elif fault.kind == DEVICE_OUTAGE:
        device = deployment.devices[fault.target % len(deployment.devices)]
        record = injector.crash_device_at(device, fault.at_ns)
        injector.recover_device_at(device, fault.end_ns, record)
    elif fault.kind == DEVICE_REPLACE:
        device = deployment.devices[fault.target % len(deployment.devices)]
        record = injector.kill_device_permanently_at(device, fault.at_ns)
        injector.replace_device_at(device, fault.end_ns, record)
    elif fault.kind == REBALANCE:
        control = deployment.control
        if control is None:
            raise SimulationError("rebalance needs a deployment with a "
                                  "control plane (control plan)")
        servers = deployment.servers
        source = servers[fault.target % len(servers)].host.name
        dest = servers[fault.dest % len(servers)].host.name
        if dest == source:
            dest = servers[(fault.dest + 1) % len(servers)].host.name
        sim.schedule_at(fault.at_ns, control.migrator.migrate, source, dest)
    else:
        raise SimulationError(f"unknown fault kind {fault.kind!r}")


def _durability_oracle(acked: Dict[object, List[object]],
                       attempted: Set[object],
                       server_state: Dict[object, object]) -> List[str]:
    """Every acknowledged update survives; nothing appears from nowhere.

    With a contended keyspace the final value of a key may be any of
    its acknowledged writes (last server-commit wins among racing
    clients), so the per-key check is membership, not equality.
    """
    problems = []
    for key, values in acked.items():
        if key not in server_state:
            problems.append(
                f"[ORACLE] acknowledged key {key!r} missing from the "
                f"recovered store")
        elif server_state[key] not in values:
            problems.append(
                f"[ORACLE] key {key!r} holds {server_state[key]!r}, "
                f"which no client was acknowledged for")
    for key in server_state:
        if key not in attempted:
            problems.append(
                f"[ORACLE] spurious key {key!r} in the store (no client "
                f"ever wrote it)")
    return problems


def run_plan(plan: ChaosPlan,
             fault_indices: Optional[Sequence[int]] = None
             ) -> ChaosRunResult:
    """Execute one plan (optionally only a subset of its faults).

    ``fault_indices`` selects positions in ``plan.faults`` — the
    shrinker's handle.  ``None`` means the full schedule.  The
    deployment, workload, and all simulation randomness derive from
    ``plan.seed`` alone, so repeated calls are bit-identical.
    """
    if fault_indices is None:
        indices: Tuple[int, ...] = tuple(range(len(plan.faults)))
    else:
        indices = tuple(fault_indices)
    faults = [plan.faults[i] for i in indices]

    # Request/frame ids are process-global counters; restart them so the
    # trace (and any violation text) is a function of the seed alone —
    # identical no matter how many runs preceded this one or which
    # worker process executes it.
    reset_request_ids()
    reset_frame_ids()

    obs = Observability(spans=True, trace=True)
    config = SystemConfig(seed=plan.seed).with_clients(plan.clients)
    spec = plan.deployment_spec()
    handlers: List[StructureHandler] = []

    def handler_factory() -> StructureHandler:
        handler = StructureHandler(PMDK_STRUCTURES[plan.structure]())
        handlers.append(handler)
        return handler

    deployment = build(spec, config, handler_factory=handler_factory,
                       obs=obs)
    sim = deployment.sim
    injector = FailureInjector(sim)
    generator = YCSBGenerator(YCSBConfig(update_ratio=plan.update_ratio,
                                         population=plan.population,
                                         zipf_theta=plan.zipf_theta,
                                         payload_bytes=plan.payload_bytes))
    acked: Dict[object, List[object]] = {}
    attempted: Set[object] = set()
    stats = {"completions": 0, "acknowledged": 0}

    def client_proc(index: int, client):
        rng = sim.random.stream(f"chaos:client{index}")
        for request_index in range(plan.requests_per_client):
            op, payload = generator.make_op(index, request_index, rng)
            if op.is_update:
                attempted.add(op.key)
                completion = yield client.send_update(op, payload)
                if completion.result.ok:
                    acked.setdefault(op.key, []).append(op.value)
                    stats["acknowledged"] += 1
            else:
                yield client.bypass(op, payload)
            stats["completions"] += 1
            yield config.client.think_time_ns

    deployment.open_all_sessions()
    processes = [sim.spawn(client_proc(i, c), f"chaos-client{i}")
                 for i, c in enumerate(deployment.clients)]
    channels = [channel for link in deployment.topology.links
                for channel in (link.forward, link.backward)]
    for fault in faults:
        _schedule_fault(sim, injector, deployment, channels, fault)

    horizon = _horizon_ns(plan)
    sim.run(until=horizon)

    stalled = [i for i, process in enumerate(processes) if process.alive]
    violations: List[str] = [
        f"[LIVENESS] client {i} still blocked at the {horizon}ns horizon"
        for i in stalled]
    checker = PersistenceChecker(obs.tracer, expect_quiesced=not stalled)
    violations.extend(str(violation) for violation in checker.check())
    # Shards own disjoint key ranges, so the recovered state is the
    # union of every shard store.
    server_state = {}
    for handler in handlers:
        server_state.update(handler.structure.items())
    violations.extend(_durability_oracle(acked, attempted, server_state))

    digest = hashlib.sha256(
        obs.tracer.dump().encode("utf-8")).hexdigest()[:16]
    return ChaosRunResult(plan=plan, fault_indices=indices,
                          violations=tuple(violations),
                          completions=stats["completions"],
                          acknowledged=stats["acknowledged"],
                          trace_events=len(obs.tracer.records),
                          trace_digest=digest,
                          executed_events=sim.executed_events,
                          final_now=sim.now,
                          spans=len(obs.spans),
                          instruments=len(obs.registry))


# ----------------------------------------------------------------------
# Shrinking: bisect a failing schedule to a 1-minimal subset
# ----------------------------------------------------------------------
def shrink(plan: ChaosPlan,
           failing: Optional[ChaosRunResult] = None) -> ChaosRunResult:
    """Reduce a failing plan to a minimal failing fault subset.

    Strategy: first check the empty schedule (a bug that needs no
    faults shrinks to nothing), then bisect (try each half), then
    greedy one-at-a-time removal until 1-minimal — every remaining
    fault is necessary for the failure.  Each candidate re-runs the
    same seed, so the reduction is exact, not heuristic.
    """
    if failing is None:
        failing = run_plan(plan)
    if failing.ok:
        raise ValueError(f"seed {plan.seed} passes; nothing to shrink")
    empty = run_plan(plan, ())
    if not empty.ok:
        return empty
    current = list(failing.fault_indices)
    best = failing
    while len(current) > 1:
        half = len(current) // 2
        first = run_plan(plan, tuple(current[:half]))
        if not first.ok:
            current, best = current[:half], first
            continue
        second = run_plan(plan, tuple(current[half:]))
        if not second.ok:
            current, best = current[half:], second
            continue
        break
    changed = True
    while changed and len(current) > 1:
        changed = False
        for index in range(len(current)):
            candidate = current[:index] + current[index + 1:]
            attempt = run_plan(plan, tuple(candidate))
            if not attempt.ok:
                current, best = candidate, attempt
                changed = True
                break
    return best


def repro_line(result: ChaosRunResult) -> str:
    """The CLI invocation that replays exactly this (sub)schedule."""
    if len(result.fault_indices) == len(result.plan.faults):
        selector = "all"
    elif not result.fault_indices:
        selector = "none"
    else:
        selector = ",".join(str(i) for i in result.fault_indices)
    family = result.plan.family
    flag = "" if family == "rack" else f" --family {family}"
    return (f"pmnet-repro chaos --seed {result.plan.seed}{flag} "
            f"--faults {selector}")


def parse_fault_selector(selector: Optional[str],
                         num_faults: int) -> Optional[Tuple[int, ...]]:
    """Parse a ``--faults`` value: ``all``/``None`` (full schedule),
    ``none`` (empty), or a comma-separated index list."""
    if selector is None or selector == "all":
        return None
    if selector == "none":
        return ()
    try:
        indices = tuple(int(part) for part in selector.split(","))
    except ValueError:
        raise ValueError(f"bad --faults value {selector!r}: expected "
                         f"'all', 'none', or comma-separated indices")
    for index in indices:
        if not 0 <= index < num_faults:
            raise ValueError(f"fault index {index} out of range "
                             f"(plan has {num_faults} fault(s))")
    return indices


# ----------------------------------------------------------------------
# Corpus: failing seeds become permanent regression tests
# ----------------------------------------------------------------------
def load_corpus(path: str) -> List[Tuple[str, int]]:
    """``(family, seed)`` pairs from a corpus file.

    One ``<family> <seed>`` pair per line; ``#`` starts a comment.  A
    missing file is an empty corpus (:func:`append_to_corpus` creates
    it); a malformed line or an unknown family raises a
    :class:`ConfigurationError` naming ``path:line``.
    """
    pairs: List[Tuple[str, int]] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return pairs
    for number, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        fields = text.split()
        try:
            family, seed = fields
            pairs.append((family, int(seed)))
        except ValueError:
            raise ConfigurationError(
                f"{path}:{number}: malformed corpus line {text!r} "
                "(expected '<family> <seed>')") from None
        if family not in FAMILIES:
            raise ConfigurationError(
                f"{path}:{number}: unknown chaos family {family!r} "
                f"(expected one of {', '.join(FAMILIES)})")
    return pairs


def append_to_corpus(path: str, family: str, seed: int,
                     note: str = "") -> bool:
    """Record a failing plan (idempotent per ``(family, seed)`` pair);
    returns True if appended."""
    _family(family)
    if (family, seed) in load_corpus(path):
        return False
    with open(path, "a", encoding="utf-8") as handle:
        suffix = f"  # {note}" if note else ""
        handle.write(f"{family} {seed}{suffix}\n")
    return True


# ----------------------------------------------------------------------
# Job protocol (registry entry "chaos"): sweep seeds like sweep points
# ----------------------------------------------------------------------
def jobs(config: Optional[SystemConfig] = None, quick: bool = True,
         start_seed: int = 0, runs: Optional[int] = None,
         family: str = "rack") -> List[JobSpec]:
    _family(family)
    count = runs if runs is not None else (
        QUICK_SWEEP_SEEDS if quick else FULL_SWEEP_SEEDS)
    return [JobSpec(experiment="chaos", point=f"{family}-seed={seed}",
                    params={"seed": seed, "family": family}, seed=seed,
                    quick=quick, config=config)
            for seed in range(start_seed, start_seed + count)]


def run_point(spec: JobSpec) -> dict:
    """Execute one seed in any process; returns the JSON-safe summary."""
    plan = generate_plan(int(spec.params["seed"]), spec.params["family"])
    return run_plan(plan).to_dict()


def assemble(results: Sequence[JobResult]) -> str:
    rows = []
    failing = 0
    for result in sorted(results, key=lambda r: r.spec.seed):
        value = result.value
        verdict = "ok" if value["ok"] else "FAIL"
        if not value["ok"]:
            failing += 1
        rows.append([value["seed"], verdict, len(value["violations"]),
                     value["faults"], value["completions"],
                     value["trace_digest"]])
    title = (f"Chaos sweep — {len(rows)} seed(s), {failing} failing "
             f"(R1-R6 + durability oracle)")
    return format_table(
        ["seed", "verdict", "violations", "faults", "completions",
         "trace digest"], rows, title=title)


def run(quick: bool = True) -> str:
    return assemble(execute_serial(jobs(quick=quick), run_point))
