"""Seed-driven chaos sweeps: random deployments, faults, and checking.

The failure scenarios in :mod:`repro.failure.scenarios` replay the
paper's *hand-picked* crash points (Figs 12/13).  This module explores
the space around them: from one integer seed it derives

* a randomized deployment — replication chain length 1-3, read cache
  on or off, client count, one of the five PMDK structures, and a
  YCSB-style workload mix (update ratio, Zipfian skew, payload size,
  and a deliberately small keyspace so clients contend); and
* a randomized fault schedule composed from the existing
  :class:`~repro.failure.injector.FailureInjector` primitives (server
  power-cut + recovery, device power-cut + recovery, permanent device
  death + blank replacement) plus timed
  :class:`~repro.net.link.Impairments` windows (loss / duplication /
  reordering on one directed channel).

:func:`generate_fabric_plan` explores the multi-rack spine/leaf fabric
the same way: every plan is a :class:`DeploymentSpec` (see
:meth:`ChaosPlan.deployment_spec`), and fabric schedules add
chain-member device loss mid-write, leaf-spine uplink impairment
windows, and whole-rack outages.  ``pmnet-repro chaos --fabric`` sweeps
them; failing fabric seeds land in
``tests/failure/chaos_fabric_corpus.txt``.

The run is driven to quiescence and validated twice over: the
PMTest-style :class:`~repro.analysis.persistcheck.PersistenceChecker`
rules R1-R6 on the trace, and a durability oracle comparing every
client-acknowledged update against the recovered store.  Everything is
a pure function of the seed — the plan, the simulated timeline, the
trace digest, and the verdict — so a failing seed IS the bug report.

On a violation, :func:`shrink` bisects the fault schedule down to a
1-minimal failing subset and :func:`repro_line` renders the exact CLI
invocation that replays it.  Failing seeds land in
``tests/failure/chaos_corpus.txt`` (see :func:`append_to_corpus`),
which the tier-1 suite replays as regression tests.

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

#: The adversarial control-plane schedule shapes
#: :func:`generate_control_plan` draws from.
CONTROL_SHAPES = ("rebalance-outage", "migration-replay", "flapping")

#: Default sweep sizes for the registry entry / ``pmnet-repro run chaos``.
QUICK_SWEEP_SEEDS = 12
FULL_SWEEP_SEEDS = 48


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
        if self.kind == IMPAIRMENT:
            return (f"{self.kind} {window} channel#{self.target} "
                    f"loss={self.loss} dup={self.duplicate} "
                    f"reorder={self.reorder}")
        if self.kind == SPINE_IMPAIRMENT:
            return (f"{self.kind} {window} uplink#{self.target} "
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
    """Everything one chaos run does, derived from ``seed`` alone."""

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
    #: Fabric shape (defaults describe the legacy one-ToR deployments).
    racks: int = 1
    spines: int = 1
    devices_per_rack: int = 1
    servers_per_rack: int = 1
    spine_propagation_ns: Optional[int] = None
    #: Control plans: attach a (scripted, balancer-idle) control plane
    #: so REBALANCE faults can drive its migrator.
    control: bool = False
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
            control_period_ns=100_000 if self.control else None)

    @property
    def is_fabric(self) -> bool:
        return self.racks > 1

    def describe(self) -> str:
        shape = (f"{self.racks}x{self.devices_per_rack} PMNet(s) over "
                 f"{self.spines} spine(s), "
                 f"{self.servers_per_rack} shard(s)/rack"
                 if self.is_fabric else f"{self.replication} PMNet(s)")
        lines = [
            f"chaos seed {self.seed}: {self.clients} client(s), "
            f"{shape}, "
            f"cache {'on' if self.enable_cache else 'off'}, "
            f"{self.structure}, "
            f"{self.requests_per_client} req/client, "
            f"update={self.update_ratio} zipf={self.zipf_theta} "
            f"payload={self.payload_bytes}B keys={self.population}"]
        if self.is_fabric:
            lines[0] += f" chain={self.replication}"
        if self.control:
            lines[0] += f" control[{self.control_shape}]"
        if not self.faults:
            lines.append("  (no faults)")
        for index, fault in enumerate(self.faults):
            lines.append(f"  [{index}] {fault.describe()}")
        return "\n".join(lines)


def generate_plan(seed: int) -> ChaosPlan:
    """Derive a deployment + fault schedule from one integer seed.

    Pure: the same seed always yields the same plan (the RNG is a
    dedicated ``random.Random(f"chaos/{seed}")``, untouched by any
    simulation stream).  Fault windows never overlap globally — each
    window starts after the previous one ends — which keeps every
    schedule recoverable: a server recovery never polls a dead device,
    and at most ``replication - 1`` devices are ever replaced (a blank
    board forgets its log, so one durable copy must survive;
    Sec IV-E2).
    """
    rng = random.Random(f"chaos/{seed}")
    replication = rng.randint(1, 3)
    enable_cache = rng.random() < 0.5
    clients = rng.randint(1, 4)
    requests_per_client = rng.randint(8, 20)
    structure = rng.choice(sorted(PMDK_STRUCTURES))
    update_ratio = rng.choice([0.5, 0.9, 1.0])
    zipf_theta = rng.choice([0.0, 0.9])
    payload_bytes = rng.choice([64, 100, 256])
    population = rng.choice([16, 256])

    faults: List[Fault] = []
    cursor = 60_000  # let the first requests get going
    server_outages = 0
    replacements = 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice([SERVER_OUTAGE, DEVICE_OUTAGE, DEVICE_REPLACE,
                           IMPAIRMENT])
        # The server's crash/recover cycle is exercised once per run;
        # replacements must leave a surviving log copy.
        if kind == SERVER_OUTAGE and server_outages:
            kind = DEVICE_OUTAGE
        if kind == DEVICE_REPLACE and replacements >= replication - 1:
            kind = DEVICE_OUTAGE
        start = cursor + rng.randrange(20_000, 150_000)
        if kind == IMPAIRMENT:
            fault = Fault(kind, start, rng.randrange(50_000, 250_000),
                          target=rng.randrange(1024),
                          loss=round(rng.uniform(0.05, 0.3), 3),
                          duplicate=round(rng.uniform(0.0, 0.3), 3),
                          reorder=round(rng.uniform(0.0, 0.3), 3))
        elif kind == SERVER_OUTAGE:
            server_outages += 1
            fault = Fault(kind, start, rng.randrange(100_000, 400_000))
        else:
            if kind == DEVICE_REPLACE:
                replacements += 1
            fault = Fault(kind, start, rng.randrange(50_000, 250_000),
                          target=rng.randrange(replication))
        faults.append(fault)
        cursor = fault.end_ns
    return ChaosPlan(seed=seed, replication=replication,
                     enable_cache=enable_cache, clients=clients,
                     requests_per_client=requests_per_client,
                     structure=structure, update_ratio=update_ratio,
                     zipf_theta=zipf_theta, payload_bytes=payload_bytes,
                     population=population, faults=tuple(faults))


def generate_fabric_plan(seed: int) -> ChaosPlan:
    """Derive a multi-rack fabric deployment + fault schedule from a seed.

    A separate generator (its own RNG namespace) so every legacy
    ``generate_plan`` seed — including the shipped corpus — stays
    byte-identical.  Fabric plans add the cross-rack failure modes: a
    chain-member device lost mid-write (the in-flight update must still
    complete and stay durable), an impairment window on one leaf-spine
    uplink (chain hops cross it), and a whole-rack outage (every device
    and shard server in the rack, recovered together).  The same
    invariants hold: windows never overlap, the blank-replacement
    budget leaves one durable chain copy (Sec IV-E2).
    """
    rng = random.Random(f"chaos-fabric/{seed}")
    racks = rng.randint(2, 3)
    spines = rng.randint(1, 2)
    devices_per_rack = rng.randint(1, 2)
    servers_per_rack = rng.randint(1, 2)
    total_devices = racks * devices_per_rack
    chain_length = rng.randint(2, min(3, total_devices))
    enable_cache = rng.random() < 0.5
    clients = rng.randint(1, 2)  # per rack
    requests_per_client = rng.randint(6, 14)
    structure = rng.choice(sorted(PMDK_STRUCTURES))
    update_ratio = rng.choice([0.5, 0.9, 1.0])
    zipf_theta = rng.choice([0.0, 0.9])
    payload_bytes = rng.choice([64, 100, 256])
    population = rng.choice([16, 256])
    spine_propagation_ns = rng.choice([None, 2_000, 10_000])

    faults: List[Fault] = []
    cursor = 60_000
    server_outages = 0
    rack_outages = 0
    replacements = 0
    for _ in range(rng.randint(1, 4)):
        kind = rng.choice([SERVER_OUTAGE, DEVICE_OUTAGE, DEVICE_REPLACE,
                           IMPAIRMENT, RACK_OUTAGE, SPINE_IMPAIRMENT])
        if kind == SERVER_OUTAGE and server_outages:
            kind = DEVICE_OUTAGE
        if kind == RACK_OUTAGE and (rack_outages or server_outages):
            kind = SPINE_IMPAIRMENT
        if kind == DEVICE_REPLACE and replacements >= chain_length - 1:
            kind = DEVICE_OUTAGE
        start = cursor + rng.randrange(20_000, 150_000)
        if kind in (IMPAIRMENT, SPINE_IMPAIRMENT):
            fault = Fault(kind, start, rng.randrange(50_000, 250_000),
                          target=rng.randrange(1024),
                          loss=round(rng.uniform(0.05, 0.3), 3),
                          duplicate=round(rng.uniform(0.0, 0.3), 3),
                          reorder=round(rng.uniform(0.0, 0.3), 3))
        elif kind == SERVER_OUTAGE:
            server_outages += 1
            fault = Fault(kind, start, rng.randrange(100_000, 400_000),
                          target=rng.randrange(racks * servers_per_rack))
        elif kind == RACK_OUTAGE:
            rack_outages += 1
            fault = Fault(kind, start, rng.randrange(150_000, 400_000),
                          target=rng.randrange(racks))
        else:
            if kind == DEVICE_REPLACE:
                replacements += 1
            fault = Fault(kind, start, rng.randrange(50_000, 250_000),
                          target=rng.randrange(total_devices))
        faults.append(fault)
        cursor = fault.end_ns
    return ChaosPlan(seed=seed, replication=chain_length,
                     enable_cache=enable_cache, clients=clients,
                     requests_per_client=requests_per_client,
                     structure=structure, update_ratio=update_ratio,
                     zipf_theta=zipf_theta, payload_bytes=payload_bytes,
                     population=population, faults=tuple(faults),
                     racks=racks, spines=spines,
                     devices_per_rack=devices_per_rack,
                     servers_per_rack=servers_per_rack,
                     spine_propagation_ns=spine_propagation_ns)


def generate_control_plan(seed: int) -> ChaosPlan:
    """Derive a fabric deployment + control-plane fault schedule.

    A third generator namespace (``chaos-control/{seed}``), so legacy
    and fabric corpora stay byte-identical.  Every plan is a fabric
    shape with a scripted control plane, drawn from one of three
    adversarial schedule shapes:

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
    rng = random.Random(f"chaos-control/{seed}")
    racks = rng.randint(2, 3)
    spines = rng.randint(1, 2)
    devices_per_rack = rng.randint(1, 2)
    servers_per_rack = rng.randint(1, 2)
    total_devices = racks * devices_per_rack
    total_servers = racks * servers_per_rack
    chain_length = rng.randint(2, min(3, total_devices))
    enable_cache = rng.random() < 0.5
    clients = rng.randint(1, 2)  # per rack
    requests_per_client = rng.randint(6, 14)
    structure = rng.choice(sorted(PMDK_STRUCTURES))
    update_ratio = rng.choice([0.9, 1.0])
    zipf_theta = rng.choice([0.0, 0.9])
    payload_bytes = rng.choice([64, 100])
    population = rng.choice([16, 256])
    spine_propagation_ns = rng.choice([None, 2_000])
    shape = rng.choice(CONTROL_SHAPES)

    def other(server: int) -> int:
        return (server + 1 + rng.randrange(total_servers - 1)) \
            % total_servers

    faults: List[Fault] = []
    if shape == "rebalance-outage":
        victim = rng.randrange(total_servers)
        outage = Fault(SERVER_OUTAGE, 60_000 + rng.randrange(20_000, 120_000),
                       rng.randrange(150_000, 400_000), target=victim)
        rebalance_at = outage.at_ns + rng.randrange(
            10_000, max(20_000, outage.duration_ns // 2))
        faults = [outage,
                  Fault(REBALANCE, rebalance_at, 0, target=victim,
                        dest=other(victim))]
        if rng.random() < 0.5:
            start = outage.end_ns + rng.randrange(20_000, 100_000)
            faults.append(Fault(SPINE_IMPAIRMENT, start,
                                rng.randrange(50_000, 200_000),
                                target=rng.randrange(1024),
                                loss=round(rng.uniform(0.05, 0.2), 3),
                                duplicate=round(rng.uniform(0.0, 0.2), 3),
                                reorder=round(rng.uniform(0.0, 0.2), 3)))
    elif shape == "migration-replay":
        victim = rng.randrange(total_servers)
        outage = Fault(SERVER_OUTAGE, 60_000 + rng.randrange(20_000, 120_000),
                       rng.randrange(150_000, 400_000), target=victim)
        # The scripted recovery starts at end_ns and replays for
        # ~150 ms; landing the migration shortly after end_ns races it
        # against the replay traffic.
        rebalance_at = outage.end_ns + rng.randrange(5_000, 100_000)
        source = victim if rng.random() < 0.7 \
            else rng.randrange(total_servers)
        faults = [outage,
                  Fault(REBALANCE, rebalance_at, 0, target=source,
                        dest=other(source))]
    else:  # flapping
        first = rng.randrange(total_servers)
        second = other(first)
        cursor = 60_000
        for index in range(rng.randint(2, 4)):
            at = cursor + rng.randrange(20_000, 120_000)
            source, dest = ((first, second) if index % 2 == 0
                            else (second, first))
            faults.append(Fault(REBALANCE, at, 0, target=source, dest=dest))
            cursor = at
        if rng.random() < 0.5:
            start = cursor + rng.randrange(20_000, 100_000)
            faults.append(Fault(IMPAIRMENT, start,
                                rng.randrange(50_000, 200_000),
                                target=rng.randrange(1024),
                                loss=round(rng.uniform(0.05, 0.2), 3),
                                duplicate=round(rng.uniform(0.0, 0.2), 3),
                                reorder=round(rng.uniform(0.0, 0.2), 3)))
    return ChaosPlan(seed=seed, replication=chain_length,
                     enable_cache=enable_cache, clients=clients,
                     requests_per_client=requests_per_client,
                     structure=structure, update_ratio=update_ratio,
                     zipf_theta=zipf_theta, payload_bytes=payload_bytes,
                     population=population, faults=tuple(faults),
                     racks=racks, spines=spines,
                     devices_per_rack=devices_per_rack,
                     servers_per_rack=servers_per_rack,
                     spine_propagation_ns=spine_propagation_ns,
                     control=True, control_shape=shape)


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
    spans: int
    instruments: int

    @property
    def ok(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        """JSON-safe summary (what workers ship back and reports hold)."""
        return {
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
    # A fault window opening mid-run invalidates folded in-flight work
    # whose impairment draws would only happen from here on — convert it
    # back to the unfolded path so the draws land draw-for-draw where
    # the unfolded (PMNET_FOLD=none) timeline puts them.
    channel.on_impairments_changed()


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
    elif fault.kind == SPINE_IMPAIRMENT:
        fabric = deployment.fabric
        if fabric is None:
            raise SimulationError("spine-impairment needs a fabric "
                                  "deployment")
        uplinks = fabric.spine_links
        _rack, _spine, link = uplinks[fault.target % len(uplinks)]
        impaired = Impairments(loss_probability=fault.loss,
                               duplicate_probability=fault.duplicate,
                               reorder_probability=fault.reorder)
        for channel in (link.forward, link.backward):
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
    elif fault.kind == IMPAIRMENT:
        channel = channels[fault.target % len(channels)]
        impaired = Impairments(loss_probability=fault.loss,
                               duplicate_probability=fault.duplicate,
                               reorder_probability=fault.reorder)
        sim.schedule_at(fault.at_ns, _set_impairments, channel, impaired)
        sim.schedule_at(fault.end_ns, _set_impairments, channel,
                        Impairments())
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

    if spec.racks > 1 or spec.servers_per_rack > 1:
        deployment = build(spec, config, handler_factory=handler_factory,
                           obs=obs)
    else:
        deployment = build(spec, config, handler=handler_factory(),
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
    if result.plan.control:
        flavor = " --control"
    elif result.plan.is_fabric:
        flavor = " --fabric"
    else:
        flavor = ""
    return (f"pmnet-repro chaos --seed {result.plan.seed}{flavor} "
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
def load_corpus(path: str) -> List[int]:
    """Seeds from a corpus file (one per line; ``#`` starts a comment).

    A missing file is an empty corpus (:func:`append_to_corpus` creates
    it); a line that is not one integer raises a
    :class:`ConfigurationError` naming ``path:line``.
    """
    seeds: List[int] = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError:
        return seeds
    for number, line in enumerate(lines, start=1):
        text = line.split("#", 1)[0].strip()
        if not text:
            continue
        try:
            seeds.append(int(text))
        except ValueError:
            raise ConfigurationError(
                f"{path}:{number}: malformed corpus line {text!r} "
                "(expected one integer seed)") from None
    return seeds


def append_to_corpus(path: str, seed: int, note: str = "") -> bool:
    """Record a failing seed (idempotent); returns True if appended."""
    if seed in load_corpus(path):
        return False
    with open(path, "a", encoding="utf-8") as handle:
        suffix = f"  # {note}" if note else ""
        handle.write(f"{seed}{suffix}\n")
    return True


# ----------------------------------------------------------------------
# Job protocol (registry entry "chaos"): sweep seeds like sweep points
# ----------------------------------------------------------------------
def jobs(config: Optional[SystemConfig] = None, quick: bool = True,
         start_seed: int = 0, runs: Optional[int] = None,
         fabric: bool = False, control: bool = False) -> List[JobSpec]:
    count = runs if runs is not None else (
        QUICK_SWEEP_SEEDS if quick else FULL_SWEEP_SEEDS)
    if control:
        prefix, params = "control-seed", {"control": True}
    elif fabric:
        prefix, params = "fabric-seed", {"fabric": True}
    else:
        prefix, params = "seed", {}
    return [JobSpec(experiment="chaos", point=f"{prefix}={seed}",
                    params={"seed": seed, **params}, seed=seed, quick=quick,
                    config=config)
            for seed in range(start_seed, start_seed + count)]


def run_point(spec: JobSpec) -> dict:
    """Execute one seed in any process; returns the JSON-safe summary."""
    seed = int(spec.params["seed"])
    if spec.params.get("control"):
        plan = generate_control_plan(seed)
    elif spec.params.get("fabric"):
        plan = generate_fabric_plan(seed)
    else:
        plan = generate_plan(seed)
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
