"""The load balancer: periodic metric polling + pluggable policies.

Every ``period_ns`` the balancer snapshots a :class:`ControlView` from
the deployment's live instruments — per-server processed throughput,
per-device log-queue highwater and cache hit rate, client in-flight
counts, heartbeat liveness when monitors are attached — and hands it to
each policy in order.  Policies return :class:`MigrateAction` requests,
which the balancer forwards to the (serializing)
:class:`~repro.control.migrator.SessionMigrator`.

Result-neutrality: a *started but idle* balancer (no policies firing,
no monitors) only schedules its own tick callbacks.  Ticks send no
frames, consume no simulation randomness, and emit no trace records,
so every other event keeps its relative ``(time, seq)`` order and the
run's observable results — traces, latency samples, store digests —
are byte-identical to a run without a control plane (the control
identity suite pins this).  Heartbeat monitors, by contrast, put real
frames on shared channels and are therefore strictly opt-in.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Callable, Dict, Iterable, List, Mapping,
                    Optional, Sequence, Tuple)

from repro.control.migrator import SessionMigrator
from repro.control.placement import PlacementView
from repro.host.heartbeat import HeartbeatMonitor, MonitorEndpoint
from repro.host.node import add_host
from repro.host.stackmodel import UDP
from repro.obs.registry import register_with_sim
from repro.sim.clock import microseconds
from repro.sim.monitor import Counter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.pmnet_device import PMNetDevice
    from repro.experiments.deploy import Deployment
    from repro.host.server import PMNetServer
    from repro.host.sharded import RingClient
    from repro.sim.kernel import Simulator


@dataclass(frozen=True)
class MigrateAction:
    """One policy decision: move shards from ``source`` to ``target``."""

    source: str
    target: str
    reason: str
    members: Optional[Tuple[str, ...]] = None


@dataclass
class ControlView:
    """One control-period snapshot of the deployment's health."""

    now_ns: int
    tick: int
    #: server -> requests processed since the previous tick.
    throughput: Dict[str, int]
    #: server -> requests processed since the start of the run.
    processed_total: Dict[str, int]
    #: server -> in-flight requests summed over all clients.
    outstanding: Dict[str, int]
    #: device -> write-log queue highwater (bytes).
    queue_high_water: Dict[str, int]
    #: device -> read-cache hit rate (devices without a cache omitted).
    cache_hit_rate: Dict[str, float]
    #: server -> heartbeat liveness (True everywhere without monitors).
    alive: Dict[str, bool]
    #: server -> ring members currently resolving to it.
    owners: Dict[str, List[str]]

    def live_targets(self, exclude: Iterable[str] = ()) -> List[str]:
        """Alive servers, least-loaded first (deterministic tie-break
        by name), excluding the given ones."""
        banned = set(exclude)
        candidates = [server for server, ok in self.alive.items()
                      if ok and server not in banned]
        return sorted(candidates,
                      key=lambda server: (self.processed_total[server],
                                          server))


class Policy:
    """Base class: inspect a view, propose migrations."""

    name = "policy"

    def decide(self, view: ControlView) -> List[MigrateAction]:
        raise NotImplementedError


class DrainRackPolicy(Policy):
    """Drain every server of one rack (planned upgrade): once past
    ``after_ns``, migrate each drained server's shards to the
    least-loaded live server outside the rack.  Fires once."""

    name = "drain-rack"

    def __init__(self, servers: Sequence[str], after_ns: int) -> None:
        self.servers = list(servers)
        self.after_ns = after_ns
        self.fired = False

    def decide(self, view: ControlView) -> List[MigrateAction]:
        if self.fired or view.now_ns < self.after_ns:
            return []
        self.fired = True
        actions = []
        targets = view.live_targets(exclude=self.servers)
        if not targets:
            return []
        for index, server in enumerate(self.servers):
            if not view.owners.get(server):
                continue  # already empty
            target = targets[index % len(targets)]
            actions.append(MigrateAction(server, target,
                                         reason=f"drain:{self.name}"))
        return actions


class HotShardPolicy(Policy):
    """Absorb load skew: when one server's per-tick throughput exceeds
    ``skew_ratio`` times the mean of the others (and clears a noise
    floor), spill half of its ring members to the coldest live server.
    A server that holds a single member cannot be split, so it is
    relocated wholesale to the coldest peer instead.  A cooldown stops
    migration thrash while the spill takes effect."""

    name = "hot-shard"

    def __init__(self, skew_ratio: float = 2.0, min_requests: int = 64,
                 cooldown_ns: int = microseconds(2000)) -> None:
        if skew_ratio <= 1.0:
            raise ValueError("skew_ratio must exceed 1.0")
        self.skew_ratio = skew_ratio
        self.min_requests = min_requests
        self.cooldown_ns = cooldown_ns
        self._last_fired_ns: Optional[int] = None

    def decide(self, view: ControlView) -> List[MigrateAction]:
        if (self._last_fired_ns is not None
                and view.now_ns - self._last_fired_ns < self.cooldown_ns):
            return []
        loads = sorted(view.throughput.items(),
                       key=lambda item: (-item[1], item[0]))
        if len(loads) < 2:
            return []
        hot_server, hot_load = loads[0]
        if hot_load < self.min_requests or not view.alive.get(hot_server):
            return []
        rest = [load for _, load in loads[1:]]
        mean_rest = sum(rest) / len(rest)
        if hot_load < self.skew_ratio * max(mean_rest, 1.0):
            return []
        owned = view.owners.get(hot_server, [])
        if not owned:
            return []
        targets = view.live_targets(exclude=(hot_server,))
        if not targets:
            return []
        if len(owned) >= 2:
            spill: Optional[tuple] = tuple(sorted(owned)[:len(owned) // 2])
        else:
            spill = None  # single member: relocate the whole server
        self._last_fired_ns = view.now_ns
        return [MigrateAction(hot_server, targets[0], reason="hot-shard",
                              members=spill)]


class FailoverPolicy(Policy):
    """Move a dead server's shards to live ones.  Needs heartbeat
    monitors (without them every server always reads alive).  Each
    outage triggers at most one failover; ownership is not moved back
    automatically on recovery."""

    name = "failover"

    def __init__(self) -> None:
        self._failed_over: Dict[str, bool] = {}

    def decide(self, view: ControlView) -> List[MigrateAction]:
        actions = []
        for server, ok in sorted(view.alive.items()):
            if ok:
                self._failed_over.pop(server, None)
                continue
            if self._failed_over.get(server):
                continue
            if not view.owners.get(server):
                continue
            targets = view.live_targets(exclude=(server,))
            if not targets:
                continue
            self._failed_over[server] = True
            actions.append(MigrateAction(server, targets[0],
                                         reason="failover"))
        return actions


class LoadBalancer:
    """Polls metrics on a control period and applies policies."""

    def __init__(self, sim: "Simulator", placement: PlacementView,
                 migrator: SessionMigrator,
                 clients: Sequence["RingClient"],
                 servers: Mapping[str, "PMNetServer"],
                 devices: Sequence["PMNetDevice"],
                 period_ns: int = microseconds(100),
                 policies: Sequence[Policy] = (),
                 monitors: Optional[Mapping[str, HeartbeatMonitor]] = None,
                 max_ticks: Optional[int] = None,
                 stop_when: Optional[Callable[[], bool]] = None) -> None:
        if period_ns <= 0:
            raise ValueError("control period must be positive")
        self.sim = sim
        self.placement = placement
        self.migrator = migrator
        self.clients = list(clients)
        self.servers = dict(servers)
        self.devices = list(devices)
        self.period_ns = period_ns
        self.policies = list(policies)
        self.monitors = dict(monitors) if monitors else {}
        self.max_ticks = max_ticks
        self.stop_when = stop_when
        self.ticks = Counter("control.ticks")
        self.migrations_requested = Counter("control.migrations_requested")
        self.actions: List[Tuple[int, MigrateAction]] = []
        self.views: List[ControlView] = []
        self.keep_views = False
        self._tick_count = 0
        self._last_processed: Dict[str, int] = {}
        self._running = False
        register_with_sim(sim, self)

    def instruments(self):
        return (self.ticks, self.migrations_requested)

    # ------------------------------------------------------------------
    def start(self) -> None:
        if self._running:
            return
        self._running = True
        for monitor in self.monitors.values():
            monitor.start()
        self.sim.schedule(self.period_ns, self._tick)

    def stop(self) -> None:
        self._running = False
        for monitor in self.monitors.values():
            monitor.stop()

    # ------------------------------------------------------------------
    def snapshot(self) -> ControlView:
        throughput = {}
        processed_total = {}
        for name, server in self.servers.items():
            total = int(server.processed)
            processed_total[name] = total
            throughput[name] = total - self._last_processed.get(name, 0)
            self._last_processed[name] = total
        outstanding = {name: 0 for name in self.servers}
        for client in self.clients:
            for name in self.servers:
                outstanding[name] += client.outstanding_for(name)
        queue_high_water = {}
        cache_hit_rate = {}
        for device in self.devices:
            queue_high_water[device.name] = \
                device.log.write_queue.high_water_bytes
            if device.cache is not None:
                cache_hit_rate[device.name] = device.cache.hit_rate()
        alive = {}
        for name in self.servers:
            monitor = self.monitors.get(name)
            alive[name] = monitor.target_alive if monitor is not None \
                else True
        owners = {name: self.placement.owners_resolving_to(name)
                  for name in self.servers}
        return ControlView(now_ns=self.sim.now, tick=self._tick_count,
                           throughput=throughput,
                           processed_total=processed_total,
                           outstanding=outstanding,
                           queue_high_water=queue_high_water,
                           cache_hit_rate=cache_hit_rate,
                           alive=alive, owners=owners)

    def _tick(self) -> None:
        if not self._running:
            return
        if self.stop_when is not None and self.stop_when():
            self.stop()
            return
        self._tick_count += 1
        self.ticks.increment()
        view = self.snapshot()
        if self.keep_views:
            self.views.append(view)
        for policy in self.policies:
            for action in policy.decide(view):
                if action.source == action.target:
                    continue
                self.actions.append((self.sim.now, action))
                self.migrations_requested.increment()
                self.migrator.migrate(action.source, action.target,
                                      members=action.members)
        if self.max_ticks is not None and self._tick_count >= self.max_ticks:
            self.stop()
            return
        self.sim.schedule(self.period_ns, self._tick)


@dataclass
class ControlPlane:
    """Everything :func:`attach_control_plane` wired together."""

    placement: PlacementView
    migrator: SessionMigrator
    balancer: LoadBalancer
    monitors: Dict[str, HeartbeatMonitor] = field(default_factory=dict)

    def start(self) -> None:
        self.balancer.start()

    def stop(self) -> None:
        self.balancer.stop()


def attach_control_plane(deployment: "Deployment",
                         period_ns: int = microseconds(100),
                         policies: Sequence[Policy] = (),
                         heartbeats: bool = False,
                         heartbeat_period_ns: int = microseconds(150),
                         miss_threshold: int = 3,
                         max_ticks: Optional[int] = None,
                         stop_when: Optional[Callable[[], bool]] = None
                         ) -> ControlPlane:
    """Wire a control plane onto a fabric deployment.

    Must run before the simulation starts.  ``heartbeats=True`` adds a
    ``control-monitor`` host with one :class:`HeartbeatMonitor` per
    shard server (real frames on the fabric — opt-in because it breaks
    byte-identity with control-free runs); without it, failover policies
    see every server as alive.  The plane is returned *unstarted*; call
    :meth:`ControlPlane.start` (scripted chaos drives the migrator
    directly and never starts the balancer).
    """
    fabric = deployment.fabric
    if fabric is None or getattr(fabric, "placement", None) is None:
        raise ValueError("the control plane needs a fabric deployment "
                         "with a shared placement view")
    sim = deployment.sim
    servers = {server.host.name: server for server in deployment.servers}
    monitors: Dict[str, HeartbeatMonitor] = {}
    if heartbeats:
        attach_point = (deployment.switches[0] if deployment.switches
                        else deployment.devices[0])
        host = add_host(deployment.topology, "control-monitor",
                        deployment.config.client_stack, UDP, attach_point)
        deployment.topology.compute_routes()
        endpoint = MonitorEndpoint(host)
        for name in sorted(servers):
            monitors[name] = endpoint.attach(HeartbeatMonitor(
                sim, host, name, period_ns=heartbeat_period_ns,
                miss_threshold=miss_threshold))
    migrator = SessionMigrator(sim, fabric.placement, deployment.clients,
                               servers, tracer=deployment.tracer)
    balancer = LoadBalancer(sim, fabric.placement, migrator,
                            deployment.clients, servers,
                            deployment.devices, period_ns=period_ns,
                            policies=policies, monitors=monitors,
                            max_ticks=max_ticks, stop_when=stop_when)
    plane = ControlPlane(placement=fabric.placement, migrator=migrator,
                        balancer=balancer, monitors=monitors)
    deployment.control = plane
    return plane
