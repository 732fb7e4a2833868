"""Failure injection: power cuts, permanent deaths, scheduled recovery.

The injector manipulates only what the paper's persistence domains say
survives: a power-cut device keeps its durable PM log but loses queued
SRAM and in-flight DMA; a crashed server keeps its PM store and applied
table but loses every request in its stacks, queues, and workers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, List, Optional

from repro.core.pmnet_device import PMNetDevice
from repro.host.server import PMNetServer
from repro.sim.event import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


@dataclass
class FailureRecord:
    """What the injector did, for assertions and reports."""

    target: str
    kind: str
    failed_at_ns: int
    recovered_at_ns: Optional[int] = None
    volatile_lost: int = 0


class FailureInjector:
    """Schedules and tracks failures in one deployment."""

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.records: List[FailureRecord] = []

    # ------------------------------------------------------------------
    # Server failures (Sec VI-B6)
    # ------------------------------------------------------------------
    def crash_server_at(self, server: PMNetServer, at_ns: int) -> FailureRecord:
        """Power-cut the server at an absolute simulated time."""
        record = FailureRecord(server.host.name, "server-power-cut", at_ns)
        self.records.append(record)

        def cut() -> None:
            record.volatile_lost = len(server._ready)
            server.crash()

        self.sim.schedule_at(at_ns, cut)
        return record

    def recover_server_at(self, server: PMNetServer, at_ns: int,
                          pmnet_devices: List[str],
                          record: Optional[FailureRecord] = None) -> SimEvent:
        """Restart the server at ``at_ns``; returns the recovery event.

        The returned event is a proxy that succeeds with the recovery
        duration once the server's own recovery (poll + resend drain)
        completes.
        """
        proxy = self.sim.event("server-recovery")

        def restore() -> None:
            if record is not None:
                record.recovered_at_ns = at_ns
            inner = server.recover(pmnet_devices)
            inner.add_callback(
                lambda event: proxy.succeed(event.value)
                if not proxy.triggered else None)

        self.sim.schedule_at(at_ns, restore)
        return proxy

    # ------------------------------------------------------------------
    # Device failures (Fig 12 / Fig 13)
    # ------------------------------------------------------------------
    def crash_device_at(self, device: PMNetDevice,
                        at_ns: int) -> FailureRecord:
        """Power-cut a PMNet device (durable log survives)."""
        record = FailureRecord(device.name, "device-power-cut", at_ns)
        self.records.append(record)

        def cut() -> None:
            before = device.log.occupancy
            device.fail()
            record.volatile_lost = before - device.log.occupancy

        self.sim.schedule_at(at_ns, cut)
        return record

    def recover_device_at(self, device: PMNetDevice, at_ns: int,
                          record: Optional[FailureRecord] = None) -> None:
        def restore() -> None:
            if record is not None:
                record.recovered_at_ns = at_ns
            device.recover()

        self.sim.schedule_at(at_ns, restore)

    def kill_device_permanently_at(self, device: PMNetDevice,
                                   at_ns: int) -> FailureRecord:
        """A permanent hardware death: the device never comes back."""
        record = FailureRecord(device.name, "device-permanent", at_ns)
        self.records.append(record)
        self.sim.schedule_at(at_ns, device.fail)
        return record

    def replace_device_at(self, device: PMNetDevice, at_ns: int,
                          record: Optional[FailureRecord] = None) -> None:
        """Swap a permanently dead device for a blank replacement unit.

        The forwarding path comes back but the old board's log is gone —
        exactly why the paper replicates across multiple PMNets
        (Sec IV-E2: "any surviving PMNet can retransmit").
        """
        def swap() -> None:
            device.log.wipe()
            if device.cache is not None:
                # Wipe in place rather than constructing a fresh
                # ReadCache: the metrics registry holds the counters the
                # device registered at construction, and a replacement
                # object would either strand those (every post-swap hit
                # invisible) or raise DuplicateInstrumentError on
                # re-registration.  Contents are blank-board blank;
                # counters stay cumulative, like the log's own wipe().
                device.cache.wipe()
            device.recover()
            if record is not None:
                record.recovered_at_ns = at_ns

        self.sim.schedule_at(at_ns, swap)
