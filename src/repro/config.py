"""System configuration and latency calibration (the Table II analog).

Every latency constant used anywhere in the simulator lives here, so a
single edit retunes the whole system.  The default values are fitted to
the stage latencies the paper publishes:

* PMNet round trip for a 100 B update ....... 21.5 us   (Fig 18)
* client-side logging ....................... 10.4 us   (Fig 18)
* server-side logging ....................... 47.97 us  (Fig 18)
* baseline Client-Server, ideal handler ..... ~2.7x PMNet at 100 B (Fig 15)
* FPGA on-board PM write latency ............ 273 ns    (Sec V-A)
* server DCPMM write latency ................ ~100 ns   (Eq 2)
* link rate ................................. 10 Gbps   (Sec V-A)
* log queue (PM access buffering) ........... 4 KB      (Sec V-A)

The profiles are plain frozen dataclasses: deployments copy-and-modify
them with :func:`dataclasses.replace` rather than mutating shared state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, fields, replace
from typing import Optional, Type

from repro.errors import ConfigurationError
from repro.sim.clock import microseconds, nanoseconds


#: Environment knobs that no longer exist, and what replaced each.
#: Setting one, to any value, fails loudly instead of being silently
#: ignored.
_RETIRED_KNOBS = {
    "PMNET_KERNEL": "one binary-heap scheduler is the only one",
    "PMNET_KERNEL_HORIZON": "the scheduler is one binary heap with no "
                            "horizon to size",
    "PMNET_NO_FOLD": "there are no fold levels; every pipeline stage is "
                     "its own event",
    "PMNET_FOLD": "the fold levels are gone; every pipeline stage is its "
                  "own event, and every level gave the same results",
}


def reject_retired_knobs() -> None:
    """Raise :class:`ConfigurationError` if a retired knob is set.

    Called at the boundaries where a knob used to be read (simulator
    construction and every ``pmnet-repro`` command), so a stale
    environment fails there.
    """
    for knob, replacement in _RETIRED_KNOBS.items():
        if knob in os.environ:
            raise ConfigurationError(
                f"{knob} was retired ({replacement}); unset it")


def fold_level() -> int:
    """Always 0: every pipeline stage is its own event.  Kept as a name
    only for the benchmark, which records it."""
    return 0


#: Runtime type of each checked (string) dataclass field annotation.
_FIELD_TYPES = {"int": int, "Optional[int]": int, "bool": bool, "str": str}


def check_field_types(instance: object,
                      error: Type[Exception] = ValueError) -> None:
    """Reject a dataclass field value of the wrong type, naming the field.

    Fields annotated ``int``, ``Optional[int]``, ``bool`` or ``str`` are
    checked; others are left to the caller's range checks.  ``bool`` is
    not an ``int`` here, and a non-``bool`` is not a ``bool``: ``"no"``
    must not silently enable a feature.
    """
    for checked in fields(instance):
        expected = _FIELD_TYPES.get(checked.type)
        value = getattr(instance, checked.name)
        if expected is None or (value is None
                                and checked.type.startswith("Optional[")):
            continue
        if (isinstance(value, bool) != (expected is bool)
                or not isinstance(value, expected)):
            raise error(f"{checked.name} must be {expected.__name__}, "
                        f"got {value!r}")


# ---------------------------------------------------------------------------
# Host network stacks
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class StackProfile:
    """Latency model of one host's network stack (one direction each).

    ``send_ns``/``recv_ns`` are the fixed per-packet costs of pushing a
    packet down / up the stack (syscalls, softirq, protocol work).
    ``copy_ns_per_byte`` charges the payload memcpy at each crossing.
    ``dispatch_ns`` models the wakeup from stack to application thread
    (epoll + scheduler) and is paid once per request on the receive side
    of an application-level endpoint; busy-polling user stacks keep it
    tiny.  ``hiccup_probability``/``hiccup_ns`` add the rare long
    scheduler stall responsible for the latency tail.
    """

    name: str
    send_ns: int
    recv_ns: int
    copy_ns_per_byte: float
    dispatch_ns: int
    jitter_sigma: float = 0.10
    hiccup_probability: float = 0.0
    hiccup_ns: int = 0

    def validate(self) -> None:
        if min(self.send_ns, self.recv_ns, self.dispatch_ns) < 0:
            raise ConfigurationError(f"negative stack latency in {self.name}")
        if not 0.0 <= self.hiccup_probability <= 1.0:
            raise ConfigurationError(
                f"hiccup probability out of range in {self.name}")
        for name in ("copy_ns_per_byte", "hiccup_ns", "jitter_sigma"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"stack {name} must be non-negative in {self.name}, "
                    f"got {value}")


#: Kernel UDP/TCP stack on a client machine (Haswell, Table II).
KERNEL_CLIENT_STACK = StackProfile(
    name="kernel-client",
    send_ns=microseconds(9.6),
    recv_ns=microseconds(9.2),
    copy_ns_per_byte=2.0,
    dispatch_ns=microseconds(0.8),
    jitter_sigma=0.10,
    hiccup_probability=0.002,
    hiccup_ns=microseconds(60),
)

#: Kernel UDP/TCP stack on the server machine (Cascade Lake, Table II).
KERNEL_SERVER_STACK = StackProfile(
    name="kernel-server",
    send_ns=microseconds(11.0),
    recv_ns=microseconds(13.0),
    copy_ns_per_byte=2.0,
    dispatch_ns=microseconds(8.0),
    jitter_sigma=0.14,
    hiccup_probability=0.008,
    hiccup_ns=microseconds(150),
)

#: libVMA user-space stack (client side): kernel bypass, busy polling.
VMA_CLIENT_STACK = StackProfile(
    name="vma-client",
    send_ns=microseconds(1.9),
    recv_ns=microseconds(1.8),
    copy_ns_per_byte=0.8,
    dispatch_ns=nanoseconds(200),
    jitter_sigma=0.05,
    hiccup_probability=0.0005,
    hiccup_ns=microseconds(20),
)

#: libVMA user-space stack (server side).  VMA removes the kernel and
#: the epoll wakeup, but the server still demultiplexes every flow and
#: copies into the application, so its per-packet cost shrinks ~2.5x
#: rather than 5x (Sec VI-B7: "the server-processing time is still a
#: major overhead").
VMA_SERVER_STACK = StackProfile(
    name="vma-server",
    send_ns=microseconds(4.8),
    recv_ns=microseconds(5.6),
    copy_ns_per_byte=1.0,
    dispatch_ns=microseconds(1.6),
    jitter_sigma=0.06,
    hiccup_probability=0.001,
    hiccup_ns=microseconds(25),
)

#: Extra fixed cost per request when a workload keeps its original TCP
#: framing (Redis/Twitter/TPCC baselines): connection state, ACK clocking,
#: and stream reassembly on both sides.  The paper reports that converting
#: these workloads to UDP costs ~9%, i.e. TCP is their best baseline.
TCP_EXTRA_PER_SIDE_NS = microseconds(3.2)

#: Slowdown factor the paper measured for TCP-to-UDP conversion (Sec VI-A3);
#: used by the ablation bench.
TCP_TO_UDP_CONVERSION_OVERHEAD = 0.09


# ---------------------------------------------------------------------------
# Links, switches, and the network fabric
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class NetworkProfile:
    """Fabric parameters shared by all links and plain switches."""

    bandwidth_bps: float = 10e9              # 10 Gbps ports (Sec V-A)
    propagation_ns: int = nanoseconds(100)   # intra-rack fiber + PHY
    switch_forward_ns: int = nanoseconds(300)  # cut-through regular switch
    mtu_bytes: int = 1500                    # Sec IV-A3
    header_overhead_bytes: int = 46          # Ethernet+IP+UDP framing
    queue_capacity_packets: int = 512        # per output port

    def validate(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ConfigurationError("bandwidth must be positive")
        for name in ("propagation_ns", "switch_forward_ns",
                     "header_overhead_bytes", "queue_capacity_packets"):
            value = getattr(self, name)
            if value < 0:
                raise ConfigurationError(
                    f"network {name} must be non-negative, got {value}")
        if self.mtu_bytes <= self.header_overhead_bytes:
            raise ConfigurationError("MTU must exceed framing overhead")


# ---------------------------------------------------------------------------
# Persistent memory (both in-network and server-side)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PMProfile:
    """A persistent-memory device's timing and capacity."""

    name: str
    write_latency_ns: int
    read_latency_ns: int
    bandwidth_bytes_per_s: float
    capacity_bytes: int

    def validate(self) -> None:
        if min(self.write_latency_ns, self.read_latency_ns) < 0:
            raise ConfigurationError(f"negative PM latency in {self.name}")
        if self.capacity_bytes <= 0:
            raise ConfigurationError(f"non-positive PM capacity in {self.name}")


#: The FPGA's battery-backed on-board DRAM used as in-network PM (Sec V-A:
#: 273 ns write via the slow DMA engine, 2.5 GB/s, 2 GB).
FPGA_PM = PMProfile(
    name="fpga-bbdram",
    write_latency_ns=273,
    read_latency_ns=150,
    bandwidth_bytes_per_s=2.5e9,
    capacity_bytes=2 * 1024 ** 3,
)

#: Server-side Intel DCPMM (Eq 2 uses ~100 ns; reads are ~300 ns media).
SERVER_PM = PMProfile(
    name="server-dcpmm",
    write_latency_ns=100,
    read_latency_ns=300,
    bandwidth_bytes_per_s=2.5e9,
    capacity_bytes=256 * 1024 ** 3,
)


@dataclass(frozen=True)
class LogConfig:
    """Sizing of the in-network request log and its access queues."""

    entry_bytes: int = 2048          # one MTU-sized packet + metadata slot
    num_entries: int = 65536         # ~BDP_Net worth of in-flight requests
    write_queue_bytes: int = 4096    # Sec V-A: 4 KB SRAM log queues
    read_queue_bytes: int = 4096
    #: Age after which a still-valid (never server-ACKed) entry is
    #: redone to the server.  This closes the tail-loss window: the
    #: client already holds a PMNet-ACK, so only the device can get the
    #: request to the server again (the log *is* the redo log).
    redo_timeout_ns: int = 1_500_000  # 1.5 ms >> any RTT
    #: Maximum entries redone per scrub pass (paces the replay).
    redo_batch: int = 32

    def validate(self) -> None:
        if self.entry_bytes <= 0 or self.num_entries <= 0:
            raise ConfigurationError("log entries must be positive-sized")
        if self.write_queue_bytes <= 0 or self.read_queue_bytes <= 0:
            raise ConfigurationError("log queues must be positive-sized")

    @property
    def capacity_bytes(self) -> int:
        return self.entry_bytes * self.num_entries


# ---------------------------------------------------------------------------
# The PMNet device pipeline
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineProfile:
    """Per-stage costs of the match-action pipeline in the PMNet device."""

    ingress_ns: int = nanoseconds(250)    # parse + port/type match
    pm_stage_ns: int = nanoseconds(150)   # log-queue enqueue bookkeeping
    egress_ns: int = nanoseconds(250)     # rewrite + forward
    ack_generation_ns: int = nanoseconds(180)
    per_byte_ns: float = 3.0              # payload staging through the device

    def validate(self) -> None:
        if min(self.ingress_ns, self.pm_stage_ns, self.egress_ns,
               self.ack_generation_ns) < 0:
            raise ConfigurationError("negative pipeline stage cost")


# ---------------------------------------------------------------------------
# Server application behaviour
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ServerProfile:
    """Server application parameters (Table II: 20-core Cascade Lake)."""

    worker_cores: int = 20
    #: Processing cost of the *ideal request handler* of Sec VI-B1 — it
    #: acknowledges on reception without real work (socket round trip into
    #: user space plus response construction).
    ideal_handler_ns: int = microseconds(2.4)

    def validate(self) -> None:
        if self.worker_cores <= 0:
            raise ConfigurationError("server needs at least one worker core")


# ---------------------------------------------------------------------------
# Client behaviour
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ClientProfile:
    """Client library parameters."""

    #: Per-request client application overhead (request generation,
    #: serialization in the driver) — closed-loop clients pay this between
    #: requests.
    think_time_ns: int = microseconds(0.6)
    #: Retransmission timeout for unacknowledged requests.
    timeout_ns: int = microseconds(1000)
    #: IPC cost (one way) between the application and a co-located logging
    #: process; used by the client-side logging alternative (Fig 17a).
    local_ipc_ns: int = microseconds(4.9)
    #: Local persistent-log write in the client-side logging alternative.
    local_log_write_ns: int = nanoseconds(300)

    def validate(self) -> None:
        if self.timeout_ns <= 0:
            raise ConfigurationError("client timeout must be positive")


# ---------------------------------------------------------------------------
# Aggregate system configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SystemConfig:
    """Everything a deployment builder needs to instantiate a system."""

    seed: int = 1
    network: NetworkProfile = field(default_factory=NetworkProfile)
    client_stack: StackProfile = KERNEL_CLIENT_STACK
    server_stack: StackProfile = KERNEL_SERVER_STACK
    network_pm: PMProfile = FPGA_PM
    server_pm: PMProfile = SERVER_PM
    log: LogConfig = field(default_factory=LogConfig)
    pipeline: PipelineProfile = field(default_factory=PipelineProfile)
    server: ServerProfile = field(default_factory=ServerProfile)
    client: ClientProfile = field(default_factory=ClientProfile)
    #: Default request payload size (Sec VI-A2: 100 B unless stated).
    payload_bytes: int = 100
    #: Clients in the full testbed (4 machines x 16 instances, Sec VI-A1).
    num_clients: int = 64

    def validate(self) -> None:
        """Check cross-field consistency; raise ConfigurationError if bad."""
        self.network.validate()
        self.client_stack.validate()
        self.server_stack.validate()
        self.network_pm.validate()
        self.server_pm.validate()
        self.log.validate()
        self.pipeline.validate()
        self.server.validate()
        self.client.validate()
        if self.payload_bytes <= 0:
            raise ConfigurationError("payload must be positive-sized")
        if self.num_clients <= 0:
            raise ConfigurationError("need at least one client")
        if self.log.capacity_bytes > self.network_pm.capacity_bytes:
            raise ConfigurationError(
                "log region larger than the device PM capacity")

    # Convenience constructors -------------------------------------------

    def with_vma(self) -> "SystemConfig":
        """The same system with libVMA user-space stacks on both sides."""
        return replace(self, client_stack=VMA_CLIENT_STACK,
                       server_stack=VMA_SERVER_STACK)

    def with_seed(self, seed: int) -> "SystemConfig":
        return replace(self, seed=seed)

    def with_payload(self, payload_bytes: int) -> "SystemConfig":
        return replace(self, payload_bytes=payload_bytes)

    def with_clients(self, num_clients: int) -> "SystemConfig":
        return replace(self, num_clients=num_clients)

    def quick_scale(self) -> "SystemConfig":
        """A calibrated small-scale variant for tests and quick runs.

        Shrinks only the *load* (client count) — never the latency
        constants — so every per-request number and every qualitative
        shape claim survives unchanged while integration fixtures run
        in seconds instead of minutes.  ``Scale.pick`` in
        :mod:`repro.experiments.common` derives its quick sizes from
        the same constant, and ``REPRO_FULL=1`` restores testbed scale
        there.
        """
        return replace(self, num_clients=QUICK_SCALE_CLIENTS)


#: Client count of the quick (test) profile.  8 clients is the smallest
#: load that still exercises multi-client queueing at the device and the
#: server worker pool (20 cores never saturate, exactly as at low load
#: on the testbed).
QUICK_SCALE_CLIENTS = 8

DEFAULT_CONFIG = SystemConfig()


def baseline_rtt_estimate(config: SystemConfig,
                          payload_bytes: Optional[int] = None,
                          handler_ns: Optional[int] = None) -> int:
    """Back-of-envelope RTT of the baseline Client-Server system.

    This is the analytic composition of the stage model (no queueing, no
    jitter); tests use it to sanity-check the simulator against the
    calibration, and the BDP module uses it for sizing.
    """
    payload = payload_bytes if payload_bytes is not None else config.payload_bytes
    handler = handler_ns if handler_ns is not None else config.server.ideal_handler_ns
    wire = config.network.propagation_ns
    serialization = _wire_time(config, payload)
    ack_serialization = _wire_time(config, 16)
    copy = round(payload * config.client_stack.copy_ns_per_byte)
    server_copy = round(payload * config.server_stack.copy_ns_per_byte)
    request_path = (config.client_stack.send_ns + copy
                    + wire + serialization
                    + config.network.switch_forward_ns
                    + wire + serialization
                    + config.server_stack.recv_ns + server_copy
                    + config.server_stack.dispatch_ns)
    response_path = (handler
                     + config.server_stack.send_ns
                     + wire + ack_serialization
                     + config.network.switch_forward_ns
                     + wire + ack_serialization
                     + config.client_stack.recv_ns
                     + config.client_stack.dispatch_ns)
    return request_path + response_path


def pmnet_rtt_estimate(config: SystemConfig,
                       payload_bytes: Optional[int] = None) -> int:
    """Analytic RTT of an update acknowledged by a PMNet ToR switch."""
    payload = payload_bytes if payload_bytes is not None else config.payload_bytes
    wire = config.network.propagation_ns
    serialization = _wire_time(config, payload)
    ack_serialization = _wire_time(config, 16)
    copy = round(payload * config.client_stack.copy_ns_per_byte)
    device = (config.pipeline.ingress_ns + config.pipeline.pm_stage_ns
              + config.pipeline.egress_ns + config.pipeline.ack_generation_ns
              + round(payload * config.pipeline.per_byte_ns)
              + config.network_pm.write_latency_ns
              + _pm_bandwidth_time(config, payload))
    return (config.client_stack.send_ns + copy
            + wire + serialization
            + device
            + wire + ack_serialization
            + config.client_stack.recv_ns
            + config.client_stack.dispatch_ns)


def _wire_time(config: SystemConfig, payload_bytes: int) -> int:
    from repro.sim.clock import transmission_delay
    frame = payload_bytes + config.network.header_overhead_bytes
    return transmission_delay(frame, config.network.bandwidth_bps)


def _pm_bandwidth_time(config: SystemConfig, payload_bytes: int) -> int:
    return round(payload_bytes / config.network_pm.bandwidth_bytes_per_s
                 * 1e9)
