"""An asynchronous (windowed) client — the road not taken.

The paper's motivation (Sec II-A): asynchronous RPCs hide the RTT but
are hard to program against; synchronous RPCs are what people actually
write, so PMNet attacks the RTT instead.  To make that argument
measurable, this module provides the asynchronous alternative: a client
that keeps up to ``window`` requests outstanding and completes them
out of band.

The motivation experiment then shows the paper's pitch quantitatively:
*synchronous-over-PMNet reaches the throughput of asynchronous-over-
baseline* — you get the easy programming model and keep the speed.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Deque, Optional

from repro.host.client import PMNetClient
from repro.host.node import HostNode
from repro.protocol.session import SessionAllocator
from repro.sim.event import SimEvent
from repro.sim.monitor import Counter, LatencyRecorder, ThroughputMeter
from repro.sim.trace import Tracer
from repro.workloads.kv import Operation

if TYPE_CHECKING:  # pragma: no cover
    from repro.config import SystemConfig
    from repro.sim.kernel import Simulator


class AsyncPMNetClient(PMNetClient):
    """A client with a bounded window of in-flight requests.

    ``submit`` enqueues an operation and returns immediately unless the
    window is full, in which case it returns an event to wait on (back
    pressure).  ``drain`` returns an event that fires when everything
    submitted has completed.
    """

    def __init__(self, sim: "Simulator", host: HostNode,
                 config: "SystemConfig", server: str,
                 allocator: SessionAllocator,
                 acks_required: int = 1,
                 window: int = 16,
                 tracer: Optional[Tracer] = None) -> None:
        if window <= 0:
            raise ValueError("window must be positive")
        super().__init__(sim, host, config, server, allocator,
                         acks_required=acks_required, tracer=tracer)
        self.window = window
        self._in_flight = 0
        self._backlog: Deque[tuple] = deque()
        self._window_waiters: Deque[SimEvent] = deque()
        self._drain_waiters: list[SimEvent] = []
        self.async_completions = Counter(f"{host.name}.async_completions")
        self.latencies = LatencyRecorder(f"{host.name}.async_latency")
        self.throughput = ThroughputMeter(f"{host.name}.async_throughput")

    # ------------------------------------------------------------------
    def submit(self, op: Operation,
               payload_bytes: Optional[int] = None) -> Optional[SimEvent]:
        """Fire-and-track one operation.

        Returns ``None`` when the request was issued (or buffered) with
        window room to spare, or a back-pressure event to ``yield`` on
        when the window is full.
        """
        self._backlog.append((op, payload_bytes, self.sim.now))
        self._pump()
        if self._in_flight + len(self._backlog) <= self.window:
            return None
        gate = self.sim.event("window")
        self._window_waiters.append(gate)
        return gate

    def drain(self) -> SimEvent:
        """An event that fires once all submitted work has completed."""
        done = self.sim.event("drain")
        if self._in_flight == 0 and not self._backlog:
            done.succeed()
        else:
            self._drain_waiters.append(done)
        return done

    # ------------------------------------------------------------------
    def _pump(self) -> None:
        while self._backlog and self._in_flight < self.window:
            op, payload_bytes, submitted_at = self._backlog.popleft()
            self._in_flight += 1
            if op.is_update:
                completion = self.send_update(op, payload_bytes)
            else:
                completion = self.bypass(op, payload_bytes)
            completion.add_callback(self._on_done, submitted_at)

    def _on_done(self, event: SimEvent, submitted_at: int) -> None:
        self._in_flight -= 1
        self.async_completions.increment()
        self.latencies.record(self.sim.now - submitted_at)
        self.throughput.record(self.sim.now)
        self._pump()
        while (self._window_waiters
               and self._in_flight + len(self._backlog) <= self.window):
            gate = self._window_waiters.popleft()
            if not gate.triggered:
                gate.succeed()
        if self._in_flight == 0 and not self._backlog:
            waiters, self._drain_waiters = self._drain_waiters, []
            for waiter in waiters:
                if not waiter.triggered:
                    waiter.succeed()
