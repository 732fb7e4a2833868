"""A plain ``(time, seq)`` binary-heap simulator: the differential oracle.

The kernel mixes bare heap entries with handle entries, settles handles
inline in its drain loop and batches its counters, all easy to get
subtly wrong.  This oracle restates the scheduling contract in the most
direct form — one record per push in one heap ordered by ``(time,
seq)``, one seq per push, a fresh seq per deferred hop, cancelled
records skipped — and exposes the slice of the
:class:`~repro.sim.kernel.Simulator` API the differential suite drives.
Only ``schedule_at`` returns a cancellable handle, as in the kernel;
the kernel's ``schedule_deferred`` returns its chain list, which only a
host's express claim reads, so the oracle returns nothing there.  It is
test code only: nothing in ``src`` depends on it.
"""

from __future__ import annotations

import heapq
from typing import Callable, Optional

from repro.errors import SimulationError


class _Record:
    __slots__ = ("time", "seq", "callback", "args", "defer", "cancelled",
                 "queued", "oracle")

    def cancel(self) -> None:
        if not self.cancelled:
            self.cancelled = True
            if self.queued:
                self.oracle._live -= 1


class HeapOracle:
    """The reference event order: the exact total order by ``(time, seq)``."""

    def __init__(self) -> None:
        self._heap: list = []
        self._seq = 0
        self._live = 0
        self.now = 0
        self.executed_events = 0

    def _push(self, time: int, defer, callback: Callable[..., None],
              args: tuple) -> _Record:
        record = _Record()
        record.time, record.seq = time, self._seq
        record.callback, record.args, record.defer = callback, args, defer
        record.cancelled, record.queued, record.oracle = False, True, self
        self._seq += 1
        self._live += 1
        heapq.heappush(self._heap, (time, record.seq, record))
        return record

    def schedule(self, delay: int, callback, *args) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns into the past")
        self._push(self.now + delay, 0, callback, args)

    def schedule_at(self, time: int, callback, *args) -> _Record:
        if time < self.now:
            raise SimulationError(f"cannot schedule at {time}")
        return self._push(time, 0, callback, args)

    def call_soon(self, callback, *args) -> None:
        self._push(self.now, 0, callback, args)

    def schedule_deferred(self, delay: int, defer_ns, callback,
                          *args) -> None:
        self._push(self.now + delay, defer_ns, callback, args)

    def _next_live(self) -> Optional[_Record]:
        """Purge cancelled heads; return the earliest live record, still
        queued."""
        heap = self._heap
        while heap:
            record = heap[0][2]
            if record.cancelled:
                heapq.heappop(heap)
                continue
            return record
        return None

    def _take(self, record: _Record) -> bool:
        """Consume the head ``record``: re-sequence it one hop along its
        chain (returns ``False``) or hand it over for execution."""
        heapq.heappop(self._heap)
        defer = record.defer
        if defer:
            if type(defer) is tuple:
                delay = defer[0]
                record.defer = defer[1] if len(defer) == 2 else defer[1:]
            else:
                delay, record.defer = defer, 0
            record.time += delay
            record.seq = self._seq
            self._seq += 1
            heapq.heappush(self._heap, (record.time, record.seq, record))
            return False
        record.queued = False
        self._live -= 1
        return True

    def _execute(self, record: _Record) -> None:
        self.now = record.time
        self.executed_events += 1
        record.callback(*record.args)

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        executed = 0
        while True:
            record = self._next_live()
            if record is None:
                break
            if until is not None and record.time > until:
                self.now = until
                break
            if executed == max_events:
                break
            if self._take(record):
                executed += 1
                self._execute(record)
        return self.now

    def step(self) -> bool:
        while True:
            record = self._next_live()
            if record is None:
                return False
            if self._take(record):
                self._execute(record)
                return True

    def pending_events(self) -> int:
        return self._live
