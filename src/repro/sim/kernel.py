"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Components
schedule plain callbacks (``schedule``/``call_soon``) or spawn coroutine
processes (see :mod:`repro.sim.process`).  The kernel is single-threaded
and deterministic: given the same seed and the same scheduling order, a run
is bit-for-bit reproducible.

The scheduling path is the hottest code in the repository: every packet,
pipeline stage, PM access, and stack crossing becomes at least one event.
``schedule`` and ``call_soon`` therefore push a bare ``(time, seq,
callback, args)`` tuple onto the queue's heap and return nothing; only
``schedule_at`` builds a cancellable
:class:`~repro.sim.event.ScheduledCall` (see :mod:`repro.sim.event`).
:meth:`Simulator.run` pops the heap in one short loop, because a
generic ``queue.pop()`` per event costs more than the heap work it
wraps.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterator, Optional

from repro.errors import SimulationError
from repro.sim.clock import format_time
from repro.sim.event import EventQueue, ScheduledCall, SimEvent
from repro.sim.process import Process
from repro.sim.rand import RandomStreams
from repro.sim.trace import Tracer


class Simulator:
    """A deterministic discrete-event simulator with integer-ns time.

    ``schedule`` and ``call_soon`` are instance attributes, bound at
    construction (see :meth:`_bind_scheduling`).
    """

    #: The scheduler this kernel drains (reported by benchmark rounds).
    kernel = "heap"

    def __init__(self, seed: int = 0, obs: Optional[Any] = None) -> None:
        # Imported here, not at module top: repro.config itself imports
        # repro.sim.clock, so a top-level import would be circular.
        from repro.config import reject_retired_knobs
        reject_retired_knobs()
        self._now = 0
        self._queue = EventQueue()
        self._running = False
        self._stopped = False
        self._bind_scheduling()
        self.random = RandomStreams(seed)
        #: Number of callbacks executed so far (observability/debugging).
        self.executed_events = 0
        #: Opt-in event accounting (see :mod:`repro.sim.profiler`).
        self._profiler = None
        #: Optional :class:`~repro.obs.context.Observability` bundle
        #: (metrics registry + span recorder + tracer).  ``None`` means
        #: components neither register nor record — the zero-cost default.
        self.obs = obs
        #: The tracer components inherit when none is injected directly.
        #: Always present so call sites need no ``None`` checks; disabled
        #: (and therefore free) unless the bundle enables tracing.
        self.tracer: Tracer = obs.tracer if obs is not None else Tracer(enabled=False)

    # ------------------------------------------------------------------
    # Profiling
    # ------------------------------------------------------------------
    def attach_profiler(self, profiler) -> None:
        """Attribute every executed event to its call site.

        ``profiler`` is an :class:`~repro.sim.profiler.EventProfiler`
        (anything with a ``record(callback)`` method works).  Attach
        before ``run()``: the hot loop binds the profiler at entry.
        """
        self._profiler = profiler

    def detach_profiler(self) -> None:
        self._profiler = None

    @property
    def profiler(self):
        return self._profiler

    @property
    def now(self) -> int:
        """Current simulated time in nanoseconds."""
        return self._now

    # ------------------------------------------------------------------
    # Scheduling primitives
    # ------------------------------------------------------------------
    def _bind_scheduling(self) -> None:
        """Install the per-instance ``schedule``/``call_soon`` closures.

        ``schedule`` and ``call_soon`` run once per event, so each is
        the heap push itself, with the heap and the seq counter captured
        as closure cells — a method would pay a second call frame just
        to reach ``EventQueue.push``.
        """
        q = self._queue
        heap = q._heap
        heappush = heapq.heappush
        next_seq = q._next_seq

        def schedule(delay: int, callback: Callable[..., None],
                     *args: Any) -> None:
            """Run ``callback(*args)`` after ``delay`` nanoseconds.

            ``delay`` must be non-negative; scheduling into the past would
            break causality and is always a caller bug.  Returns no
            handle: use :meth:`schedule_at` for a cancellable call.
            """
            if delay < 0:
                raise SimulationError(
                    f"cannot schedule {delay}ns into the past")
            heappush(heap, (self._now + delay, next_seq(), callback, args))

        def call_soon(callback: Callable[..., None], *args: Any) -> None:
            """Run ``callback(*args)`` at the current time, after pending
            events."""
            heappush(heap, (self._now, next_seq(), callback, args))

        self.schedule = schedule
        self.call_soon = call_soon

    def schedule_deferred(self, *args: Any) -> None:
        """Retired: deferred chains are gone, and every stage is its own
        event.  Kept as a name only for the benchmark's layer map."""
        raise SimulationError(
            "schedule_deferred was retired with deferred chains; "
            "schedule each stage with schedule()")

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` at absolute simulated ``time``; returns
        a cancellable handle."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}, now is "
                f"{format_time(self._now)}")
        return self._queue.push_handle(time, callback, args)

    # ------------------------------------------------------------------
    # Events and processes
    # ------------------------------------------------------------------
    def event(self, name: str = "") -> SimEvent:
        """Create a fresh, untriggered :class:`SimEvent`."""
        return SimEvent(self, name)

    def timeout(self, delay: int, value: Any = None) -> SimEvent:
        """An event that succeeds with ``value`` after ``delay`` ns."""
        ev = SimEvent(self, f"timeout({delay})")
        self.schedule(delay, ev.succeed, value)
        return ev

    def spawn(self, generator: Iterator[Any], name: str = "") -> Process:
        """Start a coroutine process (a generator yielding events/delays)."""
        return Process(self, generator, name)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Execute the single earliest pending event.

        Returns ``False`` when the queue is empty, ``True`` otherwise.
        Cancelled handles are skipped exactly as in :meth:`run` — they
        neither execute nor count toward ``executed_events`` — so a
        workload stepped to completion and
        the same workload driven by ``run()`` report identical event
        counts (``tests/sim/test_profiler.py`` guards this).
        """
        try:
            time, callback, args = self._queue.pop()
        except IndexError:
            return False
        self._now = time
        self.executed_events += 1
        if self._profiler is not None:
            self._profiler.record(callback)
        callback(*args)
        return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` (absolute ns), or a budget.

        Returns the simulated time at which execution stopped.  ``until`` is
        inclusive: events scheduled exactly at ``until`` execute.

        The loop pops the heap directly and settles handle entries as
        ``EventQueue._settle`` does.  One liberty, unobservable: the
        ``until``/budget checks run before cancelled heads are skipped
        (a cancelled handle neither executes nor counts in ``len()``, so
        leaving it queued at a stop is equivalent to purging it first).
        To keep that honest, ``now`` is pinned to ``until`` only when a
        live entry remains — every entry still queued is beyond
        ``until`` then, so purging first would otherwise drain to empty
        and leave ``now`` at the last executed event.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        q = self._queue
        heap = q._heap
        heappop = heapq.heappop
        profiler = self._profiler
        check_until = until is not None
        budget = -1 if max_events is None else max_events
        executed = dropped = 0
        try:
            while heap:
                if check_until and heap[0][0] > until:
                    if len(heap) > q._cancelled:
                        self._now = until
                    break
                if executed == budget:
                    break
                time, _, callback, args = heappop(heap)
                if callback is None:
                    # A handle entry: ``EventQueue._settle`` inlined.
                    call = args
                    if call.cancelled:
                        q._cancelled -= 1
                        dropped += 1
                        continue
                    call.owner = None
                    callback = call.callback
                    args = call.args
                self._now = time
                executed += 1
                if profiler is not None:
                    profiler.record(callback)
                callback(*args)
                # Only a callback can call ``stop()`` (``run`` clears the
                # flag on entry), so the flag is read after each one.
                if self._stopped:
                    break
        finally:
            self._running = False
            q.pops += executed + dropped
            self.executed_events += executed
        return self._now

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of events waiting in the queue (O(1))."""
        return len(self._queue)

    def kernel_stats(self) -> dict:
        """Scheduler accounting: heap pops, compactions, and
        pending/cancelled counts (see ``EventQueue.stats``).

        ``resequences`` and ``lane_pops``/``near_pops``/``far_pops``
        are counters of retired mechanisms (deferred chains, the tiered
        queue), kept for the benchmark, which reads them by name: every
        pop is a heap pop, reported as ``far_pops``, and the other three
        read 0.  The pop counter is written back when :meth:`run` exits.
        """
        stats = self._queue.stats()
        stats.update(kernel=self.kernel, resequences=0, lane_pops=0,
                     near_pops=0, far_pops=stats["pops"])
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator now={format_time(self._now)} "
                f"pending={self.pending_events()}>")
