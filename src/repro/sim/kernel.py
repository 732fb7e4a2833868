"""The discrete-event simulation kernel.

:class:`Simulator` owns the virtual clock and the event queue.  Components
schedule plain callbacks (``schedule``/``call_soon``) or spawn coroutine
processes (see :mod:`repro.sim.process`).  The kernel is single-threaded
and deterministic: given the same seed and the same scheduling order, a run
is bit-for-bit reproducible.

The scheduling path is the hottest code in the repository: every packet,
pipeline stage, PM access, and stack crossing becomes at least one event.
``schedule`` therefore stores ``(callback, args)`` directly on the queue
record — no binding lambda per event — and the queue itself is swappable
(``PMNET_KERNEL``): the reference binary heap, or the default tiered
scheduler whose now lane and calendar make same-instant wakeups and short
timers sift-free (see :mod:`repro.sim.event`).  :meth:`Simulator.run` is
specialized per backend — a monomorphic pop with hoisted locals, written
back on exit — because a generic ``queue.pop()`` per event costs more than
the queue work it wraps.  ``benchmarks/test_kernel_events.py`` and the
``pmnet-repro bench-kernel`` subcommand track the events/sec this yields.
"""

from __future__ import annotations

import heapq
import importlib
import warnings
from typing import Any, Callable, Iterator, Optional

from repro.errors import SimulationError
from repro.sim.clock import format_time
from repro.sim.event import (EventQueue, ScheduledCall, SimEvent,  # noqa: F401
                             make_event_queue)
from repro.sim.process import Process
from repro.sim.rand import RandomStreams
from repro.sim.trace import Tracer

_warned_compiled_fallback = False


def reset_compiled_fallback_warning() -> None:
    """Re-arm the once-per-process compiled-fallback warning.

    The latch makes the warning untestable after the first resolution in
    a process; tests (and anything that swaps ``repro.sim.compiled`` in
    or out at runtime) reset it through this hook instead of poking the
    module global.
    """
    global _warned_compiled_fallback
    _warned_compiled_fallback = False


def resolve_kernel_backend(name: Optional[str] = None) -> str:
    """Resolve the configured scheduler backend to an available one.

    ``compiled`` is a hook point for an ahead-of-time-compiled queue (the
    ROADMAP's mypyc/Cython item): it resolves to the ``repro.sim.compiled``
    module when importable and falls back to ``tiered`` (once, with a
    warning) when not, so ``PMNET_KERNEL=compiled`` is always safe to set.
    A compiled backend must either mirror ``TieredEventQueue``'s structural
    contract or export its own ``run_loop(sim, until, max_events)``.
    """
    if name is None:
        # Imported here, not at module top: repro.config itself imports
        # repro.sim.clock, so a top-level import would be circular.
        from repro.config import kernel_backend
        name = kernel_backend()
    if name == "compiled":
        try:
            importlib.import_module("repro.sim.compiled")
        except ImportError:
            global _warned_compiled_fallback
            if not _warned_compiled_fallback:
                _warned_compiled_fallback = True
                warnings.warn(
                    "PMNET_KERNEL=compiled requested but repro.sim.compiled "
                    "is not built; falling back to the tiered backend",
                    RuntimeWarning, stacklevel=2)
            return "tiered"
    return name


class Simulator:
    """A deterministic discrete-event simulator with integer-ns time."""

    def __init__(self, seed: int = 0, obs: Optional[Any] = None,
                 kernel: Optional[str] = None) -> None:
        self._now = 0
        #: The resolved scheduler backend name (``heap``/``tiered``/...),
        #: fixed at construction; ``PMNET_KERNEL`` selects it.
        self.kernel = resolve_kernel_backend(kernel)
        if self.kernel == "compiled":
            compiled = importlib.import_module("repro.sim.compiled")
            self._queue = compiled.make_event_queue()
            self._compiled_run = getattr(compiled, "run_loop", None)
        else:
            compiled = None
            self._queue = make_event_queue(self.kernel)
            self._compiled_run = None
        self._running = False
        self._stopped = False
        if self.kernel in ("heap", "tiered"):
            # Shadow the generic schedule/call_soon methods with
            # backend-specialized closures (see _bind_fast_scheduling).
            self._bind_fast_scheduling()
        elif compiled is not None:
            # The compiled module generates its own push closures (the
            # horizon is constant-folded); absent the hook it keeps the
            # generic methods.
            bind = getattr(compiled, "bind_scheduling", None)
            if bind is not None:
                bind(self)
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
    def _bind_fast_scheduling(self) -> None:
        """Install per-instance ``schedule``/``call_soon`` closures.

        ``schedule`` and ``call_soon`` are called once per event — the
        generic methods pay a second call frame just to reach
        ``queue.push``.  These closures repeat the push body inline
        (record construction via direct slot stores, tier routing for
        the tiered backend) with the queue structures captured as
        closure cells.  The tiered backend (the default) also gets a
        ``schedule_deferred`` closure, called once per folded wire hop;
        the heap backend keeps the generic method.  Semantics are
        identical to the class methods they shadow — the causality
        guards, the returned handle, and the exact routing mirror
        ``HeapEventQueue.push`` / ``TieredEventQueue.push`` /
        ``TieredEventQueue.push_deferred``; any change there must be
        repeated here (and in ``repro.sim.compiled``, which generates
        the same ``schedule``/``call_soon`` closures with the horizon
        constant-folded).
        """
        q = self._queue
        new = ScheduledCall.__new__
        record_cls = ScheduledCall
        heappush = heapq.heappush
        if self.kernel == "heap":
            heap = q._heap

            def schedule(delay, callback, *args):
                if delay < 0:
                    raise SimulationError(
                        f"cannot schedule {delay}ns into the past")
                time = self._now + delay
                seq = q._seq
                q._seq = seq + 1
                call = new(record_cls)
                call.time = time
                call.seq = seq
                call.callback = callback
                call.args = args
                call.cancelled = False
                call.defer_ns = 0
                call.owner = q
                heappush(heap, (time, seq, call))
                q._size += 1
                return call

            def call_soon(callback, *args):
                time = self._now
                seq = q._seq
                q._seq = seq + 1
                call = new(record_cls)
                call.time = time
                call.seq = seq
                call.callback = callback
                call.args = args
                call.cancelled = False
                call.defer_ns = 0
                call.owner = q
                heappush(heap, (time, seq, call))
                q._size += 1
                return call
        else:
            lane = q._lane
            buckets = q._buckets
            times = q._times
            far = q._far
            horizon = q._horizon

            def schedule(delay, callback, *args):
                if delay < 0:
                    raise SimulationError(
                        f"cannot schedule {delay}ns into the past")
                time = self._now + delay
                seq = q._seq
                q._seq = seq + 1
                call = new(record_cls)
                call.time = time
                call.seq = seq
                call.callback = callback
                call.args = args
                call.cancelled = False
                call.defer_ns = 0
                call.owner = q
                q._size += 1
                delta = time - q._qnow
                if delta == 0:
                    lane.append(call)
                elif delta < horizon:
                    bucket = buckets.get(time)
                    if bucket is None:
                        buckets[time] = call
                        heappush(times, time)
                    elif type(bucket) is list:
                        bucket.append(call)
                    else:
                        buckets[time] = [bucket, call]
                else:
                    heappush(far, (time, seq, call))
                return call

            def call_soon(callback, *args):
                time = self._now
                seq = q._seq
                q._seq = seq + 1
                call = new(record_cls)
                call.time = time
                call.seq = seq
                call.callback = callback
                call.args = args
                call.cancelled = False
                call.defer_ns = 0
                call.owner = q
                q._size += 1
                if time == q._qnow:
                    # The overwhelmingly common case: a wakeup at the
                    # instant being drained goes straight to the lane.
                    lane.append(call)
                else:
                    # Between runs the sim clock can sit past the queue
                    # clock (after run(until=...)); route generically.
                    delta = time - q._qnow
                    if delta < horizon:
                        bucket = buckets.get(time)
                        if bucket is None:
                            buckets[time] = call
                            heappush(times, time)
                        elif type(bucket) is list:
                            bucket.append(call)
                        else:
                            buckets[time] = [bucket, call]
                    else:
                        heappush(far, (time, seq, call))
                return call

            def schedule_deferred(delay, defer_ns, callback, *args):
                if isinstance(defer_ns, tuple):
                    bad = not defer_ns or min(defer_ns) < 0
                else:
                    bad = defer_ns < 0
                if bad or delay < 0:
                    raise SimulationError(
                        f"cannot schedule {delay}+{defer_ns}ns into the past")
                time = self._now + delay
                seq = q._seq
                q._seq = seq + 1
                call = new(record_cls)
                call.time = time
                call.seq = seq
                call.callback = callback
                call.args = args
                call.cancelled = False
                call.defer_ns = defer_ns
                call.owner = q
                q._size += 1
                delta = time - q._qnow
                if delta == 0:
                    lane.append(call)
                elif delta < horizon:
                    bucket = buckets.get(time)
                    if bucket is None:
                        buckets[time] = call
                        heappush(times, time)
                    elif type(bucket) is list:
                        bucket.append(call)
                    else:
                        buckets[time] = [bucket, call]
                else:
                    heappush(far, (time, seq, call))
                return call

            self.schedule_deferred = schedule_deferred

        self.schedule = schedule
        self.call_soon = call_soon

    def schedule(self, delay: int, callback: Callable[..., None],
                 *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` after ``delay`` nanoseconds.

        ``delay`` must be non-negative; scheduling into the past would break
        causality and is always a caller bug.  (The tiered backend also
        *relies* on this guard: its routing invariants assume no record is
        ever pushed before the instant currently being drained.)
        """
        if delay < 0:
            raise SimulationError(f"cannot schedule {delay}ns into the past")
        return self._queue.push(self._now + delay, callback, args)

    def schedule_at(self, time: int, callback: Callable[..., None],
                    *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule at {format_time(time)}, now is "
                f"{format_time(self._now)}")
        return self._queue.push(time, callback, args)

    def call_soon(self, callback: Callable[..., None], *args: Any) -> ScheduledCall:
        """Run ``callback(*args)`` at the current time, after pending events."""
        return self._queue.push(self._now, callback, args)

    def schedule_deferred(self, delay: int, defer_ns,
                          callback: Callable[..., None],
                          *args: Any) -> ScheduledCall:
        """Fold fixed back-to-back delays into one executed event.

        Equivalent to scheduling an intermediate callback at ``delay``
        whose only job is to schedule ``callback(*args)`` another
        ``defer_ns`` later — but the intermediate hop never runs Python:
        the kernel re-sequences the record when it surfaces.  Seq
        numbers are allocated at exactly the same two virtual instants
        as the unfolded chain, so same-time tie-breaking (and therefore
        byte-for-byte run reproducibility) is unaffected; only the
        executed-event count and the intermediate callback's overhead
        drop.  ``defer_ns`` may be a tuple of delays: an n-stage
        fixed-latency pipeline then collapses to a single executed
        event, one re-sequencing per intermediate hop.  Use only when
        every intermediate callback would have had no observable side
        effect.
        """
        # Validated in place: no wrapping tuple or generator per call.
        if isinstance(defer_ns, tuple):
            bad = not defer_ns or min(defer_ns) < 0
        else:
            bad = defer_ns < 0
        if bad or delay < 0:
            raise SimulationError(
                f"cannot schedule {delay}+{defer_ns}ns into the past")
        return self._queue.push_deferred(self._now + delay, defer_ns,
                                         callback, args)

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
        Cancelled :class:`ScheduledCall`s are skipped exactly as in
        :meth:`run` — they neither execute nor count toward
        ``executed_events`` — so a workload stepped to completion and
        the same workload driven by ``run()`` report identical event
        counts (``tests/sim/test_profiler.py`` guards this).
        """
        call = self._queue._pop_live()
        if call is None:
            return False
        if call.time < self._now:
            raise SimulationError("event queue returned a past event")
        self._now = call.time
        self.executed_events += 1
        if self._profiler is not None:
            self._profiler.record(call.callback)
        call.callback(*call.args)
        return True

    def run(self, until: Optional[int] = None,
            max_events: Optional[int] = None) -> int:
        """Run until the queue drains, ``until`` (absolute ns), or a budget.

        Returns the simulated time at which execution stopped.  ``until`` is
        inclusive: events scheduled exactly at ``until`` execute.
        """
        if self._running:
            raise SimulationError("simulator is already running (reentrant run)")
        self._running = True
        self._stopped = False
        try:
            if self._compiled_run is not None:
                self._compiled_run(self, until, max_events)
            elif self.kernel == "heap":
                self._run_heap(until, max_events)
            else:
                self._run_tiered(until, max_events)
        finally:
            self._running = False
        return self._now

    def _run_heap(self, until: Optional[int], max_events: Optional[int]) -> None:
        """The hot loop over the reference heap backend.

        Operates on the heap directly so each event costs one pop (not a
        peek + a pop) and cancelled entries are skipped once.
        """
        q = self._queue
        heap = q._heap
        heappop = heapq.heappop
        resequence = q.resequence
        profiler = self._profiler
        check_until = until is not None
        budget = -1 if max_events is None else max_events
        executed = 0
        pops = 0
        reseqs = 0
        try:
            while not self._stopped:
                if not heap:
                    break
                time, _seq, call = heap[0]
                if call.cancelled:
                    heappop(heap)
                    pops += 1
                    q._drop_cancelled()
                    continue
                if check_until and time > until:
                    self._now = until
                    break
                if executed == budget:
                    break
                heappop(heap)
                pops += 1
                if call.defer_ns:
                    # Latency-folded record: move it to its final slot
                    # (fresh seq, no callback) — not an executed event.
                    resequence(call)
                    reseqs += 1
                    continue
                call.owner = None
                self._now = time
                executed += 1
                if profiler is not None:
                    profiler.record(call.callback)
                call.callback(*call.args)
        finally:
            # The live-entry counter is batched across the run: pushes and
            # cancels hit the attribute directly, so applying the executed
            # total here leaves it exact.
            q._size -= executed
            q.far_pops += pops
            q.resequences += reseqs
            self.executed_events += executed

    def _run_tiered(self, until: Optional[int], max_events: Optional[int]) -> None:
        """The hot loop over the tiered backend.

        Mirrors ``TieredEventQueue._pop_any`` with the tier structures and
        cursors hoisted into locals (written back on exit).  Two loop-only
        liberties, both unobservable: the ``until``/budget checks run
        before cancelled-head skipping (a cancelled record neither executes
        nor counts in ``len()``, so leaving it unconsumed at a stop is
        equivalent to the heap loop purging it), and the queue clock may
        advance over a cancelled head (no user code runs between that
        advance and the next live pop, so no push can observe it).

        One subtlety keeps the first liberty honest: the heap loop purges
        a cancelled head *before* its ``until`` check, so when everything
        beyond the bound is dead it drains to empty and leaves ``now`` at
        the last executed event — it only pins ``now`` to ``until`` when a
        live record remains.  This loop therefore guards the
        ``self._now = until`` write on the live count (``q._size`` minus
        the batched ``executed``), which is exact mid-run because cancels
        decrement ``_size`` immediately.  Every record still queued is at
        or beyond the head time being tested, so "a live record remains"
        and "a live record remains beyond ``until``" coincide here.
        """
        q = self._queue
        lane = q._lane
        buckets = q._buckets
        times = q._times
        far = q._far
        horizon = q._horizon
        heappop = heapq.heappop
        heappush = heapq.heappush
        profiler = self._profiler
        check_until = until is not None
        budget = -1 if max_events is None else max_events
        executed = 0
        lane_pops = near_pops = far_pops = reseqs = 0
        cur = q._cur
        cur_pos = q._cur_pos
        lane_pos = q._lane_pos
        qnow = q._qnow
        # Whether the far tier and calendar have been probed (and found
        # empty) at the current drain instant — loop-local only: it is
        # re-derived from scratch at every time advance.
        lane_checked = False
        try:
            while not self._stopped:
                # Select and consume the earliest record (far ≺ bucket ≺
                # lane at equal time; see the event-module ordering
                # proof).  ``until``/budget are checked per branch, before
                # anything is consumed or the queue clock moves.
                if cur_pos < len(cur):
                    # Draining a claimed bucket.  No far-tier check: far
                    # pushes land at least a horizon beyond the drain
                    # instant, so nothing can join this time.
                    if check_until and qnow > until:
                        if q._size - executed > 0:
                            self._now = until
                        break
                    if executed == budget:
                        break
                    call = cur[cur_pos]
                    cur_pos += 1
                    near_pops += 1
                    time = qnow
                elif lane_pos < len(lane):
                    if check_until and qnow > until:
                        if q._size - executed > 0:
                            self._now = until
                        break
                    if executed == budget:
                        break
                    if lane_checked:
                        # Far tier and calendar were already probed at
                        # this instant and hold nothing for it; neither
                        # can gain a record at the drain instant (far
                        # pushes land a horizon out, same-instant pushes
                        # join the lane), so drain the lane unchecked.
                        call = lane[lane_pos]
                        lane_pos += 1
                        lane_pops += 1
                    elif far and far[0][0] == qnow:
                        call = heappop(far)[2]
                        far_pops += 1
                    elif times and times[0] == qnow:
                        # A bucket at the drain instant (reached through
                        # the far tier): claim it — its records precede
                        # the lane's.
                        heappop(times)
                        bucket = buckets.pop(qnow)
                        if type(bucket) is list:
                            cur = q._cur = bucket
                            cur_pos = 1
                            call = bucket[0]
                        else:
                            call = bucket
                        near_pops += 1
                    else:
                        lane_checked = True
                        call = lane[lane_pos]
                        lane_pos += 1
                        lane_pops += 1
                    time = qnow
                else:
                    if lane:
                        # The drain instant is fully consumed; reset the
                        # lane in place (the queue holds the same list).
                        del lane[:]
                        lane_pos = 0
                    lane_checked = False
                    from_far = False
                    if times:
                        time = times[0]
                        if far and far[0][0] <= time:
                            time = far[0][0]
                            from_far = True
                    elif far:
                        time = far[0][0]
                        from_far = True
                    else:
                        break
                    if check_until and time > until:
                        if q._size - executed > 0:
                            self._now = until
                        break
                    if executed == budget:
                        break
                    if from_far:
                        call = heappop(far)[2]
                        far_pops += 1
                    else:
                        heappop(times)
                        bucket = buckets.pop(time)
                        if type(bucket) is list:
                            cur = q._cur = bucket
                            cur_pos = 1
                            call = bucket[0]
                        else:
                            call = bucket
                        near_pops += 1
                    qnow = q._qnow = time
                if call.cancelled:
                    q._drop_cancelled()
                    continue
                defer = call.defer_ns
                if defer:
                    # Latency-folded record: move it one hop along its
                    # chain (fresh seq, no callback) — not an executed
                    # event.  ``TieredEventQueue.resequence`` inlined,
                    # routing by distance from the drain instant.
                    seq = q._seq
                    q._seq = seq + 1
                    if type(defer) is tuple:
                        delay = defer[0]
                        call.defer_ns = (defer[1] if len(defer) == 2
                                         else defer[1:])
                    else:
                        delay = defer
                        call.defer_ns = 0
                    time += delay
                    call.time = time
                    call.seq = seq
                    delta = time - qnow
                    if delta == 0:
                        lane.append(call)
                    elif delta < horizon:
                        bucket = buckets.get(time)
                        if bucket is None:
                            buckets[time] = call
                            heappush(times, time)
                        elif type(bucket) is list:
                            bucket.append(call)
                        else:
                            buckets[time] = [bucket, call]
                    else:
                        heappush(far, (time, seq, call))
                    reseqs += 1
                    continue
                call.owner = None
                self._now = time
                executed += 1
                if profiler is not None:
                    profiler.record(call.callback)
                call.callback(*call.args)
        finally:
            q._cur_pos = cur_pos
            q._lane_pos = lane_pos
            # Live-entry counter batched as in the heap loop.
            q._size -= executed
            q.lane_pops += lane_pops
            q.near_pops += near_pops
            q.far_pops += far_pops
            q.resequences += reseqs
            self.executed_events += executed

    def stop(self) -> None:
        """Stop :meth:`run` after the current event completes."""
        self._stopped = True

    def pending_events(self) -> int:
        """Number of events waiting in the queue (O(1))."""
        return len(self._queue)

    def kernel_stats(self) -> dict:
        """Scheduler-backend accounting: pops per tier, re-sequencings,
        compactions, and pending/cancelled counts (see ``tier_stats`` on
        the queue classes).  Cheap enough to call between runs; pop
        counters are written back when :meth:`run` exits."""
        stats = self._queue.tier_stats()
        stats["kernel"] = self.kernel
        return stats

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<Simulator now={format_time(self._now)} "
                f"pending={self.pending_events()}>")
