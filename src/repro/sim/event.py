"""Events and the pending-event queues of the discrete-event kernel.

Two kinds of "event" exist and are deliberately distinct:

* :class:`ScheduledCall` — an internal queue record: *at time T, invoke this
  callback with these args*.  Users normally never touch these directly.
* :class:`SimEvent` — a one-shot synchronization object (in the style of
  simpy events or asyncio futures): processes wait on it; someone succeeds
  or fails it exactly once, waking all waiters with a value or an error.

The queue is the hottest data structure in the simulator.
:class:`TieredEventQueue` is the only scheduler: a FIFO *now lane* for
same-instant events (``call_soon`` wakeups, span hooks, inline
dispatch), a *calendar* of per-nanosecond buckets for timers within a
near horizon (link propagation, serialization, pipeline stages), and a
binary heap of ``(time, seq, call)`` tuples as the *far tier*
(retransmission timers, think time, chaos fault windows).  Lane and
calendar inserts are plain list appends — no sifting, no wrapper-tuple
allocation.  The differential suite (``tests/sim``) checks it against a
plain ``(time, seq)`` heap kept there as the oracle.

**The ordering contract** (what every fold-identity and determinism
suite ultimately rests on):

1. every push allocates a monotonically increasing ``seq``, so the
   execution order is the exact total order by ``(time, seq)``;
2. records are mutated in place but never physically moved by
   revocation (``net/link.py`` rewrites a folded record's callback at
   its existing queue slot) — a record's slot identity is stable
   between push and pop, whichever tier holds it;
3. cancelled records never execute and never count;
4. a *deferred* record re-sequences (fresh seq at its surfacing
   instant) instead of executing — see :meth:`ScheduledCall` below.

Why the tiered order is the ``(time, seq)`` order without any
cross-tier seq comparison: let ``Q`` be the time of the most recently
popped record (monotone).  A push at time ``T`` routes by its distance
``T - Q`` — ``== 0`` to the lane, ``< horizon`` to the calendar, else
to the far tier.  Since ``Q`` only grows, for a fixed ``T`` all
far-tier pushes (distance >= horizon) happen strictly before all
calendar pushes (distance in (0, horizon)), which happen strictly
before all lane pushes (distance 0); seqs are allocated
chronologically, so at equal time the drain priority is far tier, then
calendar bucket, then lane — by construction, with no seq inspected.
Within a bucket and within the lane, appends happen in seq order, so
plain FIFO consumption is exact.  The queue therefore requires pushes
not to precede ``Q`` (scheduling into the past); the kernel's causality
guards enforce this for all simulator-mediated scheduling.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Optional, Tuple

from repro.errors import SimulationError

#: Near-horizon width of the calendar, in ns.  Sized to the deployment's
#: short deterministic delays — link propagation (100 ns), MTU
#: serialization at 10 Gbps (~1.2 us), pipeline stages (150-250 ns),
#: client think time (600 ns) all land inside it — while retransmission
#: timeouts (1 ms), redo scrubbing (1.5 ms), and chaos fault windows fall
#: through to the far tier.  Purely a performance constant: any horizon
#: executes the same event order.
DEFAULT_KERNEL_HORIZON_NS = 4096

#: Compaction trigger (the cancelled-entry purge): compact when more
#: cancelled records than live ones linger in the structures *and* the
#: absolute count is worth the rebuild.  Mirrors asyncio's cancelled
#: timer-handle purge; retransmission-heavy chaos runs otherwise drag
#: thousands of dead records through every sift.
COMPACT_MIN_CANCELLED = 64


class ScheduledCall:
    """A callback (plus positional args) registered to run at a fixed time.

    Instances are ordered by ``(time, seq)`` so that simultaneous events
    run in scheduling order, which keeps runs deterministic.

    ``defer_ns`` marks a *deferred* (latency-folded) record: it first
    surfaces at ``time`` — ordered by the seq allocated when it was
    scheduled, exactly like the intermediate callback it replaces — and
    the kernel then re-sequences it ``defer_ns`` later with a freshly
    allocated seq, never invoking a callback at the intermediate hop.
    Because both seq allocations happen at the same virtual instants as
    the unfolded two-event chain, same-nanosecond tie-breaking against
    unrelated events is preserved bit for bit; only the intermediate
    callback execution (and its record allocation) disappears.

    ``defer_ns`` may also be a *tuple* of delays — a chain of deferred
    hops.  Each re-sequencing consumes one element, allocating one seq
    per hop at the hop's virtual instant, so an n-delay fixed-latency
    pipeline collapses to a single executed event while remaining
    order-identical to the n-event original.

    ``owner`` is the queue currently holding the record (``None`` once
    popped): :meth:`cancel` notifies it so the live-entry counter stays
    O(1)-exact and cancel-heavy schedules trigger compaction.
    """

    __slots__ = ("time", "seq", "callback", "args", "cancelled", "defer_ns",
                 "owner")

    def __init__(self, time: int, seq: int, callback: Callable[..., None],
                 args: Tuple[Any, ...] = (), defer_ns: int = 0,
                 owner: Optional["TieredEventQueue"] = None) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.defer_ns = defer_ns
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if not self.cancelled:
            self.cancelled = True
            owner = self.owner
            if owner is not None:
                owner._note_cancel()

    def __lt__(self, other: "ScheduledCall") -> bool:
        return (self.time, self.seq) < (other.time, other.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time} seq={self.seq} {state}>"


class TieredEventQueue:
    """The event scheduler.

    Three tiers, drained in exact ``(time, seq)`` order (see the module
    docstring for why no cross-tier seq comparison is needed):

    * **now lane** — a plain list of records whose time equals the
      current drain instant ``_qnow``; appends are already in seq
      order, consumption is an index bump.  ``call_soon`` wakeups land
      here and never touch a heap.
    * **calendar** — ``{absolute time -> record | [records]}`` plus a
      small heap of the distinct times, for timers within ``horizon``
      ns.  A lone record at a time is stored *unboxed* (most calendar
      instants hold exactly one timer, and this skips a list allocation
      per event); a second record at the same time promotes the value
      to a list.  Insert into an existing bucket is a dict hit +
      append; only the *first* record at a new time pays a (time-only,
      int) heap push.
    * **far tier** — the classic ``(time, seq, call)`` binary heap for
      anything at or beyond the horizon, so sparse long timers never
      bloat the calendar.

    The bucket currently being drained is *claimed* (removed from the
    calendar) the moment ``_qnow`` reaches its time; from then on no new
    record can enter it (same-instant pushes go to the lane), so the
    kernel may hoist it into locals safely.  :meth:`compact` therefore
    only rebuilds the unclaimed calendar and the far tier, always in
    place.
    """

    __slots__ = ("_seq", "_qnow", "_lane", "_lane_pos", "_buckets", "_times",
                 "_cur", "_cur_pos", "_far", "_horizon", "_size", "_cancelled",
                 "compactions", "lane_pops", "near_pops", "far_pops",
                 "resequences")

    def __init__(self, initial: Optional[Iterable[Tuple[int, Callable[..., None],
                                                        Tuple[Any, ...]]]] = None,
                 horizon: int = DEFAULT_KERNEL_HORIZON_NS) -> None:
        if horizon <= 0:
            raise SimulationError(f"horizon must be positive, got {horizon}")
        self._seq = 0
        #: Time of the most recently popped record: the drain instant.
        #: Lane records live exactly at this time.
        self._qnow = 0
        self._lane: list[ScheduledCall] = []
        self._lane_pos = 0
        #: Calendar: time -> a lone unboxed record, or a list of records.
        self._buckets: dict[int, Any] = {}
        self._times: list[int] = []
        #: The claimed bucket being drained (frozen: no appends can
        #: reach it) and the consumption cursor into it.
        self._cur: list[ScheduledCall] = []
        self._cur_pos = 0
        self._far: list[Tuple[int, int, ScheduledCall]] = []
        self._horizon = horizon
        self._size = 0
        self._cancelled = 0
        self.compactions = 0
        self.lane_pops = 0
        self.near_pops = 0
        self.far_pops = 0
        self.resequences = 0
        if initial:
            for time, callback, args in initial:
                self.push(time, callback, args)

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def _insert(self, call: ScheduledCall, time: int, seq: int) -> None:
        """Route a fresh record to its tier by distance from ``_qnow``."""
        delta = time - self._qnow
        if delta == 0:
            self._lane.append(call)
        elif delta < self._horizon:
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = call
                heapq.heappush(self._times, time)
            elif type(bucket) is list:
                bucket.append(call)
            else:
                buckets[time] = [bucket, call]
        else:
            heapq.heappush(self._far, (time, seq, call))

    def push(self, time: int, callback: Callable[..., None],
             args: Tuple[Any, ...] = ()) -> ScheduledCall:
        """Enqueue ``callback(*args)`` to run at ``time``; returns a
        cancellable handle."""
        seq = self._seq
        self._seq = seq + 1
        # Hot path: build the record with direct slot stores — skipping
        # the __init__ frame is worth ~40% of construction cost, and one
        # record is built per event.
        call = ScheduledCall.__new__(ScheduledCall)
        call.time = time
        call.seq = seq
        call.callback = callback
        call.args = args
        call.cancelled = False
        call.defer_ns = 0
        call.owner = self
        self._size += 1
        delta = time - self._qnow
        if delta == 0:
            self._lane.append(call)
        elif delta < self._horizon:
            buckets = self._buckets
            bucket = buckets.get(time)
            if bucket is None:
                buckets[time] = call
                heapq.heappush(self._times, time)
            elif type(bucket) is list:
                bucket.append(call)
            else:
                buckets[time] = [bucket, call]
        else:
            heapq.heappush(self._far, (time, seq, call))
        return call

    def push_deferred(self, time: int, defer_ns,
                      callback: Callable[..., None],
                      args: Tuple[Any, ...] = ()) -> ScheduledCall:
        """Enqueue a latency-folded call: surfaces at ``time``, runs
        after the ``defer_ns`` hop (or chain of hops, when a tuple) —
        see :class:`ScheduledCall`."""
        seq = self._seq
        self._seq = seq + 1
        call = ScheduledCall(time, seq, callback, args, defer_ns, self)
        self._size += 1
        self._insert(call, time, seq)
        return call

    def resequence(self, call: ScheduledCall) -> None:
        """Move a just-popped deferred call one hop along its chain.

        Allocates a fresh seq *now* — the same instant the unfolded
        intermediate callback would have scheduled the next one — so
        FIFO tie-breaking at each hop time is unchanged by folding.  A
        zero-length hop re-enters at the surfacing instant and routes
        to the now lane, exactly where a fresh same-instant push would
        land.
        """
        seq = self._seq
        self._seq = seq + 1
        defer = call.defer_ns
        if type(defer) is tuple:
            delay = defer[0]
            call.defer_ns = defer[1] if len(defer) == 2 else defer[1:]
        else:
            delay = defer
            call.defer_ns = 0
        time = call.time + delay
        call.time = time
        call.seq = seq
        self._insert(call, time, seq)

    # ------------------------------------------------------------------
    # Cancellation bookkeeping and compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued record was cancelled: keep ``len()`` exact and purge
        when dead records dominate.

        The dominance test compares against physical structure sizes,
        not ``_size``: the run loop batches its ``_size`` writeback, so
        mid-run ``_size`` is inflated by the events executed so far,
        while the far tier and the calendar shrink with every pop.
        ``len(_times)`` counts buckets rather than records, which only
        errs towards sweeping sooner; a sweep costs ``O(physical)``, so
        this is also the honest amortisation base.
        """
        self._size -= 1
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if (cancelled > COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._far) + len(self._times)):
            self.compact()

    def _drop_cancelled(self) -> None:
        """One cancelled record left the structures by being popped."""
        # Clamped: compaction resets the count to zero without touching
        # the (small, short-lived) lane and claimed bucket, so a few
        # cancelled stragglers may still drain afterwards.
        if self._cancelled > 0:
            self._cancelled -= 1

    def compact(self) -> None:
        """Purge cancelled records from the far tier and the unclaimed
        calendar (in place, so the kernel's hoisted aliases stay valid).

        The now lane and the claimed bucket are left alone — both are
        consumed within the current drain instant, so nothing lingers
        there.  Only records that would never have executed are removed;
        the surviving ``(time, seq)`` order is untouched.
        """
        far = self._far
        far[:] = [entry for entry in far if not entry[2].cancelled]
        heapq.heapify(far)
        buckets = self._buckets
        dead = []
        for time, bucket in buckets.items():
            if type(bucket) is list:
                bucket[:] = [call for call in bucket if not call.cancelled]
                if not bucket:
                    dead.append(time)
            elif bucket.cancelled:
                dead.append(time)
        for time in dead:
            del buckets[time]
        times = self._times
        times[:] = list(buckets)
        heapq.heapify(times)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def _claim(self, time: int) -> ScheduledCall:
        """Take ownership of the calendar bucket at ``time`` and return
        its first record.  From this instant on, pushes at ``time`` are
        same-instant and go to the lane, so the bucket is append-frozen
        and safe to drain by index.  An unboxed lone record is consumed
        whole — the claimed-bucket cursor is not touched."""
        heapq.heappop(self._times)
        bucket = self._buckets.pop(time)
        self._qnow = time
        if type(bucket) is list:
            self._cur = bucket
            self._cur_pos = 1
            return bucket[0]
        return bucket

    def _pop_any(self) -> Optional[ScheduledCall]:
        """Remove and return the earliest record of any state, or
        ``None`` when empty (queue-internal; no counter updates).

        Drain priority at equal head time is far tier, then calendar
        bucket, then lane — by the routing chronology argument in the
        module docstring, never by comparing seqs.
        """
        cur = self._cur
        pos = self._cur_pos
        if pos < len(cur):
            # No far-tier check needed: a bucket is only claimed once the
            # far tier holds nothing at its time, and far-tier pushes land
            # at least a horizon beyond the drain instant, so no far
            # record at this time can appear while the bucket drains.
            self._cur_pos = pos + 1
            return cur[pos]
        far = self._far
        lane = self._lane
        pos = self._lane_pos
        if pos < len(lane):
            qnow = self._qnow
            if far and far[0][0] == qnow:
                return heapq.heappop(far)[2]
            times = self._times
            if times and times[0] == qnow:
                # The drain instant was reached through the far tier
                # before this bucket's first record surfaced; the
                # bucket's records precede the lane's.
                return self._claim(qnow)
            self._lane_pos = pos + 1
            return lane[pos]
        if lane:
            # The instant is fully consumed; reset in place (the kernel
            # holds an alias).
            del lane[:]
            self._lane_pos = 0
        times = self._times
        if times:
            near_time = times[0]
            if far and far[0][0] <= near_time:
                entry = heapq.heappop(far)
                self._qnow = entry[0]
                return entry[2]
            return self._claim(near_time)
        if far:
            entry = heapq.heappop(far)
            self._qnow = entry[0]
            return entry[2]
        return None

    def _pop_live(self) -> Optional[ScheduledCall]:
        """Remove and return the earliest runnable call, or ``None``.

        Skips cancelled records and re-sequences deferred ones exactly
        as the kernel's run loop does, so stepping and running drain
        identically.
        """
        while True:
            call = self._pop_any()
            if call is None:
                return None
            if call.cancelled:
                self._drop_cancelled()
                continue
            if call.defer_ns:
                self.resequence(call)
                continue
            call.owner = None
            self._size -= 1
            return call

    def pop(self) -> ScheduledCall:
        """Remove and return the earliest non-cancelled call.

        Raises :class:`IndexError` if the queue is empty (after dropping
        cancelled entries).
        """
        call = self._pop_live()
        if call is None:
            raise IndexError("pop from an empty event queue")
        return call

    def peek_time(self) -> Optional[int]:
        """Time of the earliest pending call, or ``None`` if empty."""
        # Prune cancelled heads per tier, then take the minimum head
        # time.  Mutating (cancelled records are discarded) but
        # order-neutral.
        cur, pos = self._cur, self._cur_pos
        while pos < len(cur) and cur[pos].cancelled:
            pos += 1
            self._drop_cancelled()
        self._cur_pos = pos
        lane, lpos = self._lane, self._lane_pos
        while lpos < len(lane) and lane[lpos].cancelled:
            lpos += 1
            self._drop_cancelled()
        self._lane_pos = lpos
        far = self._far
        while far and far[0][2].cancelled:
            heapq.heappop(far)
            self._drop_cancelled()
        times = self._times
        while times:
            bucket = self._buckets[times[0]]
            if type(bucket) is not list:
                if not bucket.cancelled:
                    break
                self._drop_cancelled()
                del self._buckets[times[0]]
                heapq.heappop(times)
                continue
            live = [call for call in bucket if not call.cancelled]
            if live:
                if len(live) != len(bucket):
                    for _ in range(len(bucket) - len(live)):
                        self._drop_cancelled()
                    bucket[:] = live
                break
            for _ in bucket:
                self._drop_cancelled()
            del self._buckets[times[0]]
            heapq.heappop(times)
        candidates = []
        if pos < len(cur) or lpos < len(lane):
            candidates.append(self._qnow)
        if times:
            candidates.append(times[0])
        if far:
            candidates.append(far[0][0])
        return min(candidates) if candidates else None

    def tier_stats(self) -> dict:
        """Scheduler-internal accounting (see :meth:`Simulator.kernel_stats`)."""
        return {
            "pending": self._size,
            "cancelled_pending": self._cancelled,
            "compactions": self.compactions,
            "lane_pops": self.lane_pops,
            "near_pops": self.near_pops,
            "far_pops": self.far_pops,
            "resequences": self.resequences,
        }

    def __len__(self) -> int:
        return self._size

    def __bool__(self) -> bool:
        return self._size > 0


class SimEvent:
    """A one-shot, waitable occurrence carrying a value or an exception.

    Lifecycle: *pending* → (``succeed`` | ``fail``) → *triggered*.
    Triggering twice is an error: it almost always indicates two components
    believe they own the same completion.
    """

    __slots__ = ("_sim", "_callbacks", "_triggered", "_value", "_exception", "name")

    def __init__(self, sim: Any, name: str = "") -> None:
        self._sim = sim
        self._callbacks: list[Tuple[Callable[..., None], Tuple[Any, ...]]] = []
        self._triggered = False
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.name = name

    @property
    def triggered(self) -> bool:
        """Whether the event has been succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """Whether the event was triggered successfully."""
        return self._triggered and self._exception is None

    @property
    def value(self) -> Any:
        """The success value; raises if the event failed or is pending."""
        if not self._triggered:
            raise SimulationError(f"event {self.name!r} has not been triggered")
        if self._exception is not None:
            raise self._exception
        return self._value

    @property
    def exception(self) -> Optional[BaseException]:
        """The failure exception, or ``None``."""
        return self._exception

    def succeed(self, value: Any = None) -> "SimEvent":
        """Trigger the event successfully, waking waiters with ``value``."""
        self._trigger(value, None)
        return self

    @property
    def waiter_count(self) -> int:
        """Callbacks currently registered (0 once triggered)."""
        return len(self._callbacks)

    def succeed_inline(self, value: Any = None) -> "SimEvent":
        """Trigger the event and run its single waiter synchronously.

        The whole-request-folded completion barrier: the caller must be
        executing at the exact ``(time, seq)`` slot where the unfolded
        path's ``call_soon`` dispatch of that one waiter would run, so
        invoking the callback inline elides one executed event without
        moving anything.  Only valid with at most one registered waiter
        — with more, each waiter gets its own seq slot in the unfolded
        timeline and inlining would merge them (callers check
        :attr:`waiter_count` and fall back to :meth:`succeed`).
        """
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        if len(self._callbacks) > 1:
            raise SimulationError(
                f"event {self.name!r} has {len(self._callbacks)} waiters; "
                "inline triggering is only seq-identical with one")
        self._triggered = True
        self._value = value
        callbacks, self._callbacks = self._callbacks, []
        for callback, args in callbacks:
            callback(self, *args)
        return self

    def fail(self, exception: BaseException) -> "SimEvent":
        """Trigger the event with an error, raising it in each waiter."""
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        self._trigger(None, exception)
        return self

    def _trigger(self, value: Any, exception: Optional[BaseException]) -> None:
        if self._triggered:
            raise SimulationError(f"event {self.name!r} triggered twice")
        self._triggered = True
        self._value = value
        self._exception = exception
        callbacks, self._callbacks = self._callbacks, []
        for callback, args in callbacks:
            # Callbacks run through the kernel "now" so that waiter wakeups
            # interleave with other same-time events deterministically.
            self._sim.call_soon(callback, self, *args)

    def add_callback(self, callback: Callable[..., None], *args: Any) -> None:
        """Run ``callback(event, *args)`` once triggered (immediately if
        already)."""
        if self._triggered:
            self._sim.call_soon(callback, self, *args)
        else:
            self._callbacks.append((callback, args))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "pending"
        if self._triggered:
            state = "failed" if self._exception is not None else "ok"
        return f"<SimEvent {self.name!r} {state}>"
