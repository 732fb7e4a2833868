"""Events and the pending-event queue of the discrete-event kernel.

Two kinds of "event" exist and are deliberately distinct:

* :class:`ScheduledCall` — a cancellable handle on a queued call: *at
  time T, invoke this callback with these args*.  Only ``schedule_at``
  and ``schedule_deferred`` build one; ``schedule`` and ``call_soon``
  queue a bare entry and return ``None``.
* :class:`SimEvent` — a one-shot synchronization object (in the style of
  simpy events or asyncio futures): processes wait on it; someone succeeds
  or fails it exactly once, waking all waiters with a value or an error.

The queue is the hottest data structure in the simulator.
:class:`EventQueue` is one binary heap of ``(time, seq, callback, args)``
tuples.  A call that needs a handle is queued as ``(time, seq, None,
handle)``: the ``None`` slot tells the drain to check the handle's
``cancelled`` and ``defer_ns`` before running ``handle.callback``.  Most
pushes never need a handle, so most events cost one tuple and no record
object.  The differential suite (``tests/sim``) checks the kernel
against a record-per-push ``(time, seq)`` heap kept there as the oracle.

**The ordering contract** (what every fold-identity and determinism
suite ultimately rests on):

1. every push allocates a monotonically increasing ``seq``, so the
   execution order is the exact total order by ``(time, seq)``; seqs
   are unique, so heap comparisons never reach the callback slot;
2. a handle's entry is never moved by revocation (``net/link.py``
   rewrites a folded handle's callback in place): its ``(time, seq)``
   is stable between push and pop;
3. cancelled handles never execute and never count;
4. a *deferred* handle re-sequences (fresh seq at its surfacing
   instant) instead of executing — see :class:`ScheduledCall` below.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError

#: Compaction trigger (the cancelled-entry purge): compact when more
#: cancelled handles than live entries linger in the heap *and* the
#: absolute count is worth the rebuild.  Mirrors asyncio's cancelled
#: timer-handle purge; retransmission-heavy chaos runs otherwise drag
#: thousands of dead entries through every sift.
COMPACT_MIN_CANCELLED = 64


class ScheduledCall:
    """A cancellable call queued at a fixed time.

    ``time`` is the call's current due time; its heap entry ``(time,
    seq, None, handle)`` orders it.

    ``defer_ns`` marks a *deferred* (latency-folded) call: it first
    surfaces at ``time`` — ordered by the seq allocated when it was
    scheduled, exactly like the intermediate callback it replaces — and
    the kernel then re-sequences it ``defer_ns`` later with a freshly
    allocated seq, never invoking a callback at the intermediate hop.
    Because both seq allocations happen at the same virtual instants as
    the unfolded two-event chain, same-nanosecond tie-breaking against
    unrelated events is preserved bit for bit; only the intermediate
    callback execution disappears.

    ``defer_ns`` may also be a *tuple* of delays — a chain of deferred
    hops.  Each re-sequencing consumes one element, allocating one seq
    per hop at the hop's virtual instant, so an n-delay fixed-latency
    pipeline collapses to a single executed event while remaining
    order-identical to the n-event original.

    ``owner`` is the queue currently holding the call (``None`` once
    popped to run): :meth:`cancel` notifies it so the pending count
    stays O(1)-exact and cancel-heavy schedules trigger compaction.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "defer_ns", "owner")

    def __init__(self, time: int, callback: Callable[..., None],
                 args: Tuple[Any, ...] = (), defer_ns: int = 0,
                 owner: Optional["EventQueue"] = None) -> None:
        self.time = time
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "cancelled" if self.cancelled else "pending"
        return f"<ScheduledCall t={self.time} {state}>"


class EventQueue:
    """The event scheduler: one binary heap, drained in ``(time, seq)``
    order.

    Entries are ``(time, seq, callback, args)`` tuples, or ``(time,
    seq, None, handle)`` for calls pushed with :meth:`push_handle`.
    Cancelled handles stay in the heap until they are popped or
    compacted away; ``_cancelled`` counts them, so ``len()`` — the live
    entries — is ``len(heap) - _cancelled``.

    The kernel's run loop pops the heap directly (see
    :meth:`Simulator.run`) and must settle handle entries exactly as
    :meth:`_settle` does; :meth:`pop` is the reference path.
    """

    __slots__ = ("_heap", "_next_seq", "_cancelled", "compactions", "pops",
                 "resequences")

    def __init__(self) -> None:
        self._heap: list = []
        #: Allocates the tie-breaking seq of every push and hop.
        self._next_seq = itertools.count().__next__
        self._cancelled = 0
        self.compactions = 0
        self.pops = 0
        self.resequences = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(self, time: int, callback: Callable[..., None],
             args: Tuple[Any, ...] = ()) -> None:
        """Enqueue ``callback(*args)`` to run at ``time`` (no handle)."""
        heapq.heappush(self._heap, (time, self._next_seq(), callback, args))

    def push_handle(self, time: int, callback: Callable[..., None],
                    args: Tuple[Any, ...] = (),
                    defer_ns=0) -> ScheduledCall:
        """Enqueue ``callback(*args)`` to run at ``time``; returns a
        cancellable handle.  A non-zero ``defer_ns`` makes it a
        latency-folded call that surfaces at ``time`` and runs after the
        ``defer_ns`` hop (or chain of hops, when a tuple) — see
        :class:`ScheduledCall`."""
        call = ScheduledCall(time, callback, args, defer_ns, self)
        heapq.heappush(self._heap, (time, self._next_seq(), None, call))
        return call

    def resequence(self, call: ScheduledCall) -> None:
        """Move a just-popped deferred call one hop along its chain.

        Allocates a fresh seq *now* — the same instant the unfolded
        intermediate callback would have scheduled the next one — so
        FIFO tie-breaking at each hop time is unchanged by folding.
        """
        defer = call.defer_ns
        if type(defer) is tuple:
            delay = defer[0]
            call.defer_ns = defer[1] if len(defer) == 2 else defer[1:]
        else:
            delay = defer
            call.defer_ns = 0
        time = call.time = call.time + delay
        heapq.heappush(self._heap, (time, self._next_seq(), None, call))
        self.resequences += 1

    # ------------------------------------------------------------------
    # Cancellation bookkeeping and compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued handle was cancelled: keep ``len()`` exact and purge
        when dead entries dominate the heap."""
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if (cancelled > COMPACT_MIN_CANCELLED
                and cancelled * 2 > len(self._heap)):
            self.compact()

    def compact(self) -> None:
        """Purge cancelled handles from the heap, in place (the run loop
        holds an alias).  The surviving ``(time, seq)`` order is
        untouched."""
        heap = self._heap
        heap[:] = [entry for entry in heap
                   if entry[2] is not None or not entry[3].cancelled]
        heapq.heapify(heap)
        self._cancelled = 0
        self.compactions += 1

    # ------------------------------------------------------------------
    # Consumption
    # ------------------------------------------------------------------
    def _settle(self, call: ScheduledCall) -> bool:
        """Settle a popped handle entry: drop it if cancelled, move it
        one hop if deferred (both return ``False``), else release it to
        run (``True``)."""
        if call.cancelled:
            self._cancelled -= 1
            return False
        if call.defer_ns:
            self.resequence(call)
            return False
        call.owner = None
        return True

    def pop(self) -> Tuple[int, Callable[..., None], Tuple[Any, ...]]:
        """Remove the earliest runnable call and return ``(time,
        callback, args)``.

        Cancelled handles are dropped and deferred ones re-sequenced on
        the way, exactly as the kernel's run loop does, so stepping and
        running drain identically.  Raises :class:`IndexError` when
        nothing is left to run.
        """
        heap = self._heap
        while heap:
            time, _, callback, args = heapq.heappop(heap)
            self.pops += 1
            if callback is not None:
                return time, callback, args
            if self._settle(args):
                return time, args.callback, args.args
        raise IndexError("pop from an empty event queue")

    def peek_time(self) -> Optional[int]:
        """Time of the earliest live entry, or ``None`` if empty.

        Cancelled heads are popped on the way (order-neutral)."""
        heap = self._heap
        while heap:
            entry = heap[0]
            if entry[2] is None and entry[3].cancelled:
                heapq.heappop(heap)
                self.pops += 1
                self._cancelled -= 1
                continue
            return entry[0]
        return None

    def stats(self) -> dict:
        """Scheduler accounting (see :meth:`Simulator.kernel_stats`)."""
        return {
            "pending": len(self),
            "cancelled_pending": self._cancelled,
            "compactions": self.compactions,
            "pops": self.pops,
            "resequences": self.resequences,
        }

    def __len__(self) -> int:
        return len(self._heap) - self._cancelled

    def __bool__(self) -> bool:
        return len(self._heap) > self._cancelled


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
