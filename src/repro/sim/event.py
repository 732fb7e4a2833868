"""Events and the pending-event queue of the discrete-event kernel.

Two kinds of "event" exist and are deliberately distinct:

* :class:`ScheduledCall` — a cancellable handle on a queued call: *at
  time T, invoke this callback with these args*.  Only ``schedule_at``
  builds one; ``schedule`` and ``call_soon`` queue a bare entry and
  return ``None``.
* :class:`SimEvent` — a one-shot synchronization object (in the style of
  simpy events or asyncio futures): processes wait on it; someone succeeds
  or fails it exactly once, waking all waiters with a value or an error.

The queue is the hottest data structure in the simulator.
:class:`EventQueue` is one binary heap holding two kinds of entry:

* ``(time, seq, callback, args)`` — a bare call, the common case;
* ``(time, seq, None, handle)`` — a call that needs a handle: the drain
  drops it if ``handle.cancelled``, else runs ``handle.callback``.

Most pushes need no handle, so most events cost one tuple and no record
object.  The differential suite (``tests/sim``) checks the kernel
against a record-per-push ``(time, seq)`` heap kept there as the oracle.

**The ordering contract** (what every identity and determinism suite
ultimately rests on):

1. every push allocates a monotonically increasing ``seq``, so the
   execution order is the exact total order by ``(time, seq)``; seqs
   are unique, so heap comparisons never reach the callback slot;
2. a queued entry is never moved: its ``(time, seq)`` is stable
   between push and pop;
3. cancelled handles never execute and never count.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Any, Callable, Optional, Tuple

from repro.errors import SimulationError

#: Compaction trigger (the cancelled-entry purge): compact when
#: cancelled handles exceed one-eighth of the heap *and* this floor,
#: so the rebuild is worth its cost.  Like asyncio's cancelled
#: timer-handle purge, but tighter: a client's 1 ms retransmission
#: timer outlives its ~25 µs request about forty times over, so with a
#: one-half trigger the dead timers made up a third of the heap and
#: every sift walked past them.  Each compaction removes more than
#: one-eighth of the heap, so its O(n) cost stays O(1) per cancel.
COMPACT_MIN_CANCELLED = 64


class ScheduledCall:
    """A cancellable call queued at a fixed time.

    ``time`` is the call's due time; its heap entry ``(time, seq, None,
    handle)`` orders it.  Only :meth:`Simulator.schedule_at` builds
    one.

    ``owner`` is the queue currently holding the call (``None`` once
    popped to run): :meth:`cancel` notifies it so the pending count
    stays O(1)-exact and cancel-heavy schedules trigger compaction.

    :meth:`cancel` also drops ``callback`` and ``args`` (to ``None`` and
    ``()``): a cancelled call never runs, and every reader of a queued
    handle tests ``cancelled`` first.  A cancelled retransmission timer
    therefore stops holding its request's state (packets, completion
    event) for the rest of its time in the heap.
    """

    __slots__ = ("time", "callback", "args", "cancelled", "owner")

    def __init__(self, time: int, callback: Callable[..., None],
                 args: Tuple[Any, ...] = (),
                 owner: Optional["EventQueue"] = None) -> None:
        self.time = time
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.owner = owner

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives, and
        release what it would have been called with."""
        if not self.cancelled:
            self.cancelled = True
            self.callback = None
            self.args = ()
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
    :meth:`pop` does; :meth:`pop` is the reference path.
    """

    __slots__ = ("_heap", "_next_seq", "_cancelled", "compactions", "pops")

    def __init__(self) -> None:
        self._heap: list = []
        #: Allocates the tie-breaking seq of every push.
        self._next_seq = itertools.count().__next__
        self._cancelled = 0
        self.compactions = 0
        self.pops = 0

    # ------------------------------------------------------------------
    # Insertion
    # ------------------------------------------------------------------
    def push(self, time: int, callback: Callable[..., None],
             args: Tuple[Any, ...] = ()) -> None:
        """Enqueue ``callback(*args)`` to run at ``time`` (no handle)."""
        heapq.heappush(self._heap, (time, self._next_seq(), callback, args))

    def push_handle(self, time: int, callback: Callable[..., None],
                    args: Tuple[Any, ...] = ()) -> ScheduledCall:
        """Enqueue ``callback(*args)`` to run at ``time``; returns a
        cancellable handle."""
        call = ScheduledCall(time, callback, args, self)
        heapq.heappush(self._heap, (time, self._next_seq(), None, call))
        return call

    # ------------------------------------------------------------------
    # Cancellation bookkeeping and compaction
    # ------------------------------------------------------------------
    def _note_cancel(self) -> None:
        """A queued handle was cancelled: keep ``len()`` exact and purge
        once dead entries pass one-eighth of the heap."""
        cancelled = self._cancelled + 1
        self._cancelled = cancelled
        if (cancelled > COMPACT_MIN_CANCELLED
                and cancelled * 8 > len(self._heap)):
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
        """Settle a popped handle entry: drop it if cancelled (returns
        ``False``), else release it to run (``True``)."""
        if call.cancelled:
            self._cancelled -= 1
            return False
        call.owner = None
        return True

    def pop(self) -> Tuple[int, Callable[..., None], Tuple[Any, ...]]:
        """Remove the earliest runnable call and return ``(time,
        callback, args)``.

        Cancelled handles are dropped on the way, exactly as the
        kernel's run loop does, so stepping and running drain
        identically.  Raises :class:`IndexError` when nothing is left
        to run.
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
