"""Coroutine processes on top of the event kernel.

A *process* is a Python generator that models a sequential activity in
simulated time (a client issuing requests, a server draining a queue).  The
generator yields things it wants to wait for:

* ``int`` — sleep that many nanoseconds;
* :class:`~repro.sim.event.SimEvent` — wait until the event triggers; the
  ``yield`` expression evaluates to the event's value (or raises its
  exception inside the generator, where it can be caught);
* :class:`AllOf` / :class:`AnyOf` — composite waits.

A process is itself waitable: other processes may ``yield proc.completion``
to join it.  ``interrupt()`` raises :class:`Interrupted` inside the process
at its current wait point — used by the failure injector to kill hosts.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.errors import ProcessError
from repro.sim.event import SimEvent

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Interrupted(Exception):
    """Raised inside a process that has been interrupted.

    The ``cause`` attribute carries whatever the interrupter supplied
    (e.g. a failure description).
    """

    def __init__(self, cause: Any = None) -> None:
        super().__init__(f"process interrupted: {cause!r}")
        self.cause = cause


class AllOf:
    """Composite wait: resumes when *all* given events have triggered.

    The yield expression evaluates to a list of the events' values in the
    order given.  If any event fails, the first failure propagates.
    """

    __slots__ = ("events",)

    def __init__(self, events: Sequence[SimEvent]) -> None:
        self.events = list(events)


class AnyOf:
    """Composite wait: resumes when *any* given event triggers.

    The yield expression evaluates to ``(index, value)`` of the first event
    to trigger.  A failure of the first-triggering event propagates.
    """

    __slots__ = ("events",)

    def __init__(self, events: Sequence[SimEvent]) -> None:
        self.events = list(events)


class Process:
    """A running coroutine bound to a simulator.

    Created via :meth:`repro.sim.kernel.Simulator.spawn`.
    """

    def __init__(self, sim: "Simulator", generator: Iterator[Any],
                 name: str = "") -> None:
        if not hasattr(generator, "send"):
            raise ProcessError(
                f"spawn() needs a generator, got {type(generator).__name__}; "
                "did you call the process function without arguments?")
        self._sim = sim
        self._generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        #: Triggers when the process returns (value) or raises (exception).
        self.completion = SimEvent(sim, f"completion:{self.name}")
        self._waiting_on: Optional[SimEvent] = None
        self._sleep_handle = None
        self._interrupt_pending: Optional[Interrupted] = None
        # First resume happens "now" so spawn order controls run order.
        sim.call_soon(self._resume, None, None)

    # ------------------------------------------------------------------
    @property
    def alive(self) -> bool:
        """Whether the process is still executing."""
        return not self.completion.triggered

    def interrupt(self, cause: Any = None) -> None:
        """Raise :class:`Interrupted` inside the process at its wait point."""
        if not self.alive:
            return
        exc = Interrupted(cause)
        if self._sleep_handle is not None:
            # Sleeping on a plain delay: cancel the wakeup and resume with
            # the interrupt instead.
            self._sleep_handle.cancel()
            self._sleep_handle = None
            self._sim.call_soon(self._resume, None, exc)
        elif self._waiting_on is not None:
            waited, self._waiting_on = self._waiting_on, None
            # Detach by resuming with the interrupt instead of the event.
            self._sim.call_soon(self._resume, None, exc)
        else:
            # Not yet waiting (e.g. interrupt before first resume): remember.
            self._interrupt_pending = exc

    # ------------------------------------------------------------------
    def _resume(self, value: Any, exc: Optional[BaseException]) -> None:
        if self.completion.triggered:
            return
        if self._interrupt_pending is not None and exc is None:
            exc, self._interrupt_pending = self._interrupt_pending, None
        try:
            if exc is not None:
                target = self._generator.throw(exc)
            else:
                target = self._generator.send(value)
        except StopIteration as stop:
            self.completion.succeed(stop.value)
            return
        except Interrupted as interrupted:
            # An uncaught interrupt terminates the process quietly: it is
            # the normal way the failure injector kills host processes.
            self.completion.succeed(interrupted)
            return
        except Exception as error:
            self.completion.fail(ProcessError(
                f"process {self.name!r} raised {error!r}").with_traceback(
                    error.__traceback__))
            raise
        self._wait_for(target)

    def _wait_for(self, target: Any) -> None:
        if isinstance(target, int):
            # Plain delay: schedule the resume directly instead of minting
            # a timeout SimEvent (saves an event and two allocations on
            # the most common wait in the system).  ``schedule_at``, not
            # ``schedule``: ``interrupt`` cancels the wakeup by handle.
            sim = self._sim
            self._sleep_handle = sim.schedule_at(sim.now + target,
                                                 self._end_sleep)
            return
        if isinstance(target, Process):
            target = target.completion
        if isinstance(target, AllOf):
            target = _all_of(self._sim, target.events)
        elif isinstance(target, AnyOf):
            target = _any_of(self._sim, target.events)
        if not isinstance(target, SimEvent):
            self._resume(None, ProcessError(
                f"process {self.name!r} yielded unwaitable {target!r}"))
            return
        self._waiting_on = target
        target.add_callback(self._on_event)

    def _end_sleep(self) -> None:
        self._sleep_handle = None
        self._resume(None, None)

    def _on_event(self, event: SimEvent) -> None:
        if self._waiting_on is not event:
            return  # stale wakeup after an interrupt detached us
        self._waiting_on = None
        if event.exception is not None:
            self._resume(None, event.exception)
        else:
            self._resume(event.value, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "alive" if self.alive else "done"
        return f"<Process {self.name!r} {state}>"


def _all_of(sim: "Simulator", events: Sequence[SimEvent]) -> SimEvent:
    """Combine events into one that succeeds when all succeed."""
    combined = SimEvent(sim, "all_of")
    if not events:
        combined.succeed([])
        return combined
    remaining = {"count": len(events)}

    def on_done(_event: SimEvent) -> None:
        if combined.triggered:
            return
        failed = next((e for e in events
                       if e.triggered and e.exception is not None), None)
        if failed is not None:
            combined.fail(failed.exception)  # type: ignore[arg-type]
            return
        remaining["count"] -= 1
        if remaining["count"] == 0:
            combined.succeed([e.value for e in events])

    for event in events:
        event.add_callback(on_done)
    return combined


def _any_of(sim: "Simulator", events: Sequence[SimEvent]) -> SimEvent:
    """Combine events into one that succeeds when the first succeeds."""
    combined = SimEvent(sim, "any_of")
    if not events:
        raise ProcessError("AnyOf requires at least one event")

    def on_done(event: SimEvent) -> None:
        if combined.triggered:
            return
        if event.exception is not None:
            combined.fail(event.exception)
        else:
            combined.succeed((events.index(event), event.value))

    for event in events:
        event.add_callback(on_done)
    return combined
