"""Discrete-event simulation kernel (clock, events, processes, monitors).

This is the foundation every other subsystem runs on.  Typical use::

    from repro.sim import Simulator, microseconds

    sim = Simulator(seed=42)

    def client():
        yield microseconds(5)          # sleep 5 us of simulated time
        done.succeed("hello")

    done = sim.event("done")
    sim.spawn(client())
    sim.run()
"""

from repro.sim.clock import (
    MICROSECOND,
    MILLISECOND,
    NANOSECOND,
    SECOND,
    format_time,
    microseconds,
    milliseconds,
    nanoseconds,
    seconds,
    to_microseconds,
    to_milliseconds,
    to_seconds,
    transmission_delay,
)
from repro.sim.event import ScheduledCall, SimEvent, TieredEventQueue
from repro.sim.kernel import Simulator
from repro.sim.monitor import (
    Counter,
    Gauge,
    LatencyRecorder,
    ThroughputMeter,
    TimeSeries,
    component_summary,
    instruments_summary,
)
from repro.sim.process import AllOf, AnyOf, Interrupted, Process
from repro.sim.profiler import EventProfiler
from repro.sim.rand import (
    LatencyJitter,
    RandomStreams,
    choose_weighted,
    exponential_delay,
    zipfian_ranks,
)
from repro.sim.trace import TraceRecord, Tracer


def __getattr__(name: str):
    # Deprecated: GLOBAL_TRACER survives as a lazy re-export so old
    # imports keep working (with a DeprecationWarning) for one release
    # without the warning firing at package-import time.
    if name == "GLOBAL_TRACER":
        from repro.sim import trace

        return trace.GLOBAL_TRACER
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND",
    "nanoseconds", "microseconds", "milliseconds", "seconds",
    "to_microseconds", "to_milliseconds", "to_seconds",
    "format_time", "transmission_delay",
    "TieredEventQueue", "ScheduledCall", "SimEvent", "Simulator",
    "Process", "AllOf", "AnyOf", "Interrupted",
    "Counter", "Gauge", "LatencyRecorder", "ThroughputMeter", "TimeSeries",
    "component_summary", "instruments_summary", "EventProfiler",
    "RandomStreams", "LatencyJitter", "zipfian_ranks",
    "exponential_delay", "choose_weighted",
    "Tracer", "TraceRecord",
]
