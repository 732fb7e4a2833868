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

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.sim.clock": ("MICROSECOND", "MILLISECOND", "NANOSECOND",
                        "SECOND", "format_time", "microseconds",
                        "milliseconds", "nanoseconds", "seconds",
                        "to_microseconds", "to_milliseconds", "to_seconds",
                        "transmission_delay"),
    "repro.sim.event": ("EventQueue", "ScheduledCall", "SimEvent"),
    "repro.sim.kernel": ("Simulator",),
    "repro.sim.monitor": ("Counter", "Gauge", "LatencyRecorder",
                          "ThroughputMeter", "TimeSeries",
                          "instruments_summary"),
    "repro.sim.process": ("AllOf", "AnyOf", "Interrupted", "Process"),
    "repro.sim.profiler": ("EventProfiler",),
    "repro.sim.rand": ("LatencyJitter", "RandomStreams", "choose_weighted",
                       "exponential_delay", "zipfian_ranks"),
    "repro.sim.trace": ("TraceRecord", "Tracer"),
})

__all__ = [
    "NANOSECOND", "MICROSECOND", "MILLISECOND", "SECOND",
    "nanoseconds", "microseconds", "milliseconds", "seconds",
    "to_microseconds", "to_milliseconds", "to_seconds",
    "format_time", "transmission_delay",
    "EventQueue", "ScheduledCall", "SimEvent", "Simulator",
    "Process", "AllOf", "AnyOf", "Interrupted",
    "Counter", "Gauge", "LatencyRecorder", "ThroughputMeter", "TimeSeries",
    "instruments_summary", "EventProfiler",
    "RandomStreams", "LatencyJitter", "zipfian_ranks",
    "exponential_delay", "choose_weighted",
    "Tracer", "TraceRecord",
]
