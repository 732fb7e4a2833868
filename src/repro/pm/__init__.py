"""Persistent-memory substrate: device timing, log queues, request log."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.pm.device": ("PMDevice",),
    "repro.pm.log": ("LogEntry", "LogRegion"),
    "repro.pm.queues": ("LogQueue",),
})

__all__ = ["PMDevice", "LogQueue", "LogRegion", "LogEntry"]
