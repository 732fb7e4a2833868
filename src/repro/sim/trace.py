"""Structured trace log for debugging simulated runs.

A :class:`Tracer` collects ``(time, component, event, details)`` records.
It is off by default (zero overhead beyond an ``if``); experiments and
tests enable it to assert on causal sequences, and the CLI can dump it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional

from repro.sim.clock import format_time


@dataclass(frozen=True)
class TraceRecord:
    """One traced occurrence inside the simulation."""

    time_ns: int
    component: str
    event: str
    details: Dict[str, Any] = field(default_factory=dict)

    def __str__(self) -> str:
        detail = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"[{format_time(self.time_ns)}] {self.component}: {self.event} {detail}".rstrip()


class Tracer:
    """Collects :class:`TraceRecord` entries when enabled."""

    def __init__(self, enabled: bool = False, capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.records: List[TraceRecord] = []
        self.dropped = 0

    def emit(self, time_ns: int, component: str, event: str, **details: Any) -> None:
        """Record one occurrence (no-op when disabled)."""
        if not self.enabled:
            return
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.dropped += 1
            return
        self.records.append(TraceRecord(time_ns, component, event, details))

    def filter(self, component: Optional[str] = None,
               event: Optional[str] = None) -> Iterator[TraceRecord]:
        """Iterate records matching the given component and/or event name."""
        for record in self.records:
            if component is not None and record.component != component:
                continue
            if event is not None and record.event != event:
                continue
            yield record

    def count(self, component: Optional[str] = None,
              event: Optional[str] = None) -> int:
        return sum(1 for _record in self.filter(component, event))

    def clear(self) -> None:
        self.records.clear()
        self.dropped = 0

    def dump(self) -> str:
        """All records as one newline-joined string."""
        return "\n".join(str(record) for record in self.records)

