"""Event accounting: who is spending the simulator's events?

The kernel's throughput work (PR 1) made each event cheap; the folded
fast paths (``net/link.py``, ``core/pmnet_device.py``) make requests
*need fewer of them*.  This module is the measuring instrument for the
second axis: an opt-in :class:`EventProfiler` attached to a
:class:`~repro.sim.kernel.Simulator` attributes every executed event to
its call site (component class x callback method) so the dominant
events-per-request costs are visible instead of guessed.

Attribution is derived from the scheduled callback itself: a bound
method reports its ``__qualname__`` (e.g. ``Channel._deliver``), which
identifies both the component type and the pipeline step without any
per-callsite registration.  ``owner_name`` additionally resolves the
component *instance* (``self.name``) when per-component detail is
requested.

The profiler never affects simulation results: it observes executed
callbacks only, draws no randomness, and schedules nothing.

``pmnet-repro profile`` uses it to report where the events of one
Fig 16 stress point go, at either fold level.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Tuple


def call_site(callback: Callable[..., Any]) -> str:
    """The attribution key for one scheduled callback.

    Bound methods yield ``Class.method``; plain functions yield their
    qualified name; anything else falls back to ``repr``-ish naming.
    """
    qualname = getattr(callback, "__qualname__", None)
    if qualname is None:
        return type(callback).__name__
    return qualname


def owner_name(callback: Callable[..., Any]) -> str:
    """The component instance a bound callback belongs to, if any."""
    owner = getattr(callback, "__self__", None)
    if owner is None:
        return ""
    name = getattr(owner, "name", None)
    return name if isinstance(name, str) else type(owner).__name__


def format_kernel_stats(stats: Dict[str, object]) -> str:
    """One-line scheduler digest for profile reports.

    ``stats`` is :meth:`Simulator.kernel_stats` output: the scheduler
    name, heap pops, resequences, compaction sweeps and the live
    entries still queued.  Complements the per-call-site table: the
    table says *who* spent the events, this line says how much heap
    work served them.
    """
    return (f"scheduler: kernel={stats.get('kernel', '?')} "
            f"pops={stats.get('pops', 0)} "
            f"resequences={stats.get('resequences', 0)} "
            f"compactions={stats.get('compactions', 0)} "
            f"pending={stats.get('pending', 0)}")


class EventProfiler:
    """Counts executed events per call site (and per component).

    Attach with :meth:`Simulator.attach_profiler` *before* ``run()``;
    the kernel binds the profiler at loop entry so mid-run attachment
    takes effect on the next ``run()``/``step()`` call.
    """

    __slots__ = ("counts", "component_counts", "total", "per_component")

    def __init__(self, per_component: bool = False) -> None:
        #: call site -> executed events.
        self.counts: Dict[str, int] = {}
        #: (component instance, call site) -> executed events.
        self.component_counts: Dict[Tuple[str, str], int] = {}
        self.total = 0
        self.per_component = per_component

    # ------------------------------------------------------------------
    # Recording (called once per executed event by the kernel)
    # ------------------------------------------------------------------
    def record(self, callback: Callable[..., Any]) -> None:
        site = call_site(callback)
        counts = self.counts
        counts[site] = counts.get(site, 0) + 1
        self.total += 1
        if self.per_component:
            key = (owner_name(callback), site)
            self.component_counts[key] = self.component_counts.get(key, 0) + 1

    def reset(self) -> None:
        self.counts.clear()
        self.component_counts.clear()
        self.total = 0

    # ------------------------------------------------------------------
    # Reduction
    # ------------------------------------------------------------------
    def events_per_request(self, requests: int) -> float:
        """Total executed events amortized over ``requests`` completions."""
        if requests <= 0:
            raise ValueError(f"requests must be positive, got {requests}")
        return self.total / requests

    def top(self, n: int = 10) -> List[Tuple[str, int]]:
        """The ``n`` busiest call sites, descending by event count."""
        ranked = sorted(self.counts.items(), key=lambda kv: (-kv[1], kv[0]))
        return ranked[:n]

    def summary(self, requests: Optional[int] = None) -> Dict[str, object]:
        """A JSON-ready digest (total, per-site counts, events/request)."""
        digest: Dict[str, object] = {
            "total_events": self.total,
            "call_sites": dict(sorted(self.counts.items())),
        }
        if requests:
            digest["requests"] = requests
            digest["events_per_request"] = self.events_per_request(requests)
        return digest

    def format_table(self, requests: Optional[int] = None,
                     top: int = 15) -> str:
        """A human-readable report of where the events went."""
        lines = [f"{'events':>10}  {'share':>6}  call site"]
        total = max(1, self.total)
        for site, count in self.top(top):
            lines.append(f"{count:>10}  {count / total:>6.1%}  {site}")
        lines.append(f"{self.total:>10}  {'100%':>6}  TOTAL")
        if requests:
            lines.append(f"events/request: "
                         f"{self.events_per_request(requests):.2f} "
                         f"({requests} requests)")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<EventProfiler total={self.total} "
                f"sites={len(self.counts)}>")
