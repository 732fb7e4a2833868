"""Request-lifecycle spans: per-request stage timestamps.

A :class:`SpanRecorder` collects, per request, the ordered list of
``(stage, time_ns)`` milestones the request passed on its way through
the system — client send, switch forward, PMNet log write, PMNet-ACK,
server handler, server-ACK, log invalidate, completion — plus recovery
replay spans.  The design constraints (both load-bearing):

* **Result-neutral.**  Recording never schedules events, draws
  randomness, or touches component state: it appends a tuple to a list.
  A run with spans on is byte-identical to the same run with spans off:
  every hook sits on a callback that executes anyway, and records
  ``sim.now``.
* **Zero-cost-when-off.**  Components resolve the recorder once at
  construction (``spans_for(sim)``); with observability absent or spans
  disabled they hold ``None`` and the hot paths pay one ``is not None``
  check.

Stage timestamps of one request telescope: the sum of consecutive stage
deltas between ``client_send`` and ``completed`` equals the end-to-end
latency *exactly* (integer nanoseconds, no estimation) — which is what
lets ``pmnet-repro metrics`` reproduce Fig 2's breakdown from spans and
cross-check it against the driver's measured latencies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Hashable, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator

# Canonical stage names.  Request-path milestones:
CLIENT_SEND = "client_send"
SWITCH_FORWARD = "switch_forward"      # request-direction switch hop
SWITCH_RETURN = "switch_return"        # ACK/response-direction switch hop
LOG_WRITE = "log_write"                # PMNet PM-access stage ran
PMNET_ACK = "pmnet_ack"                # log write durable, early ACK made
SERVER_HANDLER = "server_handler"      # server applied the operation
SERVER_ACK = "server_ack"              # server-ACK (invalidates logs en route)
SERVER_RESPONSE = "server_response"    # read/bypass response sent
LOG_INVALIDATE = "log_invalidate"      # device dropped the log entry
CLIENT_COMPLETE = "client_complete"    # client library saw persistence
COMPLETED = "completed"                # application woke up (dispatch cost)

# Recovery replay milestones:
REPLAY_START = "replay_start"
REPLAY_RESEND = "replay_resend"
REPLAY_DONE = "replay_done"

#: Span kinds.
REQUEST = "request"
RECOVERY = "recovery"


class Span:
    """One request's (or replay's) ordered milestone list."""

    __slots__ = ("key", "kind", "events")

    def __init__(self, key: Hashable, kind: str = REQUEST) -> None:
        self.key = key
        self.kind = kind
        #: ``(stage, time_ns)`` in recording order.  The simulator clock
        #: is monotonic, so this is also chronological order.
        self.events: List[Tuple[str, int]] = []

    @property
    def start_ns(self) -> Optional[int]:
        return self.events[0][1] if self.events else None

    @property
    def end_ns(self) -> Optional[int]:
        return self.events[-1][1] if self.events else None

    def stages(self) -> List[str]:
        return [stage for stage, _time in self.events]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Span {self.key!r} {self.kind} events={len(self.events)}>"


class SpanRecorder:
    """Collects :class:`Span` milestones when enabled.

    ``capacity`` bounds the number of *spans* retained; milestones for
    already-open spans are always recorded so every retained span stays
    complete (a truncated span would silently corrupt the breakdown).
    Refused span openings count in :attr:`dropped`.
    """

    def __init__(self, enabled: bool = True,
                 capacity: Optional[int] = None) -> None:
        self.enabled = enabled
        self.capacity = capacity
        self.dropped = 0
        self._spans: Dict[Hashable, Span] = {}

    def record(self, key: Hashable, stage: str, time_ns: int,
               kind: str = REQUEST) -> None:
        """Append one milestone (no-op when disabled)."""
        if not self.enabled:
            return
        span = self._spans.get(key)
        if span is None:
            if self.capacity is not None and len(self._spans) >= self.capacity:
                self.dropped += 1
                return
            span = Span(key, kind)
            self._spans[key] = span
        span.events.append((stage, time_ns))

    # ------------------------------------------------------------------
    def get(self, key: Hashable) -> Optional[Span]:
        return self._spans.get(key)

    def spans(self, kind: Optional[str] = None) -> List[Span]:
        if kind is None:
            return list(self._spans.values())
        return [span for span in self._spans.values() if span.kind == kind]

    def __len__(self) -> int:
        return len(self._spans)

    def clear(self) -> None:
        self._spans.clear()
        self.dropped = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "on" if self.enabled else "off"
        return (f"<SpanRecorder {state} spans={len(self._spans)} "
                f"dropped={self.dropped}>")


def spans_for(sim: "Simulator") -> Optional[SpanRecorder]:
    """The simulator's span recorder, or ``None`` when recording is off.

    Components call this once at construction and keep the result; a
    ``None`` means the per-event hook is a single falsy check.
    """
    obs = getattr(sim, "obs", None)
    if obs is None:
        return None
    spans = obs.spans
    if spans is None or not spans.enabled:
        return None
    return spans


def lifecycle_groups(recorder: SpanRecorder,
                     start_stage: str = CLIENT_SEND,
                     end_stage: str = COMPLETED) -> Tuple[List[dict], int]:
    """Aggregate request spans into per-signature stage breakdowns.

    Each complete span is cut to the window from its first
    ``start_stage`` to the first ``end_stage`` after it; spans sharing
    the same stage signature (the tuple of stage names in that window)
    aggregate together.  Within one group, ``sum(stage total_ns) ==
    end_to_end total_ns`` holds exactly by telescoping — the exporters
    validate it and the metrics CLI refuses to emit a breakdown that
    violates it.

    Note that under early acknowledgement (PMNet-ACK) the server-side
    milestones can land *inside* the client's completion window; they
    then appear as stages of the signature.  The decomposition stays an
    exact partition of the end-to-end latency — the deltas are simply
    time-to-next-milestone, whichever path the milestone belongs to.

    Returns ``(groups, incomplete)`` where ``incomplete`` counts request
    spans without a full window (e.g. still in flight at run end).
    """
    buckets: Dict[Tuple[str, ...], dict] = {}
    incomplete = 0
    for span in recorder.spans(kind=REQUEST):
        events = span.events
        start = next((i for i, (stage, _t) in enumerate(events)
                      if stage == start_stage), None)
        if start is None:
            incomplete += 1
            continue
        end = next((i for i, (stage, _t) in enumerate(events)
                    if stage == end_stage and i > start), None)
        if end is None:
            incomplete += 1
            continue
        window = events[start:end + 1]
        signature = tuple(stage for stage, _t in window)
        bucket = buckets.get(signature)
        if bucket is None:
            bucket = {"signature": signature, "requests": 0,
                      "stage_totals": [0] * (len(signature) - 1),
                      "end_to_end_total": 0}
            buckets[signature] = bucket
        bucket["requests"] += 1
        totals = bucket["stage_totals"]
        for i in range(len(window) - 1):
            totals[i] += window[i + 1][1] - window[i][1]
        bucket["end_to_end_total"] += window[-1][1] - window[0][1]

    groups = []
    for signature in sorted(buckets, key=lambda s: (-buckets[s]["requests"], s)):
        bucket = buckets[signature]
        n = bucket["requests"]
        stages = [{"from": signature[i], "to": signature[i + 1],
                   "total_ns": total, "mean_ns": total / n}
                  for i, total in enumerate(bucket["stage_totals"])]
        groups.append({
            "signature": list(signature),
            "requests": n,
            "stages": stages,
            "end_to_end": {"total_ns": bucket["end_to_end_total"],
                           "mean_ns": bucket["end_to_end_total"] / n},
        })
    return groups, incomplete


def stage_deltas(recorder: SpanRecorder,
                 start_stage: str = CLIENT_SEND,
                 end_stage: str = COMPLETED) -> Dict[Tuple[str, str], List[int]]:
    """Raw per-request deltas per ``(from, to)`` transition, merged over
    all signature groups — feeds the per-stage :class:`Histogram`s."""
    deltas: Dict[Tuple[str, str], List[int]] = {}
    for span in recorder.spans(kind=REQUEST):
        events = span.events
        start = next((i for i, (stage, _t) in enumerate(events)
                      if stage == start_stage), None)
        if start is None:
            continue
        end = next((i for i, (stage, _t) in enumerate(events)
                    if stage == end_stage and i > start), None)
        if end is None:
            continue
        for i in range(start, end):
            key = (events[i][0], events[i + 1][0])
            deltas.setdefault(key, []).append(events[i + 1][1] - events[i][1])
    return deltas
