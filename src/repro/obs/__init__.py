"""Unified observability: metrics registry, lifecycle spans, exporters.

See ``docs/observability.md`` for the full API tour.  The package is
one explicit, injected surface:

* :class:`MetricsRegistry` — components register typed instruments
  (``Counter``, ``Gauge``, :class:`Histogram`) via the
  ``instruments()`` protocol.
* :class:`SpanRecorder` — request-lifecycle and recovery-replay spans,
  recorded result-neutrally.
* Exporters — ``pmnet-repro-metrics/1`` JSON, Prometheus text format,
  and the shared ``pmnet-repro-bench/1`` benchmark envelope.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.obs.context": ("Observability",),
    "repro.obs.export": ("BENCH_SCHEMA", "METRICS_SCHEMA", "bench_envelope",
                         "config_digest", "metrics_payload",
                         "parse_prometheus", "to_prometheus",
                         "validate_bench_report", "validate_metrics",
                         "write_bench_report"),
    "repro.obs.registry": ("DuplicateInstrumentError", "Histogram",
                           "MetricsRegistry", "register_with_sim"),
    "repro.obs.spans": ("Span", "SpanRecorder", "lifecycle_groups",
                        "spans_for", "stage_deltas"),
})

__all__ = [
    "Observability",
    "MetricsRegistry", "Histogram", "DuplicateInstrumentError",
    "register_with_sim",
    "Span", "SpanRecorder", "spans_for", "lifecycle_groups", "stage_deltas",
    "METRICS_SCHEMA", "BENCH_SCHEMA",
    "metrics_payload", "validate_metrics",
    "to_prometheus", "parse_prometheus",
    "bench_envelope", "validate_bench_report", "write_bench_report",
    "config_digest",
]
