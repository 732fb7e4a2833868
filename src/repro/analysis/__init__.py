"""Analysis: statistics, the Fig 2 breakdown, BDP sizing, reporting."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.analysis.bdp": ("BDPResult", "network_bdp", "pm_queue_bdp",
                           "scaling_table"),
    "repro.analysis.breakdown": ("Breakdown", "update_request_breakdown"),
    "repro.analysis.persistcheck": ("PersistenceChecker", "Violation"),
    "repro.analysis.report": ("dict_rows", "format_cdf", "format_series",
                              "format_table"),
    "repro.analysis.stats": ("cdf_points", "crossover_fraction",
                             "geometric_mean", "mean", "percentile",
                             "speedup", "stddev"),
})

__all__ = [
    "network_bdp", "pm_queue_bdp", "scaling_table", "BDPResult",
    "Breakdown", "update_request_breakdown",
    "PersistenceChecker", "Violation",
    "format_table", "format_series", "format_cdf", "dict_rows",
    "mean", "percentile", "stddev", "geometric_mean", "speedup",
    "cdf_points", "crossover_fraction",
]
