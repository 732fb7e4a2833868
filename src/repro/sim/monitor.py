"""Measurement utilities: counters, latency recorders, time series.

Experiments attach these to components and read them back after the run.
They are deliberately simulation-agnostic (plain numbers in, summaries
out) so the analysis layer can also use them on non-simulated data.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional, Tuple

#: Sentinel for "no default supplied" (``None`` is a legitimate default).
_UNSET = object()


class Counter:
    """A named monotonically-increasing event counter."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def increment(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def rollback(self, amount: int) -> None:
        """Undo a prior :meth:`increment` (e.g. a revoked channel
        reservation that re-counts when the send actually happens)."""
        if amount < 0 or amount > self.value:
            raise ValueError(
                f"cannot roll back {amount} from counter at {self.value}")
        self.value -= amount

    def __int__(self) -> int:
        return self.value

    def summary(self) -> Dict[str, object]:
        """The unified ``{"name", "kind", ...}`` summary shape."""
        return {"name": self.name, "kind": self.kind, "value": self.value}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A named level with a high-water mark (queue depths, occupancy).

    Unlike :class:`Counter` it goes up *and* down; the high-water mark
    records the worst pressure seen, which is what congestion
    experiments report (a drop count says packets died, the high-water
    mark says how close the queue came to killing them).
    """

    __slots__ = ("name", "value", "highwater")

    kind = "gauge"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0
        self.highwater = 0

    def update(self, value: int) -> None:
        """Set the current level, tracking the high-water mark."""
        if value < 0:
            raise ValueError(f"gauge level must be >= 0, got {value}")
        self.value = value
        if value > self.highwater:
            self.highwater = value

    def __int__(self) -> int:
        return self.value

    def summary(self) -> Dict[str, object]:
        """The unified ``{"name", "kind", ...}`` summary shape."""
        return {"name": self.name, "kind": self.kind, "value": self.value,
                "highwater": self.highwater}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<Gauge {self.name}={self.value} high={self.highwater}>"


def instruments_summary(instruments: Iterable[object]) -> Dict[str, int]:
    """Flatten counters/gauges into one ``{short_name: value}`` dict.

    The short name is the instrument name's last dot-separated segment
    (instrument names are ``"{component}.{metric}"``); gauges contribute
    both their level and ``{short_name}_highwater``.  This is the flat
    shape component ``summary()`` helpers report.
    """
    summary: Dict[str, int] = {}
    for instrument in instruments:
        short = instrument.name.rsplit(".", 1)[-1]  # type: ignore[attr-defined]
        if isinstance(instrument, Gauge):
            summary[short] = instrument.value
            summary[f"{short}_highwater"] = instrument.highwater
        elif isinstance(instrument, Counter):
            summary[short] = instrument.value
    return summary


class LatencyRecorder:
    """Collects latency samples and summarizes them.

    Stores raw samples (simulations here are small enough that exact
    percentiles beat streaming sketches for clarity and testability).
    """

    kind = "histogram"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples: List[int] = []
        self._sorted: Optional[List[int]] = None

    def record(self, latency_ns: int) -> None:
        """Add one sample (non-negative nanoseconds)."""
        if latency_ns < 0:
            raise ValueError(f"latency must be >= 0, got {latency_ns}")
        self._samples.append(latency_ns)
        self._sorted = None

    def extend(self, samples: Iterable[int]) -> None:
        for sample in samples:
            self.record(sample)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> List[int]:
        """The raw samples, in arrival order (a copy)."""
        return list(self._samples)

    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        return sum(self._samples) / len(self._samples)

    def percentile(self, pct: float) -> int:
        """Exact percentile via the nearest-rank method."""
        if not self._samples:
            raise ValueError(f"no samples recorded in {self.name!r}")
        if not 0.0 <= pct <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {pct}")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        if pct == 0.0:
            return self._sorted[0]
        rank = math.ceil(pct / 100.0 * len(self._sorted))
        return self._sorted[rank - 1]

    def median(self) -> int:
        return self.percentile(50.0)

    def p99(self) -> int:
        return self.percentile(99.0)

    def maximum(self) -> int:
        return self.percentile(100.0)

    def minimum(self) -> int:
        return self.percentile(0.0)

    def cdf(self, points: int = 200) -> List[Tuple[int, float]]:
        """The empirical CDF as ``(latency_ns, fraction)`` pairs.

        Downsamples to at most ``points`` evenly spaced quantiles so plots
        and reports stay small regardless of sample count.
        """
        if not self._samples:
            return []
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        n = len(self._sorted)
        if n <= points:
            return [(value, (i + 1) / n) for i, value in enumerate(self._sorted)]
        curve = []
        for i in range(points):
            frac = (i + 1) / points
            idx = min(n - 1, math.ceil(frac * n) - 1)
            curve.append((self._sorted[idx], frac))
        return curve

    def summary(self) -> Dict[str, object]:
        """The unified ``{"name", "kind", ...}`` summary (nanoseconds).

        Never raises: with zero samples the statistics are ``None``
        (matching :class:`ThroughputMeter`'s degenerate-window summary)
        rather than the ``ValueError`` the point accessors raise.
        """
        empty = not self._samples
        return {
            "name": self.name,
            "kind": self.kind,
            "count": self.count,
            "mean": None if empty else self.mean(),
            "p50": None if empty else float(self.median()),
            "p99": None if empty else float(self.p99()),
            "min": None if empty else float(self.minimum()),
            "max": None if empty else float(self.maximum()),
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<LatencyRecorder {self.name!r} n={self.count}>"


class ThroughputMeter:
    """Counts completions over simulated time and reports ops/second."""

    kind = "meter"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.completions = 0
        self._first_ns: Optional[int] = None
        self._last_ns: Optional[int] = None

    def record(self, now_ns: int) -> None:
        """Register one completion at simulated time ``now_ns``."""
        if self._first_ns is None:
            self._first_ns = now_ns
        self._last_ns = now_ns
        self.completions += 1

    def ops_per_second(self, default: object = _UNSET) -> float:
        """Completions per simulated second over the observed window.

        A rate needs at least two spread-out completions; below that,
        ``default`` is returned when supplied (so summaries and smoke
        runs degrade gracefully) and :class:`ValueError` is raised when
        not (the historical contract — a real experiment asking for a
        throughput it cannot have is a bug worth surfacing).
        """
        if self.completions < 2 or self._first_ns == self._last_ns:
            if default is not _UNSET:
                return default  # type: ignore[return-value]
            raise ValueError(
                f"need >= 2 spread-out completions in {self.name!r} to "
                "compute throughput")
        window_ns = self._last_ns - self._first_ns  # type: ignore[operator]
        return (self.completions - 1) * 1e9 / window_ns

    def summary(self) -> Dict[str, object]:
        """The unified ``{"name", "kind", ...}`` summary shape.

        ``ops_per_second`` is ``None`` when the window is degenerate.
        """
        return {"name": self.name, "kind": self.kind,
                "count": self.completions,
                "ops_per_second": self.ops_per_second(default=None)}


class TimeSeries:
    """Records ``(time_ns, value)`` observations for later inspection."""

    kind = "timeseries"

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.points: List[Tuple[int, float]] = []

    def record(self, now_ns: int, value: float) -> None:
        if self.points and now_ns < self.points[-1][0]:
            raise ValueError("time series observations must be monotonic")
        self.points.append((now_ns, value))

    def values(self) -> List[float]:
        return [value for _time, value in self.points]

    def __len__(self) -> int:
        return len(self.points)
