"""The metrics registry: explicit instrument registration.

Each instrumented component declares what it measures through an
``instruments()`` protocol method and registers into one
:class:`MetricsRegistry` per deployment when observability is
attached.  The registry owns nothing
but references — instruments stay live on their components, so the hot
paths keep their direct ``counter.increment()`` calls and the registry
adds zero per-event cost.

Registration is explicit and name-checked: two instruments with the
same name in one registry is a wiring bug and raises
:class:`DuplicateInstrumentError` immediately instead of silently
shadowing a metric in the export.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Protocol

from repro.sim.monitor import Counter, Gauge, LatencyRecorder

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.kernel import Simulator


class Histogram(LatencyRecorder):
    """A stage-latency histogram: a :class:`LatencyRecorder` registered
    as a first-class instrument.

    Sample-exact (no bucketing): the simulations are small enough that
    exact percentiles beat sketch accuracy, and the Prometheus exporter
    renders it as a summary (quantiles + ``_sum`` + ``_count``).
    """

    kind = "histogram"


class Instrument(Protocol):
    """What the registry requires: a name, a kind, and a summary."""

    name: str
    kind: str

    def summary(self) -> dict:  # pragma: no cover - protocol
        ...


class Instrumented(Protocol):
    """A component exposing its instruments explicitly."""

    def instruments(self) -> Iterable[Instrument]:  # pragma: no cover
        ...


class DuplicateInstrumentError(ValueError):
    """Two instruments tried to register under the same name."""


class MetricsRegistry:
    """All instruments of one deployment, keyed by unique name."""

    def __init__(self) -> None:
        self._instruments: Dict[str, Instrument] = {}

    # ------------------------------------------------------------------
    def register(self, instrument: Instrument) -> Instrument:
        """Register one instrument; its name must be unique and non-empty."""
        name = instrument.name
        if not name:
            raise ValueError("cannot register an unnamed instrument")
        existing = self._instruments.get(name)
        if existing is not None:
            if existing is instrument:
                return instrument  # re-registration of the same object is a no-op
            raise DuplicateInstrumentError(
                f"instrument name {name!r} is already registered "
                f"({existing!r} vs {instrument!r})")
        self._instruments[name] = instrument
        return instrument

    def register_component(self, component: Instrumented) -> None:
        """Register everything a component declares via ``instruments()``."""
        for instrument in component.instruments():
            self.register(instrument)

    # ------------------------------------------------------------------
    # Factories: create-and-register in one call.
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        counter = Counter(name)
        self.register(counter)
        return counter

    def gauge(self, name: str) -> Gauge:
        gauge = Gauge(name)
        self.register(gauge)
        return gauge

    def histogram(self, name: str) -> Histogram:
        histogram = Histogram(name)
        self.register(histogram)
        return histogram

    # ------------------------------------------------------------------
    def get(self, name: str) -> Instrument:
        return self._instruments[name]

    def __contains__(self, name: str) -> bool:
        return name in self._instruments

    def __len__(self) -> int:
        return len(self._instruments)

    def names(self) -> List[str]:
        return sorted(self._instruments)

    def instruments(self) -> List[Instrument]:
        return [self._instruments[name] for name in self.names()]

    def summaries(self) -> List[dict]:
        """Every instrument's unified ``{"name", "kind", ...}`` summary,
        sorted by name (a deterministic export order)."""
        return [instrument.summary() for instrument in self.instruments()]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<MetricsRegistry instruments={len(self)}>"


def register_with_sim(sim: "Simulator", component: Instrumented) -> None:
    """Register a component's instruments if the simulator carries an
    :class:`~repro.obs.context.Observability` with a registry.

    This is the one hook instrumented components call from their
    constructors; with no observability attached (the default) it is a
    single attribute check and the component pays nothing.
    """
    obs = getattr(sim, "obs", None)
    if obs is not None and obs.registry is not None:
        obs.registry.register_component(component)
