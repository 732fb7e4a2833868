"""Event-accounting profiler tests, plus the step()/run() accounting
contract: cancelled records are invisible to both."""

import gc

import pytest

from repro.sim import Simulator
from repro.sim.profiler import (EventProfiler, call_site, format_gc_stats,
                                gc_collections, owner_name)


class _Component:
    def __init__(self, sim, name="comp"):
        self.sim = sim
        self.name = name
        self.fired = 0

    def tick(self):
        self.fired += 1

    def chain(self, hops):
        self.fired += 1
        if hops:
            self.sim.schedule(10, self.chain, hops - 1)


class TestAttribution:
    def test_call_site_of_bound_method(self):
        comp = _Component(Simulator())
        assert call_site(comp.tick) == "_Component.tick"

    def test_call_site_of_plain_function(self):
        def standalone():
            pass
        assert "standalone" in call_site(standalone)

    def test_owner_name_resolves_component_instance(self):
        comp = _Component(Simulator(), name="switch0")
        assert owner_name(comp.tick) == "switch0"

    def test_counts_per_site_and_per_component(self):
        sim = Simulator()
        profiler = EventProfiler(per_component=True)
        sim.attach_profiler(profiler)
        first = _Component(sim, "first")
        second = _Component(sim, "second")
        sim.schedule(5, first.chain, 2)   # 3 events
        sim.schedule(7, second.tick)      # 1 event
        sim.run()
        assert profiler.counts["_Component.chain"] == 3
        assert profiler.counts["_Component.tick"] == 1
        assert profiler.total == 4
        assert profiler.component_counts[("first", "_Component.chain")] == 3
        assert profiler.component_counts[("second", "_Component.tick")] == 1

    def test_events_per_request(self):
        profiler = EventProfiler()
        profiler.total = 30
        assert profiler.events_per_request(10) == 3.0
        with pytest.raises(ValueError):
            profiler.events_per_request(0)

    def test_detach_stops_recording(self):
        sim = Simulator()
        profiler = EventProfiler()
        sim.attach_profiler(profiler)
        comp = _Component(sim)
        sim.schedule(1, comp.tick)
        sim.run()
        sim.detach_profiler()
        sim.schedule(1, comp.tick)
        sim.run()
        assert profiler.total == 1
        assert comp.fired == 2

    def test_format_table_and_summary(self):
        sim = Simulator()
        profiler = EventProfiler()
        sim.attach_profiler(profiler)
        comp = _Component(sim)
        sim.schedule(5, comp.chain, 4)
        sim.run()
        table = profiler.format_table(requests=5)
        assert "_Component.chain" in table
        assert "events/request: 1.00" in table
        digest = profiler.summary(requests=5)
        assert digest["total_events"] == 5
        assert digest["events_per_request"] == 1.0


class TestStepRunConsistency:
    """step() must mirror run(): same skips, same executed_events."""

    def _workload(self, sim):
        comp = _Component(sim)
        sim.schedule(5, comp.tick)
        cancelled = sim.schedule_at(6, comp.tick)
        cancelled.cancel()
        sim.schedule(12, comp.tick)
        sim.schedule(20, comp.chain, 1)
        return comp

    def test_step_skips_cancelled_calls(self):
        sim = Simulator()
        comp = _Component(sim)
        cancelled = sim.schedule_at(5, comp.tick)
        cancelled.cancel()
        sim.schedule(10, comp.tick)
        assert sim.step() is True
        # The cancelled record neither executed nor counted.
        assert sim.now == 10
        assert comp.fired == 1
        assert sim.executed_events == 1
        assert sim.step() is False

    def test_stepped_and_run_workloads_report_identical_counts(self):
        stepped = Simulator()
        self._workload(stepped)
        while stepped.step():
            pass
        ran = Simulator()
        self._workload(ran)
        ran.run()
        assert stepped.executed_events == ran.executed_events
        assert stepped.now == ran.now

    def test_profiler_sees_identical_counts_via_step_and_run(self):
        stepped, ran = Simulator(), Simulator()
        for sim in (stepped, ran):
            sim.attach_profiler(EventProfiler())
        self._workload(stepped)
        while stepped.step():
            pass
        self._workload(ran)
        ran.run()
        assert stepped.profiler.counts == ran.profiler.counts


class TestKernelStatsLine:
    def test_format_covers_pops_and_sweeps(self):
        from repro.sim.profiler import format_kernel_stats

        sim = Simulator()
        comp = _Component(sim)
        sim.schedule(10, comp.tick)
        sim.schedule(100_000, comp.tick)
        sim.schedule(12, comp.tick)
        sim.schedule_at(20, comp.tick).cancel()
        sim.run(until=50)
        line = format_kernel_stats(sim.kernel_stats())
        assert line == ("scheduler: kernel=heap pops=3 compactions=0 "
                        "pending=1")


class TestGcStatsLine:
    def test_format_names_every_generation(self):
        assert format_gc_stats({"gen0": 59, "gen1": 5, "gen2": 0}) == (
            "gc: gen0=59 gen1=5 gen2=0")

    def test_collections_count_per_generation(self):
        before = gc_collections()
        gc.collect(1)
        after = gc_collections()
        assert list(after) == ["gen0", "gen1", "gen2"]
        assert after["gen1"] == before["gen1"] + 1
        assert after["gen2"] == before["gen2"]
