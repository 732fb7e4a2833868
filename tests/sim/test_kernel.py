"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator



class TestScheduling:
    def test_events_run_in_time_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(20, order.append, "b")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_run_in_schedule_order(self):
        sim = Simulator()
        order = []
        for tag in "abcd":
            sim.schedule(5, order.append, tag)
        sim.run()
        assert order == list("abcd")

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(100, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [100]
        assert sim.now == 100

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule(-1, lambda: None)

    def test_schedule_deferred_is_retired(self):
        # Deferred chains are gone; the name stays for the benchmark's
        # layer map and refuses every call, queueing nothing.
        sim = Simulator()
        with pytest.raises(SimulationError, match="retired"):
            sim.schedule_deferred(5, 7, lambda: None)
        assert sim.pending_events() == 0

    def test_schedule_at_absolute_time(self):
        sim = Simulator()
        seen = []
        sim.schedule_at(50, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [50]

    def test_schedule_at_past_rejected(self):
        sim = Simulator()
        sim.schedule(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.schedule_at(5, lambda: None)

    def test_cancelled_event_does_not_run(self):
        sim = Simulator()
        seen = []
        handle = sim.schedule_at(10, seen.append, "x")
        handle.cancel()
        sim.run()
        assert seen == []

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(7, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(3, outer)
        sim.run()
        assert times == [3, 10]


class TestRunControls:
    def test_run_until_stops_clock_at_bound(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, seen.append, "early")
        sim.schedule(100, seen.append, "late")
        sim.run(until=50)
        assert seen == ["early"]
        assert sim.now == 50

    def test_until_is_inclusive(self):
        sim = Simulator()
        seen = []
        sim.schedule(50, seen.append, "exact")
        sim.run(until=50)
        assert seen == ["exact"]

    def test_stop_terminates_run(self):
        sim = Simulator()
        seen = []
        sim.schedule(10, sim.stop)
        sim.schedule(20, seen.append, "never")
        sim.run()
        assert seen == []
        assert sim.pending_events() == 1

    def test_max_events_budget(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(i + 1, lambda: None)
        sim.run(max_events=3)
        assert sim.executed_events == 3

    def test_empty_run_returns_current_time(self):
        sim = Simulator()
        assert sim.run() == 0


class TestEvents:
    def test_timeout_succeeds_with_value(self):
        sim = Simulator()
        ev = sim.timeout(25, "payload")
        sim.run()
        assert ev.ok
        assert ev.value == "payload"

    def test_event_value_before_trigger_raises(self):
        sim = Simulator()
        ev = sim.event("pending")
        with pytest.raises(SimulationError):
            _ = ev.value

    def test_double_trigger_rejected(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(SimulationError):
            ev.succeed(2)

    def test_fail_propagates_exception(self):
        sim = Simulator()
        ev = sim.event()
        ev.fail(RuntimeError("boom"))
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_callback_after_trigger_still_fires(self):
        sim = Simulator()
        ev = sim.event()
        ev.succeed("done")
        seen = []
        ev.add_callback(lambda e: seen.append(e.value))
        sim.run()
        assert seen == ["done"]


class TestFastPath:
    """The allocation-lean scheduling path: args ride on the heap entry."""

    def test_schedule_passes_positional_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda *a: seen.append(a), 1, "two", 3.0)
        sim.run()
        assert seen == [(1, "two", 3.0)]

    def test_call_soon_runs_at_current_time_with_args(self):
        sim = Simulator()
        seen = []
        sim.schedule(42, lambda: sim.call_soon(seen.append, sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_cancel_from_earlier_event_skips_victim(self):
        sim = Simulator()
        seen = []
        victim = sim.schedule_at(10, seen.append, "victim")
        sim.schedule(5, victim.cancel)
        sim.run()
        assert seen == []

    def test_cancel_at_same_timestamp(self):
        """Cancelling an already-heaped event at the current instant."""
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: victim.cancel())
        victim = sim.schedule_at(5, seen.append, "x")
        sim.run()
        assert seen == []
        assert sim.pending_events() == 0

    def test_event_callback_receives_extra_args(self):
        sim = Simulator()
        ev = sim.event()
        seen = []
        ev.add_callback(lambda e, tag: seen.append((e.value, tag)), "tag")
        ev.succeed("v")
        sim.run()
        assert seen == [("v", "tag")]

    def test_cancelled_events_leave_counters_consistent(self):
        sim = Simulator()
        live = sim.schedule_at(1, lambda: None)
        dead = sim.schedule_at(2, lambda: None)
        dead.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert sim.executed_events == 1
        assert not live.cancelled


class TestHandles:
    """Only ``schedule_at`` builds a handle."""

    def test_schedule_and_call_soon_return_none(self):
        sim = Simulator()
        assert sim.schedule(5, lambda: None) is None
        assert sim.call_soon(lambda: None) is None
        assert sim.pending_events() == 2

    def test_schedule_at_handle_cancels_mid_run_and_after_run(self):
        sim = Simulator()
        seen = []
        victim = sim.schedule_at(20, seen.append, "victim")
        ran = sim.schedule_at(10, seen.append, "ran")
        sim.schedule(15, victim.cancel)
        sim.run()
        assert seen == ["ran"]
        assert sim.executed_events == 2
        # Cancelling a handle that already ran (or was already dropped)
        # is a no-op: the pending count stays exact.
        ran.cancel()
        victim.cancel()
        assert sim.pending_events() == 0
        sim.schedule(1, seen.append, "after")
        sim.run()
        assert seen == ["ran", "after"]


class TestTieredKernel:
    """The one-heap run loop and its instrumentation.  (The class and
    test names predate the heap; they named the retired tiered queue
    and are kept so the suite's history lines up.)"""

    def test_every_tier_runs_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(10_000, order.append, "far")
        sim.schedule(10, lambda: sim.call_soon(order.append, "soon"))
        sim.run()
        assert sim.kernel == "heap"
        assert order == ["a", "soon", "c", "far"]

    def test_kernel_stats_attribute_pops_to_tiers(self):
        sim = Simulator()
        sim.schedule(10, lambda: sim.call_soon(lambda: None))
        sim.schedule(100_000, lambda: None)
        sim.schedule_at(7, lambda: None).cancel()
        sim.run()
        stats = sim.kernel_stats()
        assert stats["kernel"] == "heap"
        assert sim.executed_events == 3
        # Every pop: three runs and one cancelled.
        assert stats["pops"] == 4
        assert stats["pending"] == 0
        # The retired keys: no re-sequences, and all pops are heap
        # ("far") pops.
        assert (stats["resequences"], stats["lane_pops"],
                stats["near_pops"], stats["far_pops"]) == (0, 0, 0, 4)

    def test_step_matches_run_semantics(self):
        sim = Simulator()
        order = []
        sim.schedule(5, order.append, "a")
        sim.schedule(5, lambda: sim.call_soon(order.append, "b"))
        sim.schedule(6, order.append, "c")
        while sim.step():
            pass
        assert order == ["a", "b", "c"]
        assert sim.now == 6


class TestDeterminism:
    def test_same_seed_same_random_streams(self):
        a = Simulator(seed=7).random.stream("x").random()
        b = Simulator(seed=7).random.stream("x").random()
        assert a == b

    def test_different_streams_are_independent(self):
        sim = Simulator(seed=7)
        a = sim.random.stream("a")
        b = sim.random.stream("b")
        assert [a.random() for _ in range(4)] != [b.random() for _ in range(4)]
