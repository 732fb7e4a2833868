"""Unit tests for the discrete-event kernel."""

import pytest

from repro.errors import SimulationError
from repro.sim import Simulator


#: ``schedule_deferred`` arguments every backend must refuse.
_BAD_DEFERRED = [(-1, 5), (5, -1), (0, ()), (5, (3, -1)), (-1, (3, 4)),
                 (0, (-2,))]
#: ``(defer_ns, landing time)`` for a chain surfacing at t=5.
_DEFERRED_CHAINS = [(0, 5), (7, 12), ((0, 0), 5), ((2, 3), 10)]


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

    @pytest.mark.parametrize("delay, defer", _BAD_DEFERRED)
    def test_deferred_into_the_past_rejected(self, delay, defer):
        sim = Simulator()
        with pytest.raises(SimulationError):
            sim.schedule_deferred(delay, defer, lambda: None)
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("defer, expected", _DEFERRED_CHAINS)
    def test_deferred_chain_lands_at_total_delay(self, defer, expected):
        sim = Simulator()
        seen = []
        sim.schedule_deferred(5, defer, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [expected]

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
        handle = sim.schedule(10, seen.append, "x")
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


class TestDeferredPerBackend:
    """The deferred-scheduling guards and landing times on every backend.

    The tiered backend installs its own ``schedule_deferred`` closure,
    which shadows the generic :meth:`Simulator.schedule_deferred`, and
    each backend drains deferred hops in its own loop — so each one's
    guard and chain arithmetic is pinned separately.
    """

    @pytest.mark.parametrize("kernel", ["heap", "tiered", "compiled"])
    @pytest.mark.parametrize("delay, defer", _BAD_DEFERRED)
    def test_deferred_into_the_past_rejected(self, delay, defer, kernel):
        sim = Simulator(kernel=kernel)
        with pytest.raises(SimulationError):
            sim.schedule_deferred(delay, defer, lambda: None)
        assert sim.pending_events() == 0

    @pytest.mark.parametrize("kernel", ["heap", "tiered", "compiled"])
    @pytest.mark.parametrize("defer, expected", _DEFERRED_CHAINS)
    def test_deferred_chain_lands_at_total_delay(self, defer, expected,
                                                 kernel):
        sim = Simulator(kernel=kernel)
        seen = []
        sim.schedule_deferred(5, defer, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [expected]
        assert sim.executed_events == 1


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
    """The allocation-lean scheduling path: args ride on the queue record."""

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
        victim = sim.schedule(10, seen.append, "victim")
        sim.schedule(5, victim.cancel)
        sim.run()
        assert seen == []

    def test_cancel_at_same_timestamp(self):
        """Cancelling an already-heaped event at the current instant."""
        sim = Simulator()
        seen = []
        sim.schedule(5, lambda: victim.cancel())
        victim = sim.schedule(5, seen.append, "x")
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
        live = sim.schedule(1, lambda: None)
        dead = sim.schedule(2, lambda: None)
        dead.cancel()
        assert sim.pending_events() == 1
        sim.run()
        assert sim.executed_events == 1
        assert not live.cancelled


class TestKernelBackends:
    """Backend selection and the tier instrumentation on the run loop."""

    @pytest.mark.parametrize("kernel", ["heap", "tiered"])
    def test_explicit_backend_runs_in_order(self, kernel):
        sim = Simulator(kernel=kernel)
        order = []
        sim.schedule(30, order.append, "c")
        sim.schedule(10, order.append, "a")
        sim.schedule(10_000, order.append, "far")
        sim.schedule(10, lambda: sim.call_soon(order.append, "soon"))
        sim.run()
        assert sim.kernel == kernel
        assert order == ["a", "soon", "c", "far"]

    def test_env_selects_backend(self, monkeypatch):
        monkeypatch.setenv("PMNET_KERNEL", "heap")
        assert Simulator().kernel == "heap"
        monkeypatch.setenv("PMNET_KERNEL", "tiered")
        assert Simulator().kernel == "tiered"

    def test_unknown_backend_rejected(self, monkeypatch):
        from repro.errors import ConfigurationError

        with pytest.raises(SimulationError):
            Simulator(kernel="quantum")
        monkeypatch.setenv("PMNET_KERNEL", "quantum")
        with pytest.raises(ConfigurationError):
            Simulator()

    def test_compiled_backend_resolves_natively(self):
        # repro.sim.compiled ships now: no fallback, no warning.
        import warnings

        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            sim = Simulator(kernel="compiled")
        assert sim.kernel == "compiled"
        assert not [w for w in caught
                    if issubclass(w.category, RuntimeWarning)]

    def test_compiled_backend_falls_back_with_warning_exactly_once(
            self, monkeypatch):
        # With the module unavailable (simulated via a poisoned
        # sys.modules entry, which makes its import raise ImportError),
        # PMNET_KERNEL=compiled must degrade to tiered and warn exactly
        # once per process; the reset hook re-arms the latch for tests.
        import sys
        import warnings

        from repro.sim.kernel import reset_compiled_fallback_warning

        monkeypatch.setitem(sys.modules, "repro.sim.compiled", None)
        monkeypatch.setenv("PMNET_KERNEL", "compiled")
        reset_compiled_fallback_warning()
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                first = Simulator()
                second = Simulator()
            assert first.kernel == "tiered"
            assert second.kernel == "tiered"
            fallbacks = [w for w in caught
                         if issubclass(w.category, RuntimeWarning)
                         and "falling back" in str(w.message)]
            assert len(fallbacks) == 1
        finally:
            # Leave the latch armed-off for the rest of the process: the
            # module is importable again once the monkeypatch unwinds.
            reset_compiled_fallback_warning()

    def test_kernel_stats_attribute_pops_to_tiers(self):
        sim = Simulator(kernel="tiered")
        sim.schedule(10, lambda: sim.call_soon(lambda: None))  # near + lane
        sim.schedule(100_000, lambda: None)                    # far
        sim.run()
        stats = sim.kernel_stats()
        assert stats["kernel"] == "tiered"
        assert stats["near_pops"] == 1
        assert stats["lane_pops"] == 1
        assert stats["far_pops"] == 1
        assert sim.executed_events == 3

    def test_horizon_env_controls_routing(self, monkeypatch):
        monkeypatch.setenv("PMNET_KERNEL_HORIZON", "8")
        sim = Simulator(kernel="tiered")
        sim.schedule(7, lambda: None)    # < 8  -> calendar
        sim.schedule(9, lambda: None)    # >= 8 -> far
        sim.run()
        stats = sim.kernel_stats()
        assert stats["near_pops"] == 1
        assert stats["far_pops"] == 1

    def test_invalid_horizon_env_rejected(self, monkeypatch):
        from repro.errors import ConfigurationError

        monkeypatch.setenv("PMNET_KERNEL_HORIZON", "0")
        with pytest.raises(ConfigurationError):
            Simulator(kernel="tiered")

    @pytest.mark.parametrize("kernel", ["heap", "tiered"])
    def test_step_matches_run_semantics(self, kernel):
        sim = Simulator(kernel=kernel)
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
