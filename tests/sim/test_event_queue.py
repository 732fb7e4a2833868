"""Unit tests for the raw event queue (ordering, cancellation, compaction).

Bare entries come from ``push``, cancellable handles from
``push_handle`` and deferred chains from ``push_chain``; ``pop``
returns ``(time, callback, args)`` for all three.
"""

import gc
import weakref

import pytest

from repro.sim.event import COMPACT_MIN_CANCELLED, EventQueue


@pytest.fixture
def queue():
    return EventQueue()


def _callbacks(count):
    """``count`` distinct no-op callbacks (compared by identity)."""
    return [lambda: None for _ in range(count)]


class TestEventQueue:
    def test_pop_orders_by_time(self, queue):
        queue.push(30, lambda: None)
        queue.push(10, lambda: None)
        queue.push_handle(20, lambda: None)
        assert [queue.pop()[0] for _ in range(3)] == [10, 20, 30]

    def test_fifo_within_same_time(self, queue):
        callbacks = _callbacks(4)
        for index, callback in enumerate(callbacks):
            if index % 2:
                queue.push_handle(5, callback)
            else:
                queue.push(5, callback)
        assert [queue.pop()[1] for _ in range(4)] == callbacks

    def test_cancelled_entries_skipped(self, queue):
        keep, drop = _callbacks(2)
        queue.push(10, keep, ("arg",))
        queue.push_handle(5, drop).cancel()
        assert queue.pop() == (10, keep, ("arg",))

    def test_len_excludes_cancelled(self, queue):
        queue.push(1, lambda: None)
        victim = queue.push_handle(2, lambda: None)
        victim.cancel()
        assert len(queue) == 1

    def test_len_is_exact_through_mixed_traffic(self, queue):
        # The O(1) count must agree with a hand-maintained count
        # through an arbitrary push/pop/cancel interleaving.
        live = 0
        handles = []
        for time in range(1, 41):
            if time % 2:
                queue.push(time, lambda: None)
            else:
                handles.append(queue.push_handle(time, lambda: None))
            live += 1
            assert len(queue) == live
        for victim in handles[::3]:
            victim.cancel()
            live -= 1
            assert len(queue) == live
        while queue:
            queue.pop()
            live -= 1
            assert len(queue) == live
        assert live == 0

    def test_double_cancel_counts_once(self, queue):
        queue.push(1, lambda: None)
        victim = queue.push_handle(2, lambda: None)
        victim.cancel()
        victim.cancel()
        assert len(queue) == 1

    def test_peek_time_skips_cancelled(self, queue):
        victim = queue.push_handle(1, lambda: None)
        queue.push(9, lambda: None)
        victim.cancel()
        assert queue.peek_time() == 9

    def test_empty_pop_raises(self, queue):
        with pytest.raises(IndexError):
            queue.pop()
        queue.push_handle(1, lambda: None).cancel()
        with pytest.raises(IndexError):
            queue.pop()

    def test_bool_reflects_pending_work(self, queue):
        assert not queue
        handle = queue.push_handle(1, lambda: None)
        assert queue
        handle.cancel()
        assert not queue

    def test_peek_empty_returns_none(self, queue):
        assert queue.peek_time() is None

    def test_deferred_handle_resequences_before_running(self, queue):
        tick, other = _callbacks(2)
        chain = queue.push_chain(5, (2, 3), tick)
        assert chain == [(2, 3), tick, ()]
        queue.push(7, other)
        # Surfaces at 5, re-sequenced to 7 behind ``other`` (pushed
        # before that hop allocated its seq), then to 10.
        assert queue.pop() == (7, other, ())
        assert queue.pop() == (10, tick, ())
        assert queue.stats()["resequences"] == 2
        # Every hop consumed: the chain list was rewritten in place.
        assert not chain[0]

    def test_compaction_purges_dominant_dead_records(self, queue):
        # Cancel-heavy regression guard: the queue must sweep cancelled
        # handles out instead of carrying them until their
        # (never-arriving) pop.  This is exactly the retransmission
        # pattern — most timeout guards are cancelled long before they
        # fire.  Each sweep comes once the dead pass the floor (they
        # already exceed one-eighth of this small heap), so at most the
        # floor's worth is left behind.
        keepers = _callbacks(8)
        for index, keeper in enumerate(keepers):
            queue.push(10_000 + index, keeper)
        victims = [queue.push_handle(20_000 + i, lambda: None)
                   for i in range(4 * COMPACT_MIN_CANCELLED)]
        for victim in victims:
            victim.cancel()
        assert queue.compactions == 3
        assert queue.stats()["cancelled_pending"] == (
            len(victims) - 3 * (COMPACT_MIN_CANCELLED + 1))
        assert len(queue) == len(keepers)
        assert [queue.pop()[1] for _ in range(len(keepers))] == keepers

    def test_compaction_preserves_order_and_survivors(self, queue):
        order = []
        handles = {}
        for time in range(1, 3 * COMPACT_MIN_CANCELLED):
            handles[time] = queue.push_handle(time, lambda: None)
            queue.push(time, lambda: None)
        victims = [handle for time, handle in handles.items() if time % 3]
        for handle in victims:
            handle.cancel()
        # One sweep on the way (at the floor, well past one-eighth of
        # the heap); the rest stay below the floor until compacted here.
        assert queue.compactions == 1
        assert queue.stats()["cancelled_pending"] == (
            len(victims) - (COMPACT_MIN_CANCELLED + 1))
        queue.compact()
        assert queue.stats()["cancelled_pending"] == 0
        while queue:
            order.append(queue.pop()[0])
        expected = sorted([t for t in handles if t % 3 == 0] + list(handles))
        assert order == expected

    def test_compaction_triggers_past_one_eighth_of_the_heap(self, queue):
        # Far above the floor, the trigger is the share: cancelled
        # handles must exceed one-eighth of the heap.  Survivors — bare
        # entries and live handles, interleaved at shared instants —
        # still pop in exact (time, seq) order.
        pushed = []
        victims = []
        for index in range(1_000):
            time = 100 + index // 4
            if index % 5 == 0:
                victims.append(queue.push_handle(time, lambda: None))
            elif index % 5 == 1:
                callback = lambda: None  # noqa: E731
                queue.push_handle(time, callback)
                pushed.append((time, callback))
            else:
                callback = lambda: None  # noqa: E731
                queue.push(time, callback)
                pushed.append((time, callback))
        # 1,000 entries: the 125th cancel only reaches one-eighth.
        threshold = 1_000 // 8
        assert threshold > COMPACT_MIN_CANCELLED
        for victim in victims[:threshold]:
            victim.cancel()
        assert queue.compactions == 0
        victims[threshold].cancel()
        assert queue.compactions == 1
        assert queue.stats()["cancelled_pending"] == 0
        for victim in victims[threshold + 1:]:
            victim.cancel()
        assert queue.compactions == 1
        assert len(queue) == len(pushed)
        assert [queue.pop()[:2] for _ in range(len(pushed))] == pushed

    def test_cancel_releases_callback_and_args_at_once(self, queue):
        # A cancelled handle may sit in the heap long after its caller
        # is done with it (a 1 ms timer guarding a 25 µs request): it
        # must not keep what it would have been called with alive.
        # Reference counting alone frees both, so the collector is kept
        # off to show that no cycle is involved.

        class Held:
            def fire(self, payload):
                pass

        held, payload = Held(), Held()
        held_ref, payload_ref = weakref.ref(held), weakref.ref(payload)
        handle = queue.push_handle(10, held.fire, (payload,))
        del held, payload
        enabled = gc.isenabled()
        gc.disable()
        try:
            assert held_ref() is not None and payload_ref() is not None
            handle.cancel()
            assert held_ref() is None
            assert payload_ref() is None
        finally:
            if enabled:
                gc.enable()
        assert handle.cancelled
        assert (handle.callback, handle.args) == (None, ())
        with pytest.raises(IndexError):
            queue.pop()


class TestTieredRouting:
    """Ordering and compaction across near and far times.  (The class
    and test names predate the one-heap queue; they named the retired
    tiered queue's lane, calendar and far tier, and are kept so the
    suite's history lines up.)"""

    def test_far_record_drains_before_equal_time_bucket(self, queue):
        # An entry pushed long before its time must still precede a
        # same-time entry pushed later, after the drain has advanced.
        early, first, late = _callbacks(3)
        queue.push_handle(50, early)
        queue.push(5, first)
        assert queue.pop()[1] is first
        queue.push(50, late)
        assert [queue.pop()[1] for _ in range(2)] == [early, late]

    def test_lane_pushes_during_drain_stay_fifo(self, queue):
        seen = []

        def chained(tag):
            seen.append(tag)
            if tag < 3:
                queue.push(10, chained, (tag + 1,))

        queue.push(10, chained, (1,))
        queue.push(10, lambda: seen.append("peer"))
        while queue:
            _, callback, args = queue.pop()
            callback(*args)
        assert seen == [1, "peer", 2, 3]

    def test_compaction_sweeps_every_tier(self, queue):
        # Cancelled handles near and far are swept; the bare entry
        # survives.
        keeper = lambda: None  # noqa: E731
        queue.push(40, keeper)
        victims = [queue.push_handle(50 + (i % 30), lambda: None)
                   for i in range(2 * COMPACT_MIN_CANCELLED)]
        victims += [queue.push_handle(10_000 + i, lambda: None)
                    for i in range(2 * COMPACT_MIN_CANCELLED)]
        for victim in victims:
            victim.cancel()
        assert queue.compactions >= 1
        assert len(queue) == 1
        assert queue.pop() == (40, keeper, ())
