"""Arrival-extension plan cache: hit behaviour and invalidation.

Channels cache the receiving node's ``arrival_extension`` verdict per
frame kind (``Channel._sink_extension``), because on static nodes the
walk is a pure function of the kind and was re-run on every delivery.
These tests pin the cache's contract:

* a warm cache stops querying the node (one query per kind, not per
  frame) while serving bit-identical plans;
* the cache invalidates on failure, recovery, and — the regression this
  file exists for — an impairment window opening mid-flight (the
  100 %-loss scenario from ``test_whole_fold_boundaries``), after which
  the node is re-queried from scratch;
* host nodes, whose extensions pre-draw RNG state, are never cached.

End-to-end identity of impaired-window runs across fold levels stays in
``test_whole_fold_boundaries``.  This file watches the cache itself.
"""

from __future__ import annotations

from repro.net.link import Impairments

from tests.integration.test_whole_fold_boundaries import (_build,
                                                          _set_impairments,
                                                          _shared_uplink)


def _kind(frame):
    """The cache key ``Channel._sink_extension`` uses, reconstructed:
    PMNet frames key on the packet type, everything else is one kind."""
    return getattr(frame.payload, "packet_type", "plain")


def _counting_spy(node, captured=None):
    """Wrap ``node.arrival_extension`` with a per-kind call recorder."""
    original = node.arrival_extension
    calls = []

    def spy(frame):
        extension = original(frame)
        calls.append((_kind(frame), extension is not None))
        if captured is not None:
            captured.append(frame)
        return extension

    node.arrival_extension = spy
    return calls


def _run_updates(deployment, requests=6):
    sim = deployment.sim
    client = deployment.clients[0]

    from repro.workloads.kv import OpKind, Operation

    def proc():
        for i in range(requests):
            yield client.send_update(Operation(OpKind.SET, key=f"k{i}",
                                               value=i))

    deployment.open_all_sessions()
    process = sim.spawn(proc(), "client")
    sim.run()
    assert not process.alive
    return sim


class TestPlanCacheHits:
    def test_node_is_queried_once_per_kind_not_per_frame(self):
        deployment, _handler = _build("whole", clients=1)
        device = deployment.devices[0]
        calls = _counting_spy(device)
        _run_updates(deployment, requests=6)
        # Six requests cross the device inbound (UPDATE_REQ) and their
        # ACK path feeds more kinds through other channels; every kind
        # is resolved through the node exactly once.
        assert calls, "no arrival-extension queries reached the device"
        kinds = {kind for kind, _extended in calls}
        assert len(calls) == len(kinds), (
            f"cache misses repeated per frame: {calls}")
        assert device._arrival_plans, "no plans were cached"

    def test_cached_plan_is_bit_identical_to_a_fresh_walk(self):
        # Capture real frames from a run, then probe the merge->device
        # channel's cache directly: a cold walk (miss) and the cached
        # rebuild must hand back the same hops, callback, and args.
        deployment, _handler = _build("whole", clients=1)
        device = deployment.devices[0]
        channel = _shared_uplink(deployment)
        captured = []
        _counting_spy(device, captured=captured)
        _run_updates(deployment, requests=2)
        assert captured, "no frames reached the device"
        probes = {_kind(frame): frame for frame in captured}
        for kind, frame in probes.items():
            device.invalidate_arrival_plans()
            fresh = channel._sink_extension(frame)   # miss: walks node
            cached = channel._sink_extension(frame)  # hit: from plan
            if fresh is None:
                assert cached is None, kind
                continue
            assert tuple(fresh[0]) == tuple(cached[0]), kind
            assert fresh[1] is cached[1], kind
            assert cached[2] == (frame, frame.payload), kind
            assert fresh[3] is None and cached[3] is None, kind


class TestPlanCacheInvalidation:
    def test_impairment_window_mid_flight_invalidates_and_requeries(self):
        # The 100 %-loss boundary scenario: plans cached by the first
        # request's folded delivery must not survive the window opening
        # (on_impairments_changed), and the node must be re-queried
        # once traffic resumes after the window closes.
        deployment, _handler = _build("whole", clients=1)
        sim = deployment.sim
        device = deployment.devices[0]
        channel = _shared_uplink(deployment)
        calls = _counting_spy(device)
        seen = {}

        def open_window():
            seen["plans_before"] = dict(device._arrival_plans)
            _set_impairments(channel, Impairments(loss_probability=1.0))
            seen["plans_after"] = dict(device._arrival_plans)

        def close_window():
            _set_impairments(channel, Impairments())

        sim.schedule_at(60_000, open_window)
        sim.schedule_at(220_000, close_window)
        _run_updates(deployment, requests=8)
        assert seen["plans_before"], (
            "window opened before the cache warmed — move open_at later")
        assert seen["plans_after"] == {}, (
            "impairment change left stale plans cached")
        # Traffic after the window re-populated the cache, which means
        # the node was re-queried for kinds it had answered before.
        assert device._arrival_plans, "cache never re-populated"
        repeated = len(calls) - len({kind for kind, _ext in calls})
        assert repeated >= 1, (
            f"no re-query after invalidation: {calls}")

    def test_fail_and_recover_both_drop_plans(self):
        deployment, _handler = _build("whole", clients=1)
        device = deployment.devices[0]
        _run_updates(deployment, requests=2)
        assert device._arrival_plans
        device.fail()
        assert device._arrival_plans == {}
        device._arrival_plans["sentinel"] = None
        device.recover()
        assert device._arrival_plans == {}

    def test_host_nodes_are_never_cached(self):
        deployment, _handler = _build("whole", clients=1)
        host = deployment.clients[0].host
        assert host.arrival_plans_static is False
        assert host._arrival_plans is None
        _run_updates(deployment, requests=2)
        assert host._arrival_plans is None
