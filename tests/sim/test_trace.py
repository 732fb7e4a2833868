"""Unit tests for the trace log."""

from repro.sim.trace import Tracer


class TestTracer:
    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        tracer.emit(10, "dev", "event")
        assert tracer.records == []

    def test_records_and_filters(self):
        tracer = Tracer(enabled=True)
        tracer.emit(10, "dev", "ack", req=1)
        tracer.emit(20, "dev", "log", req=2)
        tracer.emit(30, "srv", "ack", req=3)
        assert tracer.count() == 3
        assert tracer.count(component="dev") == 2
        assert tracer.count(event="ack") == 2
        assert tracer.count(component="dev", event="ack") == 1

    def test_capacity_bound(self):
        tracer = Tracer(enabled=True, capacity=2)
        for i in range(5):
            tracer.emit(i, "x", "e")
        assert len(tracer.records) == 2
        assert tracer.dropped == 3

    def test_dump_and_str(self):
        tracer = Tracer(enabled=True)
        tracer.emit(1_500, "dev", "ack", req=7)
        text = tracer.dump()
        assert "dev" in text and "ack" in text and "req=7" in text

    def test_clear(self):
        tracer = Tracer(enabled=True, capacity=1)
        tracer.emit(1, "x", "e")
        tracer.emit(2, "x", "e")
        tracer.clear()
        assert tracer.records == [] and tracer.dropped == 0

    def test_simulator_carries_injected_tracer(self):
        from repro.obs.context import Observability
        from repro.sim.kernel import Simulator

        obs = Observability(trace=True)
        sim = Simulator(seed=0, obs=obs)
        assert sim.tracer is obs.tracer
        assert sim.tracer.enabled is True
        # Default: a disabled per-simulator tracer, no shared state.
        assert Simulator(seed=0).tracer.enabled is False


class TestTracedDeployment:
    def test_device_emits_causal_sequence(self):
        from repro.config import SystemConfig
        from repro.experiments.deploy import DeploymentSpec, build
        from repro.workloads.kv import OpKind, Operation

        tracer = Tracer(enabled=True)
        deployment = build(DeploymentSpec(placement="switch"),
                           SystemConfig().with_clients(1), tracer=tracer)
        client = deployment.clients[0]

        def proc():
            yield client.send_update(Operation(OpKind.SET, key=1, value=2))

        deployment.open_all_sessions()
        deployment.sim.spawn(proc())
        deployment.sim.run()
        events = [r.event for r in tracer.filter(component="pmnet1")]
        assert events.index("update_logged") < events.index("pmnet_ack")
        assert "log_invalidated" in events
