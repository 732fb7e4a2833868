"""Tests for workload trace capture/replay/serialization."""

import pytest

from repro.config import SystemConfig
from repro.errors import WorkloadError
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.workloads.kv import OpKind
from repro.workloads.traces import TracedOp, WorkloadTrace
from repro.workloads.ycsb import YCSBConfig, make_op_maker


def _small_trace(clients=2, requests=10, update_ratio=0.6, seed=3):
    op_maker = make_op_maker(YCSBConfig(update_ratio=update_ratio,
                                        population=50))
    return WorkloadTrace.capture(op_maker, clients=clients,
                                 requests_per_client=requests, seed=seed,
                                 description="test trace")


class TestCaptureReplay:
    def test_capture_shape(self):
        trace = _small_trace()
        assert trace.clients == 2
        assert trace.total_requests == 20

    def test_capture_is_deterministic(self):
        a = _small_trace(seed=9)
        b = _small_trace(seed=9)
        assert a.per_client == b.per_client

    def test_different_seeds_differ(self):
        assert _small_trace(seed=1).per_client != \
            _small_trace(seed=2).per_client

    def test_replay_reproduces_operations(self):
        trace = _small_trace()
        maker = trace.op_maker()
        op, size = maker(0, 0, None)
        original = trace.per_client[0][0]
        assert op.kind.value == original.kind
        assert size == original.payload_bytes

    def test_replay_wraps_past_the_end(self):
        trace = _small_trace(requests=3)
        maker = trace.op_maker()
        op_wrapped, _size = maker(0, 3, None)
        op_first, _size = maker(0, 0, None)
        assert op_wrapped.kind == op_first.kind
        assert op_wrapped.key == op_first.key

    def test_replay_rejects_unknown_client(self):
        trace = _small_trace(clients=1)
        with pytest.raises(WorkloadError):
            trace.op_maker()(5, 0, None)

    def test_update_fraction(self):
        trace = _small_trace(requests=200, update_ratio=0.25)
        assert 0.15 < trace.update_fraction() < 0.35

    def test_invalid_capture_args(self):
        with pytest.raises(WorkloadError):
            WorkloadTrace.capture(lambda *a: None, clients=0,
                                  requests_per_client=1)


class TestSerialization:
    def test_json_roundtrip(self):
        trace = _small_trace()
        restored = WorkloadTrace.from_json(trace.to_json())
        assert restored.per_client == trace.per_client
        assert restored.description == "test trace"

    def test_tuple_keys_survive_json(self):
        op = TracedOp(kind="set", payload_bytes=100, key=(1, 2), value="v")
        trace = WorkloadTrace(per_client=[[op]])
        restored = WorkloadTrace.from_json(trace.to_json())
        assert restored.per_client[0][0].to_operation().key == (1, 2)

    def test_malformed_json_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadTrace.from_json("{not json")
        with pytest.raises(WorkloadError):
            WorkloadTrace.from_json('{"wrong": 1}')

    def test_save_load(self, tmp_path):
        trace = _small_trace()
        path = tmp_path / "trace.json"
        trace.save(str(path))
        restored = WorkloadTrace.load(str(path))
        assert restored.per_client == trace.per_client


class TestFairComparison:
    def test_same_trace_drives_both_systems(self):
        """The A/B use case: identical request streams against the
        baseline and PMNet."""
        config = SystemConfig().with_clients(2)
        trace = _small_trace(clients=2, requests=30, update_ratio=1.0)
        base = run_closed_loop(build(DeploymentSpec(placement="none"), config),
                               trace.op_maker(), 30)
        pmnet = run_closed_loop(build(DeploymentSpec(placement="switch"),
                                      config),
                                trace.op_maker(), 30)
        assert base.requests == pmnet.requests == 60
        assert (pmnet.update_latencies.mean()
                < base.update_latencies.mean())
