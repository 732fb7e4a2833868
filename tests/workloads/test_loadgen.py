"""Flow-level load generator: determinism, behavior, job protocol.

The generator's contract is that one seed fixes the *entire* sample
table — ``(shard, index, latency_ns)`` rows — no matter how the run is
executed: serially, across 2 or 4 worker processes, in any order
relative to other runs, or at any fold level.  These tests pin that
contract, plus the closed/open arrival semantics and the config
validation surface.
"""

import time

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments import loadgen as loadgen_experiment
from repro.experiments import registry
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.jobs import JobSpec
from repro.experiments.parallel import run_jobs
from repro.protocol.packet import reset_request_ids
from repro.workloads.loadgen import (
    LoadGenConfig,
    LoadGenResult,
    run_loadgen,
)

from tests.conftest import FOLD_LEVELS, fold

#: Small shapes so the determinism matrix stays fast.
SMALL_CLOSED = LoadGenConfig(mode="closed", users=300, total_requests=600,
                             window=32, warmup_requests=4)
SMALL_OPEN = LoadGenConfig(mode="open", total_requests=500,
                           mean_interarrival_ns=2_000, window=32,
                           warmup_requests=4)

def _run(config, seed=0, clients=4, level=None):
    reset_request_ids()
    with fold(level):
        deployment = build(
            DeploymentSpec(placement="switch"),
            SystemConfig(seed=seed).with_clients(clients).with_payload(
                config.payload_bytes))
    return run_loadgen(deployment, config)


class TestConfigValidation:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(mode="lukewarm")

    def test_closed_needs_users(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(mode="closed", users=0)

    def test_rejects_empty_budget(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(total_requests=0)

    def test_rejects_zero_window(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(window=0)

    def test_open_needs_positive_interarrival(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(mode="open", mean_interarrival_ns=0)

    def test_rejects_negative_think_time(self):
        with pytest.raises(ConfigurationError):
            LoadGenConfig(think_time_ns=-1)

    @pytest.mark.parametrize("field,value", [
        ("zipf_theta", -0.1), ("zipf_theta", 1.0), ("zipf_theta", 1.5),
        ("zipf_theta", float("nan")), ("update_ratio", -0.1),
        ("update_ratio", 1.01), ("payload_bytes", -1),
        # A payload of 0 would fail every request mid-run, inside
        # fragment_request.
        ("payload_bytes", 0), ("warmup_requests", -1)])
    def test_rejects_out_of_range_field_by_name(self, field, value):
        with pytest.raises(ConfigurationError, match=field):
            LoadGenConfig(**{field: value})
        params = {**SMALL_CLOSED.to_params(), field: value}
        with pytest.raises(ConfigurationError, match=field):
            LoadGenConfig.from_params(params)

    def test_range_edges_stay_valid(self):
        LoadGenConfig(zipf_theta=0.0, update_ratio=0.0, payload_bytes=1,
                      warmup_requests=0)
        LoadGenConfig(zipf_theta=0.99, update_ratio=1.0)

    @pytest.mark.parametrize("field,value", [
        ("users", 2.5), ("window", True), ("total_requests", 100.0),
        ("payload_bytes", "100"), ("population", False),
        ("think_time_ns", 1.5), ("mode", 1)])
    def test_rejects_wrong_type_by_name(self, field, value):
        # bool is not a count: window=True must not mean a window of 1.
        with pytest.raises(ConfigurationError, match=field):
            LoadGenConfig(**{field: value})
        params = {**SMALL_CLOSED.to_params(), field: value}
        with pytest.raises(ConfigurationError, match=field):
            LoadGenConfig.from_params(params)

    def test_float_fields_take_ints(self):
        LoadGenConfig(update_ratio=1, zipf_theta=0)

    def test_params_roundtrip(self):
        for config in (SMALL_CLOSED, SMALL_OPEN):
            assert LoadGenConfig.from_params(config.to_params()) == config


class TestDeterminism:
    @pytest.mark.parametrize("config", [SMALL_CLOSED, SMALL_OPEN],
                             ids=["closed", "open"])
    def test_same_seed_same_sample_table(self, config):
        first = _run(config)
        second = _run(config)
        assert first.sample_table() == second.sample_table()
        assert first.digest() == second.digest()
        assert first.duration_ns == second.duration_ns

    @pytest.mark.parametrize("config", [SMALL_CLOSED, SMALL_OPEN],
                             ids=["closed", "open"])
    def test_fold_levels_are_invisible(self, config):
        runs = {level: _run(config, level=level) for level in FOLD_LEVELS}
        baseline, whole = runs["none"], runs["whole"]
        assert whole.sample_table() == baseline.sample_table()
        assert whole.duration_ns == baseline.duration_ns
        assert whole.errors == baseline.errors

    def test_run_order_is_invisible(self):
        baseline = _run(SMALL_OPEN)
        _run(SMALL_CLOSED)  # dirty process-global state
        _run(SMALL_OPEN, seed=9)
        again = _run(SMALL_OPEN)
        assert again.sample_table() == baseline.sample_table()

    def test_seed_actually_steers_the_run(self):
        assert (_run(SMALL_OPEN, seed=0).digest()
                != _run(SMALL_OPEN, seed=1).digest())

    def test_no_wall_clock_leakage(self, monkeypatch):
        """The simulated timeline must never consult the host clock."""
        baseline = _run(SMALL_OPEN)
        reset_request_ids()
        deployment = build(
            DeploymentSpec(placement="switch"),
            SystemConfig(seed=0).with_clients(4).with_payload(
                SMALL_OPEN.payload_bytes))

        def forbidden(*_args):
            raise AssertionError("loadgen consulted the wall clock")

        monkeypatch.setattr(time, "time", forbidden)
        monkeypatch.setattr(time, "perf_counter", forbidden)
        monkeypatch.setattr(time, "monotonic", forbidden)
        result = run_loadgen(deployment, SMALL_OPEN)
        assert result.sample_table() == baseline.sample_table()


class TestBehavior:
    def test_closed_loop_totals(self):
        result = _run(SMALL_CLOSED)
        assert result.mode == "closed"
        assert result.modeled_users == SMALL_CLOSED.users
        assert result.issued == SMALL_CLOSED.total_requests
        assert result.completed == result.issued
        assert result.errors == 0
        assert result.duration_ns > 0
        assert result.ops_per_second() > 0
        # Each shard drops its own warmup completions from the table.
        expected = (result.completed
                    - result.shards * SMALL_CLOSED.warmup_requests)
        assert len(result.sample_table()) == expected

    def test_open_loop_totals(self):
        result = _run(SMALL_OPEN)
        assert result.mode == "open"
        assert result.modeled_users == 0  # open loop has no user pool
        assert result.issued == SMALL_OPEN.total_requests
        assert result.completed == result.issued
        assert result.errors == 0

    def test_think_time_stretches_the_run(self):
        thinking = LoadGenConfig(mode="closed", users=SMALL_CLOSED.users,
                                 total_requests=SMALL_CLOSED.total_requests,
                                 window=SMALL_CLOSED.window,
                                 warmup_requests=SMALL_CLOSED.warmup_requests,
                                 think_time_ns=200_000)
        assert (_run(thinking).duration_ns
                > _run(SMALL_CLOSED).duration_ns)

    def test_open_loop_latency_includes_queueing(self):
        # Saturate: arrivals far faster than service, tiny window.  The
        # backlogged arrivals' samples must count time spent queueing,
        # so the deterministic max sample keeps growing with backlog.
        squeezed = LoadGenConfig(mode="open", total_requests=200,
                                 mean_interarrival_ns=200, window=1)
        relaxed = LoadGenConfig(mode="open", total_requests=200,
                                mean_interarrival_ns=200_000, window=64)
        squeezed_max = max(r[2] for r in _run(squeezed).sample_table())
        relaxed_max = max(r[2] for r in _run(relaxed).sample_table())
        assert squeezed_max > 10 * relaxed_max

    def test_lone_client_gets_every_user(self):
        result = _run(SMALL_CLOSED, clients=1)
        assert result.shards == 1
        assert result.completed == SMALL_CLOSED.total_requests


def _small_specs():
    """The quick sweep's two points, shrunk for test runtime."""
    return [JobSpec(experiment="loadgen", point=f"mode={name}",
                    params={"point": name, "loadgen": config.to_params()},
                    seed=0, quick=True, config=None)
            for name, config in (("closed", SMALL_CLOSED),
                                 ("open", SMALL_OPEN))]


class TestJobProtocol:
    def test_registered(self):
        entry = registry.get("loadgen")
        assert entry.module is loadgen_experiment
        assert "load generator" in entry.description.lower()

    def test_jobs_enumerate_both_modes(self):
        specs = loadgen_experiment.jobs()
        assert [spec.params["point"] for spec in specs] == ["closed", "open"]
        for spec in specs:
            assert spec.experiment == "loadgen"
            # Params must round-trip through JSON-safe job specs.
            LoadGenConfig.from_params(spec.params["loadgen"])

    def test_worker_counts_agree(self):
        specs = _small_specs()
        serial = run_jobs(specs, jobs=1)
        assert all(result.error is None for result in serial)
        for workers in (2, 4):
            fanned = run_jobs(specs, jobs=workers)
            assert ([result.value for result in fanned]
                    == [result.value for result in serial]), workers

    def test_spec_order_is_invisible(self):
        specs = _small_specs()
        forward = {result.spec.params["point"]: result.value
                   for result in run_jobs(specs, jobs=1)}
        reverse = {result.spec.params["point"]: result.value
                   for result in run_jobs(specs[::-1], jobs=1)}
        assert forward == reverse

    def test_assemble_formats_every_point(self):
        results = run_jobs(_small_specs(), jobs=1)
        text = loadgen_experiment.assemble(results).format()
        assert "closed" in text and "open" in text
        for result in results:
            assert result.value["digest"] in text


class TestResultSurface:
    def test_sample_table_is_shard_major(self):
        result = LoadGenResult(mode="closed", modeled_users=2, shards=2,
                               issued=3, completed=3, errors=0,
                               duration_ns=10,
                               samples={1: [7], 0: [5, 6]})
        assert result.sample_table() == [(0, 0, 5), (0, 1, 6), (1, 0, 7)]

    def test_digest_is_stable_across_dict_order(self):
        forward = LoadGenResult(mode="open", modeled_users=0, shards=2,
                                issued=2, completed=2, errors=0,
                                duration_ns=10, samples={0: [5], 1: [7]})
        shuffled = LoadGenResult(mode="open", modeled_users=0, shards=2,
                                 issued=2, completed=2, errors=0,
                                 duration_ns=10, samples={1: [7], 0: [5]})
        assert forward.digest() == shuffled.digest()

    def test_empty_run_guards(self):
        empty = LoadGenResult(mode="open", modeled_users=0, shards=1,
                              issued=0, completed=0, errors=0,
                              duration_ns=0, samples={})
        assert empty.ops_per_second() == 0.0
        assert empty.mean_latency_us() == 0.0
