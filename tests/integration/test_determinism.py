"""Determinism regression test: same seed, same run, bit for bit.

The kernel's contract (and the basis of every durability assertion in
this repository) is that a seeded run is exactly reproducible: the same
event count, the same final clock, the same latency samples in the same
order.  This test would have caught any scheduling-order change slipping
in with the allocation-lean queue refactor.
"""

from repro.config import SystemConfig
from repro.experiments import fig15_payload_latency
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.experiments.parallel import run_jobs
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


def _op_maker(index, request_index, rng):
    key = rng.randrange(32)
    if rng.random() < 0.5:
        return Operation(OpKind.SET, key=key, value=request_index), 100
    return Operation(OpKind.GET, key=key), 100


def _run(seed):
    config = SystemConfig(seed=seed).quick_scale().with_clients(4)
    handler = StructureHandler(PMHashmap())
    deployment = build(DeploymentSpec(placement="switch"), config,
                       handler=handler)
    stats = run_closed_loop(deployment, _op_maker,
                            requests_per_client=40, warmup_requests=4)
    sim = deployment.sim
    return {
        "executed_events": sim.executed_events,
        "final_now": sim.now,
        "latency_samples": stats.all_latencies.samples,
        "requests": stats.requests,
        "errors": stats.errors,
        "misses": stats.misses,
        "digest": handler.digest(),
    }


class TestSeededReproducibility:
    def test_same_seed_is_bit_identical(self):
        first = _run(seed=7)
        second = _run(seed=7)
        assert first["executed_events"] == second["executed_events"]
        assert first["final_now"] == second["final_now"]
        assert first["latency_samples"] == second["latency_samples"]
        assert first == second

    def test_different_seed_diverges(self):
        # Jittered latencies make two seeds colliding on every sample
        # effectively impossible; if they match, seeding is broken.
        assert (_run(seed=7)["latency_samples"]
                != _run(seed=8)["latency_samples"])


class TestParallelHarnessDeterminism:
    """Fanning a sweep across workers must not perturb a single bit.

    Each sweep point builds its own seeded ``Simulator``, so the
    worker-pool schedule is invisible to the simulation; the jobs=1 and
    jobs=4 paths must agree on every value and on the assembled report
    text (the CLI's byte-identity contract).
    """

    def test_jobs1_and_jobs4_are_bit_identical(self):
        specs = fig15_payload_latency.jobs(quick=True, payloads=(50, 250))
        serial = run_jobs(specs, jobs=1)
        parallel = run_jobs(specs, jobs=4)
        assert [r.spec for r in parallel] == [r.spec for r in serial]
        assert ([r.value for r in parallel]
                == [r.value for r in serial])
        assert (fig15_payload_latency.assemble(parallel).format()
                == fig15_payload_latency.assemble(serial).format())
