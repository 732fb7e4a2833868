"""The DeploymentSpec contract: loud validation, a lossless JSON round
trip, and the alternative designs pinned to their hand-wired numbers.

Experiment jobs and the chaos engine ship specs across process
boundaries, so a bad value must fail at the spec, naming its field,
not deep inside the build.  The client-/server-side logging and
server-side replication baselines (Figs 17, 18, 21) are ``placement``
values of :func:`build`; their trace digests, latency samples, final
clocks and event counts are pinned to the values the former hand-wired
builders produced, at every fold level.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments.driver import run_closed_loop
from repro.host.stackmodel import TCP
from repro.protocol.packet import reset_request_ids
from repro.sim.trace import Tracer
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap

from tests.conftest import FOLD_LEVELS, fold


# ----------------------------------------------------------------------
# Spec validation and round trip
# ----------------------------------------------------------------------
class TestSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(placement="switchboard"),
        dict(racks=0),
        dict(spines=0),
        dict(chain_length=0),
        dict(devices_per_rack=0),
        dict(servers_per_rack=0),
        dict(clients_per_rack=0),
        dict(ring_replicas=0),
        # Baseline has no device to replicate or cache on.
        dict(placement="none", chain_length=2),
        dict(placement="none", enable_cache=True),
        # The NIC is a single bump-in-the-wire device.
        dict(placement="nic", chain_length=2),
        # Single-rack sharding needs the ToR position, and is a
        # different shape from device chaining.
        dict(placement="none", servers_per_rack=2),
        dict(placement="switch", servers_per_rack=2, chain_length=2),
        # The fabric places devices at the leaves.
        dict(racks=2, placement="nic"),
        # Chain longer than the fabric has devices.
        dict(racks=2, devices_per_rack=1, chain_length=3),
        # The alternative designs have no device to cache on, serve one
        # server and live in one rack.
        dict(placement="client-log", enable_cache=True),
        dict(placement="server-log", servers_per_rack=2),
        dict(racks=2, placement="server-replication"),
    ])
    def test_impossible_shapes_rejected(self, kwargs):
        with pytest.raises(ValueError):
            DeploymentSpec(**kwargs)

    @pytest.mark.parametrize("spec", [
        DeploymentSpec(placement="none"),
        DeploymentSpec(placement="nic", enable_cache=True, transport=TCP),
        DeploymentSpec(placement="switch", chain_length=3),
        DeploymentSpec(placement="switch", servers_per_rack=4),
        DeploymentSpec(racks=3, spines=2, devices_per_rack=2,
                       servers_per_rack=2, chain_length=3,
                       clients_per_rack=2, spine_propagation_ns=2_000),
        DeploymentSpec(placement="server-log", chain_length=3),
    ])
    def test_params_round_trip_losslessly(self, spec):
        params = spec.to_params()
        # Jobs and chaos plans ship specs as JSON.
        assert json.loads(json.dumps(params)) == params
        assert DeploymentSpec.from_params(params) == spec

    @pytest.mark.parametrize("params,field", [
        pytest.param(dict(racks=2.5), "racks", id="float-racks"),
        pytest.param(dict(chain_length=1.5), "chain_length",
                     id="float-chain"),
        pytest.param(dict(racks=True), "racks", id="bool-racks"),
        pytest.param(dict(clients_per_rack=False), "clients_per_rack",
                     id="bool-optional-int"),
        pytest.param(dict(enable_cache="no"), "enable_cache",
                     id="str-cache-flag"),
        pytest.param(dict(placement=1), "placement", id="int-placement"),
        pytest.param(dict(transport="carrier-pigeon"), "transport",
                     id="unknown-transport"),
        pytest.param(dict(nic_wire_ns=-1), "nic_wire_ns",
                     id="negative-nic-wire"),
        pytest.param(dict(racks=2, spine_propagation_ns=-5),
                     "spine_propagation_ns", id="negative-spine"),
        pytest.param(dict(racks=1, replicas=3), "replicas",
                     id="unknown-key"),
    ])
    def test_bad_input_fails_loudly_naming_the_field(self, params, field):
        # Every JSON-shipped spec enters through from_params, which
        # constructs the spec: both boundaries reject here.
        with pytest.raises(ValueError, match=field):
            DeploymentSpec.from_params(params)

    @pytest.mark.parametrize("config", [
        pytest.param(SystemConfig().with_clients(0), id="no-clients"),
        pytest.param(SystemConfig().with_clients(-2), id="negative-clients"),
        pytest.param(SystemConfig().with_payload(0), id="empty-payload"),
    ])
    def test_build_validates_the_config(self, config):
        # Unchecked, the first would build a deployment with no clients.
        with pytest.raises(ConfigurationError):
            build(DeploymentSpec(placement="switch"), config)


# ----------------------------------------------------------------------
# The alternative designs, pinned to their hand-wired values
# ----------------------------------------------------------------------
def _op_maker(index, request_index, rng):
    key = rng.randrange(32)
    if rng.random() < 0.5:
        return Operation(OpKind.SET, key=key, value=request_index), 100
    return Operation(OpKind.GET, key=key), 100


def _observables(spec: DeploymentSpec) -> dict:
    """The byte-comparison surfaces of one traced baseline run."""
    reset_request_ids()  # ids land in traces; depend on the seed alone
    config = SystemConfig(seed=9).quick_scale().with_clients(3)
    tracer = Tracer(enabled=True)
    deployment = build(spec, config, handler=StructureHandler(PMHashmap()),
                       tracer=tracer)
    stats = run_closed_loop(deployment, _op_maker,
                            requests_per_client=12, warmup_requests=2)
    samples = json.dumps(stats.all_latencies.samples)
    return {
        "trace_digest": hashlib.sha256(tracer.dump().encode()).hexdigest(),
        "samples_digest": hashlib.sha256(samples.encode()).hexdigest(),
        "final_now": deployment.sim.now,
        "executed_events": deployment.sim.executed_events,
    }


#: (placement, log copies) -> observables measured on the hand-wired
#: builders these placements replaced.  Trace, samples and final clock
#: are fold-independent; the event count is per fold level.
BASELINE_PINS = {
    ("client-log", 1): {
        "trace_digest":
            "e9b1b003663483c0817a2eb0ff07455b06dd9025f0b5409a006a80b5945b7a58",
        "samples_digest":
            "a86c79f61bf9a80371d0cf5fa0f414bc83c57c3cf2ce655f8aa7071c6af0428b",
        "final_now": 696572,
        "executed_events": {"none": 834, "whole": 834},
    },
    ("client-log", 3): {
        "trace_digest":
            "b89b444306b3672890eae66293ec83765347ec58203ac870068668b605687c03",
        "samples_digest":
            "463410186a203b2ff3ce712fd059322986d569608af24e16c777bdbb56a2a51c",
        "final_now": 784366,
        "executed_events": {"none": 1224, "whole": 1224},
    },
    ("server-log", 1): {
        "trace_digest":
            "ab0f593bcb5fd690bd4efbd8da274e80949bf2f096210a9022a915deef27826e",
        "samples_digest":
            "ea3b1457c9cf5d1ea43eb3ac2146b615b7ea1db32b376f37520ae9dc30186df6",
        "final_now": 1739617,
        "executed_events": {"none": 918, "whole": 795},
    },
    ("server-log", 3): {
        "trace_digest":
            "2f3d64fc41a96049c4862a57e2127768a1fcb96d34a38de68cab00aa3c5a4ae4",
        "samples_digest":
            "bf824c9a36daba299b22f5f0809ae9d6eb0233a5a67b1b8a204408f882701a85",
        "final_now": 1999598,
        "executed_events": {"none": 1308, "whole": 1185},
    },
    ("server-replication", 3): {
        "trace_digest":
            "71b7f8c2e6f499979cd19aec8d43e1c5e8f7b676b2a662b0265db57845adf415",
        "samples_digest":
            "a369b650e72d6f298c69fcf5efddba4eda3da48bdf6379c88f962e8742b9fa91",
        "final_now": 2389390,
        "executed_events": {"none": 1295, "whole": 1172},
    },
}


class TestBaselinePlacements:
    @pytest.mark.parametrize("level", FOLD_LEVELS)
    @pytest.mark.parametrize("placement,copies", sorted(BASELINE_PINS))
    def test_pinned_at_every_fold_level(self, placement, copies, level):
        pin = BASELINE_PINS[(placement, copies)]
        with fold(level):
            observed = _observables(DeploymentSpec(placement=placement,
                                                   chain_length=copies))
        assert observed == {**pin,
                            "executed_events": pin["executed_events"][level]}
