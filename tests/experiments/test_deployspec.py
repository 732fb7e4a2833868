"""The DeploymentSpec contract: loud validation, a lossless JSON round
trip, and every single-rack shape pinned to the builders it replaced.

Experiment jobs and the chaos engine ship specs across process
boundaries, so a bad value must fail at the spec, naming its field,
not deep inside the build.  Every single-rack shape — the PMNet design
points, the client-server baseline, the sharded store and the
client-/server-side logging and server-side replication baselines
(Figs 17, 18, 21) — and the two-rack placement are pinned to the trace
digests, latency samples, final clocks, event counts, node add order
and link order their former per-shape builders produced; the quick
Fig 18, Fig 21 and two-rack tables are pinned by digest.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.config import SystemConfig
from repro.errors import ConfigurationError
from repro.experiments.deploy import DeploymentSpec, build
from repro.experiments import (fig18_alternatives, fig21_replication,
                               multirack)
from repro.experiments.driver import run_closed_loop
from repro.experiments.multirack import build_two_rack
from repro.host.stackmodel import TCP
from repro.protocol.packet import reset_request_ids
from repro.sim.trace import Tracer
from repro.workloads.handlers import StructureHandler
from repro.workloads.kv import OpKind, Operation
from repro.workloads.pmdk.hashmap import PMHashmap


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
# Every single-rack shape and the two-rack placement, pinned
# ----------------------------------------------------------------------
def _op_maker(index, request_index, rng):
    key = rng.randrange(32)
    if rng.random() < 0.5:
        return Operation(OpKind.SET, key=key, value=request_index), 100
    return Operation(OpKind.GET, key=key), 100


def _built(spec: DeploymentSpec):
    """Build ``spec`` with a PM hashmap per server."""
    def make(config, tracer):
        if spec.servers_per_rack > 1:
            return build(spec, config, tracer=tracer,
                         handler_factory=lambda: StructureHandler(
                             PMHashmap()))
        return build(spec, config, handler=StructureHandler(PMHashmap()),
                     tracer=tracer)
    return make


def _two_rack(config, tracer):
    # The two-rack builder takes no tracer: its trace is empty.
    return build_two_rack(config, handler=StructureHandler(PMHashmap()))


def _observables(make) -> dict:
    """The byte-comparison surfaces of one traced run, and its wiring.

    ``make(config, tracer)`` builds the deployment.  ``nodes`` is the
    topology's add order and ``links`` the ordered forward-channel
    names: chaos plans pick impairment channels by index into the link
    list, so the order is part of every shape's identity.
    """
    reset_request_ids()  # ids land in traces; depend on the seed alone
    config = SystemConfig(seed=9).quick_scale().with_clients(3)
    tracer = Tracer(enabled=True)
    deployment = make(config, tracer)
    stats = run_closed_loop(deployment, _op_maker,
                            requests_per_client=12, warmup_requests=2)
    samples = json.dumps(stats.all_latencies.samples)
    topology = deployment.topology
    return {
        "trace_digest": hashlib.sha256(tracer.dump().encode()).hexdigest(),
        "samples_digest": hashlib.sha256(samples.encode()).hexdigest(),
        "final_now": deployment.sim.now,
        "executed_events": deployment.sim.executed_events,
        "nodes": " ".join(topology.nodes),
        "links": " ".join(link.forward.name for link in topology.links),
    }


#: (placement, log copies) -> observables measured on the hand-wired
#: builders these placements replaced.
BASELINE_PINS = {
    ("client-log", 1): {
        "trace_digest":
            "13d2f10aeca691d8a282a9c7daf50712fa5c7914e74d7d9cb829af418277c1e6",
        "samples_digest":
            "a86c79f61bf9a80371d0cf5fa0f414bc83c57c3cf2ce655f8aa7071c6af0428b",
        "final_now": 696572,
        "executed_events": 582,
        "nodes": "tor server client0 client1 client2",
        "links": "tor->server client0->tor client1->tor client2->tor",
    },
    ("client-log", 3): {
        "trace_digest":
            "f17b1cd1e11599a3284e4505611b9fda262b5d76ec72a778f9adb78a56539ac0",
        "samples_digest":
            "463410186a203b2ff3ce712fd059322986d569608af24e16c777bdbb56a2a51c",
        "final_now": 784366,
        "executed_events": 816,
        "nodes": "tor server client0 client1 client2",
        "links": "tor->server client0->tor client1->tor client2->tor",
    },
    ("server-log", 1): {
        "trace_digest":
            "ab0f593bcb5fd690bd4efbd8da274e80949bf2f096210a9022a915deef27826e",
        "samples_digest":
            "ea3b1457c9cf5d1ea43eb3ac2146b615b7ea1db32b376f37520ae9dc30186df6",
        "final_now": 1739617,
        "executed_events": 627,
        "nodes": "tor server client0 client1 client2",
        "links": "tor->server client0->tor client1->tor client2->tor",
    },
    ("server-log", 3): {
        "trace_digest":
            "2f3d64fc41a96049c4862a57e2127768a1fcb96d34a38de68cab00aa3c5a4ae4",
        "samples_digest":
            "bf824c9a36daba299b22f5f0809ae9d6eb0233a5a67b1b8a204408f882701a85",
        "final_now": 1999598,
        "executed_events": 861,
        "nodes": "tor server replica1 replica2 client0 client1 client2",
        "links": (
            "tor->server replica1->tor replica2->tor client0->tor "
            "client1->tor client2->tor"),
    },
    ("server-replication", 1): {
        "trace_digest":
            "e6344c4d3b23b6e839ecf5b3e218ea87ffd001e5e1ad91f0348b770c9f5fc8ac",
        "samples_digest":
            "944bb8f92d354207fd41b41561779d575b0a7f7f1ae3d46177af2fc674970b2f",
        "final_now": 2073979,
        "executed_events": 614,
        "nodes": "tor server client0 client1 client2",
        "links": "tor->server client0->tor client1->tor client2->tor",
    },
    ("server-replication", 3): {
        "trace_digest":
            "71b7f8c2e6f499979cd19aec8d43e1c5e8f7b676b2a662b0265db57845adf415",
        "samples_digest":
            "a369b650e72d6f298c69fcf5efddba4eda3da48bdf6379c88f962e8742b9fa91",
        "final_now": 2389390,
        "executed_events": 848,
        "nodes": "tor server replica1 replica2 client0 client1 client2",
        "links": (
            "tor->server replica1->tor replica2->tor client0->tor "
            "client1->tor client2->tor"),
    },
}


class TestBaselinePlacements:
    @pytest.mark.parametrize("placement,copies", sorted(BASELINE_PINS))
    def test_pinned_to_the_hand_wired_values(self, placement, copies):
        observed = _observables(_built(DeploymentSpec(
            placement=placement, chain_length=copies)))
        assert observed == BASELINE_PINS[(placement, copies)]

    def test_client_log_clients_trace_issue_and_completion(self):
        # A client-log client records what a PMNet client records: one
        # ``request_sent`` and one ``completed`` per request.
        config = SystemConfig(seed=9).quick_scale().with_clients(2)
        tracer = Tracer(enabled=True)
        deployment = _built(DeploymentSpec(placement="client-log"))(
            config, tracer)

        def updates(index, request_index, rng):
            return Operation(OpKind.SET, key=(index, request_index),
                             value=request_index), 100

        run_closed_loop(deployment, updates, requests_per_client=6)
        clients = [client.host.name for client in deployment.clients]
        records = [record for record in tracer.records
                   if record.component in clients]
        assert len(records) == 2 * 6 * 2
        assert {(record.event, record.details["via"]
                 if record.event == "completed" else None)
                for record in records} == {("request_sent", None),
                                           ("completed", "client-log")}


#: The PMNet design points, the client-server baseline, the sharded
#: store and the two-rack placement, each built the way its id says.
SHAPES = {
    "none": _built(DeploymentSpec(placement="none")),
    "switch-1": _built(DeploymentSpec(placement="switch")),
    "switch-3": _built(DeploymentSpec(placement="switch", chain_length=3)),
    "switch-1-cache": _built(DeploymentSpec(placement="switch",
                                            enable_cache=True)),
    "switch-3-cache": _built(DeploymentSpec(placement="switch",
                                            chain_length=3,
                                            enable_cache=True)),
    "switch-tcp": _built(DeploymentSpec(placement="switch", transport=TCP)),
    "nic": _built(DeploymentSpec(placement="nic")),
    "sharded-3": _built(DeploymentSpec(placement="switch",
                                       servers_per_rack=3)),
    "two-rack": _two_rack,
}

#: Shape id -> observables, measured on the per-shape builders the one
#: wiring path replaced.
SHAPE_PINS = {
    "none": {
        "trace_digest":
            "e6344c4d3b23b6e839ecf5b3e218ea87ffd001e5e1ad91f0348b770c9f5fc8ac",
        "samples_digest":
            "944bb8f92d354207fd41b41561779d575b0a7f7f1ae3d46177af2fc674970b2f",
        "final_now": 2073979,
        "executed_events": 614,
        "nodes": "tor server client0 client1 client2",
        "links": "tor->server client0->tor client1->tor client2->tor",
    },
    "switch-1": {
        "trace_digest":
            "7d23346f62d511139ccdedf0b1d2a490d387f6567b309b36a0b3e3fbb82d92b4",
        "samples_digest":
            "ca36d2a9ad7fdb0d2d8ceb3f72ab893182916afdc897c5b78eb30260ba973cc2",
        "final_now": 1669056,
        "executed_events": 945,
        "nodes": "merge pmnet1 server client0 client1 client2",
        "links": (
            "merge->pmnet1 pmnet1->server client0->merge client1->merge "
            "client2->merge"),
    },
    "switch-3": {
        "trace_digest":
            "bc09c0fb36f15d488c9bb85571d9d6081d6b9378b7161b99fb5dad66661bc69d",
        "samples_digest":
            "af2bde5f823dbccbb961b8b92911d186c47d35dfcd9d55a57696067eac21cde1",
        "final_now": 1732326,
        "executed_events": 1724,
        "nodes": "merge pmnet1 pmnet2 pmnet3 server client0 client1 client2",
        "links": (
            "pmnet1->pmnet2 pmnet2->pmnet3 merge->pmnet1 pmnet3->server "
            "client0->merge client1->merge client2->merge"),
    },
    "switch-1-cache": {
        "trace_digest":
            "eb882e87a5ad4edeab399e3a2615f19da7f9f6d2864affdc1159772d9c4af471",
        "samples_digest":
            "c79c280a4533f373c4667e62a485df4b7f60f91dc5892c1ca197327927bfa7b0",
        "final_now": 1645040,
        "executed_events": 889,
        "nodes": "merge pmnet1 server client0 client1 client2",
        "links": (
            "merge->pmnet1 pmnet1->server client0->merge client1->merge "
            "client2->merge"),
    },
    "switch-3-cache": {
        "trace_digest":
            "60bf75ecd5b130400474939ed3e4de771f4cd95c99ac56fa5f6105739ceedbb7",
        "samples_digest":
            "d0c8c3749db308d9d2a613475a718cddc95223fcab80174b6faaff3a28bc830c",
        "final_now": 1684977,
        "executed_events": 1584,
        "nodes": "merge pmnet1 pmnet2 pmnet3 server client0 client1 client2",
        "links": (
            "pmnet1->pmnet2 pmnet2->pmnet3 merge->pmnet1 pmnet3->server "
            "client0->merge client1->merge client2->merge"),
    },
    "switch-tcp": {
        "trace_digest":
            "4fa25d396b105df7dd820e78737bf1f0ba9c6ee0e59c4b6e605eb5eb614882e6",
        "samples_digest":
            "2175c600e14e40d95852d1435cf3b424c7383ca9dd8aa359eaa71005c11b3d7c",
        "final_now": 1825059,
        "executed_events": 945,
        "nodes": "merge pmnet1 server client0 client1 client2",
        "links": (
            "merge->pmnet1 pmnet1->server client0->merge client1->merge "
            "client2->merge"),
    },
    "nic": {
        "trace_digest":
            "e8e8bf910df94b71db7979c7dbae85190491616f4313a0c71ba49cefb2a9afd0",
        "samples_digest":
            "a92c0ce5e842cf8368afa7120933252db5a6ef31d63815db74010879e5275f65",
        "final_now": 1667456,
        "executed_events": 945,
        "nodes": "tor pmnet-nic server client0 client1 client2",
        "links": (
            "tor->pmnet-nic pmnet-nic->server client0->tor client1->tor "
            "client2->tor"),
    },
    "sharded-3": {
        "trace_digest":
            "a4e141d2fd34d6c4c6e95ec4a8643f3622d48432c74966abf00ca87dea105ebd",
        "samples_digest":
            "d4669737043e5f79990a38ccd70ab55473718dcb13fe02543dc7d306f6fb3bcb",
        "final_now": 1680181,
        "executed_events": 991,
        "nodes": "merge pmnet1 server server1 server2 client0 client1 client2",
        "links": (
            "merge->pmnet1 pmnet1->server pmnet1->server1 pmnet1->server2 "
            "client0->merge client1->merge client2->merge"),
    },
    "two-rack": {
        "trace_digest":
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
        "samples_digest":
            "6d79d09d7d1a49e07edaa8fe2e2eb0de5dec0d4683151722576025d08db9fc40",
        "final_now": 1697218,
        "executed_events": 1302,
        "nodes": "pmnet-client-tor core pmnet-server-tor server client0 client1 client2",
        "links": (
            "pmnet-client-tor->core core->pmnet-server-tor "
            "pmnet-server-tor->server client0->pmnet-client-tor "
            "client1->pmnet-client-tor client2->pmnet-client-tor"),
    },
}


class TestShapes:
    @pytest.mark.parametrize("shape", sorted(SHAPES))
    def test_pinned_to_the_per_shape_builders(self, shape):
        assert _observables(SHAPES[shape]) == SHAPE_PINS[shape]

    def test_every_shape_is_pinned(self):
        assert set(SHAPES) == set(SHAPE_PINS)


#: Experiment -> leading 16 hex digits of the sha256 of its quick table.
TABLE_PINS = {
    fig18_alternatives: "e9906c96f6ebfac5",
    fig21_replication: "58dd748a8caa9b2a",
    multirack: "c7ae5c6447472550",
}


@pytest.mark.parametrize("module", list(TABLE_PINS),
                         ids=lambda module: module.__name__.split(".")[-1])
def test_quick_table_is_byte_identical(module):
    table = module.run(quick=True).format()
    digest = hashlib.sha256(table.encode()).hexdigest()[:16]
    assert digest == TABLE_PINS[module]
