"""One workload run in a fresh process.

    PYTHONPATH=src python bench/worker.py WORKLOAD SEED SCALE TRACED

Prints one JSON object holding the run's raw measurements.  ``run.py``
starts one worker per round and turns rounds into metrics and checks.
TRACED=1 drives the run through ``tracing.py`` for per-layer CPU time;
TRACED=0 runs the simulator as users do and reads its exact counters.
"""

import time

#: Iterations of the calibration loop, and its CPU time on an
#: undisturbed core of the machine the bounds were set on (Python 3.11).
CALIBRATION_LOOP = 25_000
CALIBRATION_REFERENCE_S = 0.0015


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python loop: the machine's speed now.

    On a shared host the same code runs up to 1.9x slower for seconds at
    a time (other tenants, frequency changes), and CPU and wall time
    both count that slowdown in full.  Timings are rescaled to the
    reference speed by the calibrations taken around them.
    """
    started = time.process_time()
    total = 0
    for index in range(CALIBRATION_LOOP):
        total += index * index % 7
    return time.process_time() - started


def at_reference_speed(seconds: float, before: float, after: float) -> float:
    return seconds * CALIBRATION_REFERENCE_S / ((before + after) / 2)


# Set-up time starts here, before the simulator is imported.
SETUP_CALIBRATION = calibrate()
STARTED = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from typing import Dict, List  # noqa: E402

import workloads  # noqa: E402

#: Events per slice of a calibrated run (20-40 ms of CPU).  The
#: slowdowns come and go within tenths of a second: against 20,000-event
#: slices this cut the quartile distance of one seed's rounds from 7%
#: to 2%.
SLICE_EVENTS = 2_000


def run_calibrated(run: workloads.Run, before: float) -> Dict[str, float]:
    """Run to completion in slices, each timed between two calibrations
    (``before`` is the one just taken).

    Returns the raw CPU seconds and the CPU seconds at reference speed.
    Slicing ``run(max_events=...)`` executes the same events in the same
    order as one ``run()``.
    """
    sim = run.deployment.sim
    cpu = reference_cpu = 0.0
    started = time.process_time()
    run.engine.start()
    while True:
        executed = sim.executed_events
        sim.run(max_events=SLICE_EVENTS)
        spent = time.process_time() - started
        drained = sim.executed_events - executed < SLICE_EVENTS
        after = calibrate()
        cpu += spent
        reference_cpu += at_reference_speed(spent, before, after)
        if drained:
            return {"cpu_s": cpu, "reference_cpu_s": reference_cpu}
        before = after
        started = time.process_time()


def _total(items, attribute: str) -> int:
    return sum(int(getattr(item, attribute)) for item in items)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def counts(run: workloads.Run) -> Dict[str, float]:
    """Exact per-layer counts, read from the components after the run."""
    from repro.core.pmnet_device import PMNetDevice
    from repro.host.sharded import ShardedClient
    from repro.net.switch import Switch

    deployment = run.deployment
    sim = deployment.sim
    completed = run.engine.completed
    updates = len(run.engine.tagged.get(True, ()))
    reads = len(run.engine.tagged.get(False, ()))
    nodes = deployment.topology.nodes.values()
    channels = [channel for link in deployment.topology.links
                for channel in (link.forward, link.backward)]
    switches = [node for node in nodes if isinstance(node, Switch)]
    devices = [node for node in nodes if isinstance(node, PMNetDevice)]
    logs = [device.log for device in devices]
    queues = ([device.write_queue for device in devices]
              + [device.read_queue for device in devices])
    pms = [device.pm for device in devices]
    caches = [device.cache for device in devices if device.cache is not None]
    # Sharded clients keep one PMNetClient per server, with no public
    # accessor; tests/test_bench.py pins the attribute.
    clients = [sub for client in deployment.clients
               for sub in (client._subclients
                           if isinstance(client, ShardedClient) else [client])]
    servers = deployment.servers
    kernel = sim.kernel_stats()
    pops = kernel["lane_pops"] + kernel["near_pops"] + kernel["far_pops"]
    drops = _total(channels, "dropped_full") + _total(channels, "dropped_loss")
    delivered = _total(channels, "delivered")
    logged = _total(logs, "logged")
    bypassed = (_total(logs, "bypassed_full") + _total(logs, "bypassed_collision")
                + _total(logs, "bypassed_queue_busy"))
    rejected = _total(queues, "rejected")
    hits = _total(caches, "hits")
    lookups = hits + _total(caches, "misses")
    per_req = 1.0 / completed
    result = {
        "sim.events_per_req": sim.executed_events * per_req,
        "sim.lane_pop_share": _share(kernel["lane_pops"], pops),
        "sim.near_pop_share": _share(kernel["near_pops"], pops),
        "sim.far_pop_share": _share(kernel["far_pops"], pops),
        "sim.resequences_per_req": kernel["resequences"] * per_req,
        "net.frames_per_req": delivered * per_req,
        "net.bytes_per_req": _total(channels, "bytes_sent") * per_req,
        "net.folded_send_share": _share(_total(channels, "folded_sends"),
                                        delivered + drops),
        "net.switch_forwards_per_req": _total(switches, "forwarded") * per_req,
        "net.drops_per_req": drops * per_req,
        "net.queue_depth_max": max(channel.queue_depth_highwater.highwater
                                   for channel in channels),
        "core.folded_stages_per_req":
            _total(devices, "folded_stages") * per_req,
        "core.pmnet_acks_per_update":
            _share(_total(devices, "acks_sent"), updates),
        "core.redo_resends": _total(devices, "redo_resends"),
        "core.retrans_served": _total(devices, "retrans_served"),
        "core.cache_hit_rate": _share(hits, lookups),
        "core.cache_responses_per_read":
            _share(_total(devices, "cache_responses"), reads),
        "pm.log_appends_per_update": _share(logged, updates),
        "pm.log_bypass_share": _share(bypassed, logged + bypassed),
        "pm.queue_reject_share":
            _share(rejected, rejected + _total(queues, "accepted")),
        "pm.writes_per_req": _total(pms, "writes_completed") * per_req,
        "pm.bytes_written_per_req": _total(pms, "bytes_written") * per_req,
        "host.early_ack_share": _total(clients, "completed_pmnet") * per_req,
        "host.server_completion_share":
            _total(clients, "completed_server") * per_req,
        "host.cache_completion_share":
            _total(clients, "completed_cache") * per_req,
        "host.retransmissions_per_req":
            _total(clients, "retransmissions") * per_req,
        "host.makeup_acks": _total(servers, "makeup_acks"),
        "host.recovery_repolls": _total(servers, "recovery_repolls"),
        "host.server_processed_per_req": _total(servers, "processed") * per_req,
        "control.ticks": 0, "control.migrations": 0,
        "control.migration_virtual_us": 0.0, "control.parked_released": 0,
    }
    if run.plane is not None:
        moves = run.plane.migrator.completed
        result.update({
            "control.ticks": int(run.plane.balancer.ticks),
            "control.migrations": len(moves),
            "control.migration_virtual_us": sum(
                stats.completed_at_ns - stats.requested_at_ns
                for stats in moves) / 1000.0,
            "control.parked_released": sum(stats.parked_released
                                           for stats in moves),
        })
    return result


def main(argv: List[str]) -> int:
    name, seed, scale, traced = argv[1], int(argv[2]), float(argv[3]), argv[4]
    recorder = None
    if traced == "1":
        import tracing

        recorder = tracing.Recorder()
        tracing.install(recorder)
    run = workloads.prepare(name, seed, scale)
    sim = run.deployment.sim
    setup_wall_s = time.perf_counter() - STARTED
    after_setup = calibrate()
    setup_s = at_reference_speed(setup_wall_s, SETUP_CALIBRATION, after_setup)
    if recorder is None:
        cpu = run_calibrated(run, after_setup)
    else:
        cpu_started = time.process_time()
        recorder.reset()
        recorder.charged(run.engine.start, "workloads")()
        tracing.drive(sim, recorder)
        cpu = {"cpu_s": time.process_time() - cpu_started}
        # Copied now: reading results below calls wrapped entry points.
        layer_cpu_s = dict(recorder.cpu)
        layer_events = dict(recorder.events)

    from repro.config import fold_level

    result = run.engine.result()
    steady_requests, steady_ns = run.steady_rate()
    report = {
        "workload": name, "seed": seed, "scale": scale,
        "traced": recorder is not None,
        "kernel": sim.kernel, "fold_level": fold_level(),
        "setup_s": setup_s, "setup_wall_s": setup_wall_s, **cpu,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "issued": result.issued, "completed": result.completed,
        "errors": result.errors, "digest": result.digest(),
        "latencies_ns": sorted(latency for rows in result.samples.values()
                               for latency in rows),
        "steady_requests": steady_requests, "steady_ns": steady_ns,
    }
    if run.plane is not None:
        placement = run.plane.placement
        report["failover"] = {
            "migration_in_flight": run.plane.migrator.busy,
            "victim_owners": len(placement.owners_resolving_to(run.victim)),
            "migrations": len(run.plane.migrator.completed),
        }
    if recorder is None:
        report["counts"] = counts(run)
    else:
        report["layer_cpu_s"] = layer_cpu_s
        report["layer_events"] = layer_events
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
