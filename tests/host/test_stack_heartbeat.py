"""Unit tests for the host stack model and heartbeat monitoring."""

import pytest

from repro.config import (
    KERNEL_CLIENT_STACK,
    KERNEL_SERVER_STACK,
    SystemConfig,
    VMA_CLIENT_STACK,
)
from repro.experiments.deploy import DeploymentSpec, build
from repro.host.heartbeat import HeartbeatMonitor, MonitorEndpoint
from repro.host.node import HostNode
from repro.host.stackmodel import TCP, UDP, HostStack
from repro.sim import Simulator
from repro.sim.clock import microseconds


class TestHostStack:
    def test_tcp_costs_more_than_udp(self):
        sim = Simulator(seed=0)
        udp = HostStack(sim, "u", KERNEL_CLIENT_STACK, UDP)
        tcp = HostStack(sim, "t", KERNEL_CLIENT_STACK, TCP)
        udp_mean = sum(udp.send_cost(100) for _ in range(500)) / 500
        tcp_mean = sum(tcp.send_cost(100) for _ in range(500)) / 500
        assert tcp_mean > udp_mean + 2_000

    def test_payload_size_charges_copies(self):
        sim = Simulator(seed=0)
        stack = HostStack(sim, "s", KERNEL_CLIENT_STACK)
        small = sum(stack.recv_cost(10) for _ in range(500)) / 500
        large = sum(stack.recv_cost(1400) for _ in range(500)) / 500
        assert large > small + 2_000

    def test_vma_is_much_faster(self):
        sim = Simulator(seed=0)
        kernel = HostStack(sim, "k", KERNEL_SERVER_STACK)
        vma = HostStack(sim, "v", VMA_CLIENT_STACK)
        kernel_mean = sum(kernel.send_cost(100) for _ in range(300)) / 300
        vma_mean = sum(vma.send_cost(100) for _ in range(300)) / 300
        assert vma_mean < kernel_mean / 3

    def test_dispatch_has_a_tail(self):
        sim = Simulator(seed=1)
        stack = HostStack(sim, "s", KERNEL_SERVER_STACK)
        samples = [stack.dispatch_cost() for _ in range(20_000)]
        baseline = sorted(samples)[len(samples) // 2]
        assert max(samples) > baseline + KERNEL_SERVER_STACK.hiccup_ns // 2

    def test_unknown_transport_rejected(self):
        with pytest.raises(ValueError):
            HostStack(Simulator(), "s", KERNEL_CLIENT_STACK, "sctp")


class TestHeartbeat:
    def _deployment_with_monitor(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        sim = deployment.sim
        stack = HostStack(sim, "monitor", KERNEL_CLIENT_STACK)
        host = HostNode(sim, "monitor", stack)
        deployment.topology.add(host)
        deployment.topology.connect(host, deployment.switches[0])
        deployment.topology.compute_routes()
        endpoint = MonitorEndpoint(host)
        events = []
        monitor = HeartbeatMonitor(
            sim, host, "server", period_ns=microseconds(100),
            on_failure=lambda: events.append(("down", sim.now)),
            on_recovery=lambda: events.append(("up", sim.now)))
        endpoint.attach(monitor)
        return deployment, monitor, events

    def test_healthy_server_never_flagged(self):
        deployment, monitor, events = self._deployment_with_monitor()
        monitor.start()
        deployment.sim.run(until=microseconds(2_000))
        monitor.stop()
        deployment.sim.run()
        assert events == []
        assert monitor.target_alive

    def test_failure_detected_after_missed_beats(self):
        deployment, monitor, events = self._deployment_with_monitor()
        monitor.start()
        deployment.sim.schedule_at(microseconds(500),
                                   deployment.server.host.fail)
        deployment.sim.run(until=microseconds(3_000))
        monitor.stop()
        deployment.sim.run()
        assert events and events[0][0] == "down"
        # Detection within a few heartbeat periods of the failure.
        assert events[0][1] < microseconds(500 + 5 * 100)

    def test_recovery_detected(self):
        deployment, monitor, events = self._deployment_with_monitor()
        monitor.start()
        deployment.sim.schedule_at(microseconds(500),
                                   deployment.server.host.fail)
        deployment.sim.schedule_at(microseconds(1_500),
                                   deployment.server.host.recover)
        deployment.sim.run(until=microseconds(4_000))
        monitor.stop()
        deployment.sim.run()
        kinds = [kind for kind, _t in events]
        assert kinds == ["down", "up"]

    def test_bad_threshold_rejected(self):
        sim = Simulator()
        stack = HostStack(sim, "m", KERNEL_CLIENT_STACK)
        host = HostNode(sim, "m", stack)
        with pytest.raises(ValueError):
            HeartbeatMonitor(sim, host, "server", miss_threshold=0)


class TestDetectionLatency:
    """Regression for the ``_last_answered`` off-by-one: seeding the
    high-water mark at -1 counted a phantom miss, so a dead target was
    flagged one full period early (after ``miss_threshold - 1`` real
    misses).  Detection must take exactly ``miss_threshold`` unanswered
    pings — for a target dead from the very first ping and for one that
    dies mid-run alike."""

    def _monitored(self):
        deployment = build(DeploymentSpec(placement="none"),
                           SystemConfig().with_clients(1))
        sim = deployment.sim
        stack = HostStack(sim, "monitor", KERNEL_CLIENT_STACK)
        host = HostNode(sim, "monitor", stack)
        deployment.topology.add(host)
        deployment.topology.connect(host, deployment.switches[0])
        deployment.topology.compute_routes()
        endpoint = MonitorEndpoint(host)
        detected = []
        monitor = HeartbeatMonitor(
            sim, host, "server", period_ns=microseconds(100),
            miss_threshold=3,
            on_failure=lambda: detected.append(sim.now))
        endpoint.attach(monitor)
        return deployment, monitor, detected

    def test_dead_from_start_takes_threshold_full_periods(self):
        deployment, monitor, detected = self._monitored()
        deployment.server.host.fail()  # dead before the first ping
        monitor.start()
        deployment.sim.run(until=microseconds(1_000))
        monitor.stop()
        deployment.sim.run()
        # Ping k is checked at k*period; misses reach 3 at the third
        # check — 300 us, not 200 us (the off-by-one fired at seq 2).
        assert detected == [microseconds(300)]

    def test_dies_mid_run_takes_threshold_full_periods(self):
        deployment, monitor, detected = self._monitored()
        monitor.start()
        # Fail between ticks: ping 5 (sent at 400 us) is the last one
        # answered; pings 6, 7, 8 go unanswered.
        deployment.sim.schedule_at(microseconds(450),
                                   deployment.server.host.fail)
        deployment.sim.run(until=microseconds(2_000))
        monitor.stop()
        deployment.sim.run()
        # check(8) at 800 us is the first with seq - last_answered >= 3.
        assert detected == [microseconds(800)]
