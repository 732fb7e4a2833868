"""Tests for the experiment harness: each figure's *shape* must hold.

These are the reproduction's acceptance tests: they run each experiment
at reduced scale and assert the qualitative claims of the paper (who
wins, roughly by how much, where the curves bend).
"""

import pytest

from repro.config import SystemConfig
from repro.experiments import (
    ablations,
    fig02_breakdown,
    fig07_ordering,
    fig15_payload_latency,
    fig16_stress,
    fig18_alternatives,
    fig19_app_throughput,
    fig20_cdf_caching,
    fig21_replication,
    fig22_vma,
    motivation,
    sec6b6_recovery,
    sec7_scaling,
)
from repro.experiments.registry import EXPERIMENTS, get


class TestFig02:
    def test_server_side_share_near_70_percent(self):
        result = fig02_breakdown.run()
        assert 0.60 < result.average_server_side_fraction < 0.85

    def test_format_mentions_every_workload(self):
        text = fig02_breakdown.run().format()
        for name in ("ideal", "btree", "redis", "tpcc"):
            assert name in text


class TestFig07:
    @pytest.fixture(scope="class")
    def result(self):
        return fig07_ordering.run(quick=True)

    def test_every_scenario_in_order_and_clean(self, result):
        """Per-session application order is exact in every scenario, and
        the PMTest-style persistence rules (R1-R6) all hold."""
        for row in result.rows:
            assert row.in_order, row.name
            assert row.checker_violations == 0, row.name

    def test_each_scenario_exercises_its_machinery(self, result):
        loss = result.scenario("(b) packet loss")
        assert loss.retrans_requests > 0
        assert loss.retrans_served_from_log > 0
        assert result.scenario("(c) server failure").resent_after_failure > 0


class TestFig15:
    @pytest.fixture(scope="class")
    def result(self):
        return fig15_payload_latency.run(quick=True, payloads=(50, 1000))

    def test_speedup_between_2x_and_3x(self, result):
        assert 2.0 < result.speedup("pmnet-switch", 50) < 3.3

    def test_speedup_decays_with_payload(self, result):
        assert (result.speedup("pmnet-switch", 1000)
                < result.speedup("pmnet-switch", 50))

    def test_switch_nic_gap_below_1us(self, result):
        assert result.switch_nic_gap_us(50) < 1.0
        assert result.switch_nic_gap_us(1000) < 1.0


class TestFig16:
    @pytest.fixture(scope="class")
    def result(self):
        return fig16_stress.run(quick=True, client_counts=(1, 4, 16, 48))

    def test_pmnet_saturates_at_higher_bandwidth(self, result):
        assert (result.saturation_bandwidth("pmnet-switch")
                > result.saturation_bandwidth("client-server"))

    def test_pmnet_below_baseline_at_every_point(self, result):
        for (_bw_b, lat_base), (_bw_p, lat_pmnet) in zip(
                result.curves["client-server"],
                result.curves["pmnet-switch"]):
            assert lat_pmnet < lat_base

    def test_latency_spikes_near_the_port_limit(self, result):
        assert result.latency_spike_ratio("pmnet-switch") > 1.2


class TestFig18:
    @pytest.fixture(scope="class")
    def result(self):
        return fig18_alternatives.run(quick=True)

    def test_unreplicated_ordering(self, result):
        lat = result.latencies
        assert (lat[("client-log", 1)] < lat[("pmnet", 1)]
                < lat[("server-log", 1)])

    def test_replicated_ordering_flips_for_client_log(self, result):
        lat = result.latencies
        assert (lat[("pmnet", 3)] < lat[("client-log", 3)]
                < lat[("server-log", 3)])

    def test_pmnet_replication_nearly_free(self, result):
        lat = result.latencies
        assert lat[("pmnet", 3)] < 1.35 * lat[("pmnet", 1)]

    def test_magnitudes_near_paper(self, result):
        """Within 30% of the published microseconds."""
        from repro.experiments.fig18_alternatives import PAPER_US
        for key, paper in PAPER_US.items():
            measured = result.latencies[key]
            assert abs(measured - paper) / paper < 0.30, (key, measured)


class TestFig19:
    @pytest.fixture(scope="class")
    def result(self):
        return fig19_app_throughput.run(
            quick=True,
            workloads=["btree", "rbtree", "hashmap", "redis", "tpcc"],
            ratios=(1.0, 0.5))

    def test_everything_speeds_up_at_100pct_updates(self, result):
        for workload, ratios in result.normalized.items():
            assert ratios[1.0] > 2.0, workload

    def test_benefit_shrinks_with_reads(self, result):
        for workload, ratios in result.normalized.items():
            assert ratios[0.5] < ratios[1.0], workload

    def test_average_speedup_in_paper_band(self, result):
        assert 2.5 < result.average_speedup(1.0) < 6.0


class TestFig20:
    @pytest.fixture(scope="class")
    def result(self):
        return fig20_cdf_caching.run(quick=True)

    def test_p99_improvement_at_full_updates(self, result):
        assert result.p99_ratio(1.0) > 2.0

    def test_mean_improvement_with_cache(self, result):
        assert result.mean_ratio(1.0) > 2.5

    def test_knee_near_p50_without_cache(self, result):
        assert 0.35 < result.knee_fraction(0.5, "pmnet") < 0.65

    def test_cache_extends_past_the_knee(self, result):
        """With the cache, more of the CDF stays sub-RTT than without."""
        assert (result.knee_fraction(0.5, "pmnet+cache")
                >= result.knee_fraction(0.5, "pmnet"))

    def test_cache_hits_happen_at_mixed_ratio(self, result):
        assert result.cache_hit_rate[0.5] > 0.2
        assert result.cache_hit_rate[1.0] == 0.0


class TestFig21:
    @pytest.fixture(scope="class")
    def result(self):
        return fig21_replication.run(quick=True, workloads=["ideal",
                                                            "hashmap"])

    def test_in_network_replication_wins_big(self, result):
        assert result.average_speedup() > 3.0

    def test_pmnet_overhead_moderate(self, result):
        overhead = result.pmnet_replication_overhead("ideal")
        assert 0.05 < overhead < 0.35  # paper: 16%


class TestFig22:
    @pytest.fixture(scope="class")
    def result(self):
        return fig22_vma.run(quick=True)

    def test_speedup_persists_with_vma(self, result):
        assert result.speedup(False) > 2.0
        assert result.speedup(True) > 2.0

    def test_vma_speedup_not_smaller(self, result):
        """The paper's point: PMNet still helps after stack optimization
        (3.08x -> 3.56x)."""
        assert result.speedup(True) > result.speedup(False) * 0.9


class TestRecovery:
    @pytest.fixture(scope="class")
    def result(self):
        return sec6b6_recovery.run(quick=True)

    def test_all_acked_updates_recovered(self, result):
        assert result.durable

    def test_per_request_resend_near_67us(self, result):
        assert 40 < result.per_request_resend_us < 110

    def test_full_log_extrapolation_in_seconds_band(self, result):
        assert 2.5 < result.full_log_drain_seconds() < 8.0

    def test_total_far_below_reboot(self, result):
        # 2-3 minute reboot vs seconds of recovery.
        assert result.total_recovery_ns < 30e9


class TestSec7:
    @pytest.fixture(scope="class")
    def result(self):
        return sec7_scaling.run(quick=True,
                                bandwidths_gbps=(10.0, 40.0, 100.0))

    def test_pmnet_tracks_the_port_speed(self, result):
        """The 100 Gbps run achieves most of the port (clients, not the
        device, are the residual limit)."""
        assert result.achieved(100.0) > 8 * result.achieved(10.0)

    def test_eq2_sized_queue_never_bypasses(self, result):
        for gbps in (10.0, 40.0, 100.0):
            assert result.bypasses(gbps) == 0


class TestMotivation:
    @pytest.fixture(scope="class")
    def result(self):
        return motivation.run(quick=True)

    def test_async_hides_the_rtt(self, result):
        assert (result.throughput("async/baseline")
                > 3 * result.throughput("sync/baseline"))

    def test_async_completion_latency_is_worse(self, result):
        assert (result.latency("async/baseline")
                > result.latency("sync/baseline"))

    def test_pmnet_improves_both_for_sync_code(self, result):
        assert (result.throughput("sync/pmnet")
                > 2.5 * result.throughput("sync/baseline"))
        assert (result.latency("sync/pmnet")
                < result.latency("sync/baseline") / 2)


class TestAblations:
    def test_log_queue_sizing(self):
        result = ablations.log_queue_sizing(quick=True)
        # Smaller queues force more line-rate bypasses.
        bypass_rates = [row[3] for row in result.rows]
        assert bypass_rates[0] >= bypass_rates[-1]
        # The paper's 4 KB point keeps bypasses rare.
        four_kb = next(row for row in result.rows if row[0] == 4096)
        assert four_kb[3] < 10.0

    def test_pm_latency_sensitivity(self):
        result = ablations.pm_latency_sensitivity(quick=True)
        latencies = [row[1] for row in result.rows]
        # RTT grows monotonically with PM write latency, but slowly:
        # going 100 ns -> 5 us adds only ~5 us of RTT.
        assert latencies == sorted(latencies)
        assert latencies[-1] - latencies[0] < 7.0

    def test_log_capacity(self):
        result = ablations.log_capacity(quick=True)
        by_capacity = {row[0]: row for row in result.rows}
        # A tiny log bypasses a lot and pushes completions to the
        # server...
        assert by_capacity[8][1] > 0
        assert by_capacity[8][3] > 0
        # ...while the BDP-sized log acknowledges everything in-network.
        assert by_capacity[65536][1] == 0
        # Latency degrades toward the baseline as the log shrinks.
        assert by_capacity[8][4] > by_capacity[65536][4]

    def test_tcp_conversion_overhead(self):
        result = ablations.tcp_conversion(quick=True)
        # Paper: ~9% (which is why TCP stays the baseline).
        assert 0.0 < result.rows[2][1] < 25.0


class TestRegistry:
    def test_every_announced_experiment_exists(self):
        expected = {"fig02", "fig07", "fig15", "fig16", "fig18", "fig19",
                    "fig20",
                    "fig21", "fig22", "sec6b6", "sec7", "multirack",
                    "scaleout", "rebalance",
                    "motivation", "bdp",
                    "ablations", "chaos", "loadgen"}
        assert expected == set(EXPERIMENTS)

    def test_unknown_id_raises_with_suggestions(self):
        with pytest.raises(KeyError):
            get("fig99")

    def test_bdp_runs_instantly(self):
        text = get("bdp").run()
        assert "5.0" in text or "5,0" in text  # 5 Mbit row
