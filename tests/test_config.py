"""Unit tests for configuration validation and the RTT estimates."""

from dataclasses import replace

import pytest

from repro.config import (
    DEFAULT_CONFIG,
    FPGA_PM,
    QUICK_SCALE_CLIENTS,
    LogConfig,
    NetworkProfile,
    PipelineProfile,
    ServerProfile,
    StackProfile,
    SystemConfig,
    baseline_rtt_estimate,
    fold_level,
    pmnet_rtt_estimate,
)
from repro.errors import ConfigurationError
from repro.sim import Simulator


class TestValidation:
    def test_default_config_is_valid(self):
        DEFAULT_CONFIG.validate()

    def test_negative_stack_latency_rejected(self):
        bad = StackProfile("bad", send_ns=-1, recv_ns=1,
                           copy_ns_per_byte=1.0, dispatch_ns=1)
        with pytest.raises(ConfigurationError):
            bad.validate()

    def test_bad_hiccup_probability_rejected(self):
        bad = StackProfile("bad", send_ns=1, recv_ns=1,
                           copy_ns_per_byte=1.0, dispatch_ns=1,
                           hiccup_probability=1.5)
        with pytest.raises(ConfigurationError):
            bad.validate()

    @pytest.mark.parametrize("field", ["copy_ns_per_byte", "hiccup_ns",
                                       "jitter_sigma"])
    def test_negative_stack_field_rejected_by_name(self, field):
        bad = replace(DEFAULT_CONFIG.client_stack, **{field: -1})
        with pytest.raises(ConfigurationError, match=field):
            bad.validate()
        with pytest.raises(ConfigurationError, match=field):
            replace(SystemConfig(), server_stack=bad).validate()

    def test_zero_stack_fields_stay_valid(self):
        # A jitter-free, copy-free, hiccup-free stack is a legitimate
        # fixture; only negatives are rejected.
        replace(DEFAULT_CONFIG.client_stack, copy_ns_per_byte=0.0,
                hiccup_ns=0, jitter_sigma=0.0).validate()

    def test_mtu_must_exceed_framing(self):
        with pytest.raises(ConfigurationError):
            NetworkProfile(mtu_bytes=40).validate()

    @pytest.mark.parametrize("field", ["propagation_ns", "switch_forward_ns",
                                       "header_overhead_bytes",
                                       "queue_capacity_packets"])
    def test_negative_network_field_rejected_by_name(self, field):
        bad = replace(NetworkProfile(), **{field: -1})
        with pytest.raises(ConfigurationError, match=field):
            bad.validate()
        with pytest.raises(ConfigurationError, match=field):
            replace(SystemConfig(), network=bad).validate()

    def test_zero_network_fields_stay_valid(self):
        # Zero-delay wires and switches and zero-capacity queues are
        # legitimate test fixtures; only negatives are rejected.
        NetworkProfile(propagation_ns=0, switch_forward_ns=0,
                       header_overhead_bytes=0,
                       queue_capacity_packets=0).validate()

    def test_log_must_fit_in_device_pm(self):
        huge_log = LogConfig(entry_bytes=1 << 20, num_entries=1 << 16)
        config = replace(SystemConfig(), log=huge_log)
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_server_needs_workers(self):
        with pytest.raises(ConfigurationError):
            ServerProfile(worker_cores=0).validate()

    def test_pipeline_stage_costs_nonnegative(self):
        with pytest.raises(ConfigurationError):
            PipelineProfile(ingress_ns=-1).validate()

    def test_payload_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            SystemConfig(payload_bytes=0).validate()


class TestConvenienceConstructors:
    def test_with_vma_swaps_both_stacks(self):
        vma = SystemConfig().with_vma()
        assert vma.client_stack.name == "vma-client"
        assert vma.server_stack.name == "vma-server"

    def test_with_clients(self):
        assert SystemConfig().with_clients(3).num_clients == 3

    def test_with_payload(self):
        assert SystemConfig().with_payload(999).payload_bytes == 999

    def test_with_seed(self):
        assert SystemConfig().with_seed(42).seed == 42

    def test_original_config_untouched(self):
        base = SystemConfig()
        base.with_clients(99)
        assert base.num_clients == 64


class TestQuickScale:
    def test_quick_scale_shrinks_only_clients(self):
        quick = DEFAULT_CONFIG.quick_scale()
        quick.validate()
        assert quick.num_clients == QUICK_SCALE_CLIENTS
        assert quick.num_clients < DEFAULT_CONFIG.num_clients
        # Everything that shapes per-request latency is untouched.
        assert quick.client_stack == DEFAULT_CONFIG.client_stack
        assert quick.server_stack == DEFAULT_CONFIG.server_stack
        assert quick.pipeline == DEFAULT_CONFIG.pipeline
        assert quick.network_pm == DEFAULT_CONFIG.network_pm
        assert quick.log == DEFAULT_CONFIG.log
        assert quick.payload_bytes == DEFAULT_CONFIG.payload_bytes

    def test_round_trip_restores_full_scale(self):
        restored = DEFAULT_CONFIG.quick_scale().with_clients(
            DEFAULT_CONFIG.num_clients)
        assert restored == DEFAULT_CONFIG

    def test_quick_scale_composes_with_other_constructors(self):
        quick_vma = DEFAULT_CONFIG.with_vma().quick_scale().with_seed(9)
        assert quick_vma.num_clients == QUICK_SCALE_CLIENTS
        assert quick_vma.client_stack.name == "vma-client"
        assert quick_vma.seed == 9

    def test_scale_pick_quick_matches_quick_scale(self, monkeypatch):
        from repro.experiments.common import Scale
        monkeypatch.delenv("REPRO_FULL", raising=False)
        scale = Scale.pick(quick=True)
        assert scale.clients == QUICK_SCALE_CLIENTS
        assert scale.apply(DEFAULT_CONFIG) == DEFAULT_CONFIG.quick_scale()

    def test_repro_full_restores_paper_scale(self, monkeypatch):
        from repro.experiments.common import Scale
        monkeypatch.setenv("REPRO_FULL", "1")
        scale = Scale.pick(quick=True)
        assert scale.clients == DEFAULT_CONFIG.num_clients


class TestCalibration:
    """The analytic estimates must stay near the paper's Fig 18 points."""

    def test_pmnet_rtt_near_21_5us(self):
        assert pmnet_rtt_estimate(SystemConfig()) == pytest.approx(
            21_500, rel=0.08)

    def test_baseline_rtt_near_2_7x_pmnet(self):
        config = SystemConfig()
        ratio = baseline_rtt_estimate(config) / pmnet_rtt_estimate(config)
        assert 2.3 < ratio < 3.1

    def test_rtt_grows_with_payload(self):
        config = SystemConfig()
        assert (baseline_rtt_estimate(config, payload_bytes=1000)
                > baseline_rtt_estimate(config, payload_bytes=50))

    def test_fpga_pm_matches_paper_constants(self):
        assert FPGA_PM.write_latency_ns == 273  # Sec V-A
        assert FPGA_PM.capacity_bytes == 2 * 1024 ** 3

    def test_log_queue_is_4kb(self):
        assert LogConfig().write_queue_bytes == 4096  # Sec V-A


class TestFoldKnob:
    """``PMNET_FOLD`` is retired: every pipeline stage is its own event.
    (The class name predates the retirement.)"""

    @pytest.mark.parametrize("spelling", [
        "none", "off", "0", "whole", "2", " Whole ", ""])
    def test_any_fold_value_is_retired(self, monkeypatch, spelling):
        monkeypatch.setenv("PMNET_FOLD", spelling)
        with pytest.raises(ConfigurationError,
                           match="PMNET_FOLD was retired"):
            Simulator()

    @pytest.mark.parametrize("spelling", ["stage", "1", "STAGE"])
    def test_retired_stage_level_fails_loudly(self, monkeypatch, spelling):
        monkeypatch.setenv("PMNET_FOLD", spelling)
        with pytest.raises(ConfigurationError, match="PMNET_FOLD"):
            Simulator()

    def test_unknown_level_rejected(self, monkeypatch):
        monkeypatch.setenv("PMNET_FOLD", "most")
        with pytest.raises(ConfigurationError, match="PMNET_FOLD"):
            Simulator()

    def test_fold_level_is_a_constant_for_the_benchmark(self, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        assert fold_level() == 0

    def test_no_fold_message_names_no_live_knob(self, monkeypatch):
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        monkeypatch.setenv("PMNET_NO_FOLD", "1")
        with pytest.raises(ConfigurationError) as error:
            Simulator()
        assert "PMNET_NO_FOLD was retired" in str(error.value)
        assert "PMNET_FOLD=" not in str(error.value)

    @pytest.mark.parametrize("knob, value", [
        ("PMNET_KERNEL", "heap"), ("PMNET_KERNEL", "tiered"),
        ("PMNET_NO_FOLD", "1"), ("PMNET_NO_FOLD", "0"),
        ("PMNET_KERNEL_HORIZON", "4096")])
    def test_retired_knobs_fail_loudly(self, monkeypatch, knob, value):
        # Set to any value — even the old default — a retired knob
        # names itself instead of being silently ignored, where a
        # simulator is built.
        monkeypatch.delenv("PMNET_FOLD", raising=False)
        monkeypatch.setenv(knob, value)
        with pytest.raises(ConfigurationError, match=knob):
            Simulator()
