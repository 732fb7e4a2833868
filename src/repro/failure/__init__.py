"""Failure injection, the Fig 12/13 recovery scenarios, chaos sweeps."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.failure.chaos": ("ChaosPlan", "ChaosRunResult", "Fault",
                            "append_to_corpus", "generate_plan",
                            "load_corpus", "repro_line", "run_plan",
                            "shrink"),
    "repro.failure.injector": ("FailureInjector", "FailureRecord"),
    "repro.failure.scenarios": ("ScenarioOutcome", "client_failure_mid_run",
                                "device_failure_before_ack",
                                "device_failure_before_receive",
                                "intermittent_server_failure",
                                "permanent_device_failure_with_replication"),
})

__all__ = [
    "FailureInjector", "FailureRecord",
    "ScenarioOutcome",
    "intermittent_server_failure",
    "device_failure_before_ack",
    "device_failure_before_receive",
    "client_failure_mid_run",
    "permanent_device_failure_with_replication",
    "ChaosPlan", "ChaosRunResult", "Fault",
    "generate_plan", "run_plan", "shrink", "repro_line",
    "load_corpus", "append_to_corpus",
]
