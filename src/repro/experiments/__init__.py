"""Experiment harness: deployments, drivers, one module per figure."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.experiments.deploy": ("Deployment", "DeploymentSpec", "build"),
    "repro.experiments.driver": ("ClientAPI", "RunStats", "run_closed_loop",
                                 "run_sessions"),
    "repro.experiments.multirack": ("build_two_rack",),
})

__all__ = [
    "Deployment", "DeploymentSpec", "build", "build_two_rack",
    "RunStats", "ClientAPI", "run_closed_loop", "run_sessions",
]
