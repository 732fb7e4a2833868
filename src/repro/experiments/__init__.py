"""Experiment harness: deployments, drivers, one module per figure."""

from repro.experiments.deploy import (
    Deployment,
    DeploymentSpec,
    build,
)
from repro.experiments.driver import (
    ClientAPI,
    RunStats,
    run_closed_loop,
    run_sessions,
)
from repro.experiments.multirack import build_two_rack
from repro.experiments.summary import format_summary, health_check, summarize

__all__ = [
    "Deployment", "DeploymentSpec", "build", "build_two_rack",
    "summarize", "health_check", "format_summary",
    "RunStats", "ClientAPI", "run_closed_loop", "run_sessions",
]
