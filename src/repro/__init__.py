"""PMNet: In-Network Data Persistence (ISCA 2021) — a full reproduction.

The public API re-exports the pieces a downstream user needs:

* :class:`~repro.config.SystemConfig` — every calibration constant;
* the declarative :class:`~repro.experiments.deploy.DeploymentSpec`
  and its :func:`~repro.experiments.deploy.build` entry point
  — the one way to stand up a system: the client-server baseline,
  PMNet at the switch or NIC, the client-/server-side logging and
  server-side replication alternatives (``placement="client-log"``,
  ``"server-log"``, ``"server-replication"``), the sharded store and
  the multi-rack fabric;
* the Table I client/server libraries;
* workloads (PMDK stores, PM-Redis, Twitter, TPC-C, YCSB);
* the failure injector and recovery scenarios;
* the experiment registry regenerating every figure/table.

Every package re-exports its names lazily (:mod:`repro._lazy`): a
name's defining module is imported on first use, so importing one
module does not load the rest of the package.

Quickstart::

    from repro import DeploymentSpec, SystemConfig, build, run_closed_loop
    from repro.workloads import YCSBConfig, make_op_maker

    spec = DeploymentSpec(placement="switch")
    deployment = build(spec, SystemConfig().with_clients(4))
    stats = run_closed_loop(deployment,
                            make_op_maker(YCSBConfig(update_ratio=1.0)),
                            requests_per_client=100)
    print(stats.mean_latency_us(), "us mean update latency")
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.config": ("DEFAULT_CONFIG", "SystemConfig",
                     "baseline_rtt_estimate", "pmnet_rtt_estimate"),
    "repro.core.pmnet_device": ("PMNetDevice",),
    "repro.core.cache": ("ReadCache",),
    "repro.errors": ("ReproError",),
    "repro.experiments.deploy": ("Deployment", "DeploymentSpec", "build"),
    "repro.experiments.driver": ("run_closed_loop", "run_sessions"),
    "repro.host.handler": ("IdealHandler", "RequestHandler"),
    "repro.host.client": ("PMNetClient",),
    "repro.host.server": ("PMNetServer",),
    "repro.sim.kernel": ("Simulator",),
})

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "SystemConfig", "DEFAULT_CONFIG",
    "baseline_rtt_estimate", "pmnet_rtt_estimate",
    "Simulator",
    "PMNetDevice", "ReadCache",
    "PMNetClient", "PMNetServer", "RequestHandler", "IdealHandler",
    "Deployment", "DeploymentSpec", "build",
    "run_closed_loop", "run_sessions",
    "ReproError",
]
