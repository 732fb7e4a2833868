"""PMNet core: the device, its MAT pipeline, cache, replication, recovery."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.core.cache": ("CacheLine", "CacheState", "ReadCache"),
    "repro.core.mat": ("MATAction", "classify", "pmnet_packet"),
    "repro.core.pmnet_device": ("PMNetDevice",),
    "repro.core.recovery": ("ResendEngine",),
    "repro.core.replication": ("NO_PMNET", "SINGLE_LOG",
                               "ReplicationPolicy"),
})

__all__ = [
    "PMNetDevice",
    "MATAction", "classify", "pmnet_packet",
    "ReadCache", "CacheState", "CacheLine",
    "ResendEngine",
    "ReplicationPolicy", "NO_PMNET", "SINGLE_LOG",
]
