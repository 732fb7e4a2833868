"""The five PMDK example stores, re-implemented with metered PM costs."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.pmdk.base": ("PersistentStructure",),
    "repro.workloads.pmdk.btree": ("PMBTree",),
    "repro.workloads.pmdk.ctree": ("PMCTree",),
    "repro.workloads.pmdk.hashmap": ("PMHashmap",),
    "repro.workloads.pmdk.pmobj": ("DEFAULT_PM_COSTS", "PMCostProfile",
                                   "PMMeter"),
    "repro.workloads.pmdk.rbtree": ("PMRBTree",),
    "repro.workloads.pmdk.skiplist": ("PMSkiplist",),
})

__all__ = [
    "PersistentStructure",
    "PMBTree", "PMCTree", "PMHashmap", "PMRBTree", "PMSkiplist",
    "PMCostProfile", "PMMeter", "DEFAULT_PM_COSTS",
]
