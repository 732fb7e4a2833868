"""Workloads: the operation model, PMDK stores, Redis, Twitter, TPC-C."""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "repro.workloads.handlers": ("StructureHandler",),
    "repro.workloads.kv": ("BYPASS_KINDS", "UPDATE_KINDS", "OpKind",
                           "Operation", "Result", "estimate_result_bytes"),
    "repro.workloads.pmdk.btree": ("PMBTree",),
    "repro.workloads.pmdk.ctree": ("PMCTree",),
    "repro.workloads.pmdk.hashmap": ("PMHashmap",),
    "repro.workloads.pmdk.rbtree": ("PMRBTree",),
    "repro.workloads.pmdk.skiplist": ("PMSkiplist",),
    "repro.workloads.redis": ("PMRedis", "RedisHandler"),
    "repro.workloads.structures": ("PMDK_STRUCTURES",),
    "repro.workloads.tpcc": ("TPCCHandler",),
    "repro.workloads.twitter": ("TwitterHandler",),
    "repro.workloads.ycsb": ("YCSBConfig", "YCSBGenerator", "make_op_maker"),
})

__all__ = [
    "Operation", "Result", "OpKind", "UPDATE_KINDS", "BYPASS_KINDS",
    "estimate_result_bytes",
    "PMBTree", "PMCTree", "PMRBTree", "PMHashmap", "PMSkiplist",
    "PMDK_STRUCTURES", "StructureHandler",
    "PMRedis", "RedisHandler", "TwitterHandler", "TPCCHandler",
    "YCSBConfig", "YCSBGenerator", "make_op_maker",
]
