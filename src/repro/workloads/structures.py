"""The five PMDK example stores by name (Fig 19's first five rows)."""

from repro.workloads.pmdk.btree import PMBTree
from repro.workloads.pmdk.ctree import PMCTree
from repro.workloads.pmdk.hashmap import PMHashmap
from repro.workloads.pmdk.rbtree import PMRBTree
from repro.workloads.pmdk.skiplist import PMSkiplist

#: Factory map for the five PMDK stores.
PMDK_STRUCTURES = {
    "btree": PMBTree,
    "ctree": PMCTree,
    "rbtree": PMRBTree,
    "hashmap": PMHashmap,
    "skiplist": PMSkiplist,
}
