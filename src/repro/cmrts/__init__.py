"""CMRTS: the CM run-time system substitute.

Distributed parallel arrays with real per-node numpy blocks, an allocation
manager whose return point is the canonical dynamic-mapping point, SPMD
collectives over the simulated network, the node code block dispatcher with
instrumentation points and SAS notification sites, and the control-processor
runtime that executes compiled CMF programs.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "alloc": ("AllocationEvent", "AllocationManager"),
        "arrays": ("ParallelArray", "block_ranges", "owner_of"),
        "comm": (
            "NodeComm", "Transfer", "chain_exclusive_scan", "plan_redistribution",
            "plan_shift_transfers", "plan_transpose_transfers", "tree_broadcast_from_zero",
            "tree_reduce_to_zero",
        ),
        "dispatch": ("NodeWorker", "block_verb_for_array"),
        "nv": (
            "POINTS", "BASE_LEVEL", "BASE_VERBS", "CMF_LEVEL", "CMF_VERBS", "CMRTS_LEVEL",
            "CMRTS_VERBS", "TRANSFORM_VERB_NAMES", "array_noun", "array_op", "block_noun",
            "cmrts_activity", "line_executes", "line_noun", "node_noun", "processor_noun",
            "processor_sends", "standard_vocabulary",
        ),
        "runtime": ("CMRTSRuntime", "RuntimeConfig", "ScalarEnv", "run_program"),
    },
)
