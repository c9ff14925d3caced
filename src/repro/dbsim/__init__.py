"""Distributed database study: cross-node SAS communication (Section 4.2.3)."""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "bus": ("BusConfig", "BusStats", "FaultPlan", "ForwardingBus", "Subscription"),
        "model": ("DB_LEVEL", "Query", "db_vocabulary", "query_active", "server_disk_read"),
        "study": ("CLIENT_NODE", "SERVER_NODE", "DBOutcome", "run_db_study"),
    },
)
