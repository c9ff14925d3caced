"""Dynamic instrumentation: points, predicates, primitives, and the manager
that inserts/removes them in a running application (after Hollingsworth,
Miller & Cargille), plus the sentence-notification sites feeding the SAS.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "manager": (
            "Action", "IncrementCounter", "InsertedHandle", "InstrumentationManager",
            "InstrumentationRequest", "StartTimer", "StopTimer",
        ),
        "notify": ("SentenceNotifier",),
        "predicates": (
            "TRUE", "AndPredicate", "ContextContains", "ContextEquals", "FnPredicate",
            "NotPredicate", "OrPredicate", "Predicate", "SASGate", "TruePredicate",
        ),
        "primitives": ("PROCESS", "WALL", "Counter", "Timer"),
        "probes": ("NullProbe", "PointContext", "Probe"),
    },
)
