"""The paper's primary contribution: the Noun-Verb model, mappings between
levels of abstraction, cost assignment policies, performance questions, and
the Set of Active Sentences.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "assignment": (
            "AssignmentPolicy", "Attribution", "MergePolicy", "SentenceGroup", "SplitPolicy",
            "assign_costs", "attribution_error",
        ),
        "cost": (
            "BYTES", "COUNT", "CPU_TIME", "MEMORY", "WALL_TIME", "Cost", "CostTable", "CostVector",
            "Resource", "aggregate_mean", "aggregate_sum",
        ),
        "events": ("EventKind", "SentenceEvent", "Trace"),
        "mapping": ("Mapping", "MappingGraph", "MappingOrigin", "MappingType"),
        "multiq": (
            "HashRing", "MultiQuestionEngine", "PatternNode", "QuestionWatcher", "Subscription",
        ),
        "nouns": (
            "BASE_LEVEL", "AbstractionLevel", "Noun", "Sentence", "SentenceTable", "Verb",
            "Vocabulary", "sentence",
        ),
        "questions": (
            "WILDCARD", "OrderedQuestion", "PerformanceQuestion", "QAnd", "QAtom", "QExpr", "QNot",
            "QOr", "SentencePattern",
        ),
        "sas": ("ActiveSentenceSet", "DynamicMappingRecorder", "interest_from_questions"),
    },
)
