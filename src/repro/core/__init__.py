"""The paper's primary contribution: the Noun-Verb model, mappings between
levels of abstraction, cost assignment policies, performance questions, and
the Set of Active Sentences.
"""

from .assignment import (
    AssignmentPolicy,
    Attribution,
    MergePolicy,
    SentenceGroup,
    SplitPolicy,
    assign_costs,
    attribution_error,
)
from .cost import (
    BYTES,
    COUNT,
    CPU_TIME,
    MEMORY,
    WALL_TIME,
    Cost,
    CostTable,
    CostVector,
    Resource,
    aggregate_mean,
    aggregate_sum,
)
from .events import EventKind, SentenceEvent, Trace
from .mapping import Mapping, MappingGraph, MappingOrigin, MappingType
from .multiq import (
    HashRing,
    MultiQuestionEngine,
    PatternNode,
    QuestionWatcher,
    Subscription,
)
from .nouns import BASE_LEVEL, AbstractionLevel, Noun, Sentence, Verb, Vocabulary, sentence
from .questions import (
    WILDCARD,
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QExpr,
    QNot,
    QOr,
    SentencePattern,
)
from .sas import ActiveSentenceSet, DynamicMappingRecorder, interest_from_questions

__all__ = [
    "AbstractionLevel",
    "ActiveSentenceSet",
    "AssignmentPolicy",
    "Attribution",
    "BASE_LEVEL",
    "BYTES",
    "COUNT",
    "CPU_TIME",
    "Cost",
    "CostTable",
    "CostVector",
    "DynamicMappingRecorder",
    "EventKind",
    "HashRing",
    "interest_from_questions",
    "Mapping",
    "MappingGraph",
    "MappingOrigin",
    "MappingType",
    "MEMORY",
    "MergePolicy",
    "MultiQuestionEngine",
    "PatternNode",
    "Subscription",
    "Noun",
    "OrderedQuestion",
    "PerformanceQuestion",
    "QAnd",
    "QAtom",
    "QExpr",
    "QNot",
    "QOr",
    "QuestionWatcher",
    "Resource",
    "Sentence",
    "sentence",
    "SentenceEvent",
    "SentenceGroup",
    "SentencePattern",
    "SplitPolicy",
    "Trace",
    "Verb",
    "Vocabulary",
    "WALL_TIME",
    "WILDCARD",
    "aggregate_mean",
    "aggregate_sum",
    "assign_costs",
    "attribution_error",
]
