"""MDL: the Metric Description Language (Section 6.3).

A lexer/parser for metric definitions, a compiler producing guarded
instrumentation requests, and the standard library defining every Figure-9
metric in MDL source.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "ast": (
            "AtClause", "Comparison", "Condition", "Conjunction", "ContainsTest", "Disjunction",
            "MetricDef", "Negation",
        ),
        "compiler": ("CompiledMetric", "compile_metric", "condition_to_predicate"),
        "format": ("dumps_mdl", "render_condition"),
        "library": ("FIGURE9_MDL", "FIGURE9_ROWS", "metric_named", "standard_metrics"),
        "parser": ("MDLSyntaxError", "parse_mdl", "tokenize_mdl"),
    },
)
