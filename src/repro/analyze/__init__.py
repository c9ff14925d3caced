"""Static mapping-information analyzer (NV lint) + trace sanitizer.

The paper's static mapping information (PIF, Section 3 / Figures 2-3) is
declared *before* execution -- which means it can also be *checked*
before execution.  This package lints every layer that carries mapping
information:

* :mod:`.nv` -- PIF documents: declarations, resolution, level graph,
  one-to-many discipline (NV001-NV008);
* :mod:`.mdlpass` -- MDL metrics against instrumentation points and the
  declared vocabulary (NV009-NV010);
* :mod:`.cmfpass` -- compiled CM Fortran IR: arrays without mapping
  points, mapping points without uses (NV011-NV012);
* :mod:`.sanitize` -- recorded ``.rtrcx`` runs cross-checked against the
  static declarations: attribution leaks and dead declarations
  (NV013-NV016);
* :mod:`.flow` -- abstract interpretation over the full mapping graph,
  proving attribution-mass conservation or producing exact-fraction
  double-count/leak verdicts with path witnesses (NV017-NV018);
* :mod:`.deadq` -- static question analysis: dead patterns and
  subsumption-redundant question sets (NV019-NV020);
* :mod:`.sarif` -- SARIF 2.1.0 output for editors / code scanning;
* :mod:`.driver` -- the ``repro lint`` entry point tying them together.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "cmfpass": ("analyze_program",),
        "deadq": (
            "DeclaredVocabulary", "analyze_document_questions", "analyze_question_set",
            "pattern_dead_reason", "question_implied_by", "table_dead_patterns",
        ),
        "diagnostics": (
            "CODES", "Diagnostic", "Severity", "counts", "diag", "max_severity", "sort_diagnostics",
        ),
        "driver": ("LintResult", "format_json", "format_text", "lint_paths"),
        "flow": ("FlowReport", "SourceVerdict", "analyze_flow", "verify_graph"),
        "mdlpass": ("analyze_mdl", "guard_unsat_reason"),
        "nv": ("analyze_pif", "merge_documents"),
        "sanitize": ("builtin_level_ranks", "sanitize_trace"),
        "sarif": ("SARIF_VERSION", "format_sarif"),
    },
)
