"""Type checking for the mapping DSL: NV lint findings as DSL diagnostics.

The DSL has no analysis passes of its own.  ``check`` compiles the
program and runs the compiled :class:`~repro.pif.records.PIFDocument`
through :func:`repro.analyze.nv.analyze_pif` and the embedded metrics
through :func:`repro.analyze.mdlpass.analyze_mdl` -- the same passes
``repro lint`` runs over hand-written artifacts -- then remaps every
finding back onto the ``.map`` source via the elaborator's
:class:`~repro.mapdsl.elaborate.SourceMap`.  An NV005 "undefined noun"
on record 7 of the compiled document therefore surfaces as
``prog.map:12:9: error NV005: ...`` with a caret under the offending
reference, never as an artifact-level record index.

Front-end failures (lex/parse/resolve) are reported the same way, as
NV000 diagnostics with the error's own span, so callers see one uniform
diagnostic stream whether the program failed to compile or compiled into
something the NV model rejects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from ..analyze.deadq import analyze_document_questions
from ..analyze.diagnostics import Diagnostic, diag, sort_diagnostics
from ..analyze.flow import analyze_flow
from ..analyze.mdlpass import analyze_mdl
from ..analyze.nv import analyze_pif
from ..cmrts.nv import POINTS, standard_vocabulary
from ..span import SourceSpan, caret_block
from .elaborate import Elaborated, SourceMap, elaborate
from .errors import MapDSLError
from .parser import parse_map

__all__ = ["CheckResult", "compile_map", "check_map"]


@dataclass
class CheckResult:
    """Outcome of one ``mapc check`` run over a single program."""

    path: str
    source: str
    elaborated: Elaborated | None
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.elaborated is not None and not self.diagnostics

    def render(self) -> str:
        """Diagnostics with source-line carets, one block per finding."""
        blocks = []
        for d in sort_diagnostics(self.diagnostics):
            text = d.render()
            if d.line is not None:
                caret = caret_block(
                    self.source, SourceSpan(d.line, d.col or 1)
                )
                if caret:
                    text += "\n" + caret
            blocks.append(text)
        return "\n".join(blocks)


def compile_map(source: str, path: str = "<map>") -> Elaborated:
    """Parse and elaborate DSL source; raises :class:`MapDSLError`."""
    try:
        return elaborate(parse_map(source))
    except MapDSLError as exc:
        if not exc.path:
            exc.path = path
        raise


def _metric_span(smap: SourceMap, message: str) -> SourceSpan | None:
    """Best span for an MDL finding: the clause it names, else the metric."""
    for name, (clause_spans, decl) in smap.metric_clauses.items():
        if f"metric {name!r}" not in message:
            continue
        for span, clause in zip(clause_spans, decl.definition.clauses, strict=False):
            if repr(clause.point) in message:
                return span
            cond = clause.condition
            if cond is not None and any(
                repr(value) in message for value in _condition_values(cond)
            ):
                return span
        return smap.metrics.get(name)
    for name, span in smap.metrics.items():
        if f"metric {name!r}" in message:
            return span
    return None


def _condition_values(cond) -> list[str]:
    """Every string value a condition tree compares against."""
    values: list[str] = []
    terms = getattr(cond, "terms", None)
    if terms is not None:
        for term in terms:
            values.extend(_condition_values(term))
        return values
    inner = getattr(cond, "term", None)
    if inner is not None:
        return _condition_values(inner)
    value = getattr(cond, "value", None)
    if isinstance(value, str):
        values.append(value)
    return values


def _remap(d: Diagnostic, smap: SourceMap, path: str) -> Diagnostic:
    """Rewrite one artifact-level finding onto the DSL source."""
    span = None
    if d.code in ("NV009", "NV010") or "metric " in d.message:
        span = _metric_span(smap, d.message)
    if span is None:
        span = smap.span_for(d.record, d.message)
    return replace(d, path=path, record=None, line=span.line, col=span.col)


def check_map(source: str, path: str = "<map>", deep: bool = False) -> CheckResult:
    """Compile ``source`` and lint the result, mapping findings to spans.

    Never raises on bad input: front-end errors come back as NV000
    diagnostics carrying the error span, matching the lint driver's
    convention for unloadable artifacts.  ``deep`` adds the semantic
    passes ``repro lint --deep`` runs -- flow conservation (NV017/NV018),
    question analysis (NV019/NV020), guard satisfiability (NV021) -- with
    every finding re-anchored onto the ``.map`` source span of the
    mapping rule or metric clause that caused it.
    """
    try:
        elab = compile_map(source, path)
    except MapDSLError as exc:
        span = exc.span or SourceSpan(1, 1)
        return CheckResult(
            path,
            source,
            None,
            [diag("NV000", exc.message, path, line=span.line, col=span.col)],
        )

    out = [_remap(d, elab.source_map, path) for d in analyze_pif(elab.document, path)]
    if deep:
        out.extend(
            _remap(d, elab.source_map, path)
            for d in analyze_flow(elab.document, path).diagnostics
        )
        out.extend(
            _remap(d, elab.source_map, path)
            for d in analyze_document_questions(elab.document, path)
        )

    if elab.metrics:
        vocab = standard_vocabulary()
        verbs = {v.name for lv in vocab.levels() for v in vocab.verbs_at(lv.name)}
        verbs |= {d.name for d in elab.document.verbs}
        nouns = {d.name for d in elab.document.nouns} or None
        out.extend(
            _remap(d, elab.source_map, path)
            for d in analyze_mdl(
                elab.metrics,
                path,
                points=frozenset(POINTS),
                verbs=verbs,
                nouns=nouns,
                deep=deep,
            )
        )
    return CheckResult(path, source, elab, out)
