"""The lint driver: classify inputs, run every pass, format results.

``lint_paths`` is what ``repro lint`` calls.  Inputs are classified by
extension (``.pif``, ``.mdl``, ``.cmf``/``.fcm``, ``.rtrcx``); a file
with any other name is a trace when it starts with the ``.rtrcx`` magic,
as every ``repro trace`` command would open it.  They are
processed in dependency order: PIF and CM Fortran sources first (they
build the static context), then MDL (checked against that context's
vocabulary), then traces (sanitized against the merged static
document).  A CM Fortran source contributes twice: the IR pass runs over
its lowering output, and the PIF generated from its listing is folded
into the static context so traces of the program can be sanitized
against it.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

from ..cmrts.nv import POINTS, standard_vocabulary
from ..mdl.library import standard_metrics
from ..mdl.parser import parse_mdl
from ..pif.format import load as load_pif
from ..pif.records import PIFDocument
from .deadq import analyze_document_questions
from .diagnostics import Diagnostic, Severity, counts, diag, max_severity, sort_diagnostics
from .flow import analyze_flow
from .mdlpass import analyze_mdl
from .nv import analyze_pif, merge_documents

__all__ = [
    "LintResult",
    "lint_paths",
    "format_text",
    "format_json",
]

#: pseudo-path the --mdl-library input is reported under
LIBRARY_PATH = "<figure9-library>"

_LINE_RE = re.compile(r"\bline\s+(\d+)", re.IGNORECASE)


@dataclass
class LintResult:
    """Everything one lint run produced."""

    diagnostics: list[Diagnostic] = field(default_factory=list)
    inputs: list[str] = field(default_factory=list)

    @property
    def worst(self) -> Severity | None:
        return max_severity(self.diagnostics)

    def counts(self) -> dict[str, int]:
        return counts(self.diagnostics)

    def codes(self, path: str | None = None) -> list[str]:
        """Sorted unique codes, optionally restricted to one input."""
        return sorted(
            {d.code for d in self.diagnostics if path is None or d.path == path}
        )

    def fails(self, threshold: Severity) -> bool:
        worst = self.worst
        return worst is not None and worst >= threshold


def _error_line(exc: Exception) -> int | None:
    """Pull a source line out of an exception, if it reports one."""
    lineno = getattr(exc, "lineno", None)
    if isinstance(lineno, int):
        return lineno
    m = _LINE_RE.search(str(exc))
    return int(m.group(1)) if m else None


def _error_col(exc: Exception) -> int | None:
    """Pull a source column out of an exception, if it reports one."""
    col = getattr(exc, "col", None)
    return col if isinstance(col, int) else None


def _classify(path: str) -> str:
    lower = path.lower()
    for ext, kind in (
        (".pif", "pif"),
        (".mdl", "mdl"),
        (".cmf", "cmf"),
        (".fcm", "cmf"),
        (".rtrcx", "trace"),
    ):
        if lower.endswith(ext):
            return kind
    from ..trace.columnar import MAGIC_X

    try:
        with open(path, "rb") as fh:
            if fh.read(len(MAGIC_X)) == MAGIC_X:
                return "trace"
    except OSError:
        pass
    return "unknown"


def lint_paths(
    paths: list[str],
    mdl_library: bool = False,
    jobs: int | None = None,
    deep: bool = False,
) -> LintResult:
    """Run every applicable analyzer pass over the given input files.

    ``jobs > 1`` fans trace sanitization's interval scan across the sweep
    worker pool.
    ``deep`` adds the whole-program semantic passes: attribution-flow
    conservation proofs (NV017/NV018), mapping-derived question analysis
    (NV019/NV020), and MDL guard satisfiability (NV021).
    """
    result = LintResult(inputs=list(paths))
    out = result.diagnostics

    by_kind: dict[str, list[str]] = {"pif": [], "mdl": [], "cmf": [], "trace": []}
    for path in paths:
        kind = _classify(path)
        if kind == "unknown":
            out.append(
                diag("NV000", "unrecognized input type (expected .pif/.mdl/.cmf/.rtrcx)", path)
            )
        else:
            by_kind[kind].append(path)

    # ---- static context: PIF files and PIF generated from CMF listings
    docs: list[tuple[str, PIFDocument]] = []
    pif_docs: list[tuple[str, PIFDocument]] = []
    for path in by_kind["pif"]:
        try:
            doc = load_pif(path)
        except Exception as exc:
            out.append(
                diag(
                    "NV000",
                    f"cannot load PIF: {exc}",
                    path,
                    line=_error_line(exc),
                    col=_error_col(exc),
                )
            )
            continue
        out.extend(analyze_pif(doc, path))
        if deep:
            out.extend(analyze_flow(doc, path).diagnostics)
            out.extend(analyze_document_questions(doc, path))
        docs.append((path, doc))
        pif_docs.append((path, doc))

    if by_kind["cmf"]:
        from ..cmfortran.program import compile_source
        from ..pif.generator import generate_pif
        from .cmfpass import analyze_program
    for path in by_kind["cmf"]:
        try:
            with open(path, encoding="utf-8") as fh:
                source = fh.read()
            program = compile_source(source, source_file=path)
        except Exception as exc:
            out.append(
                diag(
                    "NV000",
                    f"cannot compile: {exc}",
                    path,
                    line=_error_line(exc),
                    col=_error_col(exc),
                )
            )
            continue
        out.extend(analyze_program(program, path))
        generated = generate_pif(program.listing)
        out.extend(analyze_pif(generated, path))
        if deep:
            out.extend(analyze_flow(generated, path).diagnostics)
            out.extend(analyze_document_questions(generated, path))
        docs.append((path, generated))

    # Explicit PIF inputs assert one shared mapping universe, so cross-file
    # redefinition conflicts between them are reportable; compiler-generated
    # documents are per-program namespaces and merge is not attempted.
    if len(pif_docs) > 1:
        _merged, merge_diags = merge_documents(pif_docs)
        out.extend(merge_diags)

    # ---- MDL, checked against PIF vocabulary + the standard CMRTS world
    vocab = standard_vocabulary()
    known_verbs = {v.name for lv in vocab.levels() for v in vocab.verbs_at(lv.name)}
    known_verbs |= {d.name for _p, doc in docs for d in doc.verbs}
    known_nouns = {d.name for _p, doc in docs for d in doc.nouns} or None
    points = frozenset(POINTS)

    mdl_inputs: list[tuple[str, object]] = []
    if mdl_library:
        mdl_inputs.append((LIBRARY_PATH, list(standard_metrics().values())))
        result.inputs.append(LIBRARY_PATH)
    for path in by_kind["mdl"]:
        try:
            with open(path, encoding="utf-8") as fh:
                metrics = parse_mdl(fh.read())
        except Exception as exc:
            out.append(diag("NV000", f"cannot parse MDL: {exc}", path, line=_error_line(exc)))
            continue
        mdl_inputs.append((path, metrics))
    for path, metrics in mdl_inputs:
        out.extend(
            analyze_mdl(
                metrics,
                path,
                points=points,
                verbs=known_verbs,
                nouns=known_nouns,
                deep=deep,
            )
        )

    # ---- traces, sanitized against every static document
    static_docs = [doc for _path, doc in docs]
    if by_kind["trace"]:
        from ..trace.columnar import open_trace
        from .sanitize import sanitize_trace
    for path in by_kind["trace"]:
        try:
            reader = open_trace(path)
        except Exception as exc:
            out.append(diag("NV000", f"cannot read trace: {exc}", path))
            continue
        try:
            out.extend(sanitize_trace(reader, static_docs, path, jobs=jobs))
        except ValueError as exc:  # a CodecError, or transitions that do not nest
            out.append(diag("NV000", f"cannot read trace: {exc}", path))

    return result


# ----------------------------------------------------------------------
# output formats
# ----------------------------------------------------------------------
def format_text(result: LintResult) -> str:
    lines = [d.render() for d in sort_diagnostics(result.diagnostics)]
    c = result.counts()
    lines.append(
        f"{len(result.inputs)} input(s): "
        f"{c['error']} error(s), {c['warn']} warning(s), {c['info']} info"
    )
    return "\n".join(lines)


def format_json(result: LintResult) -> str:
    payload = {
        "inputs": result.inputs,
        "counts": result.counts(),
        "diagnostics": [
            {
                "code": d.code,
                "severity": d.severity.label,
                "message": d.message,
                "path": d.path,
                "record": d.record,
                "line": d.line,
                "col": d.col,
            }
            for d in sort_diagnostics(result.diagnostics)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
