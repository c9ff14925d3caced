"""Diagnostic records and the stable NV code registry.

Every finding of the static analyzer (:mod:`repro.analyze`) is a
:class:`Diagnostic` carrying a stable ``NV0xx`` code, a severity, a
human-readable message, and a source location where one is available
(``path`` plus a record index for PIF files or a line number for listings,
MDL and CMF sources).  Codes are append-only: once shipped, a code keeps
its meaning forever, so corpus expectations and CI gates stay valid.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

__all__ = [
    "Severity", "Diagnostic", "CODES", "diag", "max_severity", "counts", "sort_diagnostics",
]


class Severity(enum.IntEnum):
    """Diagnostic severity; ordering matters for ``--fail-on`` gates."""

    INFO = 10
    WARNING = 20
    ERROR = 30

    @property
    def label(self) -> str:
        return {Severity.INFO: "info", Severity.WARNING: "warn", Severity.ERROR: "error"}[self]

    @classmethod
    def parse(cls, text: str) -> "Severity":
        table = {"info": cls.INFO, "warn": cls.WARNING, "warning": cls.WARNING, "error": cls.ERROR}
        try:
            return table[text.lower()]
        except KeyError:
            raise ValueError(f"unknown severity {text!r} (use info/warn/error)") from None


#: The stable diagnostic table: code -> (default severity, one-line summary).
#: Rendered verbatim into DESIGN.md section 9 -- keep the two in sync.
CODES: dict[str, tuple[Severity, str]] = {
    "NV000": (Severity.ERROR, "input file failed to parse or load"),
    "NV001": (Severity.ERROR, "conflicting LEVEL redefinition (same name, different rank)"),
    "NV002": (Severity.ERROR, "noun/verb declared at an undefined abstraction level"),
    "NV003": (Severity.ERROR, "conflicting noun/verb redefinition (same name+level, different payload)"),
    "NV004": (Severity.WARNING, "exact duplicate record"),
    "NV005": (Severity.ERROR, "mapping endpoint does not resolve (undefined or ambiguous name)"),
    "NV006": (Severity.ERROR, "abstraction-level graph contains a mapping cycle"),
    "NV007": (Severity.WARNING, "level has no mapping path to the top abstraction"),
    "NV008": (Severity.ERROR, "one-to-many destination sets overlap (split/merge double-count hazard)"),
    "NV009": (Severity.ERROR, "MDL metric references an unknown instrumentation point"),
    "NV010": (Severity.WARNING, "MDL condition references a noun/verb no PIF declares"),
    "NV011": (Severity.WARNING, "parallel array reaches no mapping point (no node code block touches it)"),
    "NV012": (Severity.WARNING, "mapping point dominates no use (node code block never dispatched)"),
    "NV013": (Severity.ERROR, "attribution leak: level activity unreachable from the top abstraction"),
    "NV014": (Severity.WARNING, "unattributed sentence (never co-active with the top abstraction)"),
    "NV015": (Severity.WARNING, "dead declaration: static mapping never exercised by the trace"),
    "NV016": (Severity.INFO, "trace uses an abstraction level with unknown rank"),
    "NV017": (Severity.ERROR, "proven double-count: a source's mass reaches one sink along multiple paths"),
    "NV018": (Severity.ERROR, "proven attribution leak: mass dies below the top abstraction"),
    "NV019": (Severity.WARNING, "dead question: pattern can never bind given the declared nouns/verbs"),
    "NV020": (Severity.WARNING, "subsumption-redundant question (another question already implies it)"),
    "NV021": (Severity.WARNING, "MDL guard is never satisfiable (contradictory condition)"),
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding, pinned to a stable code and a location."""

    code: str
    severity: Severity
    message: str
    path: str = ""
    record: int | None = None  # PIF record index (0-based, as the parser counts)
    line: int | None = None  # source line (listings, MDL, CMF, .map)
    col: int | None = None  # source column (1-based; only with line)

    def location(self) -> str:
        loc = self.path or "<input>"
        if self.line is not None:
            if self.col is not None:
                return f"{loc}:{self.line}:{self.col}"
            return f"{loc}:{self.line}"
        if self.record is not None:
            return f"{loc}:rec{self.record}"
        return loc

    def render(self) -> str:
        return f"{self.location()}: {self.severity.label} {self.code}: {self.message}"

    def __str__(self) -> str:
        return self.render()


def diag(
    code: str,
    message: str,
    path: str = "",
    record: int | None = None,
    line: int | None = None,
    severity: Severity | None = None,
    col: int | None = None,
) -> Diagnostic:
    """Build a diagnostic, defaulting severity from the code registry."""
    try:
        default, _summary = CODES[code]
    except KeyError:
        raise ValueError(f"unregistered diagnostic code {code!r}") from None
    return Diagnostic(code, severity or default, message, path, record, line, col)


def max_severity(diagnostics: list[Diagnostic]) -> Severity | None:
    """The highest severity present, or None for a clean run."""
    return max((d.severity for d in diagnostics), default=None)


def counts(diagnostics: list[Diagnostic]) -> dict[str, int]:
    """``{"error": n, "warn": n, "info": n}`` summary counts."""
    out = {"error": 0, "warn": 0, "info": 0}
    for d in diagnostics:
        out[d.severity.label] += 1
    return out


def sort_diagnostics(diagnostics: list[Diagnostic]) -> list[Diagnostic]:
    """Deterministic presentation order: ``(file, line, col, code)``.

    Every formatter sorts through here, so output is independent of pass
    emission order (record index and message break the remaining ties --
    the order is total, not merely stable).
    """
    return sorted(
        diagnostics,
        key=lambda d: (
            d.path,
            d.line if d.line is not None else -1,
            d.col if d.col is not None else -1,
            d.code,
            d.record if d.record is not None else -1,
            d.message,
        ),
    )
