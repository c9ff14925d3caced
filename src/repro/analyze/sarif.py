"""SARIF 2.1.0 output for NV findings.

SARIF (Static Analysis Results Interchange Format) is what editors and
GitHub code scanning ingest, so ``repro lint --format sarif`` and
``repro mapc check --format sarif`` let the NV analyzer surface inline
in review.  One run object carries the whole invocation: the tool
driver advertises every registered NV code as a rule (metadata straight
from :data:`~repro.analyze.diagnostics.CODES`, so the two can never
drift), and each diagnostic becomes a result pointing at its rule by
index with its source span as a region.

Only the fields this module emits are claimed -- the emitted document
is valid against the official 2.1.0 schema's required-property set,
which ``tests/analyze/test_sarif.py`` checks with ``jsonschema``.
"""

from __future__ import annotations

import json

from .diagnostics import CODES, Diagnostic, Severity, sort_diagnostics
from .driver import LintResult

__all__ = ["SARIF_VERSION", "format_sarif"]

SARIF_VERSION = "2.1.0"
_SCHEMA_URI = "https://json.schemastore.org/sarif-2.1.0.json"

#: NV severity -> SARIF result level
_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
    Severity.INFO: "note",
}


def _rules() -> list[dict]:
    return [
        {
            "id": code,
            "shortDescription": {"text": summary},
            "defaultConfiguration": {"level": _LEVELS[severity]},
        }
        for code, (severity, summary) in CODES.items()
    ]


def _location(d: Diagnostic) -> dict:
    physical: dict = {"artifactLocation": {"uri": d.path or "<input>"}}
    region: dict = {}
    if d.line is not None:
        region["startLine"] = d.line
        if d.col is not None:
            region["startColumn"] = d.col
    elif d.record is not None:
        # PIF records carry no line; the record index rides along as a
        # char-offset-free logical region marker via message, and the
        # region is omitted (SARIF regions are physical)
        pass
    if region:
        physical["region"] = region
    return {"physicalLocation": physical}


def _result(d: Diagnostic, rule_index: dict[str, int]) -> dict:
    message = d.message
    if d.record is not None:
        message = f"{message} [record {d.record}]"
    return {
        "ruleId": d.code,
        "ruleIndex": rule_index[d.code],
        "level": _LEVELS[d.severity],
        "message": {"text": message},
        "locations": [_location(d)],
    }


def format_sarif(result: LintResult) -> str:
    """Render one lint run as a SARIF 2.1.0 log (stable key order)."""
    rules = _rules()
    rule_index = {rule["id"]: i for i, rule in enumerate(rules)}
    log = {
        "$schema": _SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "repro-nv",
                        "informationUri": "https://example.invalid/repro",
                        "version": "1.0.0",
                        "rules": rules,
                    }
                },
                "artifacts": [
                    {"location": {"uri": path}} for path in result.inputs
                ],
                "results": [
                    _result(d, rule_index)
                    for d in sort_diagnostics(result.diagnostics)
                ],
            }
        ],
    }
    return json.dumps(log, indent=2, sort_keys=True)
