"""Driving simulator studies from compiled mapping artifacts.

The point of the DSL is that a ``.map`` program *is* the scenario: its
MAPPING records name exactly the cross-level measurements a study should
make.  This module closes that loop for the Section-4.2.3 database study:

* :func:`questions_from_document` turns each MAPPING record of a
  :class:`~repro.pif.PIFDocument` into the Figure-6 performance question
  "measure the destination sentence while the source sentence is active";
* :func:`run_db_scenario` runs :func:`~repro.dbsim.run_db_study` recording
  into an in-memory ``.rtrcx`` and answers those questions post-mortem over
  the server's recorded view -- the same fused stream the live watchers saw;
* :func:`serialize_answers` renders the answers to stable bytes, so two
  runs driven by canonically-equal documents (one hand-written, one
  compiled from DSL source) can be compared for *byte* identity.
"""

from __future__ import annotations

import json
from io import BytesIO
from typing import TYPE_CHECKING, Any, Sequence

from ..core.questions import PerformanceQuestion, SentencePattern
from ..pif.records import PIFDocument

if TYPE_CHECKING:
    from ..dbsim.model import Query
    from ..dbsim.study import DBOutcome
    from ..trace.retro import RetroAnswer

__all__ = [
    "questions_from_document",
    "run_db_scenario",
    "serialize_answers",
]


def questions_from_document(doc: PIFDocument) -> list[PerformanceQuestion]:
    """One :class:`PerformanceQuestion` per distinct MAPPING record.

    A record ``{Q_orders, QueryActive} -> {server0, DiskRead}`` asks for
    measurements of the destination sentence gated on the source sentence
    being active -- the conjunction the paper's Figure 6 questions are made
    of.  Duplicate records collapse (canonical-form semantics), so two
    canonically-equal documents always yield the same question set.
    """
    questions: list[PerformanceQuestion] = []
    seen = set()
    for md in doc.mappings:
        if md in seen:
            continue
        seen.add(md)
        questions.append(
            PerformanceQuestion(
                f"{md.source} -> {md.destination}",
                (
                    SentencePattern(md.source.verb, md.source.nouns),
                    SentencePattern(md.destination.verb, md.destination.nouns),
                ),
                description="mapping-derived: destination activity while source is active",
            )
        )
    return questions


def run_db_scenario(
    doc: PIFDocument,
    queries: "Sequence[Query] | None" = None,
    **study_kwargs: Any,
) -> "tuple[DBOutcome, dict[str, RetroAnswer]]":
    """Run the database study, answered by the document's mapping questions.

    Returns ``(outcome, answers)``: the live
    :class:`~repro.dbsim.DBOutcome` plus one
    :class:`~repro.trace.retro.RetroAnswer` per MAPPING record, evaluated
    over the server node's recorded view (local disk reads fused with
    forwarded client state -- exactly what the live watchers observed, so a
    mapping-derived question reproduces the live watcher's satisfied time).
    """
    from ..dbsim.study import run_db_study  # local import: dbsim pulls in machine
    from ..trace.columnar import ColumnarTraceReader, ColumnarTraceWriter
    from ..trace.retro import evaluate_questions

    questions = questions_from_document(doc)
    buf = BytesIO()
    with ColumnarTraceWriter(buf) as recorder:
        outcome = run_db_study(queries=queries, recorder=recorder, **study_kwargs)
    server_node = study_kwargs.get("num_clients", 1)
    answers = evaluate_questions(
        ColumnarTraceReader(buf.getvalue()),
        questions,
        end_time=outcome.elapsed,
        node=server_node,
    )
    return outcome, answers


def serialize_answers(answers: "dict[str, RetroAnswer]") -> bytes:
    """Stable byte rendering of a retro answer set, for identity asserts."""
    payload = {
        name: {
            "satisfied_time": a.satisfied_time,
            "transitions": a.transitions,
            "satisfied_at_end": a.satisfied_at_end,
            "end_time": a.end_time,
        }
        for name, a in answers.items()
    }
    return json.dumps(payload, sort_keys=True).encode("ascii")
