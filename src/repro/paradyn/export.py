"""Exporters: metric streams and sentence traces to CSV / Chrome trace JSON.

Paradyn's visualization interface was open ("we could build specialized
visualization modules..."); these exporters are the modern equivalent:
metric samples go to CSV for any plotting tool, and sentence traces go to
the Chrome trace-event format so a SAS timeline can be inspected in
``chrome://tracing`` / Perfetto, one row per level of abstraction.

The trace exporters accept anything iterable over
:class:`~repro.core.events.SentenceEvent` -- an in-memory
:class:`~repro.core.Trace` or a :class:`~repro.trace.ColumnarTraceReader`
over a recorded ``.rtrcx`` file -- and *stream*: pass ``out=`` (any text file
object) to write rows as they are produced instead of building one giant
string.  Without ``out`` the old return-a-string behaviour is kept.
"""

from __future__ import annotations

import csv
import io
import json
from typing import IO, Iterable

from ..core import EventKind, SentenceEvent
from .metrics import MetricInstance

__all__ = ["samples_to_csv", "trace_to_csv", "trace_to_chrome"]


def samples_to_csv(
    instances: Iterable[MetricInstance], out: IO[str] | None = None
) -> str | None:
    """One CSV row per sample: metric, focus, time, value, units."""
    sink = out if out is not None else io.StringIO()
    writer = csv.writer(sink)
    writer.writerow(["metric", "focus", "time", "value", "units"])
    for inst in instances:
        for t, v in inst.samples:
            writer.writerow([inst.name, inst.focus.describe(), f"{t:.9g}", f"{v:.9g}", inst.units])
    return sink.getvalue() if out is None else None


def trace_to_csv(
    trace: Iterable[SentenceEvent], out: IO[str] | None = None
) -> str | None:
    """One CSV row per sentence transition, streamed to ``out`` if given."""
    sink = out if out is not None else io.StringIO()
    writer = csv.writer(sink)
    writer.writerow(["time", "event", "level", "sentence", "node"])
    for event in trace:
        writer.writerow(
            [
                f"{event.time:.9g}",
                "activate" if event.kind is EventKind.ACTIVATE else "deactivate",
                event.sentence.abstraction,
                str(event.sentence),
                "" if event.node_id is None else event.node_id,
            ]
        )
    return sink.getvalue() if out is None else None


def trace_to_chrome(
    trace: Iterable[SentenceEvent],
    time_scale: float = 1e6,
    out: IO[str] | None = None,
) -> str | None:
    """Chrome trace-event JSON: B/E duration events per sentence.

    ``time_scale`` converts virtual seconds to the format's microseconds.
    Each level of abstraction becomes a thread row; nesting within a level
    follows activation order, which the trace guarantees is balanced.

    Events stream out one JSON object at a time; the thread-name metadata
    rows (known only once every level has been seen) follow the duration
    events, which the format permits -- consumers key on ``"ph"``, not on
    position.
    """
    sink = out if out is not None else io.StringIO()
    sink.write('{"traceEvents": [')
    tids: dict[str, int] = {}
    first = True
    for event in trace:
        level = event.sentence.abstraction
        tid = tids.setdefault(level, len(tids) + 1)
        record = {
            "name": str(event.sentence),
            "cat": level,
            "ph": "B" if event.kind is EventKind.ACTIVATE else "E",
            "ts": event.time * time_scale,
            "pid": event.node_id if event.node_id is not None else 0,
            "tid": tid,
        }
        sink.write(("" if first else ",\n") + json.dumps(record))
        first = False
    for level, tid in tids.items():
        record = {
            "name": "thread_name",
            "ph": "M",
            "pid": 0,
            "tid": tid,
            "args": {"name": level},
        }
        sink.write(("" if first else ",\n") + json.dumps(record))
        first = False
    sink.write('], "displayTimeUnit": "ms"}')
    return sink.getvalue() if out is None else None
