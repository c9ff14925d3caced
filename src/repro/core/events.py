"""Sentence activation traces.

The SAS reacts to activation/deactivation notifications as they happen; a
:class:`Trace` is the durable record of those notifications, used by tests
(ground truth for "what was active when"), by the Figure-7 timeline bench,
and by post-mortem analysis in the tool layer.
"""

from __future__ import annotations

import bisect
import enum
from dataclasses import dataclass
from typing import Iterable, Iterator

from .nouns import Sentence

__all__ = ["EventKind", "SentenceEvent", "Trace"]


class EventKind(enum.Enum):
    """Direction of a sentence transition."""

    ACTIVATE = "+"
    DEACTIVATE = "-"


@dataclass(frozen=True)
class SentenceEvent:
    """One activation-state transition of a sentence."""

    time: float
    kind: EventKind
    sentence: Sentence
    node_id: int | None = None

    def __str__(self) -> str:
        where = f"@n{self.node_id}" if self.node_id is not None else ""
        return f"{self.time:.6g} {self.kind.value}{where} {self.sentence}"


class Trace:
    """An append-only, time-ordered log of sentence events."""

    def __init__(self) -> None:
        self._events: list[SentenceEvent] = []

    def append(self, event: SentenceEvent) -> None:
        if self._events and event.time < self._events[-1].time:
            raise ValueError(
                f"trace time went backwards: {event.time} < {self._events[-1].time}"
            )
        self._events.append(event)

    def record(
        self, time: float, kind: EventKind, sentence: Sentence, node_id: int | None = None
    ) -> None:
        self.append(SentenceEvent(time, kind, sentence, node_id))

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[SentenceEvent]:
        return iter(self._events)

    def events(self) -> list[SentenceEvent]:
        return list(self._events)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def for_sentence(self, sentence: Sentence) -> list[SentenceEvent]:
        return [e for e in self._events if e.sentence == sentence]

    def at_level(self, level: str) -> list[SentenceEvent]:
        return [e for e in self._events if e.sentence.abstraction == level]

    def intervals(self, sentence: Sentence, end_time: float | None = None) -> list[tuple[float, float]]:
        """Closed activation intervals of ``sentence``.

        Nested (re-entrant) activations are flattened to the outermost
        interval.  An activation still open at the end of the trace is closed
        at ``end_time`` (default: the last event time).
        """
        if end_time is None:
            end_time = self._events[-1].time if self._events else 0.0
        out: list[tuple[float, float]] = []
        depth = 0
        start = 0.0
        activate = EventKind.ACTIVATE  # bound once, not looked up per event
        for event in self.for_sentence(sentence):
            if event.kind is activate:
                if depth == 0:
                    start = event.time
                depth += 1
            else:
                if depth == 0:
                    raise ValueError(f"deactivate without activate for {sentence}")
                depth -= 1
                if depth == 0:
                    out.append((start, event.time))
        if depth > 0:
            out.append((start, end_time))
        return out

    def active_time(self, sentence: Sentence, end_time: float | None = None) -> float:
        """Total virtual time ``sentence`` spent active."""
        return sum(e - s for s, e in self.intervals(sentence, end_time))

    def snapshot_at(self, time: float) -> list[Sentence]:
        """Sentences active at ``time`` (events *at* ``time`` included), in
        first-activation order.

        An unbalanced deactivate raises ``ValueError`` -- the same contract
        as :meth:`intervals` (it used to be swallowed here, leaving the
        depth negative so a later re-activation silently vanished from the
        snapshot).
        """
        depth: dict[Sentence, int] = {}
        order: list[Sentence] = []
        activate = EventKind.ACTIVATE
        for event in self._events:
            if event.time > time:
                break
            d = depth.get(event.sentence, 0)
            if event.kind is activate:
                if d == 0:
                    order.append(event.sentence)
                depth[event.sentence] = d + 1
            else:
                if d == 0:
                    raise ValueError(f"deactivate without activate for {event.sentence}")
                depth[event.sentence] = d - 1
                if d == 1:
                    order.remove(event.sentence)
        return order

    def time_bounds(self) -> tuple[float, float]:
        if not self._events:
            return (0.0, 0.0)
        return (self._events[0].time, self._events[-1].time)

    def merged(self, others: Iterable["Trace"]) -> "Trace":
        """A new trace merging this one with ``others``, sorted by time.

        Same-instant ties keep input order: the sort is stable over the
        concatenation ``[self, *others]``, so events at equal times appear
        in trace-argument order and, within one trace, in recorded order.
        Per-node causality (activate before its matching deactivate) is
        therefore preserved across the merge.
        """
        events = sorted(
            [e for t in [self, *others] for e in t._events],
            key=lambda e: e.time,
        )
        out = Trace()
        for e in events:
            out.append(e)
        return out

    def events_before(self, time: float) -> list[SentenceEvent]:
        """Events with ``event.time <= time`` -- the bound is *inclusive*,
        matching :meth:`snapshot_at` (events at exactly ``time`` count)."""
        idx = bisect.bisect_right([e.time for e in self._events], time)
        return self._events[:idx]

    # ------------------------------------------------------------------
    # replay
    # ------------------------------------------------------------------
    def replay_into(self, sas) -> None:
        """Replay this trace's transitions into a SAS engine, in order.

        This is the differential-oracle driver: one trace replayed through
        the SAS and a reference implementation must leave them observably
        identical.  Timing is governed by the target SAS's own clock; the
        trace's recorded times are not re-imposed.
        """
        activate = EventKind.ACTIVATE
        for event in self._events:
            if event.kind is activate:
                sas.activate(event.sentence)
            else:
                sas.deactivate(event.sentence)
