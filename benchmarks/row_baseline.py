"""Row-layout trace baseline for abl10: one varint record per transition.

The trace store keeps a run's transitions by column (``.rtrcx``).  abl10
bounds its speedups against the layout it replaced, which streamed every
transition as one varint-framed record and embedded a full SAS snapshot
every ``snapshot_every`` transitions.  This module keeps that layout for
transitions only, as a baseline; nothing in the package reads it.

Record stream, after a ``ROWB`` magic::

    TRANS    := 3 | sentence id | node << 1 | activate | time delta
    SNAPSHOT := 6 | f64 time | transitions so far | entries
                  (node | sentence id | depth | f64 times)*

A time delta is the XOR of the record's IEEE-754 bits with the previous
record's (0.0 at the start, a snapshot's own time after one), so
same-instant records cost one byte.  The footer holds the string and
sentence tables, the transition count, the time bounds and the snapshot
index; the last 8 bytes its offset.

:func:`replay_questions` answers questions over this layout the way the
package did before every replay went by sentence id through the columnar
reader: it walks every decoded event and counts nesting depth itself.
"""

from __future__ import annotations

import bisect
import struct

from repro.core import MultiQuestionEngine, nouns
from repro.core.events import EventKind, SentenceEvent
from repro.trace import RetroAnswer, SASState, question_name
from repro.trace.codec import (
    SentenceTable,
    StringTable,
    append_uvarint,
    decode_node,
    encode_node,
    read_uvarint,
)

MAGIC = b"ROWB"
TAG_TRANS = 3
TAG_SNAPSHOT = 6

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")


def _bits(value: float) -> int:
    return _U64.unpack(_F64.pack(value))[0]


def _float(bits: int) -> float:
    return _F64.unpack(_U64.pack(bits))[0]


class RowBaselineWriter:
    """A recorder (``transition`` only) that writes the row layout."""

    def __init__(self, path: str, snapshot_every: int = 1024):
        self.path = path
        self.snapshot_every = snapshot_every
        self._buf = bytearray(MAGIC)
        self._strings = StringTable()
        self._sents = SentenceTable(self._strings)
        self._prev_bits = 0
        self._first_time = None
        self._last_time = 0.0
        self._since_snapshot = 0
        self._snapshots: list[tuple[float, int]] = []  # (time, offset)
        self._state: dict = {}  # node -> sentence id -> activation times
        self.transitions = 0

    def transition(self, time, kind, sentence, node_id=None) -> None:
        if self._since_snapshot >= self.snapshot_every:
            self._snapshot()
        buf = self._buf
        sid = self._sents.intern(sentence)
        activate = kind is EventKind.ACTIVATE
        per = self._state.setdefault(node_id, {})
        if activate:
            per.setdefault(sid, []).append(time)
        else:
            stack = per[sid]
            stack.pop()
            if not stack:
                del per[sid]
        bits = _bits(time)
        append_uvarint(buf, TAG_TRANS)
        append_uvarint(buf, sid)
        append_uvarint(buf, (encode_node(node_id) << 1) | activate)
        append_uvarint(buf, bits ^ self._prev_bits)
        self._prev_bits = bits
        if self._first_time is None:
            self._first_time = time
        self._last_time = time
        self.transitions += 1
        self._since_snapshot += 1

    def record_trace(self, trace) -> None:
        for event in trace:
            self.transition(event.time, event.kind, event.sentence, event.node_id)

    def _snapshot(self) -> None:
        buf = self._buf
        self._snapshots.append((self._last_time, len(buf)))
        append_uvarint(buf, TAG_SNAPSHOT)
        buf += _F64.pack(self._last_time)
        append_uvarint(buf, self.transitions)
        entries = [(n, sid, st) for n, per in self._state.items() for sid, st in per.items()]
        append_uvarint(buf, len(entries))
        for node, sid, stack in entries:
            append_uvarint(buf, encode_node(node))
            append_uvarint(buf, sid)
            append_uvarint(buf, len(stack))
            for t in stack:
                buf += _F64.pack(t)
        self._prev_bits = _bits(self._last_time)
        self._since_snapshot = 0

    def close(self) -> None:
        footer_at = len(self._buf)
        footer = bytearray()
        self._strings.encode_table(footer)
        self._sents.encode_table(footer)
        append_uvarint(footer, self.transitions)
        footer += _F64.pack(self._first_time or 0.0)
        footer += _F64.pack(self._last_time)
        append_uvarint(footer, len(self._snapshots))
        for t, offset in self._snapshots:
            footer += _F64.pack(t)
            append_uvarint(footer, offset)
        with open(self.path, "wb") as fh:
            fh.write(self._buf + footer + _U64.pack(footer_at))

    def __enter__(self) -> "RowBaselineWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class RowBaselineReader:
    """Decodes the row layout record by record; seeks from a snapshot."""

    def __init__(self, path: str):
        with open(path, "rb") as fh:
            data = fh.read()
        if data[:4] != MAGIC:
            raise ValueError(f"{path}: not a row baseline file")
        self._data = data
        self._end = _U64.unpack_from(data, len(data) - 8)[0]
        strings, pos = StringTable.decode_table(data, self._end)
        self.sentences, pos = SentenceTable.decode_table(data, pos, strings)
        self.transitions, pos = read_uvarint(data, pos)
        self._bounds = struct.unpack_from("<dd", data, pos)
        count, pos = read_uvarint(data, pos + 16)
        self._snapshots: list[tuple[float, int]] = []
        for _ in range(count):
            t = _F64.unpack_from(data, pos)[0]
            offset, pos = read_uvarint(data, pos + 8)
            self._snapshots.append((t, offset))
        self._snap_times = [t for t, _ in self._snapshots]

    def _walk(self, pos: int):
        """``("trans", time, sid, activate, node)`` and ``("snap", time,
        entries)`` tuples from ``pos`` (the start or a snapshot) onwards."""
        data, end = self._data, self._end
        prev_bits = 0
        while pos < end:
            tag, pos = read_uvarint(data, pos)
            if tag == TAG_TRANS:
                sid, pos = read_uvarint(data, pos)
                flags, pos = read_uvarint(data, pos)
                delta, pos = read_uvarint(data, pos)
                prev_bits ^= delta
                yield ("trans", _float(prev_bits), sid, bool(flags & 1), decode_node(flags >> 1))
            else:
                t = _F64.unpack_from(data, pos)[0]
                _, pos = read_uvarint(data, pos + 8)
                nentries, pos = read_uvarint(data, pos)
                entries = []
                for _ in range(nentries):
                    node, pos = read_uvarint(data, pos)
                    sid, pos = read_uvarint(data, pos)
                    depth, pos = read_uvarint(data, pos)
                    times = [_F64.unpack_from(data, pos + 8 * k)[0] for k in range(depth)]
                    pos += 8 * depth
                    entries.append((decode_node(node), sid, times))
                prev_bits = _bits(t)
                yield ("snap", t, entries)

    def events(self):
        sentences = self.sentences
        for rec in self._walk(len(MAGIC)):
            if rec[0] == "trans":
                _, time, sid, activate, node = rec
                kind = EventKind.ACTIVATE if activate else EventKind.DEACTIVATE
                yield SentenceEvent(time, kind, sentences[sid], node)

    def __iter__(self):
        return self.events()

    def time_bounds(self) -> tuple[float, float] | None:
        return self._bounds if self.transitions else None

    def seek(self, time: float) -> SASState:
        """SAS state at ``time``: the last snapshot at or before it, then
        the transitions up to it."""
        pos = len(MAGIC)
        idx = bisect.bisect_right(self._snap_times, time) - 1
        if idx >= 0:
            pos = self._snapshots[idx][1]
        state = SASState()
        sentences = self.sentences
        for rec in self._walk(pos):
            if rec[1] > time:
                break
            if rec[0] == "trans":
                _, t, sid, activate, node = rec
                state.apply_transition(sentences[sid], activate, t, node)
            else:
                state = SASState()
                for node, sid, times in rec[2]:
                    state.nodes.setdefault(node, {})[sentences[sid]] = list(times)
        return state


def replay_questions(reader: RowBaselineReader, questions, end_time: float) -> dict:
    """``evaluate_questions`` by event replay: every decoded event, its
    sentence looked up in a table of the reader's sentences, nesting depth
    counted per sentence across nodes, and each outermost activation and
    last deactivation fed to a fresh engine bound to that table."""
    engine = MultiQuestionEngine(table=nouns.SentenceTable(reader.sentences))
    subs = [(question_name(q), engine.subscribe(q)) for q in questions]
    sid_of = engine.table.sid
    change = engine.membership_change_sid
    activate = EventKind.ACTIVATE
    depth: dict[int, int] = {}
    for event in reader.events():
        sid = sid_of(event.sentence)
        d = depth.get(sid, 0)
        if event.kind is activate:
            depth[sid] = d + 1
            if not d:
                change(sid, True, event.time)
        else:
            depth[sid] = d - 1
            if d == 1:
                change(sid, False, event.time)
    return {
        name: RetroAnswer(
            name=name,
            satisfied_time=sub.watcher.total_satisfied_time(end_time),
            transitions=sub.watcher.transitions,
            satisfied_at_end=sub.watcher.satisfied,
            end_time=end_time,
        )
        for name, sub in subs
    }
