"""The persistent trace store: :class:`TraceWriter` and :class:`TraceReader`.

A ``.rtrc`` file is the durable form of a run's dynamic record -- SAS
transitions, metric samples, and dynamic mapping events -- written through
the codec in :mod:`repro.trace.codec`.  The writer doubles as a *recorder*
in the sense the rest of the repo understands: anything exposing
``transition`` / ``metric_sample`` / ``mapping`` can be attached to an
:class:`~repro.core.sas.ActiveSentenceSet` (via ``sas.attach_recorder``), a
:class:`~repro.paradyn.metrics.MetricManager`, or passed to the dbsim /
unixsim studies' ``recorder=`` parameter.

Indexed replay: every ``snapshot_every`` transitions the writer embeds a
full SAS-state snapshot (per-node activation stacks) into the stream and
remembers its byte offset in the footer index.  ``TraceReader.seek(t)``
bisects that index, decodes one snapshot, and replays only the tail --
O(log n + snapshot_every) instead of O(n) from the start of the run.
"""

from __future__ import annotations

import bisect
import json
import mmap
import struct
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Iterator

from ..core.events import EventKind, SentenceEvent, Trace
from ..core.nouns import Sentence
from ..core.mapping import MappingOrigin
from .codec import (
    MAGIC,
    MAGIC_END,
    ORIGIN_BY_CODE,
    ORIGIN_CODES,
    TAG_DEF_SENT,
    TAG_DEF_STR,
    TAG_MAPPING,
    TAG_METRIC,
    TAG_SNAPSHOT,
    TAG_TRANS,
    VERSION,
    CodecError,
    SentenceTable,
    StringTable,
    append_uvarint,
    bits_to_float,
    check_count,
    decode_node,
    decode_utf8,
    delta_bits,
    encode_node,
    float_to_bits,
    read_blob,
    read_f64,
    read_uvarint,
    undelta_bits,
)

if TYPE_CHECKING:  # pragma: no cover
    from ..core.sas import ActiveSentenceSet

__all__ = [
    "TraceWriter",
    "TraceReader",
    "SASState",
    "MetricSample",
    "MappingEvent",
    "map_readonly",
]

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

#: sentinel distinguishing "no node filter" from "node None"
ALL_NODES = object()


def map_readonly(path: str):
    """``mmap`` a file read-only; used by both trace readers.

    Returns a buffer the codec helpers can index/slice without ever
    loading the whole file into the process (``info`` on a multi-GB trace
    touches only the pages the footer lives on).  Zero-length files --
    which ``mmap`` rejects -- fall back to the empty bytes object; they
    fail the magic check with a clean :class:`CodecError` either way.
    """
    with open(path, "rb") as fh:
        try:
            # the mapping stays valid after the descriptor closes
            return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        except (ValueError, OSError):
            return fh.read()


class SASState:
    """Full multi-node SAS activation state at one instant.

    ``nodes`` maps ``node_id -> {sentence: [activation times]}`` -- the same
    multiset-of-stacks shape :class:`~repro.core.sas.ActiveSentenceSet`
    keeps live, per recording node.  Equality compares the complete state
    (membership, depths, and exact activation times) order-insensitively,
    which is what the seek-vs-linear-replay property asserts.
    """

    __slots__ = ("nodes",)

    def __init__(self) -> None:
        self.nodes: dict[Any, dict[Sentence, list[float]]] = {}

    def apply_transition(
        self, sent: Sentence, activate: bool, time: float, node_id: int | None
    ) -> None:
        per = self.nodes.setdefault(node_id, {})
        if activate:
            per.setdefault(sent, []).append(time)
        else:
            stack = per.get(sent)
            if not stack:
                raise ValueError(
                    f"deactivate without activate for {sent} on node {node_id}"
                )
            stack.pop()
            if not stack:
                del per[sent]
                if not per:
                    # no empty-node residue: state reached by any replay path
                    # (from the start, or from a snapshot) compares equal
                    del self.nodes[node_id]

    def apply(self, event: SentenceEvent) -> None:
        self.apply_transition(
            event.sentence, event.kind is EventKind.ACTIVATE, event.time, event.node_id
        )

    def active(self, node: Any = ALL_NODES) -> tuple[Sentence, ...]:
        """Active sentences, in first-recorded order (deduplicated)."""
        if node is not ALL_NODES:
            return tuple(self.nodes.get(node, {}))
        seen: dict[Sentence, None] = {}
        for per in self.nodes.values():
            for sent in per:
                seen.setdefault(sent, None)
        return tuple(seen)

    def depth(self, sent: Sentence, node: Any = ALL_NODES) -> int:
        if node is not ALL_NODES:
            return len(self.nodes.get(node, {}).get(sent, ()))
        return sum(len(per.get(sent, ())) for per in self.nodes.values())

    def total_activations(self) -> int:
        return sum(len(stack) for per in self.nodes.values() for stack in per.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SASState):
            return NotImplemented
        return self.nodes == other.nodes

    def __repr__(self) -> str:
        per = {n: len(s) for n, s in self.nodes.items()}
        return f"SASState(nodes={per})"

    @classmethod
    def from_events(cls, events: Iterable[SentenceEvent], time: float) -> "SASState":
        """Linear-replay reference: state after all events with t <= ``time``."""
        state = cls()
        for event in events:
            if event.time > time:
                break
            state.apply(event)
        return state


class MetricSample:
    """One decoded metric sample record."""

    __slots__ = ("time", "name", "focus", "value", "units")

    def __init__(self, time: float, name: str, focus: str, value: float, units: str):
        self.time = time
        self.name = name
        self.focus = focus
        self.value = value
        self.units = units

    def __repr__(self) -> str:
        return f"MetricSample({self.time:.6g}, {self.name}{self.focus}, {self.value:.6g})"


class MappingEvent:
    """One decoded dynamic-mapping record."""

    __slots__ = ("time", "source", "destination", "origin")

    def __init__(
        self, time: float, source: Sentence, destination: Sentence, origin: MappingOrigin
    ):
        self.time = time
        self.source = source
        self.destination = destination
        self.origin = origin

    def __repr__(self) -> str:
        return f"MappingEvent({self.time:.6g}, {self.source} -> {self.destination})"


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class TraceWriter:
    """Streams a run's dynamic record into a ``.rtrc`` file.

    Parameters
    ----------
    path:
        Destination file; truncated on open, finalized by :meth:`close`.
    snapshot_every:
        Embed a full SAS-state snapshot every this many transitions (the
        seek granularity: a ``seek(t)`` replays at most this many events
        past the chosen snapshot).
    metadata:
        JSON-serializable dict stored in the header (study name, config...).
        Keep it free of wall-clock values when the file's bytes feed a
        determinism fingerprint.
    """

    FLUSH_BYTES = 1 << 16

    def __init__(
        self,
        path: str | Path,
        snapshot_every: int = 1024,
        metadata: dict | None = None,
    ):
        if snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.path = str(path)
        self.snapshot_every = snapshot_every
        self._fh = open(self.path, "wb")
        header = bytearray(MAGIC)
        header.append(VERSION)
        raw = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
        append_uvarint(header, len(raw))
        header += raw
        self._fh.write(header)
        self._offset = len(header)
        self._buf = bytearray()
        self._strings = StringTable()
        self._sents = SentenceTable(self._strings)
        self._prev_tbits = 0  # delta chain base: bits of 0.0
        self._last_time = 0.0
        self._timed = 0
        self._t0 = 0.0
        self._t1 = 0.0
        self.transitions = 0
        self.metric_samples = 0
        self.mappings = 0
        self._since_snapshot = 0
        self._snap_index: list[tuple[float, int, int]] = []
        # live SAS state mirrored for snapshot frames: node -> sid -> stack
        self._state: dict[Any, dict[int, list[float]]] = {}
        self._attached: list[tuple[Any, Any]] = []
        self._closed = False

    # -- recorder protocol ------------------------------------------------
    def transition(
        self,
        time: float,
        kind: EventKind,
        sentence: Sentence,
        node_id: int | None = None,
    ) -> None:
        """Record one SAS transition (the ``sas.attach_recorder`` hook target)."""
        if self._closed:
            self._check_open()
        if self._since_snapshot >= self.snapshot_every:
            self._emit_snapshot()
        buf = self._buf
        sid = self._sents.intern(sentence, buf)
        activate = kind is EventKind.ACTIVATE
        per = self._state.setdefault(node_id, {})
        if activate:
            per.setdefault(sid, []).append(time)
        else:
            stack = per.get(sid)
            if not stack:
                raise ValueError(
                    f"deactivate without activate for {sentence} on node {node_id}"
                )
            stack.pop()
            if not stack:
                del per[sid]
        append_uvarint(buf, TAG_TRANS)
        append_uvarint(buf, sid)
        append_uvarint(buf, (encode_node(node_id) << 1) | (1 if activate else 0))
        append_uvarint(buf, self._tdelta(time))
        self.transitions += 1
        self._since_snapshot += 1
        if len(buf) >= self.FLUSH_BYTES:
            self._flush()

    def metric_sample(
        self, time: float, name: str, focus: str = "", value: float = 0.0, units: str = ""
    ) -> None:
        """Record one metric sample (the ``MetricManager`` recorder target)."""
        self._check_open()
        buf = self._buf
        nsid = self._strings.intern(name, buf)
        fsid = self._strings.intern(focus, buf)
        usid = self._strings.intern(units, buf)
        append_uvarint(buf, TAG_METRIC)
        append_uvarint(buf, nsid)
        append_uvarint(buf, fsid)
        append_uvarint(buf, usid)
        append_uvarint(buf, self._tdelta(time))
        buf += _F64.pack(value)
        self.metric_samples += 1
        if len(buf) >= self.FLUSH_BYTES:
            self._flush()

    def mapping(
        self,
        time: float,
        source: Sentence,
        destination: Sentence,
        origin: MappingOrigin = MappingOrigin.DYNAMIC,
    ) -> None:
        """Record one dynamic-mapping event."""
        self._check_open()
        buf = self._buf
        src = self._sents.intern(source, buf)
        dst = self._sents.intern(destination, buf)
        append_uvarint(buf, TAG_MAPPING)
        append_uvarint(buf, src)
        append_uvarint(buf, dst)
        append_uvarint(buf, ORIGIN_CODES[origin])
        append_uvarint(buf, self._tdelta(time))
        self.mappings += 1

    # -- conveniences -----------------------------------------------------
    def attach_sas(self, sas: "ActiveSentenceSet"):
        """Record every handled transition of ``sas``; detached on close."""
        hook = sas.attach_recorder(self)
        self._attached.append((sas, hook))
        return hook

    def record_trace(self, trace: Trace | Iterable[SentenceEvent]) -> None:
        """Bulk-record an in-memory trace (or any event iterable)."""
        for event in trace:
            self.transition(event.time, event.kind, event.sentence, event.node_id)

    # -- internals --------------------------------------------------------
    def _check_open(self) -> None:
        if self._closed:
            raise ValueError(f"TraceWriter({self.path}) is closed")

    def _tdelta(self, time: float) -> int:
        if self._timed:
            # same-instant batches are the common case in the simulator;
            # skip the struct round trip (bits unchanged, delta 0).  The
            # time != 0.0 guard keeps -0.0 after 0.0 bit-exact.
            if time == self._last_time and time != 0.0:
                self._timed += 1
                return 0
            if time < self._last_time:
                raise ValueError(
                    f"trace time went backwards: {time} < {self._last_time}"
                )
        else:
            self._t0 = time
        self._t1 = self._last_time = time
        self._timed += 1
        bits = float_to_bits(time)
        delta = delta_bits(self._prev_tbits, bits)
        self._prev_tbits = bits
        return delta

    def _emit_snapshot(self) -> None:
        buf = self._buf
        offset = self._offset + len(buf)
        snap_time = self._last_time
        append_uvarint(buf, TAG_SNAPSHOT)
        buf += _F64.pack(snap_time)
        append_uvarint(buf, self.transitions)
        entries = [
            (node, sid, stack)
            for node, per in self._state.items()
            for sid, stack in per.items()
        ]
        append_uvarint(buf, len(entries))
        for node, sid, stack in entries:
            append_uvarint(buf, encode_node(node))
            append_uvarint(buf, sid)
            append_uvarint(buf, len(stack))
            for t in stack:
                buf += _F64.pack(t)
        # snapshots reset the time-delta chain so decoding can start here
        self._prev_tbits = float_to_bits(snap_time)
        self._snap_index.append((snap_time, offset, self.transitions))
        self._since_snapshot = 0

    def _flush(self) -> None:
        if self._buf:
            self._fh.write(self._buf)
            self._offset += len(self._buf)
            self._buf.clear()

    def close(self) -> None:
        """Write the footer + trailer and close the file (idempotent)."""
        if self._closed:
            return
        for sas, hook in self._attached:
            sas.detach_recorder(hook)
        self._attached.clear()
        self._flush()
        footer = bytearray()
        self._strings.encode_table(footer)
        self._sents.encode_table(footer)
        append_uvarint(footer, len(self._snap_index))
        for t, offset, nevents in self._snap_index:
            footer += _F64.pack(t)
            append_uvarint(footer, offset)
            append_uvarint(footer, nevents)
        append_uvarint(footer, self.transitions)
        append_uvarint(footer, self.metric_samples)
        append_uvarint(footer, self.mappings)
        footer += _F64.pack(self._t0)
        footer += _F64.pack(self._t1)
        self._fh.write(footer)
        self._fh.write(_U64.pack(self._offset))
        self._fh.write(MAGIC_END)
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "TraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class TraceReader:
    """Random-access reader over a finalized ``.rtrc`` file.

    The footer's complete string/sentence tables are decoded up front, so
    any record in the stream resolves without a prior scan; iteration
    yields :class:`~repro.core.events.SentenceEvent` values that compare
    equal, event for event, to what was recorded.
    """

    def __init__(self, path: str | Path):
        self.path = str(path)
        data = map_readonly(self.path)
        if len(data) < len(MAGIC) + 1 + 12 or data[: len(MAGIC)] != MAGIC:
            raise CodecError(f"{self.path}: not an .rtrc file")
        if data[len(MAGIC)] != VERSION:
            raise CodecError(
                f"{self.path}: unsupported version {data[len(MAGIC)]} (want {VERSION})"
            )
        if data[-len(MAGIC_END) :] != MAGIC_END:
            raise CodecError(f"{self.path}: truncated (missing end magic)")
        self._data = data
        pos = len(MAGIC) + 1
        mlen, pos = read_uvarint(data, pos)
        raw_meta, pos = read_blob(data, pos, mlen, "metadata")
        try:
            self.meta: dict = json.loads(decode_utf8(raw_meta, "metadata")) if mlen else {}
        except json.JSONDecodeError as exc:
            raise CodecError(f"{self.path}: corrupt metadata json: {exc}") from exc
        self._records_start = pos
        footer_offset = _U64.unpack_from(data, len(data) - 12)[0]
        if not self._records_start <= footer_offset <= len(data) - 12:
            raise CodecError(f"{self.path}: footer offset out of range")
        self._records_end = footer_offset
        fpos = footer_offset
        self.strings, fpos = StringTable.decode_table(data, fpos)
        self.sentences, fpos = SentenceTable.decode_table(data, fpos, self.strings)
        nsnap, fpos = read_uvarint(data, fpos)
        check_count(nsnap, fpos, len(data), 10, "snapshot index")
        self.snapshots: list[tuple[float, int, int]] = []
        for _ in range(nsnap):
            t, fpos = read_f64(data, fpos, "snapshot time")
            offset, fpos = read_uvarint(data, fpos)
            nevents, fpos = read_uvarint(data, fpos)
            if not self._records_start <= offset < self._records_end:
                raise CodecError(f"{self.path}: snapshot offset {offset} out of range")
            self.snapshots.append((t, offset, nevents))
        self.transitions, fpos = read_uvarint(data, fpos)
        self.metric_count, fpos = read_uvarint(data, fpos)
        self.mapping_count, fpos = read_uvarint(data, fpos)
        self.t0, fpos = read_f64(data, fpos, "time bound")
        self.t1, fpos = read_f64(data, fpos, "time bound")
        self._snap_times = [s[0] for s in self.snapshots]

    # -- iteration --------------------------------------------------------
    def _walk(self, pos: int) -> Iterator[tuple]:
        """Decode records from ``pos`` to the footer.

        Yields ``("trans", time, sid, activate, node)``,
        ``("metric", time, nsid, fsid, usid, value)``,
        ``("map", time, src, dst, origin_code)``, and
        ``("snap", time, nevents, entries)`` tuples.  The time-delta chain
        starts at the 0.0 base, so ``pos`` must be the stream start or a
        snapshot offset (snapshots carry an absolute time and reset the
        chain before any subsequent delta is applied).
        """
        data = self._data
        end = self._records_end
        nsents = len(self.sentences)
        nstrings = len(self.strings)
        prev_tbits = 0
        while pos < end:
            tag, pos = read_uvarint(data, pos)
            if tag == TAG_TRANS:
                sid, pos = read_uvarint(data, pos)
                flags, pos = read_uvarint(data, pos)
                delta, pos = read_uvarint(data, pos)
                prev_tbits = undelta_bits(prev_tbits, delta)
                if sid >= nsents:
                    raise CodecError(f"{self.path}: unknown sentence id {sid} at {pos}")
                yield (
                    "trans",
                    bits_to_float(prev_tbits),
                    sid,
                    bool(flags & 1),
                    decode_node(flags >> 1),
                )
            elif tag == TAG_DEF_STR:
                length, pos = read_uvarint(data, pos)
                if pos + length > end:
                    raise CodecError(f"{self.path}: truncated DEF_STR at {pos}")
                pos += length
            elif tag == TAG_DEF_SENT:
                pos = SentenceTable.skip_fields(data, pos)
            elif tag == TAG_METRIC:
                nsid, pos = read_uvarint(data, pos)
                fsid, pos = read_uvarint(data, pos)
                usid, pos = read_uvarint(data, pos)
                delta, pos = read_uvarint(data, pos)
                prev_tbits = undelta_bits(prev_tbits, delta)
                value, pos = read_f64(data, pos, "metric value")
                if max(nsid, fsid, usid) >= nstrings:
                    raise CodecError(f"{self.path}: unknown string id in metric at {pos}")
                yield ("metric", bits_to_float(prev_tbits), nsid, fsid, usid, value)
            elif tag == TAG_MAPPING:
                src, pos = read_uvarint(data, pos)
                dst, pos = read_uvarint(data, pos)
                origin, pos = read_uvarint(data, pos)
                delta, pos = read_uvarint(data, pos)
                prev_tbits = undelta_bits(prev_tbits, delta)
                if max(src, dst) >= nsents or origin not in ORIGIN_BY_CODE:
                    raise CodecError(f"{self.path}: corrupt mapping record at {pos}")
                yield ("map", bits_to_float(prev_tbits), src, dst, origin)
            elif tag == TAG_SNAPSHOT:
                t, pos = read_f64(data, pos, "snapshot time")
                nevents, pos = read_uvarint(data, pos)
                nentries, pos = read_uvarint(data, pos)
                check_count(nentries, pos, end, 3, "snapshot entry")
                entries = []
                for _ in range(nentries):
                    node_field, pos = read_uvarint(data, pos)
                    sid, pos = read_uvarint(data, pos)
                    depth, pos = read_uvarint(data, pos)
                    if sid >= nsents:
                        raise CodecError(f"{self.path}: unknown sentence id {sid} at {pos}")
                    check_count(depth, pos, end, 8, "activation stack")
                    times = list(_F64.unpack_from(data, pos)) if depth == 1 else [
                        _F64.unpack_from(data, pos + 8 * i)[0] for i in range(depth)
                    ]
                    pos += 8 * depth
                    entries.append((decode_node(node_field), sid, times))
                prev_tbits = float_to_bits(t)
                yield ("snap", t, nevents, entries)
            else:
                raise CodecError(f"{self.path}: unknown record tag {tag} at {pos}")

    def events(self) -> Iterator[SentenceEvent]:
        """All transitions, in recorded order, as core events."""
        sentences = self.sentences
        for rec in self._walk(self._records_start):
            if rec[0] == "trans":
                _, time, sid, activate, node = rec
                yield SentenceEvent(
                    time,
                    EventKind.ACTIVATE if activate else EventKind.DEACTIVATE,
                    sentences[sid],
                    node,
                )

    def records(self) -> Iterator[tuple]:
        """Every record, interleaved in recorded order, ids resolved.

        Yields ``("trans", time, sentence, activate, node_id)``,
        ``("metric", time, name, focus, value, units)``, and
        ``("map", time, source, destination, origin)`` tuples -- the
        lossless interchange stream the ``.rtrc`` <-> ``.rtrcx`` converter
        replays (snapshot frames are derived data and not included).
        """
        sentences = self.sentences
        strings = self.strings
        for rec in self._walk(self._records_start):
            kind = rec[0]
            if kind == "trans":
                _, time, sid, activate, node = rec
                yield ("trans", time, sentences[sid], activate, node)
            elif kind == "metric":
                _, time, nsid, fsid, usid, value = rec
                yield ("metric", time, strings[nsid], strings[fsid], value, strings[usid])
            elif kind == "map":
                _, time, src, dst, origin = rec
                yield ("map", time, sentences[src], sentences[dst], ORIGIN_BY_CODE[origin])

    def __iter__(self) -> Iterator[SentenceEvent]:
        return self.events()

    def __len__(self) -> int:
        return self.transitions

    def metric_samples(self) -> Iterator[MetricSample]:
        strings = self.strings
        for rec in self._walk(self._records_start):
            if rec[0] == "metric":
                _, time, nsid, fsid, usid, value = rec
                yield MetricSample(time, strings[nsid], strings[fsid], value, strings[usid])

    def mappings(self) -> Iterator[MappingEvent]:
        sentences = self.sentences
        for rec in self._walk(self._records_start):
            if rec[0] == "map":
                _, time, src, dst, origin = rec
                yield MappingEvent(
                    time, sentences[src], sentences[dst], ORIGIN_BY_CODE[origin]
                )

    # -- indexed access ----------------------------------------------------
    def seek(self, time: float) -> SASState:
        """Full SAS state at ``time`` (events at exactly ``time`` included).

        Bisects the snapshot index for the last snapshot at or before
        ``time``, installs it, and replays only the tail -- O(log n) in the
        number of snapshots plus at most ``snapshot_every`` decoded events,
        never a scan from the start of the run.
        """
        pos = self._records_start
        idx = bisect.bisect_right(self._snap_times, time) - 1
        if idx >= 0:
            pos = self.snapshots[idx][1]
        state = SASState()
        sentences = self.sentences
        for rec in self._walk(pos):
            if rec[1] > time:
                break  # monotone stream: nothing later can be <= time
            if rec[0] == "trans":
                _, t, sid, activate, node = rec
                state.apply_transition(sentences[sid], activate, t, node)
            elif rec[0] == "snap":
                state = SASState()
                for node, sid, times in rec[3]:
                    state.nodes.setdefault(node, {})[sentences[sid]] = list(times)
        return state

    @property
    def is_empty(self) -> bool:
        """True when the file holds no records at all.

        Emptiness is derived from the persisted counts: every record kind
        advances the writer's time chain, so zero counts <=> zero timed
        records.  This is what keeps an empty trace distinguishable from a
        real run spanning ``[0, 0]`` (the footer records ``t0 == t1 == 0.0``
        in both cases).
        """
        return not (self.transitions or self.metric_count or self.mapping_count)

    def time_bounds(self) -> tuple[float, float] | None:
        """``(first, last)`` recorded time, or ``None`` for an empty trace."""
        if self.is_empty:
            return None
        return (self.t0, self.t1)

    def last_transition_time(self) -> float | None:
        """Time of the last transition record (``None`` if there are none).

        The footer bound ``t1`` covers *all* record kinds; the retro scan
        fast paths need the transitions-only bound to close open intervals
        exactly where an unfiltered replay would have.
        """
        if not self.transitions:
            return None
        last = None
        for rec in self._walk(self._records_start):
            if rec[0] == "trans":
                last = rec[1]
        return last

    def close(self) -> None:
        """Release the underlying mapping (idempotent)."""
        data = self._data
        if isinstance(data, mmap.mmap):
            data.close()

    def __enter__(self) -> "TraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def to_trace(self) -> Trace:
        """Materialize the transitions as an in-memory core Trace."""
        trace = Trace()
        for event in self.events():
            trace.append(event)
        return trace

    def info(self) -> dict:
        """Summary stats for ``repro trace info``."""
        by_level: dict[str, int] = {}
        for sent in self.sentences:
            by_level[sent.abstraction] = by_level.get(sent.abstraction, 0) + 1
        bounds = self.time_bounds()
        return {
            "path": self.path,
            "format": "row",
            "bytes": len(self._data),
            "meta": self.meta,
            "empty": self.is_empty,
            "transitions": self.transitions,
            "metric_samples": self.metric_count,
            "mappings": self.mapping_count,
            "sentences": len(self.sentences),
            "strings": len(self.strings),
            "snapshots": len(self.snapshots),
            "time_bounds": None if bounds is None else list(bounds),
            "sentences_by_level": dict(sorted(by_level.items())),
        }
