"""Per-record columnar writer: the byte-identity oracle for ``.rtrcx``.

:class:`repro.trace.ColumnarTraceWriter` buffers a segment's records and
encodes them in one pass when the segment fills.  This module keeps the
writer it replaced, which interned, tracked depth and checked the clock on
every call: the obviously correct specification the buffered writer must
match byte for byte (``tests/trace/test_columnar.py``).  Keep it as it is.
"""

from __future__ import annotations

import json
from array import array
from pathlib import Path
from typing import Any, Iterable

from repro.core.events import EventKind, SentenceEvent, Trace
from repro.core.mapping import MappingOrigin
from repro.core.nouns import Sentence
from repro.trace.codec import (
    ORIGIN_CODES,
    CodecError,
    SentenceTable,
    StringTable,
    append_uvarint,
    encode_node,
)
from repro.trace.columnar import (
    COL_KIND,
    COL_MFOCUS,
    COL_MNAME,
    COL_MT,
    COL_MUNITS,
    COL_MVAL,
    COL_NODE,
    COL_ORDER,
    COL_PDST,
    COL_PORG,
    COL_POST_N,
    COL_POST_ROWS,
    COL_PSRC,
    COL_PT,
    COL_SID,
    COL_T,
    KIND_ACTIVATE,
    KIND_MEMBER,
    MAGIC_X,
    MAGIC_X_END,
    REC_MAP,
    REC_METRIC,
    REC_TRANS,
    VERSION_X,
    SegmentMeta,
    _F64,
    _ID_LIMIT,
    _U32,
    _U64,
    _tobytes,
)


def narrowest(values) -> bytes:
    """``values`` as little-endian unsigned ints of 1, 2 or 4 bytes, the
    fewest that hold the largest of them."""
    top = max(values, default=0)
    width = 1 if top < 1 << 8 else 2 if top < 1 << 16 else 4
    return b"".join(v.to_bytes(width, "little") for v in values)


class PerRecordColumnarWriter:
    """Streams a run's dynamic record into a segmented ``.rtrcx`` file.

    The recorder protocol (``transition`` / ``metric_sample`` /
    ``mapping``) of :class:`repro.trace.ColumnarTraceWriter`.  Every
    ``segment_records`` records the open segment is flushed with its zone
    map, and the next segment opens with a full SAS snapshot (it bounds
    both seek replay and the granularity of segment pruning/parallel
    scans).
    """

    def __init__(
        self,
        path: str | Path,
        segment_records: int = 4096,
        metadata: dict | None = None,
    ):
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.path = str(path)
        self.segment_records = segment_records
        self._fh = open(self.path, "wb")
        header = bytearray(MAGIC_X)
        header.append(VERSION_X)
        raw = json.dumps(metadata or {}, sort_keys=True).encode("utf-8")
        append_uvarint(header, len(raw))
        header += raw
        self._fh.write(header)
        self._offset = len(header)
        self._strings = StringTable()
        self._sents = SentenceTable(self._strings)
        self._levels: dict[str, int] = {}
        self._sent_level: list[int] = []  # sentence id -> level id
        self._last_time = 0.0
        self._timed = 0
        self._t0 = 0.0
        self._t1 = 0.0
        self.transitions = 0
        self.metric_samples_count = 0
        self.mappings_count = 0
        # live SAS state mirrored for segment snapshots: node -> sid -> stack
        self._state: dict[Any, dict[int, list[float]]] = {}
        # flattened-interval bookkeeping: cross-node depth per sentence and
        # the time that depth last went 0 -> 1.  Persisted in each segment
        # snapshot because activation stacks alone cannot recover it (the
        # opening activation may already have been popped while overlapping
        # ones keep the sentence active) -- the parallel segment scan needs
        # it to seed a range without replaying earlier segments.
        self._flat_depth: dict[int, int] = {}
        self._flat_start: dict[int, float] = {}
        self._segments: list[SegmentMeta] = []
        self._attached: list[tuple[Any, Any]] = []
        self._closed = False
        self._open_segment()

    # -- recorder protocol ------------------------------------------------
    def transition(
        self,
        time: float,
        kind: EventKind,
        sentence: Sentence,
        node_id: int | None = None,
    ) -> None:
        self._check_open()
        self._maybe_roll()
        sid = self._intern_sentence(sentence)
        activate = kind is EventKind.ACTIVATE
        per = self._state.setdefault(node_id, {})
        # KIND_MEMBER: the cross-node depth goes 0 -> 1 or 1 -> 0
        kind_byte = KIND_ACTIVATE if activate else 0
        if activate:
            per.setdefault(sid, []).append(time)
            d = self._flat_depth.get(sid, 0)
            if d == 0:
                self._flat_start[sid] = time
                kind_byte |= KIND_MEMBER
            self._flat_depth[sid] = d + 1
        else:
            stack = per.get(sid)
            if not stack:
                raise ValueError(
                    f"deactivate without activate for {sentence} on node {node_id}"
                )
            stack.pop()
            if not stack:
                del per[sid]
            d = self._flat_depth[sid] - 1
            if d:
                self._flat_depth[sid] = d
            else:
                del self._flat_depth[sid]
                del self._flat_start[sid]
                kind_byte |= KIND_MEMBER
        self._clock(time)
        node_field = encode_node(node_id)
        if node_field >= _ID_LIMIT:
            raise CodecError(f"node id {node_id} out of u32 range")
        self._order.append(REC_TRANS)
        self._trans_t.append(time)
        self._trans_sid.append(sid)
        self._trans_kind.append(kind_byte)
        self._trans_node.append(node_field)
        self._seg_sids.add(sid)
        self._seg_levels |= 1 << self._sent_level[sid]
        self.transitions += 1

    def metric_sample(
        self, time: float, name: str, focus: str = "", value: float = 0.0, units: str = ""
    ) -> None:
        self._check_open()
        self._maybe_roll()
        nsid = self._strings.intern(name)
        fsid = self._strings.intern(focus)
        usid = self._strings.intern(units)
        self._clock(time)
        self._order.append(REC_METRIC)
        self._met_t.append(time)
        self._met_name.append(nsid)
        self._met_focus.append(fsid)
        self._met_units.append(usid)
        self._met_val.append(value)
        self.metric_samples_count += 1

    def mapping(
        self,
        time: float,
        source: Sentence,
        destination: Sentence,
        origin: MappingOrigin = MappingOrigin.DYNAMIC,
    ) -> None:
        self._check_open()
        self._maybe_roll()
        src = self._intern_sentence(source)
        dst = self._intern_sentence(destination)
        self._clock(time)
        self._order.append(REC_MAP)
        self._map_t.append(time)
        self._map_src.append(src)
        self._map_dst.append(dst)
        self._map_org.append(ORIGIN_CODES[origin])
        self._seg_sids.add(src)
        self._seg_sids.add(dst)
        self._seg_levels |= (1 << self._sent_level[src]) | (1 << self._sent_level[dst])
        self.mappings_count += 1

    # -- conveniences -----------------------------------------------------
    def attach_sas(self, sas) -> Any:
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
            raise ValueError(f"ColumnarTraceWriter({self.path}) is closed")

    def _intern_sentence(self, sentence: Sentence) -> int:
        sid = self._sents.intern(sentence)
        if sid == len(self._sent_level):
            level = sentence.abstraction
            lid = self._levels.setdefault(level, len(self._levels))
            self._sent_level.append(lid)
        if sid >= _ID_LIMIT:  # pragma: no cover - 4e9 distinct sentences
            raise CodecError("sentence id out of u32 range")
        return sid

    def _clock(self, time: float) -> None:
        if self._timed:
            if time < self._last_time:
                raise ValueError(
                    f"trace time went backwards: {time} < {self._last_time}"
                )
        else:
            self._t0 = time
            self._seg_t_min = time
        self._t1 = self._last_time = time
        self._timed += 1

    def _open_segment(self) -> None:
        self._order = bytearray()
        self._trans_t = array("d")
        self._trans_sid = array(_U32)
        self._trans_kind = bytearray()
        self._trans_node = array(_U32)
        self._met_t = array("d")
        self._met_name = array(_U32)
        self._met_focus = array(_U32)
        self._met_units = array(_U32)
        self._met_val = array("d")
        self._map_t = array("d")
        self._map_src = array(_U32)
        self._map_dst = array(_U32)
        self._map_org = bytearray()
        self._seg_sids: set[int] = set()
        self._seg_levels = 0
        self._seg_t_min = self._last_time
        # state before the segment's first record, for the embedded snapshot
        self._seg_snapshot = self._encode_snapshot()

    def _encode_snapshot(self) -> bytes:
        buf = bytearray()
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
        # flattened-interval tail: (cross-node depth, outermost start) per
        # open sentence; readers that only want the SAS state stop before it
        append_uvarint(buf, len(self._flat_start))
        for sid in sorted(self._flat_start):
            append_uvarint(buf, sid)
            append_uvarint(buf, self._flat_depth[sid])
            buf += _F64.pack(self._flat_start[sid])
        return bytes(buf)

    def _maybe_roll(self) -> None:
        if len(self._order) >= self.segment_records:
            self._flush_segment()
            self._open_segment()

    def _flush_segment(self) -> None:
        if not self._order:
            return
        buf = bytearray()
        append_uvarint(buf, len(self._seg_snapshot))
        buf += self._seg_snapshot
        n_trans = len(self._trans_t)
        # posting lists: every zone-map sid in ascending order, its rows
        # ascending (none for a sid only a mapping record names)
        zone = sorted(self._seg_sids)
        counts = [0] * len(zone)
        rows = []
        for k, sid in enumerate(zone):
            for row in range(n_trans):
                if self._trans_sid[row] == sid:
                    counts[k] += 1
                    rows.append(row)
        cols = [
            (COL_ORDER, bytes(self._order)),
            (COL_T, _tobytes(self._trans_t)),
            (COL_SID, narrowest(self._trans_sid)),
            (COL_KIND, bytes(self._trans_kind)),
            (COL_NODE, narrowest(self._trans_node)),
            (COL_MT, _tobytes(self._met_t)),
            (COL_MNAME, _tobytes(self._met_name)),
            (COL_MFOCUS, _tobytes(self._met_focus)),
            (COL_MUNITS, _tobytes(self._met_units)),
            (COL_MVAL, _tobytes(self._met_val)),
            (COL_PT, _tobytes(self._map_t)),
            (COL_PSRC, _tobytes(self._map_src)),
            (COL_PDST, _tobytes(self._map_dst)),
            (COL_PORG, bytes(self._map_org)),
            (COL_POST_N, narrowest(counts) if n_trans else b""),
            (COL_POST_ROWS, narrowest(rows)),
        ]
        cols = [(cid, raw) for cid, raw in cols if raw]
        append_uvarint(buf, len(cols))
        for cid, raw in cols:
            append_uvarint(buf, cid)
            append_uvarint(buf, len(raw))
            buf += raw
        self._segments.append(
            SegmentMeta(
                offset=self._offset,
                nbytes=len(buf),
                n_trans=len(self._trans_t),
                n_metric=len(self._met_t),
                n_map=len(self._map_t),
                t_min=self._seg_t_min,
                t_max=self._last_time,
                trans_t_max=self._trans_t[-1] if self._trans_t else self._seg_t_min,
                level_mask=self._seg_levels,
                sids=frozenset(self._seg_sids),
            )
        )
        self._fh.write(buf)
        self._offset += len(buf)

    def close(self) -> None:
        """Flush the open segment, write footer + trailer (idempotent)."""
        if self._closed:
            return
        for sas, hook in self._attached:
            sas.detach_recorder(hook)
        self._attached.clear()
        self._flush_segment()
        footer = bytearray()
        self._strings.encode_table(footer)
        self._sents.encode_table(footer)
        append_uvarint(footer, len(self._levels))
        for name in self._levels:  # insertion order == level id order
            sid = self._strings.intern(name)
            append_uvarint(footer, sid)
        append_uvarint(footer, len(self._segments))
        for seg in self._segments:
            append_uvarint(footer, seg.offset)
            append_uvarint(footer, seg.nbytes)
            append_uvarint(footer, seg.n_trans)
            append_uvarint(footer, seg.n_metric)
            append_uvarint(footer, seg.n_map)
            footer += _F64.pack(seg.t_min)
            footer += _F64.pack(seg.t_max)
            footer += _F64.pack(seg.trans_t_max)
            append_uvarint(footer, seg.level_mask)
            append_uvarint(footer, len(seg.sids))
            prev = 0
            for sid in sorted(seg.sids):
                append_uvarint(footer, sid - prev)
                prev = sid
        append_uvarint(footer, self.transitions)
        append_uvarint(footer, self.metric_samples_count)
        append_uvarint(footer, self.mappings_count)
        footer += _F64.pack(self._t0)
        footer += _F64.pack(self._t1)
        self._fh.write(footer)
        self._fh.write(_U64.pack(self._offset))
        self._fh.write(MAGIC_X_END)
        self._fh.close()
        self._closed = True

    def __enter__(self) -> "PerRecordColumnarWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
