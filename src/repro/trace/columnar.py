"""The trace store (``.rtrcx``): columnar segments, mmap reads, zone maps.

A ``.rtrcx`` file is the durable form of a run's dynamic record -- SAS
transitions, metric samples, and dynamic mapping events.  The writer
doubles as a *recorder* in the sense the rest of the repo understands:
anything exposing ``transition`` / ``metric_sample`` / ``mapping`` can be
attached to an :class:`~repro.core.sas.ActiveSentenceSet` (via
``sas.attach_recorder``), a :class:`~repro.paradyn.metrics.MetricManager`,
or passed to the dbsim / unixsim studies' ``recorder=`` parameter.

The record is stored *by column*, in time-sorted segments, so a
retrospective question, lag-window attribution, or trace-backed lint run
touches only the bytes its patterns need:

* **per-field arrays** -- transition times, sentence ids, KIND bits and
  node ids (and the metric/mapping fields) live in separate contiguous
  little-endian machine arrays, bulk-decoded with ``array.frombytes``
  instead of per-record varint parsing.  Times are ``f64``; the sentence
  id and node columns are as narrow as their largest value allows (1, 2
  or 4 bytes, the width being the column's byte count over its rows);
* **sentence-id posting lists** -- every segment stores, for each sentence
  id of its zone map, the rows that hold it, so a sid-filtered scan slices
  its rows out instead of searching the SID column;
* **membership bits** -- a transition's KIND byte says whether it
  activates (:data:`KIND_ACTIVATE`) and whether it changes its sentence's
  membership, its cross-node depth going 0 -> 1 or 1 -> 0
  (:data:`KIND_MEMBER`): a question replay over all nodes hands those rows
  straight to the engine, counting no depth;
* **time-sorted segments with zone maps** -- every ``segment_records``
  records close a segment; the footer records each segment's byte span,
  time range, distinct sentence-id set, and per-level presence bits, so a
  scan *prunes* segments whose zone map cannot match before reading a
  single record byte;
* **embedded SAS snapshots** -- each segment starts with the full
  activation state at its first record, so any segment is independently
  decodable: ``seek`` lands on one segment and replays only its prefix,
  and the parallel scanner (:mod:`repro.trace.scan`) hands whole segment
  ranges to workers with no cross-segment replay dependency;
* **mmap reads** -- :class:`ColumnarTraceReader` never loads the file;
  ``info``/``time_bounds`` touch only footer pages, a pruned query only
  the pages of the segments and columns it decodes.

An ``ORDER`` column keeps the interleaving of transition / metric /
mapping records, so :meth:`ColumnarTraceReader.records` reproduces the
recorded stream exactly.

File layout::

    header  := MAGIC "RTCX" | version u8 | meta_len varint | meta_json
    segment := snap_len varint | snapshot | ncols varint
               | (col_id varint | nbytes varint | column bytes)*
               (empty columns are left out; see ``COL_*`` for the ids)
    footer  := string table | sentence table | level table
               | segment index (zone maps) | counts | bounds
    trailer := footer_offset u64le | MAGIC_END "XCTR"
"""

from __future__ import annotations

import bisect
import json
import mmap
import struct
import sys
from array import array
from itertools import accumulate, chain, compress
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator, Sequence

from ..core.events import EventKind, SentenceEvent, Trace
from ..core.nouns import Sentence
from ..core.mapping import MappingOrigin
from .codec import (
    ORIGIN_BY_CODE,
    ORIGIN_CODES,
    CodecError,
    SentenceTable,
    StringTable,
    append_uvarint,
    check_count,
    decode_node,
    decode_utf8,
    encode_node,
    read_blob,
    read_f64,
    read_uvarint,
)

__all__ = [
    "MAGIC_X",
    "MAGIC_X_END",
    "VERSION_X",
    "ALL_NODES",
    "KIND_ACTIVATE",
    "KIND_MEMBER",
    "SASState",
    "MetricSample",
    "MappingEvent",
    "SegmentMeta",
    "ColumnarTraceWriter",
    "ColumnarTraceReader",
    "map_readonly",
    "open_trace",
]

MAGIC_X = b"RTCX"
MAGIC_X_END = b"XCTR"
VERSION_X = 2

_F64 = struct.Struct("<d")
_U64 = struct.Struct("<Q")

#: column ids (fixed on disk; unknown ids are skipped by readers)
COL_ORDER = 0  # u8 per record: 0 = transition, 1 = metric, 2 = mapping
COL_T = 1  # f64 transition times
COL_SID = 2  # sentence ids, 1, 2 or 4 bytes each
COL_KIND = 3  # u8 KIND_* bits
COL_NODE = 4  # encode_node() fields, 1, 2 or 4 bytes each
COL_MT = 5  # f64 metric times
COL_MNAME = 6  # u32 metric name string ids
COL_MFOCUS = 7  # u32 focus string ids
COL_MUNITS = 8  # u32 units string ids
COL_MVAL = 9  # f64 metric values
COL_PT = 10  # f64 mapping times
COL_PSRC = 11  # u32 mapping source sentence ids
COL_PDST = 12  # u32 mapping destination sentence ids
COL_PORG = 13  # u8 mapping origin codes
COL_POST_N = 14  # posting-list lengths, one per zone-map sid in ascending sid order
COL_POST_ROWS = 15  # posting lists: each sid's rows, ascending, in COL_POST_N order

#: KIND column bits: the transition activates (clear: deactivates), and it
#: changes its sentence's membership -- the sentence's depth summed over
#: every node goes 0 -> 1 (an activation) or 1 -> 0 (a deactivation)
KIND_ACTIVATE = 1
KIND_MEMBER = 2

REC_TRANS, REC_METRIC, REC_MAP = 0, 1, 2

#: the writer's buffered record kinds: a transition's activate flag (0/1),
#: then a metric sample and a mapping (not KIND column bytes: the encoded
#: KIND column adds KIND_MEMBER to the transitions' flags)
_K_METRIC, _K_MAP = 2, 3
_ORDER_OF = bytes([REC_TRANS, REC_TRANS, REC_METRIC, REC_MAP]) + bytes(252)
_IS_TRANS = bytes([1, 1]) + bytes(254)
_ACTIVATE = EventKind.ACTIVATE

_U32 = "I" if array("I").itemsize == 4 else "L"
if array(_U32).itemsize != 4:  # pragma: no cover - no such CPython platform
    raise RuntimeError("no 4-byte unsigned array typecode on this platform")
_BIG_ENDIAN = sys.byteorder == "big"
_ID_LIMIT = 1 << 32
#: array typecodes of the unsigned column widths
_UINT = {1: "B", 2: "H", 4: _U32}


def _tobytes(arr: array) -> bytes:
    if _BIG_ENDIAN and arr.itemsize > 1:  # pragma: no cover - little-endian hosts
        arr = array(arr.typecode, arr)
        arr.byteswap()
    return arr.tobytes()


def _narrow(values: Iterable[int], top: int) -> bytes:
    """``values``, none larger than ``top``, as little-endian unsigned ints
    of the narrowest of 1, 2 or 4 bytes that holds ``top``."""
    return _tobytes(array("B" if top < 0x100 else "H" if top < 0x10000 else _U32, values))


def _frombytes(typecode: str, raw: bytes) -> array:
    arr = array(typecode)
    arr.frombytes(raw)
    if _BIG_ENDIAN and arr.itemsize > 1:  # pragma: no cover - little-endian hosts
        arr.byteswap()
    return arr


#: sentinel distinguishing "no node filter" from "node None"
ALL_NODES = object()

#: the ``path`` of a writer to a file object and of a reader over bytes
_IN_MEMORY = "<in-memory trace>"


def map_readonly(path: str):
    """``mmap`` a file read-only.

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


class SegmentMeta:
    """One segment's zone map: everything pruning needs, nothing decoded.

    ``sids`` is the distinct sentence-id set touched by the segment's
    transitions *and* mappings; ``level_mask`` the union of their levels'
    bits (positions index the reader's ``levels`` table); ``trans_t_max``
    the transitions-only time bound (``t_min``/``t_max`` cover all record
    kinds).
    """

    __slots__ = (
        "offset",
        "nbytes",
        "n_trans",
        "n_metric",
        "n_map",
        "t_min",
        "t_max",
        "trans_t_max",
        "level_mask",
        "sids",
    )

    def __init__(self, offset, nbytes, n_trans, n_metric, n_map, t_min, t_max,
                 trans_t_max, level_mask, sids):
        self.offset = offset
        self.nbytes = nbytes
        self.n_trans = n_trans
        self.n_metric = n_metric
        self.n_map = n_map
        self.t_min = t_min
        self.t_max = t_max
        self.trans_t_max = trans_t_max
        self.level_mask = level_mask
        self.sids = sids

    def __repr__(self) -> str:
        return (
            f"SegmentMeta(t=[{self.t_min:.6g}, {self.t_max:.6g}], "
            f"trans={self.n_trans}, metrics={self.n_metric}, maps={self.n_map}, "
            f"sentences={len(self.sids)})"
        )


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class ColumnarTraceWriter:
    """Streams a run's dynamic record into a segmented ``.rtrcx`` file.

    A recorder (``transition`` / ``metric_sample`` / ``mapping``).  Every
    ``segment_records`` records the open segment is flushed with its zone
    map, and the next segment opens with a full SAS snapshot, so
    ``segment_records`` bounds both seek replay and the granularity of
    segment pruning and parallel scans.  ``metadata`` is a
    JSON-serializable dict stored in the header (study name, config...);
    keep it free of wall-clock values when the file's bytes feed a
    determinism fingerprint.

    Recording runs at the speed of the run it records: a record call only
    checks that the writer is open and appends to the open segment's
    buffers -- a kind ``bytearray``, a time ``array('d')``, a list of
    sentences (or metric and mapping payloads) and a list of node ids, so
    a transition creates no GC-tracked object.  When ``segment_records``
    records are buffered, :meth:`_flush_segment` encodes them in one pass.

    Records are therefore validated at that flush, with the messages a
    per-call check would give ("trace time went backwards", "deactivate
    without activate", "node id ... out of u32 range"): the error is raised
    by the call that fills the segment, or by :meth:`close`.  A writer
    whose flush raised is closed without a footer, so its file never opens
    as a complete trace.  The SAS and the simulator never produce such
    records.

    ``path`` names the file to write, or is a binary file object (an
    ``io.BytesIO``) written in its place and left open at :meth:`close`;
    :class:`ColumnarTraceReader` reads the bytes back.
    """

    def __init__(
        self,
        path: str | Path | BinaryIO,
        segment_records: int = 4096,
        metadata: dict | None = None,
    ):
        if segment_records < 1:
            raise ValueError("segment_records must be >= 1")
        self.segment_records = segment_records
        if hasattr(path, "write"):
            self.path = _IN_MEMORY
            self._fh = path
            self._release = path.flush
        else:
            self.path = str(path)
            self._fh = open(self.path, "wb")
            self._release = self._fh.close
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
        self._node_fields: dict[Any, int] = {}  # node id -> encode_node()
        self._last_time = 0.0
        self._t0 = 0.0
        self._flushed = [0, 0, 0]  # transitions, metric samples, mappings
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
        self._new_buffers()

    # -- recorder protocol ------------------------------------------------
    def transition(
        self,
        time: float,
        kind: EventKind,
        sentence: Sentence,
        node_id: int | None = None,
    ) -> None:
        if self._closed:
            raise self._closed_error()
        self._times.append(time)  # first: the one append that can fail
        kinds = self._kinds
        kinds.append(kind is _ACTIVATE)
        self._items.append(sentence)
        self._nodes.append(node_id)
        if len(kinds) >= self.segment_records:
            self._flush_segment()

    def metric_sample(
        self, time: float, name: str, focus: str = "", value: float = 0.0, units: str = ""
    ) -> None:
        self._buffer(_K_METRIC, time, (name, focus, value, units))

    def mapping(
        self,
        time: float,
        source: Sentence,
        destination: Sentence,
        origin: MappingOrigin = MappingOrigin.DYNAMIC,
    ) -> None:
        self._buffer(_K_MAP, time, (source, destination, origin))

    @property
    def transitions(self) -> int:
        kinds = self._kinds
        return self._flushed[0] + len(kinds) - kinds.count(_K_METRIC) - kinds.count(_K_MAP)

    @property
    def metric_samples_count(self) -> int:
        return self._flushed[1] + self._kinds.count(_K_METRIC)

    @property
    def mappings_count(self) -> int:
        return self._flushed[2] + self._kinds.count(_K_MAP)

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
    def _closed_error(self) -> ValueError:
        return ValueError(f"ColumnarTraceWriter({self.path}) is closed")

    def _buffer(self, code: int, time: float, payload: tuple) -> None:
        if self._closed:
            raise self._closed_error()
        self._times.append(time)
        self._kinds.append(code)
        self._items.append(payload)
        self._nodes.append(None)
        if len(self._kinds) >= self.segment_records:
            self._flush_segment()

    def _new_buffers(self) -> None:
        # one entry per buffered record: its kind (a transition's activate
        # flag, _K_METRIC or _K_MAP), time, sentence or payload, and node id
        self._kinds = bytearray()
        self._times = array("d")
        self._items: list = []
        self._nodes: list = []

    def _intern_sentence(self, sentence: Sentence) -> int:
        sid = self._sents.intern(sentence)
        if sid == len(self._sent_level):
            level = sentence.abstraction
            self._sent_level.append(self._levels.setdefault(level, len(self._levels)))
            if sid >= _ID_LIMIT:  # pragma: no cover - 4e9 distinct sentences
                raise CodecError("sentence id out of u32 range")
        return sid

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

    def _flush_segment(self) -> None:
        """Encode the buffered records as one segment (none: no-op); a
        record the per-call checks would reject closes the writer."""
        if not self._kinds:
            return
        try:
            self._encode_segment()
        except BaseException:
            self._abandon()
            raise
        self._new_buffers()

    def _encode_segment(self) -> None:
        kinds, times, items, nodes = self._kinds, self._times, self._items, self._nodes
        snapshot = self._encode_snapshot()  # state before the first record
        if self._segments:
            t_min = last = self._last_time
        else:  # the first record's time is not checked
            t_min = last = self._t0 = times[0]
        only_trans = not (kinds.count(_K_METRIC) or kinds.count(_K_MAP))
        if only_trans:
            ids = self._sentence_ids(items)
            metric_rows: list[tuple] = []
            map_rows: list[tuple] = []
            trans_nodes = nodes
        else:
            ids, metric_rows, map_rows = self._record_ids(kinds, times, items)
            is_trans = kinds.translate(_IS_TRANS)
            trans_nodes = list(compress(nodes, is_trans))
        # a transition's node gets its activation-stack dict at its first
        # record ever (the snapshot lists nodes in that order); a node id the
        # node column cannot hold in 4 bytes fails at its first record,
        # after that record's other checks (the loop stops just past it)
        state = self._state
        fields = self._node_fields
        stop, bad_node = len(kinds), None
        seg_nodes = dict.fromkeys(trans_nodes)
        for node in seg_nodes:
            if node not in state:
                state[node] = {}
                field = fields[node] = encode_node(node)
                if field >= _ID_LIMIT:
                    at = nodes.index(node)
                    if at < stop:
                        stop, bad_node = at + 1, node
        depth = self._flat_depth
        start = self._flat_start
        # the encoded KIND column: each transition's activate flag, plus
        # KIND_MEMBER where its sentence's cross-node depth leaves or
        # reaches 0 (metric and mapping records add nothing)
        trans_kind = bytearray()
        mark = trans_kind.append
        joins, leaves = KIND_ACTIVATE | KIND_MEMBER, KIND_MEMBER
        for k, t, sid, node in zip(kinds[:stop], times, ids, nodes):
            if k == 1:  # activate
                per = state[node]
                stack = per.get(sid)
                if stack is None:
                    per[sid] = [t]
                else:
                    stack.append(t)
                d = depth.get(sid)
                if d is None:
                    depth[sid] = 1
                    start[sid] = t
                    mark(joins)
                else:
                    depth[sid] = d + 1
                    mark(KIND_ACTIVATE)
            elif not k:  # deactivate
                per = state[node]
                stack = per.get(sid)
                if stack is None:
                    sentence = self._sents.sentences[sid]
                    raise ValueError(
                        f"deactivate without activate for {sentence} on node {node}"
                    )
                if len(stack) == 1:
                    del per[sid]
                else:
                    stack.pop()
                d = depth[sid]
                if d == 1:
                    del depth[sid]
                    del start[sid]
                    mark(leaves)
                else:
                    depth[sid] = d - 1
                    mark(0)
            if t < last:
                raise ValueError(f"trace time went backwards: {t} < {last}")
            last = t
        if bad_node is not None:
            raise CodecError(f"node id {bad_node} out of u32 range")
        self._last_time = last
        if only_trans:
            sid_col, trans_t = ids, times
        else:
            sid_col = list(compress(ids, is_trans))
            trans_t = array("d", compress(times, is_trans))
        n_trans = len(sid_col)
        mt, mname, mfocus, munits, mval = zip(*metric_rows) if metric_rows else ((),) * 5
        pt, psrc, pdst, porg = zip(*map_rows) if map_rows else ((),) * 4
        seg_sids = set(sid_col)
        top_sid = max(seg_sids, default=0)
        seg_sids.update(psrc, pdst)
        level_of = self._sent_level
        levels = 0
        for sid in seg_sids:
            levels |= 1 << level_of[sid]
        # posting lists, in zone-map order (a mapping's sid may have no row)
        postings: dict[int, list[int]] = {sid: [] for sid in sorted(seg_sids)}
        for row, sid in enumerate(sid_col):
            postings[sid].append(row)
        counts = [len(rows) for rows in postings.values()] if n_trans else []
        cols = [
            (COL_ORDER, bytes(n_trans) if only_trans else kinds.translate(_ORDER_OF)),
            (COL_T, _tobytes(trans_t)),
            (COL_SID, _narrow(sid_col, top_sid)),
            (COL_KIND, bytes(trans_kind)),
            (COL_NODE, _narrow(
                map(fields.__getitem__, trans_nodes),
                max(map(fields.__getitem__, seg_nodes), default=0),
            )),
            (COL_MT, _tobytes(array("d", mt))),
            (COL_MNAME, _tobytes(array(_U32, mname))),
            (COL_MFOCUS, _tobytes(array(_U32, mfocus))),
            (COL_MUNITS, _tobytes(array(_U32, munits))),
            (COL_MVAL, _tobytes(array("d", mval))),
            (COL_PT, _tobytes(array("d", pt))),
            (COL_PSRC, _tobytes(array(_U32, psrc))),
            (COL_PDST, _tobytes(array(_U32, pdst))),
            (COL_PORG, bytes(porg)),
            (COL_POST_N, _narrow(counts, max(counts, default=0))),
            (COL_POST_ROWS, _narrow(chain.from_iterable(postings.values()), n_trans - 1)),
        ]
        buf = bytearray()
        append_uvarint(buf, len(snapshot))
        buf += snapshot
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
                n_trans=n_trans,
                n_metric=len(mt),
                n_map=len(pt),
                t_min=t_min,
                t_max=last,
                trans_t_max=trans_t[-1] if n_trans else t_min,
                level_mask=levels,
                sids=frozenset(seg_sids),
            )
        )
        flushed = self._flushed
        flushed[0] += n_trans
        flushed[1] += len(mt)
        flushed[2] += len(pt)
        self._fh.write(buf)
        self._offset += len(buf)

    def _sentence_ids(self, sentences: list) -> list[int]:
        """Ids of ``sentences``, new ones interned in first-use order; each
        distinct object is hashed once, the rest is mapped at C speed."""
        distinct = dict(zip(map(id, sentences), sentences))
        intern = self._intern_sentence
        by_object = {key: intern(sent) for key, sent in distinct.items()}
        return list(map(by_object.__getitem__, map(id, sentences)))

    def _record_ids(self, kinds: bytearray, times: array, items: list) -> tuple:
        """Intern a mixed segment's records in record order: the sentence id
        of each record (``None`` for metric samples and mappings), and the
        metric and mapping rows."""
        intern = self._intern_sentence
        strings = self._strings.intern
        ids: list = []
        metric_rows: list[tuple] = []
        map_rows: list[tuple] = []
        for k, t, item in zip(kinds, times, items):
            if k < _K_METRIC:
                ids.append(intern(item))
                continue
            ids.append(None)
            if k == _K_METRIC:
                name, focus, value, units = item
                metric_rows.append((t, strings(name), strings(focus), strings(units), value))
            else:
                src, dst, origin = item
                src_id = intern(src)
                map_rows.append((t, src_id, intern(dst), ORIGIN_CODES[origin]))
        return ids, metric_rows, map_rows

    def _abandon(self) -> None:
        """Close without a footer: the file never opens as a trace."""
        self._closed = True
        for sas, hook in self._attached:
            sas.detach_recorder(hook)
        self._attached.clear()
        self._release()

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
            append_uvarint(footer, self._strings.intern(name))
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
        for count in self._flushed:
            append_uvarint(footer, count)
        footer += _F64.pack(self._t0)
        footer += _F64.pack(self._last_time)
        self._fh.write(footer)
        self._fh.write(_U64.pack(self._offset))
        self._fh.write(MAGIC_X_END)
        self._release()
        self._closed = True

    def __enter__(self) -> "ColumnarTraceWriter":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# reader
# ----------------------------------------------------------------------
class ColumnarTraceReader:
    """Random-access mmap reader over a finalized ``.rtrcx`` file.

    Opening decodes only the footer (tables + zone maps); record bytes are
    touched lazily, column by column, as scans demand them.  The event
    iterators yield values equal, record for record, to what was recorded.
    ``path`` names the file, or is the ``bytes`` of one, read in place
    (:attr:`in_memory`: no file a sweep worker could reopen).
    """

    def __init__(self, path: str | Path | bytes):
        self.in_memory = isinstance(path, bytes)
        if self.in_memory:
            self.path, data = _IN_MEMORY, path
        else:
            self.path = str(path)
            data = map_readonly(self.path)
        if len(data) < len(MAGIC_X) + 1 + 12 or data[: len(MAGIC_X)] != MAGIC_X:
            raise CodecError(f"{self.path}: not an .rtrcx file")
        if data[len(MAGIC_X)] != VERSION_X:
            raise CodecError(
                f"{self.path}: unsupported version {data[len(MAGIC_X)]} "
                f"(want {VERSION_X}; record the run again to read it)"
            )
        if data[-len(MAGIC_X_END) :] != MAGIC_X_END:
            raise CodecError(f"{self.path}: truncated (missing end magic)")
        self._data = data
        pos = len(MAGIC_X) + 1
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
        fpos = footer_offset
        self.strings, fpos = StringTable.decode_table(data, fpos)
        self.sentences, fpos = SentenceTable.decode_table(data, fpos, self.strings)
        nlevels, fpos = read_uvarint(data, fpos)
        check_count(nlevels, fpos, len(data), 1, "level table")
        self.levels: list[str] = []
        for _ in range(nlevels):
            sid, fpos = read_uvarint(data, fpos)
            if sid >= len(self.strings):
                raise CodecError(f"{self.path}: level references unknown string id {sid}")
            self.levels.append(self.strings[sid])
        nseg, fpos = read_uvarint(data, fpos)
        check_count(nseg, fpos, len(data), 30, "segment index")
        self.segments: list[SegmentMeta] = []
        # each segment's zone-map sids as stored (ascending): the order of
        # its posting lists
        self._sid_order: list[list[int]] = []
        nsents = len(self.sentences)
        for _ in range(nseg):
            offset, fpos = read_uvarint(data, fpos)
            nbytes, fpos = read_uvarint(data, fpos)
            n_trans, fpos = read_uvarint(data, fpos)
            n_metric, fpos = read_uvarint(data, fpos)
            n_map, fpos = read_uvarint(data, fpos)
            t_min, fpos = read_f64(data, fpos, "zone map bound")
            t_max, fpos = read_f64(data, fpos, "zone map bound")
            trans_t_max, fpos = read_f64(data, fpos, "zone map bound")
            level_mask, fpos = read_uvarint(data, fpos)
            nsids, fpos = read_uvarint(data, fpos)
            check_count(nsids, fpos, len(data), 1, "zone map sid set")
            raw = data[fpos : fpos + nsids]
            if raw.isascii():  # every delta one byte: sum them at C speed
                sids = list(accumulate(raw))
                fpos += nsids
            else:
                sids = []
                prev = 0
                for _ in range(nsids):
                    delta, fpos = read_uvarint(data, fpos)
                    prev += delta
                    sids.append(prev)
            if sids and sids[-1] >= nsents:
                raise CodecError(f"{self.path}: zone map references unknown sentence id")
            if not (
                self._records_start <= offset
                and offset + nbytes <= footer_offset
            ):
                raise CodecError(f"{self.path}: segment span out of range")
            self.segments.append(
                SegmentMeta(
                    offset, nbytes, n_trans, n_metric, n_map,
                    t_min, t_max, trans_t_max, level_mask, frozenset(sids),
                )
            )
            self._sid_order.append(sids)
        self.transitions, fpos = read_uvarint(data, fpos)
        self.metric_count, fpos = read_uvarint(data, fpos)
        self.mapping_count, fpos = read_uvarint(data, fpos)
        self.t0, fpos = read_f64(data, fpos, "time bound")
        self.t1, fpos = read_f64(data, fpos, "time bound")
        self._seg_t_mins = [s.t_min for s in self.segments]
        self._col_dirs: dict[int, dict[int, tuple[int, int]]] = {}
        self._snap_spans: dict[int, tuple[int, int]] = {}
        self._level_ids = {name: i for i, name in enumerate(self.levels)}

    # -- column access ------------------------------------------------------
    def _columns(self, i: int) -> dict[int, tuple[int, int]]:
        """The column directory of segment ``i``: id -> (offset, nbytes)."""
        cached = self._col_dirs.get(i)
        if cached is not None:
            return cached
        seg = self.segments[i]
        data = self._data
        end = seg.offset + seg.nbytes
        snap_len, pos = read_uvarint(data, seg.offset)
        if pos + snap_len > end:
            raise CodecError(f"{self.path}: truncated segment snapshot")
        self._snap_spans[i] = (pos, snap_len)
        pos += snap_len
        ncols, pos = read_uvarint(data, pos)
        check_count(ncols, pos, end, 2, "column directory")
        out: dict[int, tuple[int, int]] = {}
        for _ in range(ncols):
            cid, pos = read_uvarint(data, pos)
            nbytes, pos = read_uvarint(data, pos)
            if pos + nbytes > end:
                raise CodecError(f"{self.path}: truncated column {cid} in segment {i}")
            out[cid] = (pos, nbytes)
            pos += nbytes
        self._col_dirs[i] = out
        return out

    def _col_span(self, i: int, cid: int, expect: int, itemsize: int) -> tuple[int, int]:
        """``(offset, nbytes)`` of a column holding ``expect`` items."""
        span = self._columns(i).get(cid)
        if span is None:
            if expect == 0:
                return 0, 0
            raise CodecError(f"{self.path}: segment {i} missing column {cid}")
        pos, nbytes = span
        if nbytes != expect * itemsize:
            raise CodecError(
                f"{self.path}: column {cid} in segment {i} has {nbytes} bytes, "
                f"want {expect * itemsize}"
            )
        return span

    def _col_raw(self, i: int, cid: int, expect: int, itemsize: int) -> bytes:
        pos, nbytes = self._col_span(i, cid, expect, itemsize)
        return bytes(self._data[pos : pos + nbytes])

    def _col_f64(self, i: int, cid: int, expect: int) -> array:
        return _frombytes("d", self._col_raw(i, cid, expect, 8))

    def _col_u32(self, i: int, cid: int, expect: int) -> array:
        return _frombytes(_U32, self._col_raw(i, cid, expect, 4))

    def _uint_span(self, i: int, cid: int, expect: int) -> tuple[int, int]:
        """``(offset, width)`` of a column of ``expect`` unsigned ints 1, 2
        or 4 bytes wide: the width is its byte count divided by ``expect``
        (0 for an empty column)."""
        span = self._columns(i).get(cid)
        pos, nbytes = (0, 0) if span is None else span
        width = nbytes // expect if expect else 0
        if width * expect != nbytes or (expect and width not in _UINT):
            raise CodecError(
                f"{self.path}: column {cid} in segment {i} has {nbytes} bytes "
                f"for {expect} values of 1, 2 or 4 bytes"
            )
        return pos, width

    def _col_uint(self, i: int, cid: int, expect: int) -> array:
        pos, width = self._uint_span(i, cid, expect)
        if not width:
            return array("B")
        return _frombytes(_UINT[width], bytes(self._data[pos : pos + width * expect]))

    def _col_u8(self, i: int, cid: int, expect: int) -> bytes:
        return self._col_raw(i, cid, expect, 1)

    def segment_state(self, i: int) -> SASState:
        """SAS activation state at the *start* of segment ``i`` (decoded
        from the embedded snapshot; independent of every other segment)."""
        self._columns(i)  # locates the snapshot span
        pos, snap_len = self._snap_spans[i]
        data = self._data
        end = pos + snap_len
        nentries, pos = read_uvarint(data, pos)
        check_count(nentries, pos, end, 3, "snapshot entry")
        state = SASState()
        sentences = self.sentences
        for _ in range(nentries):
            node_field, pos = read_uvarint(data, pos)
            sid, pos = read_uvarint(data, pos)
            depth, pos = read_uvarint(data, pos)
            if sid >= len(sentences):
                raise CodecError(f"{self.path}: snapshot references unknown sentence id")
            check_count(depth, pos, end, 8, "activation stack")
            times = [_F64.unpack_from(data, pos + 8 * k)[0] for k in range(depth)]
            pos += 8 * depth
            state.nodes.setdefault(decode_node(node_field), {})[sentences[sid]] = times
        return state

    def segment_open_intervals(self, i: int) -> dict[int, tuple[int, float]]:
        """``sid -> (cross-node depth, flattened-interval start)`` at the
        start of segment ``i`` -- the snapshot tail that lets a parallel
        range scan seed interval flattening without earlier segments."""
        self._columns(i)  # locates the snapshot span
        pos, snap_len = self._snap_spans[i]
        data = self._data
        end = pos + snap_len
        nentries, pos = read_uvarint(data, pos)
        check_count(nentries, pos, end, 3, "snapshot entry")
        for _ in range(nentries):
            _, pos = read_uvarint(data, pos)
            _, pos = read_uvarint(data, pos)
            depth, pos = read_uvarint(data, pos)
            check_count(depth, pos, end, 8, "activation stack")
            pos += 8 * depth
        nopen, pos = read_uvarint(data, pos)
        check_count(nopen, pos, end, 10, "open-interval tail")
        out: dict[int, tuple[int, float]] = {}
        nsents = len(self.sentences)
        for _ in range(nopen):
            sid, pos = read_uvarint(data, pos)
            depth, pos = read_uvarint(data, pos)
            start, pos = read_f64(data, pos, "open-interval start")
            if sid >= nsents:
                raise CodecError(
                    f"{self.path}: open-interval tail references unknown sentence id"
                )
            out[sid] = (depth, start)
        return out

    def segment_transitions(self, i: int) -> tuple[array, array, bytes, array]:
        """Raw transition columns of segment ``i``: (times, sids, kinds,
        nodes); a kind byte holds the :data:`KIND_ACTIVATE` and
        :data:`KIND_MEMBER` bits."""
        seg = self.segments[i]
        return (
            self._col_f64(i, COL_T, seg.n_trans),
            self._col_uint(i, COL_SID, seg.n_trans),
            self._col_u8(i, COL_KIND, seg.n_trans),
            self._col_uint(i, COL_NODE, seg.n_trans),
        )

    def segment_rows(
        self, i: int, sids: frozenset[int] | set[int] | None
    ) -> Sequence[int]:
        """Ascending rows of segment ``i`` whose sentence id is in ``sids``
        (``None``: every row).

        A segment whose zone-map sid set lies inside ``sids`` keeps every
        row; otherwise the wanted sids' posting lists are sliced out and
        merged, so no Python code runs per row of another sentence.
        Posting lists that do not add up to the segment's transitions, or
        hold a row past them, raise :class:`CodecError`.
        """
        seg = self.segments[i]
        present = seg.sids if sids is None else seg.sids & sids
        if len(present) == len(seg.sids):
            return range(seg.n_trans)
        if not (present and seg.n_trans):
            return []
        order = self._sid_order[i]
        counts = self._col_uint(i, COL_POST_N, len(order))
        if sum(counts) != seg.n_trans:
            raise CodecError(
                f"{self.path}: posting lists of segment {i} hold {sum(counts)} rows, "
                f"want {seg.n_trans}"
            )
        pos, width = self._uint_span(i, COL_POST_ROWS, seg.n_trans)
        code = _UINT[width]
        ends = list(accumulate(counts))
        rows: list[int] = []
        for sid in present:
            k = bisect.bisect_left(order, sid)
            end = pos + width * ends[k]
            rows += _frombytes(code, self._data[end - width * counts[k] : end])
        if len(present) > 1:
            rows.sort()
        if rows and max(rows) >= seg.n_trans:
            raise CodecError(f"{self.path}: posting list row out of range in segment {i}")
        return rows

    # -- iteration ----------------------------------------------------------
    def events(self) -> Iterator[SentenceEvent]:
        """All transitions, in recorded order, as core events."""
        sentences = self.sentences
        activate, deactivate = EventKind.ACTIVATE, EventKind.DEACTIVATE
        for i in range(len(self.segments)):
            times, sids, kinds, nodes = self.segment_transitions(i)
            try:
                for j in range(len(times)):
                    yield SentenceEvent(
                        times[j],
                        activate if kinds[j] & KIND_ACTIVATE else deactivate,
                        sentences[sids[j]],
                        decode_node(nodes[j]),
                    )
            except IndexError as exc:
                raise CodecError(f"{self.path}: sentence id out of range in segment {i}") from exc

    def __iter__(self) -> Iterator[SentenceEvent]:
        return self.events()

    def __len__(self) -> int:
        return self.transitions

    def metric_samples(self) -> Iterator[MetricSample]:
        strings = self.strings
        for i, seg in enumerate(self.segments):
            if not seg.n_metric:
                continue
            times = self._col_f64(i, COL_MT, seg.n_metric)
            names = self._col_u32(i, COL_MNAME, seg.n_metric)
            foci = self._col_u32(i, COL_MFOCUS, seg.n_metric)
            units = self._col_u32(i, COL_MUNITS, seg.n_metric)
            vals = self._col_f64(i, COL_MVAL, seg.n_metric)
            try:
                for j in range(len(times)):
                    yield MetricSample(
                        times[j], strings[names[j]], strings[foci[j]],
                        vals[j], strings[units[j]],
                    )
            except IndexError as exc:
                raise CodecError(f"{self.path}: unknown string id in metric") from exc

    def mappings(self) -> Iterator[MappingEvent]:
        sentences = self.sentences
        for i, seg in enumerate(self.segments):
            if not seg.n_map:
                continue
            times = self._col_f64(i, COL_PT, seg.n_map)
            srcs = self._col_u32(i, COL_PSRC, seg.n_map)
            dsts = self._col_u32(i, COL_PDST, seg.n_map)
            orgs = self._col_u8(i, COL_PORG, seg.n_map)
            try:
                for j in range(len(times)):
                    yield MappingEvent(
                        times[j], sentences[srcs[j]], sentences[dsts[j]],
                        ORIGIN_BY_CODE[orgs[j]],
                    )
            except (IndexError, KeyError) as exc:
                raise CodecError(f"{self.path}: corrupt mapping column") from exc

    def records(self) -> Iterator[tuple]:
        """Every record, interleaved in recorded order, ids resolved.

        Yields ``("trans", time, sentence, activate, node_id)``,
        ``("metric", time, name, focus, value, units)``, and
        ``("map", time, source, destination, origin)`` tuples, rebuilt from
        the ORDER column; segment snapshots are derived data and not
        included.
        """
        sentences = self.sentences
        strings = self.strings
        for i, seg in enumerate(self.segments):
            total = seg.n_trans + seg.n_metric + seg.n_map
            order = self._col_u8(i, COL_ORDER, total)
            times, sids, kinds, nodes = self.segment_transitions(i)
            # empty defaults keep a corrupted ORDER byte (a record kind the
            # segment header says is absent) on the IndexError -> CodecError
            # path instead of touching unbound locals
            mt = mname = mfocus = munits = mval = ()
            pt = psrc = pdst = porg = ()
            if seg.n_metric:
                mt = self._col_f64(i, COL_MT, seg.n_metric)
                mname = self._col_u32(i, COL_MNAME, seg.n_metric)
                mfocus = self._col_u32(i, COL_MFOCUS, seg.n_metric)
                munits = self._col_u32(i, COL_MUNITS, seg.n_metric)
                mval = self._col_f64(i, COL_MVAL, seg.n_metric)
            if seg.n_map:
                pt = self._col_f64(i, COL_PT, seg.n_map)
                psrc = self._col_u32(i, COL_PSRC, seg.n_map)
                pdst = self._col_u32(i, COL_PDST, seg.n_map)
                porg = self._col_u8(i, COL_PORG, seg.n_map)
            ti = mi = pi = 0
            try:
                for rec in order:
                    if rec == REC_TRANS:
                        yield ("trans", times[ti], sentences[sids[ti]],
                               bool(kinds[ti] & KIND_ACTIVATE), decode_node(nodes[ti]))
                        ti += 1
                    elif rec == REC_METRIC:
                        yield ("metric", mt[mi], strings[mname[mi]], strings[mfocus[mi]],
                               mval[mi], strings[munits[mi]])
                        mi += 1
                    elif rec == REC_MAP:
                        yield ("map", pt[pi], sentences[psrc[pi]], sentences[pdst[pi]],
                               ORIGIN_BY_CODE[porg[pi]])
                        pi += 1
                    else:
                        raise CodecError(
                            f"{self.path}: unknown record kind {rec} in ORDER column"
                        )
            except (IndexError, KeyError) as exc:
                raise CodecError(f"{self.path}: corrupt segment {i} columns") from exc

    # -- scans ---------------------------------------------------------------
    def prune_segments(
        self,
        sids: frozenset[int] | set[int] | None = None,
        t_min: float | None = None,
        t_max: float | None = None,
    ) -> list[int]:
        """Indices of segments whose zone map intersects the filter."""
        out = []
        for i, seg in enumerate(self.segments):
            if t_min is not None and seg.t_max < t_min:
                continue
            if t_max is not None and seg.t_min > t_max:
                continue
            if sids is not None and not (seg.sids & sids):
                continue
            out.append(i)
        return out

    # -- indexed access ------------------------------------------------------
    def seek(self, time: float) -> SASState:
        """Full SAS state at ``time`` (events at exactly ``time`` included).

        Bisects the segment index, installs that segment's embedded
        snapshot, and replays only the prefix of its transition columns up
        to ``time`` -- no other segment is touched.
        """
        idx = bisect.bisect_right(self._seg_t_mins, time) - 1
        if idx < 0:
            return SASState()  # before the first record: nothing active
        state = self.segment_state(idx)
        times, sids, kinds, nodes = self.segment_transitions(idx)
        sentences = self.sentences
        try:
            for j in range(bisect.bisect_right(times, time)):
                state.apply_transition(
                    sentences[sids[j]],
                    bool(kinds[j] & KIND_ACTIVATE),
                    times[j],
                    decode_node(nodes[j]),
                )
        except IndexError as exc:
            raise CodecError(f"{self.path}: sentence id out of range in segment {idx}") from exc
        return state

    # -- summaries -----------------------------------------------------------
    @property
    def is_empty(self) -> bool:
        """True when the file holds no records at all.

        Emptiness is derived from the persisted counts, not the bounds: the
        footer records ``t0 == t1 == 0.0`` both for an empty trace and for a
        real run spanning ``[0, 0]``, and the counts tell them apart.
        """
        return not (self.transitions or self.metric_count or self.mapping_count)

    def time_bounds(self) -> tuple[float, float] | None:
        """``(first, last)`` recorded time, or ``None`` for an empty trace."""
        if self.is_empty:
            return None
        return (self.t0, self.t1)

    def last_transition_time(self, node: Any = ALL_NODES) -> float | None:
        """Time of the last transition record (of ``node``'s, if given).

        Over all nodes this reads zone maps alone; for one node it walks
        the segments backwards over their node column and decodes one
        segment's time column.  ``None`` when there is no such transition.
        """
        want = None if node is ALL_NODES else encode_node(node)
        for i in range(len(self.segments) - 1, -1, -1):
            seg = self.segments[i]
            if not seg.n_trans:
                continue
            if want is None:
                return seg.trans_t_max
            nodes = self._col_uint(i, COL_NODE, seg.n_trans)
            nodes.reverse()
            if want in nodes:
                return self._col_f64(i, COL_T, seg.n_trans)[-1 - nodes.index(want)]
        return None

    def to_trace(self) -> Trace:
        """Materialize the transitions as an in-memory core Trace."""
        trace = Trace()
        for event in self.events():
            trace.append(event)
        return trace

    def info(self) -> dict:
        """Summary stats for ``repro trace info`` -- footer pages only."""
        by_level: dict[str, int] = {}
        for sent in self.sentences:
            by_level[sent.abstraction] = by_level.get(sent.abstraction, 0) + 1
        bounds = self.time_bounds()
        return {
            "path": self.path,
            "format": "columnar",
            "bytes": len(self._data),
            "meta": self.meta,
            "empty": self.is_empty,
            "transitions": self.transitions,
            "metric_samples": self.metric_count,
            "mappings": self.mapping_count,
            "sentences": len(self.sentences),
            "strings": len(self.strings),
            "segments": len(self.segments),
            "levels": list(self.levels),
            "time_bounds": None if bounds is None else list(bounds),
            "sentences_by_level": dict(sorted(by_level.items())),
        }

    def close(self) -> None:
        """Release the underlying mapping (idempotent)."""
        data = self._data
        if isinstance(data, mmap.mmap):
            data.close()

    def __enter__(self) -> "ColumnarTraceReader":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def open_trace(path: str | Path) -> ColumnarTraceReader:
    """Open a ``.rtrcx`` trace file.

    A file that cannot be read, or is not a columnar trace (a row
    ``.rtrc`` file from before the columnar store included), raises
    :class:`CodecError`.
    """
    spath = str(path)
    try:
        return ColumnarTraceReader(spath)
    except OSError as exc:
        raise CodecError(f"{spath}: cannot open: {exc}") from exc
