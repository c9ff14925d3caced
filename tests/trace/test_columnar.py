"""Unit tests for the columnar ``.rtrcx`` store and the common scan API.

The reference for every scan and retro answer is the in-memory
:class:`~repro.core.events.Trace` the file was recorded from, replayed
event by event.
"""

import io
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    EventKind,
    Noun,
    PerformanceQuestion,
    SentencePattern,
    Trace,
    Verb,
    sentence,
)
from repro.core.mapping import MappingOrigin
from repro.sweep import SweepRunner
from repro.trace import (
    ColumnarTraceReader,
    ColumnarTraceWriter,
    evaluate_questions,
    filtered_intervals,
    matching_sids,
    open_trace,
    parallel_intervals,
    sentence_intervals,
    trace_stats,
    windowed_mappings,
)
from repro.trace.codec import CodecError, append_uvarint
from repro.trace.columnar import KIND_ACTIVATE
from repro.trace.retro import evaluate_question_batch
from repro.workloads import random_trace

from .oracle import PerRecordColumnarWriter

SUM = Verb("Sum", "HPF")
SEND = Verb("Send", "CMRTS")
A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
N0_SEND = sentence(SEND, Noun("node0", "CMRTS"))


def mixed_trace_writer(w):
    """Drive a writer with interleaved transitions, metrics, and mappings."""
    w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
    w.metric_sample(1.25, "cpu_time", "node0", 0.125, "s")
    w.transition(2.0, EventKind.ACTIVATE, N0_SEND, node_id=1)
    w.mapping(2.0, A_SUM, N0_SEND)
    w.transition(2.5, EventKind.DEACTIVATE, N0_SEND, node_id=1)
    w.metric_sample(2.5, "msgs", "", 42.0)
    w.mapping(2.75, B_SUM, A_SUM, origin=MappingOrigin.STATIC)
    w.transition(3.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
    w.transition(3.0, EventKind.ACTIVATE, B_SUM)  # node None, tied time


def record_columnar(tmp_path, trace, **columnar_kwargs):
    """``trace`` written to a ``.rtrcx`` file; returns its reader."""
    col = tmp_path / "t.rtrcx"
    with ColumnarTraceWriter(col, **columnar_kwargs) as w:
        w.record_trace(trace)
    return ColumnarTraceReader(col)


class TestColumnarRoundTrip:
    def test_mixed_records_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=3) as w:
            mixed_trace_writer(w)
        r = ColumnarTraceReader(path)
        events = list(r.events())
        assert [(e.time, e.kind, e.sentence, e.node_id) for e in events] == [
            (1.0, EventKind.ACTIVATE, A_SUM, 0),
            (2.0, EventKind.ACTIVATE, N0_SEND, 1),
            (2.5, EventKind.DEACTIVATE, N0_SEND, 1),
            (3.0, EventKind.DEACTIVATE, A_SUM, 0),
            (3.0, EventKind.ACTIVATE, B_SUM, None),
        ]
        samples = list(r.metric_samples())
        assert [(s.time, s.name, s.focus, s.value, s.units) for s in samples] == [
            (1.25, "cpu_time", "node0", 0.125, "s"),
            (2.5, "msgs", "", 42.0, ""),
        ]
        maps = list(r.mappings())
        assert [(m.time, m.source, m.destination, m.origin) for m in maps] == [
            (2.0, A_SUM, N0_SEND, MappingOrigin.DYNAMIC),
            (2.75, B_SUM, A_SUM, MappingOrigin.STATIC),
        ]
        assert r.transitions == 5
        assert len(r.segments) > 1  # segment_records=3 forced a roll

    def test_records_preserve_interleaving(self, tmp_path):
        want = [
            ("trans", 1.0, A_SUM, True, 0),
            ("metric", 1.25, "cpu_time", "node0", 0.125, "s"),
            ("trans", 2.0, N0_SEND, True, 1),
            ("map", 2.0, A_SUM, N0_SEND, MappingOrigin.DYNAMIC),
            ("trans", 2.5, N0_SEND, False, 1),
            ("metric", 2.5, "msgs", "", 42.0, ""),
            ("map", 2.75, B_SUM, A_SUM, MappingOrigin.STATIC),
            ("trans", 3.0, A_SUM, False, 0),
            ("trans", 3.0, B_SUM, True, None),
        ]
        for segment_records in (2, 4096):  # across segment boundaries, and in one
            col = tmp_path / f"t{segment_records}.rtrcx"
            with ColumnarTraceWriter(col, segment_records=segment_records) as w:
                mixed_trace_writer(w)
            assert list(ColumnarTraceReader(col).records()) == want

    @pytest.mark.parametrize("seed", [0, 7, 99])
    def test_random_trace_equivalence(self, tmp_path, seed):
        trace = random_trace(seed, events=180, nodes=3)
        col = record_columnar(tmp_path, trace, segment_records=32)
        events = trace.events()
        want = [(e.time, e.kind, e.sentence, e.node_id) for e in events]
        assert [(e.time, e.kind, e.sentence, e.node_id) for e in col.events()] == want
        assert col.time_bounds() == (events[0].time, events[-1].time)
        assert col.transitions == len(events)
        info = col.info()
        assert info["format"] == "columnar"
        assert info["transitions"] == len(events)
        by_level: dict = {}
        for sent in {e.sentence for e in events}:
            by_level[sent.abstraction] = by_level.get(sent.abstraction, 0) + 1
        assert info["sentences_by_level"] == by_level

    def test_metadata_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, metadata={"study": "x", "n": 2}) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM)
        assert ColumnarTraceReader(path).meta == {"study": "x", "n": 2}


#: sentences over three levels, one with non-ASCII names
ORACLE_POOL = [A_SUM, B_SUM, N0_SEND, sentence(Verb("Écrit", "Ünix"), Noun("fd·1", "Ünix"))]
ORACLE_NODES = [None, 0, 1, 5, -2]


@st.composite
def record_streams(draw):
    """A valid record stream: nested activations on several nodes (node
    None included), equal and negative times, metric samples with
    non-ASCII strings, and mappings of both origins."""
    t = draw(st.floats(-5.0, 5.0))
    open_: dict = {}
    out = []
    for _ in range(draw(st.integers(0, 60))):
        op = draw(st.sampled_from(["act", "act", "deact", "deact", "metric", "map"]))
        if op == "deact" and any(open_.values()):
            key = draw(st.sampled_from(sorted((k for k, n in open_.items() if n), key=str)))
            open_[key] -= 1
            node, sent = key
            out.append(("transition", t, EventKind.DEACTIVATE, sent, node))
        elif op in ("act", "deact"):
            key = (draw(st.sampled_from(ORACLE_NODES)), draw(st.sampled_from(ORACLE_POOL)))
            open_[key] = open_.get(key, 0) + 1
            out.append(("transition", t, EventKind.ACTIVATE, key[1], key[0]))
        elif op == "metric":
            text = st.text(max_size=4)
            out.append(("metric_sample", t, draw(text), draw(text), draw(st.floats()), draw(text)))
        else:
            origin = draw(st.sampled_from(list(MappingOrigin)))
            src, dst = draw(st.sampled_from(ORACLE_POOL)), draw(st.sampled_from(ORACLE_POOL))
            out.append(("mapping", t, src, dst, origin))
        t += draw(st.sampled_from([0.0, 0.0, 1e-9, 0.5, 3.0]))
    return out


def write_stream(cls, path, stream, segment_records):
    writer = cls(path, segment_records=segment_records, metadata={"oracle": True})
    for method, *args in stream:
        getattr(writer, method)(*args)
    writer.close()
    return path.read_bytes()


@settings(max_examples=200, deadline=None)
@given(
    stream=record_streams(),
    segment_records=st.one_of(st.integers(1, 64), st.just(4096)),
)
def test_buffered_writer_matches_the_per_record_oracle(tmp_path_factory, stream, segment_records):
    # the segment buffer encodes in one pass what the oracle did per call:
    # the same interning, snapshots, zone maps and columns, byte for byte
    root = tmp_path_factory.getbasetemp()
    assert write_stream(
        ColumnarTraceWriter, root / "buffered.rtrcx", stream, segment_records
    ) == write_stream(PerRecordColumnarWriter, root / "oracle.rtrcx", stream, segment_records)


class TestColumnarWriterContract:
    RECORDS = {
        "transition": (1.0, EventKind.ACTIVATE, A_SUM),
        "metric_sample": (1.0, "cpu", "", 2.0),
        "mapping": (1.0, A_SUM, B_SUM),
    }

    @pytest.mark.parametrize("method", sorted(RECORDS))
    def test_closed_writer_rejects_each_record_method(self, tmp_path, method):
        w = ColumnarTraceWriter(tmp_path / "t.rtrcx")
        w.close()
        w.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            getattr(w, method)(*self.RECORDS[method])

    BAD = {
        "backwards": (
            [(2.0, EventKind.ACTIVATE, A_SUM, 0), (1.0, EventKind.ACTIVATE, B_SUM, 0)],
            ValueError, "trace time went backwards: 1.0 < 2.0",
        ),
        "unbalanced": (
            [(1.0, EventKind.ACTIVATE, A_SUM, 0), (2.0, EventKind.DEACTIVATE, A_SUM, 1)],
            ValueError, "deactivate without activate for {A Sum} on node 1",
        ),
        "node_range": (
            [(1.0, EventKind.ACTIVATE, A_SUM, 0), (2.0, EventKind.ACTIVATE, A_SUM, 2**32)],
            CodecError, f"node id {2**32} out of u32 range",
        ),
    }

    @pytest.mark.parametrize("fault", sorted(BAD))
    @pytest.mark.parametrize("raised_by", ["filling call", "close"])
    def test_invalid_record_raises_and_leaves_no_trace(self, tmp_path, fault, raised_by):
        records, error, message = self.BAD[fault]
        path = tmp_path / "t.rtrcx"
        # a prefix segment flushes cleanly first, so the fault is not at the
        # first record of the file
        good = [(0.5, EventKind.ACTIVATE, N0_SEND, 3), (0.5, EventKind.DEACTIVATE, N0_SEND, 3)]
        w = ColumnarTraceWriter(path, segment_records=2 if raised_by == "filling call" else 4096)
        for rec in good + records[:-1]:
            w.transition(*rec)
        if raised_by == "filling call":
            with pytest.raises(error, match=re.escape(message)):
                w.transition(*records[-1])
            with pytest.raises(ValueError, match="closed"):
                w.transition(3.0, EventKind.ACTIVATE, A_SUM)
        else:
            w.transition(*records[-1])
            with pytest.raises(error, match=re.escape(message)):
                w.close()
        w.close()  # a no-op: no footer is written after the error
        with pytest.raises(CodecError):
            open_trace(path)

    def test_first_record_time_is_not_checked(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=1) as w:
            w.transition(-3.0, EventKind.ACTIVATE, A_SUM)
            w.transition(-3.0, EventKind.DEACTIVATE, A_SUM)
        r = ColumnarTraceReader(path)
        assert r.time_bounds() == (-3.0, -3.0)
        assert [seg.t_min for seg in r.segments] == [-3.0, -3.0]

    def test_counts_include_buffered_records(self, tmp_path):
        w = ColumnarTraceWriter(tmp_path / "t.rtrcx", segment_records=3)
        mixed_trace_writer(w)
        assert (w.transitions, w.metric_samples_count, w.mappings_count) == (5, 2, 2)
        w.close()
        assert (w.transitions, w.metric_samples_count, w.mappings_count) == (5, 2, 2)


class TestOpenTrace:
    def test_open_trace_sniffs_magic(self, tmp_path):
        col = record_columnar(tmp_path, random_trace(1, events=40))
        assert type(open_trace(col.path)) is ColumnarTraceReader
        # the retired row layout's magic is not a trace any more
        row = tmp_path / "t.rtrc"
        row.write_bytes(b"RTRC" + open(col.path, "rb").read()[4:])
        with pytest.raises(CodecError, match="not an .rtrcx"):
            open_trace(row)


class TestScanAPI:
    def test_zone_map_pruning_skips_segments(self, tmp_path):
        trace = random_trace(5, events=300, nodes=2, sentences=20)
        col = record_columnar(tmp_path, trace, segment_records=16)
        rare = trace.events()[0].sentence
        sids = matching_sids(col.sentences, [lambda s: s == rare])
        kept = col.prune_segments(sids=sids)
        assert len(kept) < len(col.segments)
        got = []
        for i in kept:
            times, _sids, kinds, _nodes = col.segment_transitions(i)
            got += [(times[j], kinds[j] & KIND_ACTIVATE) for j in col.segment_rows(i, sids)]
        want = [
            (e.time, int(e.kind is EventKind.ACTIVATE))
            for e in trace.events()
            if e.sentence == rare
        ]
        assert got == want

    def test_filtered_intervals_equals_postfiltered(self, tmp_path):
        trace = random_trace(21, events=250, nodes=2)
        col = record_columnar(tmp_path, trace, segment_records=32)
        full = sentence_intervals(trace)
        target = sorted(full, key=str)[0]
        filt = filtered_intervals(col, matchers=[lambda s: s == target])
        assert filt == {target: full[target]}

    def test_segment_open_intervals_seed_flattened_starts(self, tmp_path):
        # a sentence held open across nodes and segments: the opener's stack
        # entry is popped but the flattened interval must keep its 0->1 start
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=2) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
            w.transition(2.0, EventKind.ACTIVATE, A_SUM, node_id=1)
            w.transition(3.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
            w.transition(4.0, EventKind.ACTIVATE, B_SUM, node_id=0)
            w.transition(5.0, EventKind.DEACTIVATE, A_SUM, node_id=1)
        r = ColumnarTraceReader(path)
        sid_a = r.sentences.index(A_SUM)
        last = len(r.segments) - 1
        open_at_last = r.segment_open_intervals(last)
        assert open_at_last[sid_a][1] == 1.0  # not 2.0: flattened start survives


# ----------------------------------------------------------------------
# in-memory sources: encoded once, then replayed as a columnar trace
# ----------------------------------------------------------------------
class TestInMemorySources:
    def test_a_deactivation_on_a_node_that_never_activated_raises(self):
        # cross-node depth would balance (node 0 opens, node 1 closes), but
        # a recording balances per node, and so does the encoded replay
        trace = Trace()
        trace.record(1.0, EventKind.ACTIVATE, A_SUM, 0)
        trace.record(2.0, EventKind.DEACTIVATE, A_SUM, 1)
        question = PerformanceQuestion("a", (SentencePattern("Sum", ("A",)),))
        with pytest.raises(ValueError, match="deactivate without activate"):
            sentence_intervals(trace)
        with pytest.raises(ValueError, match="deactivate without activate"):
            evaluate_question_batch(trace, [question])

    @pytest.mark.parametrize("seed", range(6))
    def test_intervals_equal_each_sentences_own_event_walk(self, seed):
        # Trace.intervals walks one sentence's events: an independent
        # reference for the encoded replay, key order included
        trace = random_trace(seed, events=300, nodes=3, sentences=12)
        order = dict.fromkeys(e.sentence for e in trace if e.kind is EventKind.ACTIVATE)
        for end in (None, 99.0):
            want = {sent: trace.intervals(sent, end) for sent in order}
            assert list(sentence_intervals(trace, end).items()) == list(want.items())

    def test_parallel_scan_of_an_in_memory_source_runs_serially(self, monkeypatch):
        # there is no file a sweep worker could reopen, so no pool starts
        import repro.sweep.runner

        trace = random_trace(9, events=400, nodes=2)
        serial = sentence_intervals(trace)

        def no_pool(*_args, **_kwargs):
            raise AssertionError("a sweep pool was started for an in-memory trace")

        monkeypatch.setattr(repro.sweep.runner, "SweepRunner", no_pool)
        parallel = sentence_intervals(trace, jobs=2)
        assert parallel == serial
        assert list(parallel) == list(serial)

    def test_in_memory_reader_reads_the_bytes_a_file_holds(self, tmp_path):
        trace = random_trace(4, events=200, nodes=2)
        col = record_columnar(tmp_path, trace, segment_records=32)
        buf = io.BytesIO()
        with ColumnarTraceWriter(buf, segment_records=32) as w:
            w.record_trace(trace)
        assert not buf.closed  # the caller's buffer stays open
        mem = ColumnarTraceReader(buf.getvalue())
        assert buf.getvalue() == open(col.path, "rb").read()
        assert (mem.in_memory, col.in_memory) == (True, False)
        assert list(mem.records()) == list(col.records())
        assert sentence_intervals(mem, jobs=2) == sentence_intervals(col, jobs=2)


# ----------------------------------------------------------------------
# posting lists: sid rows sliced out of each segment's per-sid row lists
# ----------------------------------------------------------------------
def _sid_file(path, n_sentences, segment_records, seed=7):
    """Random nested activity over ``n_sentences`` sentences, with a
    metric-only run that leaves one segment no rows."""
    rng = random.Random(seed)
    pool = [sentence(SUM, Noun(f"n{k}", "HPF")) for k in range(n_sentences)]
    depth = {}
    with ColumnarTraceWriter(path, segment_records=segment_records) as w:
        for step in range(1600):
            if step == 800:
                for k in range(segment_records + 20):
                    w.metric_sample(step - 1 + k / 1e4, "cpu_time", "node0", 1.0, "s")
            k = rng.randrange(n_sentences) if rng.random() < 0.7 else rng.randrange(8)
            node = rng.randrange(3)
            d = depth.get((k, node), 0)
            act = d == 0 or rng.random() < 0.3
            depth[k, node] = d + 1 if act else d - 1
            kind = EventKind.ACTIVATE if act else EventKind.DEACTIVATE
            w.transition(float(step), kind, pool[k], node_id=node)
    return ColumnarTraceReader(path)


def _huge_file(path):
    """One 70,000-row segment: 65,600 sentences activated once each on
    nodes up to 36,000 (sentence ids, node fields and rows all need 4
    bytes), then 4,400 nested toggles of one sentence (a posting list
    longer than 255 rows)."""
    pool = [sentence(SUM, Noun(f"n{k}", "HPF")) for k in range(65_600)]
    act, deact = EventKind.ACTIVATE, EventKind.DEACTIVATE
    with ColumnarTraceWriter(path, segment_records=70_000) as w:
        for k, sent in enumerate(pool):
            w.transition(float(k), act, sent, node_id=(k % 5) * 9_000)
        for k in range(4_400):
            w.transition(70_000.0 + k, deact if k % 2 else act, pool[0], node_id=1)
    return ColumnarTraceReader(path)


#: fixture files: (sentences, segment records) or the huge file, and the
#: byte width of their sentence-id column and of their posting-list rows
SID_FILES = {
    "narrow": ((40, 40), 1, 1),
    "wide": ((300, 400), 2, 2),
    "huge": (None, 4, 4),
}


@pytest.fixture(scope="module")
def sid_files(tmp_path_factory):
    """``open(name)`` -> (reader, sid width, row width) of a SID_FILES
    file, written once per module."""
    opened = {}

    def open_file(name):
        if name not in opened:
            args, sid_width, row_width = SID_FILES[name]
            path = tmp_path_factory.mktemp("rows") / "t.rtrcx"
            reader = _huge_file(path) if args is None else _sid_file(path, *args)
            opened[name] = reader, sid_width, row_width
        return opened[name]

    yield open_file
    for reader, _, _ in opened.values():
        reader.close()


@pytest.fixture(scope="module", params=["narrow", "wide"])
def sid_reader(request, sid_files):
    return sid_files(request.param)[0]


def check_segment_rows(reader, data):
    """``segment_rows`` of a drawn segment and sid set equals a per-row
    loop over the segment's decoded sentence-id column."""
    n = len(reader.sentences)
    i = data.draw(st.integers(0, len(reader.segments) - 1))
    seg = reader.segments[i]
    wanted = set(data.draw(st.lists(st.integers(0, n + 5), max_size=12)))
    cover = data.draw(st.sampled_from(["some", "all", "all but one"]))
    if cover != "some":  # the wanted set covers the whole segment, or nearly
        wanted |= seg.sids
    if cover == "all but one" and seg.sids:
        wanted.discard(data.draw(st.sampled_from(sorted(seg.sids))))
    _times, sids, _kinds, _nodes = reader.segment_transitions(i)
    assert list(reader.segment_rows(i, wanted)) == [
        j for j, sid in enumerate(sids) if sid in wanted
    ]
    assert list(reader.segment_rows(i, None)) == list(range(len(sids)))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_segment_rows_match_a_per_row_loop(sid_reader, data):
    check_segment_rows(sid_reader, data)


@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_segment_rows_match_a_per_row_loop_at_4_byte_widths(sid_files, data):
    # a 70,000-row segment: the costly case, so fewer draws
    check_segment_rows(sid_files("huge")[0], data)


def test_segment_rows_of_a_sentence_only_a_mapping_names(tmp_path):
    # the zone map holds a mapping's sentences too; their posting lists are
    # empty, and a question about one reads no row
    path = tmp_path / "t.rtrcx"
    with ColumnarTraceWriter(path) as w:
        w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
        w.mapping(1.5, B_SUM, N0_SEND)
        w.transition(2.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
    with ColumnarTraceReader(path) as reader:
        sid = reader.sentences.index(B_SUM)
        assert sid in reader.segments[0].sids
        assert list(reader.segment_rows(0, {sid})) == []
        assert list(reader.segment_rows(0, {sid, reader.sentences.index(A_SUM)})) == [0, 1]
        pattern = SentencePattern("Sum", ("B",))
        answer = evaluate_questions(reader, [PerformanceQuestion("b", (pattern,))])
        assert answer["b"].transitions == 0


@pytest.mark.parametrize("name", sorted(SID_FILES))
def test_sid_file_has_the_column_widths_it_is_built_for(sid_files, name):
    reader, sid_width, row_width = sid_files(name)
    from repro.trace.columnar import COL_POST_ROWS, COL_SID

    widest = {COL_SID: 0, COL_POST_ROWS: 0}
    for i, seg in enumerate(reader.segments):
        for cid in widest:
            if seg.n_trans:
                width = reader._columns(i)[cid][1] // seg.n_trans
                widest[cid] = max(widest[cid], width)
    assert widest == {COL_SID: sid_width, COL_POST_ROWS: row_width}
    if sid_width < 4:
        assert any(seg.n_trans == 0 for seg in reader.segments)


class TestParallelIntervals:
    def test_inprocess_split_matches_serial(self, tmp_path):
        trace = random_trace(31, events=400, nodes=3)
        col = record_columnar(tmp_path, trace, segment_records=16)
        serial = sentence_intervals(col)
        # workers=1 short-circuits run() in-process while still exercising
        # the range split / snapshot seeding / concatenation merge
        got = parallel_intervals(col, runner=SweepRunner(workers=1))
        assert got == serial

    def test_multiprocess_matches_serial(self, tmp_path):
        trace = random_trace(41, events=400, nodes=3)
        col = record_columnar(tmp_path, trace, segment_records=16)
        serial = sentence_intervals(col)
        got = parallel_intervals(col, runner=SweepRunner(workers=2))
        assert got == serial

    def test_jobs_keep_serial_key_order(self, tmp_path):
        # a sentence is filed at its first activation in every range, so
        # the merged dict -- and everything built from it -- comes out in
        # the serial order, not in order of first close within a range
        trace = random_trace(43, events=600, nodes=3, sentences=16)
        col = record_columnar(tmp_path, trace, segment_records=16)
        serial = sentence_intervals(col)
        parallel = sentence_intervals(col, jobs=2)
        assert list(parallel.items()) == list(serial.items())
        assert windowed_mappings(col, window=0.01, jobs=2) == windowed_mappings(
            col, window=0.01
        )

    def test_filtered_parallel_matches_filtered_serial(self, tmp_path):
        trace = random_trace(51, events=400, nodes=2)
        col = record_columnar(tmp_path, trace, segment_records=16)
        verb = col.sentences[0].verb.name
        pat = [lambda s, v=verb: s.verb.name == v]
        serial = filtered_intervals(col, matchers=pat)
        got = parallel_intervals(col, matchers=pat, runner=SweepRunner(workers=1))
        assert got == serial

    def test_jobs_kwarg_flows_through_retro(self, tmp_path):
        trace = random_trace(61, events=300, nodes=2)
        col = record_columnar(tmp_path, trace, segment_records=16)
        assert sentence_intervals(col, jobs=1) == sentence_intervals(trace)
        assert trace_stats(col, jobs=1) == trace_stats(trace)


class TestRetroOverColumnar:
    def test_questions_row_vs_columnar(self, tmp_path):
        from repro.core import PerformanceQuestion

        trace = random_trace(71, events=250, nodes=2)
        col = record_columnar(tmp_path, trace, segment_records=32)
        sent = trace.events()[0].sentence
        pat = SentencePattern(sent.verb.name, tuple(n.name for n in sent.nouns))
        qs = [PerformanceQuestion("q", (pat,))]
        for end in (None, 1.0):
            a = evaluate_questions(trace, qs, end_time=end)
            b = evaluate_questions(col, qs, end_time=end)
            assert {k: vars(v) for k, v in a.items()} == {k: vars(v) for k, v in b.items()}

    def test_windowed_mappings_row_vs_columnar(self, tmp_path):
        trace = random_trace(81, events=250, nodes=2)
        col = record_columnar(tmp_path, trace, segment_records=32)
        assert windowed_mappings(trace, window=0.001) == windowed_mappings(col, window=0.001)


class TestEmptyColumnar:
    def test_empty_trace(self, tmp_path):
        path = tmp_path / "e.rtrcx"
        with ColumnarTraceWriter(path):
            pass
        r = ColumnarTraceReader(path)
        assert r.is_empty
        assert r.time_bounds() is None
        assert r.last_transition_time() is None
        assert list(r.events()) == []
        assert r.info()["time_bounds"] is None
        assert sentence_intervals(r) == {}
        assert parallel_intervals(r, runner=SweepRunner(workers=1)) == {}

    def test_metric_only_trace_is_not_empty(self, tmp_path):
        path = tmp_path / "m.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.metric_sample(1.0, "cpu", "", 2.0)
        r = ColumnarTraceReader(path)
        assert not r.is_empty
        assert r.time_bounds() == (1.0, 1.0)  # bounds cover all record kinds
        assert r.last_transition_time() is None
        assert len(list(r.metric_samples())) == 1


class TestZoneMapSidSets:
    """A footer's sid sets: one-byte deltas are summed at C speed, wider
    ones decoded varint by varint, and every CodecError check stays."""

    def _file(self, path):
        """Segment 0 holds sids 0..200 (all deltas 1); segment 1 holds
        sids {0, 200}, a delta of 200 that needs a two-byte varint."""
        pool = [sentence(SUM, Noun(f"s{k}", "HPF")) for k in range(201)]
        with ColumnarTraceWriter(path, segment_records=201) as w:
            for k, sent in enumerate(pool):
                w.transition(float(k), EventKind.ACTIVATE, sent, node_id=0)
            w.transition(300.0, EventKind.DEACTIVATE, pool[200], node_id=0)
            w.transition(301.0, EventKind.DEACTIVATE, pool[0], node_id=0)
        return path.read_bytes()

    def test_wide_deltas_take_the_varint_path(self, tmp_path):
        self._file(tmp_path / "t.rtrcx")
        with ColumnarTraceReader(tmp_path / "t.rtrcx") as reader:
            assert [seg.sids for seg in reader.segments] == [
                frozenset(range(201)), frozenset({0, 200})
            ]
            for i, seg in enumerate(reader.segments):
                assert set(reader.segment_transitions(i)[1]) == seg.sids

    @pytest.mark.parametrize("excess", [0, 1])
    def test_sid_run_cut_by_the_footer_end_raises(self, tmp_path, excess):
        """The last segment's sid count is raised to every remaining byte
        (the run then reads the footer's tail as deltas, a two-byte one
        among them, and runs off the end) or to one more (the count check)."""
        data = self._file(tmp_path / "t.rtrcx")
        with ColumnarTraceReader(tmp_path / "t.rtrcx") as reader:
            tail = bytearray()
            for count in (reader.transitions, reader.metric_count, reader.mapping_count):
                append_uvarint(tail, count)
        run = bytes([0, 0xC8, 0x01])  # deltas 0 and 200
        at = len(data) - (len(tail) + 16 + 12) - len(run) - 1
        assert data[at:at + 1 + len(run)] == bytes([2]) + run
        rest = data[at + 1:]
        assert not rest.isascii()
        bad = tmp_path / "bad.rtrcx"
        bad.write_bytes(data[:at] + bytes([len(rest) + excess]) + rest)
        with pytest.raises(CodecError, match="truncated varint|zone map sid set"):
            ColumnarTraceReader(bad)
