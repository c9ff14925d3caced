"""Unit tests for the trace store: writer, reader, seek and SASState."""

import pytest

from repro.core import ActiveSentenceSet, EventKind, Noun, Sentence, Verb, sentence
from repro.core.mapping import MappingOrigin
from repro.trace import CodecError, ColumnarTraceReader, ColumnarTraceWriter, SASState
from repro.workloads import random_trace

SUM = Verb("Sum", "HPF")
SEND = Verb("Send", "CMRTS")
A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
N0_SEND = sentence(SEND, Noun("node0", "CMRTS"))


def write_simple(path, **kwargs):
    with ColumnarTraceWriter(path, **kwargs) as w:
        w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
        w.transition(2.0, EventKind.ACTIVATE, N0_SEND, node_id=0)
        w.transition(2.5, EventKind.DEACTIVATE, N0_SEND, node_id=0)
        w.transition(3.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
    return w


class TestRoundTrip:
    def test_events_identical(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        write_simple(path)
        events = list(ColumnarTraceReader(path))
        assert [(e.time, e.kind, e.sentence, e.node_id) for e in events] == [
            (1.0, EventKind.ACTIVATE, A_SUM, 0),
            (2.0, EventKind.ACTIVATE, N0_SEND, 0),
            (2.5, EventKind.DEACTIVATE, N0_SEND, 0),
            (3.0, EventKind.DEACTIVATE, A_SUM, 0),
        ]

    def test_metadata_counts_and_bounds(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        write_simple(path, metadata={"study": "unit", "n": 3})
        r = ColumnarTraceReader(path)
        assert r.meta == {"study": "unit", "n": 3}
        assert len(r) == r.transitions == 4
        assert r.time_bounds() == (1.0, 3.0)
        info = r.info()
        assert info["transitions"] == 4
        assert info["sentences"] == 2
        assert info["sentences_by_level"] == {"CMRTS": 1, "HPF": 1}

    def test_none_node_and_negative_node_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.transition(0.5, EventKind.ACTIVATE, A_SUM)  # node None
            w.transition(0.75, EventKind.ACTIVATE, B_SUM, node_id=-3)
        events = list(ColumnarTraceReader(path))
        assert events[0].node_id is None
        assert events[1].node_id == -3

    def test_metric_samples_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.metric_sample(1.5, "cpu_time", "node0", 0.125, "s")
            w.metric_sample(1.5, "msgs", "", 42.0)
        samples = list(ColumnarTraceReader(path).metric_samples())
        assert [(s.time, s.name, s.focus, s.value, s.units) for s in samples] == [
            (1.5, "cpu_time", "node0", 0.125, "s"),
            (1.5, "msgs", "", 42.0, ""),
        ]

    def test_mappings_round_trip(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.mapping(2.0, A_SUM, N0_SEND)
            w.mapping(2.5, B_SUM, A_SUM, origin=MappingOrigin.STATIC)
        maps = list(ColumnarTraceReader(path).mappings())
        assert (maps[0].source, maps[0].destination) == (A_SUM, N0_SEND)
        assert maps[0].origin is MappingOrigin.DYNAMIC
        assert maps[1].origin is MappingOrigin.STATIC
        assert maps[1].time == 2.5

    def test_mixed_records_share_one_time_chain(self, tmp_path):
        # metric/mapping records interleaved between transitions must not
        # disturb transition timestamps (the writer checks one clock across
        # all record kinds; each kind keeps its own time column)
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM)
            w.metric_sample(1.25, "m", value=1.0)
            w.mapping(1.5, A_SUM, B_SUM)
            w.transition(2.0, EventKind.DEACTIVATE, A_SUM)
        r = ColumnarTraceReader(path)
        assert [e.time for e in r] == [1.0, 2.0]
        assert [m.time for m in r.metric_samples()] == [1.25]
        assert [m.time for m in r.mappings()] == [1.5]

    def test_to_trace_matches_source(self, tmp_path):
        tr = random_trace(11, events=150, nodes=2)
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.record_trace(tr)
        back = ColumnarTraceReader(path).to_trace()
        assert back.events() == tr.events()


class TestSeek:
    def test_seek_equals_linear_replay(self, tmp_path):
        tr = random_trace(5, events=300, nodes=3)
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=16) as w:
            w.record_trace(tr)
        r = ColumnarTraceReader(path)
        assert len(r.segments) > 1  # the index is actually exercised
        events = tr.events()
        t0, t1 = r.time_bounds()
        step = (t1 - t0) / 40
        for i in range(42):
            t = t0 + (i - 1) * step
            assert r.seek(t) == SASState.from_events(events, t), t

    def test_seek_at_exact_event_and_snapshot_times(self, tmp_path):
        tr = random_trace(6, events=200, nodes=2)
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=8) as w:
            w.record_trace(tr)
        r = ColumnarTraceReader(path)
        events = tr.events()
        # every segment opens with a snapshot at its first record's time
        probe = [e.time for e in events[:: len(events) // 20]] + r._seg_t_mins
        for t in probe:
            assert r.seek(t) == SASState.from_events(events, t), t

    def test_seek_before_start_is_empty(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        write_simple(path, segment_records=2)
        state = ColumnarTraceReader(path).seek(0.0)
        assert state.nodes == {}
        assert state.total_activations() == 0

    def test_seek_observes_reentrant_depth(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path, segment_records=2) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM, 0)
            w.transition(2.0, EventKind.ACTIVATE, A_SUM, 0)
            w.transition(3.0, EventKind.ACTIVATE, A_SUM, 1)
            w.transition(4.0, EventKind.DEACTIVATE, A_SUM, 0)
        r = ColumnarTraceReader(path)
        state = r.seek(3.5)
        assert state.depth(A_SUM) == 3
        assert state.depth(A_SUM, node=0) == 2
        assert state.active(node=1) == (A_SUM,)
        after = r.seek(4.0)
        assert after.depth(A_SUM, node=0) == 1
        assert after.nodes[0][A_SUM] == [1.0]  # LIFO pop kept the outer activation


class TestSASState:
    def test_equality_is_order_insensitive(self):
        a, b = SASState(), SASState()
        a.apply_transition(A_SUM, True, 1.0, 0)
        a.apply_transition(B_SUM, True, 2.0, 1)
        b.apply_transition(B_SUM, True, 2.0, 1)
        b.apply_transition(A_SUM, True, 1.0, 0)
        assert a == b

    def test_no_empty_node_residue(self):
        state = SASState()
        state.apply_transition(A_SUM, True, 1.0, 0)
        state.apply_transition(A_SUM, False, 2.0, 0)
        assert state.nodes == {}
        assert state == SASState()

    def test_underflow_raises(self):
        with pytest.raises(ValueError, match="deactivate without activate"):
            SASState().apply_transition(A_SUM, False, 1.0, 0)


class TestWriterContract:
    # records are checked when their segment is encoded: a one-record
    # segment makes the call that records the bad transition raise
    def test_unbalanced_deactivate_raises(self, tmp_path):
        with ColumnarTraceWriter(tmp_path / "t.rtrcx", segment_records=1) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
            with pytest.raises(ValueError, match="deactivate without activate"):
                w.transition(2.0, EventKind.DEACTIVATE, A_SUM, node_id=1)

    def test_time_backwards_raises(self, tmp_path):
        with ColumnarTraceWriter(tmp_path / "t.rtrcx", segment_records=1) as w:
            w.transition(1.0, EventKind.ACTIVATE, A_SUM)
            with pytest.raises(ValueError, match="backwards"):
                w.transition(0.5, EventKind.ACTIVATE, B_SUM)

    def test_closed_writer_rejects_records(self, tmp_path):
        w = ColumnarTraceWriter(tmp_path / "t.rtrcx")
        w.close()
        w.close()  # idempotent
        with pytest.raises(ValueError, match="closed"):
            w.transition(1.0, EventKind.ACTIVATE, A_SUM)

    def test_snapshot_every_validated(self, tmp_path):
        # each segment opens with a SAS snapshot: segment_records is the
        # snapshot cadence
        with pytest.raises(ValueError):
            ColumnarTraceWriter(tmp_path / "t.rtrcx", segment_records=0)

    def test_attach_sas_records_and_close_detaches(self, tmp_path):
        clock = {"t": 0.0}
        sas = ActiveSentenceSet(clock=lambda: clock["t"], node_id=7)
        w = ColumnarTraceWriter(tmp_path / "t.rtrcx")
        w.attach_sas(sas)
        hooks_attached = len(sas.on_transition)
        clock["t"] = 1.0
        sas.activate(A_SUM)
        clock["t"] = 2.0
        sas.deactivate(A_SUM)
        w.close()
        assert len(sas.on_transition) == hooks_attached - 1
        events = list(ColumnarTraceReader(tmp_path / "t.rtrcx"))
        assert [(e.time, e.kind, e.node_id) for e in events] == [
            (1.0, EventKind.ACTIVATE, 7),
            (2.0, EventKind.DEACTIVATE, 7),
        ]

    def test_large_stream_flushes_incrementally(self, tmp_path):
        # roll many segments and survive intact
        path = tmp_path / "big.rtrcx"
        with ColumnarTraceWriter(path, segment_records=500) as w:
            t = 0.0
            for _ in range(20_000):
                t += 1e-6
                w.transition(t, EventKind.ACTIVATE, A_SUM, 0)
                t += 1e-6
                w.transition(t, EventKind.DEACTIVATE, A_SUM, 0)
        r = ColumnarTraceReader(path)
        assert r.transitions == 40_000
        assert len(r.segments) == 40_000 // 500
        assert sum(1 for _ in r) == 40_000


class TestReaderValidation:
    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.rtrcx"
        path.write_bytes(b"NOPE" + bytes(40))
        with pytest.raises(CodecError, match="not an .rtrcx"):
            ColumnarTraceReader(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        write_simple(path)
        clipped = tmp_path / "clipped.rtrcx"
        clipped.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(CodecError, match="truncated"):
            ColumnarTraceReader(clipped)

    def test_wrong_version(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        write_simple(path)
        data = bytearray(path.read_bytes())
        data[4] = 99
        bumped = tmp_path / "v99.rtrcx"
        bumped.write_bytes(bytes(data))
        with pytest.raises(CodecError, match="unsupported version"):
            ColumnarTraceReader(bumped)


class TestEmptyTrace:
    # regression: the seed reported time_bounds() == (0.0, 0.0) for an
    # empty file, indistinguishable from a real run spanning [0, 0]
    def test_empty_bounds_are_none_not_zero_zero(self, tmp_path):
        path = tmp_path / "e.rtrcx"
        with ColumnarTraceWriter(path):
            pass
        r = ColumnarTraceReader(path)
        assert r.is_empty
        assert r.time_bounds() is None
        assert r.last_transition_time() is None
        info = r.info()
        assert info["empty"] is True
        assert info["time_bounds"] is None

    def test_real_run_at_time_zero_keeps_its_bounds(self, tmp_path):
        path = tmp_path / "z.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.transition(0.0, EventKind.ACTIVATE, A_SUM, node_id=0)
            w.transition(0.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
        r = ColumnarTraceReader(path)
        assert not r.is_empty
        assert r.time_bounds() == (0.0, 0.0)  # a genuine [0, 0] run
        assert r.info()["empty"] is False

    def test_metric_only_trace_is_not_empty(self, tmp_path):
        path = tmp_path / "m.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.metric_sample(0.5, "cpu_time", "node0", 1.0, "s")
        r = ColumnarTraceReader(path)
        assert not r.is_empty
        assert r.last_transition_time() is None
