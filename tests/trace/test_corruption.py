"""Byte-mutation fuzzing: corrupt trace files must fail with CodecError.

A valid ``.rtrcx`` file is built once; hypothesis then flips single
bytes, stomps runs, and truncates at arbitrary offsets.  Every decode
surface -- constructor, ``info()``, the full ``records()`` walk,
``seek()`` -- must either succeed (the mutation landed in a value byte
and produced a different but well-formed trace) or raise
:class:`~repro.trace.CodecError`.  Raw ``struct.error`` / ``IndexError``
/ ``UnicodeDecodeError`` / ``MemoryError`` escapes are the bug class
this suite pins down: an unvalidated length or unbounded varint turns a
flipped bit into a crash or a giant allocation.

The read paths that replay what they decode -- the question replays (one
question over all nodes, which reads the membership bits, one on a single
node, which counts depth, and a chunked batch over every sentence), the
event walk, the interval flattening and ``seek()`` -- run before the full
``records()`` walk, so every mutation reaches each of them.  Besides
``CodecError`` they may raise only ``ValueError``: a flipped
activate/deactivate or membership bit decodes cleanly but replays as
"deactivate without activate" or a membership change that no longer
alternates -- a *successful* decode of a different trace, not a codec
escape.  A sentence id past the table is a codec fault on every path.
"""

import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import MultiQuestionEngine, PerformanceQuestion, SentencePattern
from repro.trace import CodecError, ColumnarTraceReader, ColumnarTraceWriter, open_trace
from repro.trace.columnar import COL_SID
from repro.trace.retro import evaluate_question_batch, replay_batch, sentence_intervals
from repro.workloads import random_trace

TRACE = random_trace(17, events=120, nodes=2)


def _pattern(sentence):
    return SentencePattern(sentence.verb.name, tuple(n.name for n in sentence.nouns))


def _baseline():
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.bin")
        with ColumnarTraceWriter(path, segment_records=16, metadata={"fuzz": True}) as w:
            w.record_trace(TRACE)
            w.metric_sample(1.0, "cpu_time", "node0", 0.5, "s")
            ev = TRACE.events()
            w.mapping(1.0, ev[0].sentence, ev[1].sentence)
        with open(path, "rb") as fh:
            return fh.read()


BASELINE = _baseline()
ONE = PerformanceQuestion("one", (_pattern(TRACE.events()[0].sentence),))
EVERY = PerformanceQuestion(
    "every", tuple(_pattern(s) for s in dict.fromkeys(e.sentence for e in TRACE))
)


def replay(reader) -> None:
    """Answer questions from the reader as ``trace query`` and ``serve`` do."""
    evaluate_question_batch(reader, [ONE])
    evaluate_question_batch(reader, [ONE], node=0)
    engine = MultiQuestionEngine()
    engine.subscribe(EVERY)
    for _ in replay_batch(engine, reader, [EVERY], chunk=5):
        pass


def mid_seek(reader) -> None:
    bounds = reader.time_bounds()
    if bounds is not None:
        reader.seek((bounds[0] + bounds[1]) / 2)


#: the read paths that replay what they decode
REPLAYS = (replay, lambda reader: list(reader.events()), sentence_intervals, mid_seek)


def exercise(blob: bytes) -> None:
    """Open the blob and touch every decode surface.

    Raises whatever the reader raises; the caller asserts on the type.
    """
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.bin")
        with open(path, "wb") as fh:
            fh.write(blob)
        reader = ColumnarTraceReader(path)
        reader.info()
        for read in REPLAYS:
            try:
                read(reader)
            except (CodecError, ValueError):
                pass  # a corrupt column, or a replay of an inconsistent trace
        list(reader.records())
        reader.last_transition_time()
        reader.close()


def test_baseline_is_valid():
    exercise(BASELINE)


@settings(max_examples=120, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=10**9),
    value=st.integers(min_value=0, max_value=255),
)
def test_single_byte_mutation_never_escapes_codecerror(pos, value):
    pos %= len(BASELINE)
    if BASELINE[pos] == value:
        value ^= 0xFF
    blob = BASELINE[:pos] + bytes([value]) + BASELINE[pos + 1 :]
    try:
        exercise(blob)
    except CodecError:
        pass


@settings(max_examples=60, deadline=None)
@given(
    pos=st.integers(min_value=0, max_value=10**9),
    run=st.binary(min_size=1, max_size=16),
)
def test_byte_run_stomp_never_escapes_codecerror(pos, run):
    pos %= len(BASELINE)
    blob = (BASELINE[:pos] + run + BASELINE[pos + len(run) :])[: len(BASELINE)]
    try:
        exercise(blob)
    except CodecError:
        pass


def test_sentence_id_past_the_table_raises_codecerror(tmp_path):
    # the first SID byte of the last segment names sentence 200 of 14; its
    # posting list still files the row under the sentence it named before
    path = tmp_path / "t.rtrcx"
    path.write_bytes(BASELINE)
    with ColumnarTraceReader(path) as reader:
        pos, _nbytes = reader._columns(len(reader.segments) - 1)[COL_SID]
        was = reader.sentences[BASELINE[pos]]
        assert len(reader.sentences) < 200
    path.write_bytes(BASELINE[:pos] + bytes([200]) + BASELINE[pos + 1 :])
    reader = ColumnarTraceReader(path)
    for read in (
        lambda: list(reader.events()),
        lambda: sentence_intervals(reader),
        lambda: sentence_intervals(reader, matchers=[lambda s: s == was]),
        lambda: reader.seek(reader.t1),
        lambda: list(reader.records()),
    ):
        with pytest.raises(CodecError):
            read()


@settings(max_examples=60, deadline=None)
@given(keep=st.integers(min_value=0, max_value=10**9))
def test_truncation_raises_codecerror(keep):
    keep %= len(BASELINE)  # strictly shorter than the valid file
    with pytest.raises(CodecError):
        exercise(BASELINE[:keep])


@pytest.mark.parametrize(
    "blob",
    [b"", b"RT", b"RTRC", b"RTCX", b"\x00" * 64, b"garbage bytes that are not a trace"],
    ids=["empty", "short", "bare-row-magic", "bare-col-magic", "zeros", "text"],
)
def test_garbage_blobs_raise_codecerror(tmp_path, blob):
    path = tmp_path / "t.rtrc"
    path.write_bytes(blob)
    with pytest.raises(CodecError):
        open_trace(path)


def test_swapped_trailer_magic_raises(tmp_path):
    # the retired row layout's magic or trailer on a columnar body must not
    # decode
    row_head = tmp_path / "a.bin"
    row_head.write_bytes(b"RTRC" + BASELINE[4:])
    with pytest.raises(CodecError):
        ColumnarTraceReader(row_head)
    row_tail = tmp_path / "b.bin"
    row_tail.write_bytes(BASELINE[:-4] + b"CRTR")
    with pytest.raises(CodecError):
        ColumnarTraceReader(row_tail)
