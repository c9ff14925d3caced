"""Retrospective answers vs the full-rescan oracle: byte-identical.

``evaluate_question_batch`` (one shared MultiQuestionEngine pass, with
sentence-id pushdown, zone-map pruning, dead-question pruning and shards)
and its single-question spelling ``evaluate_questions`` must reproduce the
``tests/core/oracle.py`` replay of every recorded event exactly -- same
satisfied_time floats, same transition counts, same end-time defaulting --
across random traces, in-memory and ``.rtrcx`` sources, node filters, and
explicit end times.
"""

import asyncio

import pytest

from repro.core import (
    EventKind,
    MultiQuestionEngine,
    Noun,
    OrderedQuestion,
    PerformanceQuestion,
    QAtom,
    QNot,
    QOr,
    Sentence,
    SentenceEvent,
    SentencePattern,
    Trace,
    Verb,
)
from repro.serve import TraceSource
from repro.trace.columnar import ColumnarTraceReader, ColumnarTraceWriter, open_trace
from repro.trace.retro import evaluate_question_batch, evaluate_questions, question_name
from repro.workloads.fuzz import random_trace

from ..core.oracle import naive_answers

SEEDS = range(12)


def questions_for(trace):
    sents = sorted({e.sentence for e in trace.events()}, key=str)[:4]
    pats = [
        SentencePattern(s.verb.name, tuple(n.name for n in s.nouns)) for s in sents
    ]
    return [
        PerformanceQuestion("conj", pats[:2]),
        PerformanceQuestion("conj_dup", tuple(reversed(pats[:2]))),
        OrderedQuestion("ord", pats[2:4]),
        QOr((QAtom(pats[0]), QNot(QAtom(pats[1])))),
        PerformanceQuestion("broad", (SentencePattern(pats[0].verb, ()),)),
    ]


def assert_identical(answers, reference):
    assert answers.keys() == reference.keys()
    for name, a in answers.items():
        assert (
            a.satisfied_time, a.transitions, a.satisfied_at_end, a.end_time
        ) == reference[name], name


@pytest.mark.parametrize("seed", SEEDS)
def test_in_memory_trace_batch_identical(seed):
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace)
    reference = naive_answers(trace.events(), qs)
    assert_identical(evaluate_question_batch(trace, qs), reference)
    for q in qs:
        name = question_name(q)
        assert_identical(evaluate_questions(trace, [q]), {name: reference[name]})


def with_quiet_tail(trace, node=2, pairs=64):
    """``trace``'s events, then ``pairs`` activations of a sentence no
    question matches, on ``node`` alone: every other node's last
    transition ends up at least one 64-record segment before the end."""
    last = trace.events()[-1].time
    tail = Sentence(Verb("TailOnly", "Tail"), (Noun("tail", "Tail"),))
    events = list(trace.events())
    for k in range(pairs):
        for dt, kind in ((1.0, EventKind.ACTIVATE), (1.5, EventKind.DEACTIVATE)):
            events.append(SentenceEvent(last + 2 * k + dt, kind, tail, node))
    return events


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("shards", [1, 4])
def test_columnar_pushdown_batch_identical(tmp_path, seed, shards):
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace)
    events = with_quiet_tail(trace)
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path), segment_records=64)
    writer.record_trace(events)
    writer.close()
    with open_trace(str(path)) as reader:
        # node 0 stops at least a segment before the file does
        assert reader.last_transition_time(node=0) < reader.segments[-2].t_min
        for kwargs in (
            {}, {"end_time": 9.0}, {"node": 0}, {"node": 1, "end_time": 4.0},
            {"node": 5},  # no transitions at all: the end defaults to 0.0
        ):
            assert_identical(
                evaluate_question_batch(reader, qs, shards=shards, **kwargs),
                naive_answers(events, qs, **kwargs),
            )


def test_node_filtered_default_end_never_replays_the_file(tmp_path, monkeypatch):
    # the node's default end comes from walking segments back over the node
    # column, so the question is pushed into the zone-map-pruned scan
    trace = random_trace(3, events=300, nodes=2, sentences=14)
    qs = questions_for(trace)
    events = with_quiet_tail(trace)
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path), segment_records=64)
    writer.record_trace(events)
    writer.close()
    with open_trace(str(path)) as reader:

        def full_replay():
            raise AssertionError("node-filtered question replayed every event")

        monkeypatch.setattr(reader, "events", full_replay)
        for node in (0, 1, 5):
            assert_identical(
                evaluate_question_batch(reader, qs, node=node),
                naive_answers(events, qs, node=node),
            )


def test_wildcard_question_disables_pushdown_identically(tmp_path):
    # a wildcard-only pattern forces a full replay in both engines; the
    # end-time default (last replayed event) must still agree
    trace = random_trace(5, events=200, nodes=2, sentences=10)
    qs = questions_for(trace) + [QAtom(SentencePattern("?", ()))]
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path))
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        assert_identical(
            evaluate_question_batch(reader, qs), naive_answers(trace.events(), qs)
        )


def test_reused_engine_rejected_after_history():
    # a caller-provided engine is only valid for one replay: feeding a
    # second trace would nest its activations into the first's membership
    trace = random_trace(1, events=50, nodes=1, sentences=6)
    qs = questions_for(trace)
    engine = MultiQuestionEngine()
    answers = evaluate_question_batch(trace, qs, engine=engine)
    assert answers["conj"].end_time == answers["ord"].end_time
    assert_identical(answers, naive_answers(trace.events(), qs))
    with pytest.raises(ValueError, match="fresh"):
        evaluate_question_batch(trace, qs, engine=engine)


def test_seeded_engine_rejected():
    # a seeded engine has members but no membership change: replaying into
    # it would nest the trace into a member it cannot see, turning conj
    # (0.00114, 6) into (0.00757, 5) and broad (0.00449, 12) into
    # (0.0221, 1) without an error
    trace = random_trace(1, events=50, nodes=1, sentences=6)
    qs = questions_for(trace)
    first = sorted({e.sentence for e in trace.events()}, key=str)[0]
    engine = MultiQuestionEngine()
    assert engine.fresh
    engine.seed([(first, 0.0)])
    assert not engine.fresh and engine.membership_changes == 0
    with pytest.raises(ValueError, match="fresh"):
        evaluate_question_batch(trace, qs, engine=engine)
    answers = evaluate_question_batch(trace, qs, engine=MultiQuestionEngine())
    assert (answers["conj"].satisfied_time, answers["conj"].transitions) == (
        0.0011415519676061907, 6
    )
    assert (answers["broad"].satisfied_time, answers["broad"].transitions) == (
        0.004493247585619249, 12
    )


def write_columnar(path, events, segment_records=64):
    writer = ColumnarTraceWriter(str(path), segment_records=segment_records)
    writer.record_trace(events)
    writer.close()
    return str(path)


async def _no_flush():
    pass


def trace_source_answers(path, questions, node=None):
    """``repro serve``'s replay of one batch, answered like the oracle."""
    source = TraceSource(path, node=node)
    engine = MultiQuestionEngine()
    for q in questions:
        engine.subscribe(q)
    try:
        end = asyncio.run(source.run_batch(engine, questions, _no_flush))
    finally:
        source.close()
    return {name: (*answer, end) for name, answer in engine.answers(end).items()}


@pytest.mark.parametrize("seed", range(4))
def test_columnar_replay_builds_no_events(tmp_path, monkeypatch, seed):
    # a columnar question replays membership changes from the sid rows:
    # no event is built, no per-row scan runs, the engine counts no nesting
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace) + [QAtom(SentencePattern("?", ()))]
    events = with_quiet_tail(trace)
    path = write_columnar(tmp_path / "t.rtrcx", events)

    def forbidden(*_args, **_kwargs):
        raise AssertionError("the columnar replay went through events")

    monkeypatch.setattr(ColumnarTraceReader, "events", forbidden)
    with open_trace(path) as reader:
        for kwargs in ({}, {"node": 0}, {"node": 1, "end_time": 4.0}):
            assert_identical(
                evaluate_question_batch(reader, qs, **kwargs),
                naive_answers(events, qs, **kwargs),
            )
    for node in (None, 0):
        assert trace_source_answers(path, qs, node=node) == naive_answers(
            events, qs, node=node
        )


def test_columnar_deactivate_of_non_active_sentence_raises(tmp_path):
    # a flipped KIND byte turns the first activation (activate and
    # membership bits, 3) into a membership-changing deactivation (2): the
    # sid replay reports the leave of a non-member as the engine's
    # transition() does a deactivation at depth 0 for an event replay
    from repro.trace.columnar import COL_KIND, KIND_ACTIVATE, KIND_MEMBER

    trace = random_trace(2, events=40, nodes=1, sentences=4)
    path = tmp_path / "t.rtrcx"
    write_columnar(path, trace.events())
    with open_trace(str(path)) as reader:
        pos, _nbytes = reader._columns(0)[COL_KIND]
    blob = bytearray(path.read_bytes())
    assert blob[pos] == KIND_ACTIVATE | KIND_MEMBER
    blob[pos] = KIND_MEMBER
    path.write_bytes(bytes(blob))
    with open_trace(str(path)) as reader:
        with pytest.raises(ValueError, match="deactivate of non-active sentence"):
            evaluate_question_batch(reader, questions_for(trace))


def nested_tail_events():
    """A trace whose last transition is a nested deactivation on node 0:
    it changes no membership, yet the default end time is its time."""
    a = Sentence(Verb("Run", "L1"), (Noun("A", "L1"),))
    b = Sentence(Verb("Run", "L1"), (Noun("B", "L1"),))
    act, deact = EventKind.ACTIVATE, EventKind.DEACTIVATE
    return [
        SentenceEvent(1.0, act, a, 0),
        SentenceEvent(1.5, act, b, 1),
        SentenceEvent(2.0, act, a, 0),
        SentenceEvent(3.0, act, b, 0),
        SentenceEvent(4.0, deact, b, 0),
        SentenceEvent(4.5, deact, b, 1),
        SentenceEvent(6.0, deact, a, 0),
    ]


def test_default_end_is_the_last_transition_not_the_last_change(tmp_path):
    events = nested_tail_events()
    pa, pb = SentencePattern("Run", ("A",)), SentencePattern("Run", ("B",))
    qs = [
        PerformanceQuestion("a", (pa,)),
        PerformanceQuestion("b", (pb,)),
        OrderedQuestion("a_then_b", (pa, pb)),
        QOr((QAtom(pb), QNot(QAtom(pa)))),
    ]
    memory = Trace()
    for e in events:
        memory.append(e)
    columnar = write_columnar(tmp_path / "t.rtrcx", events, segment_records=2)
    for node in (None, 0, 1):
        want = naive_answers(events, qs, node=node)
        assert want["a"][3] == (6.0 if node != 1 else 4.5)
        assert_identical(evaluate_question_batch(memory, qs, node=node), want)
        with open_trace(str(columnar)) as reader:
            assert_identical(evaluate_question_batch(reader, qs, node=node), want)
        assert trace_source_answers(columnar, qs, node=node) == want


def test_one_name_for_two_questions_is_rejected():
    # the level is not part of a pattern's display name, so both atoms
    # render as "{A Run}"; their answers (2.0 vs 0.0) must not collapse
    run = Sentence(Verb("Run", "L1"), (Noun("A", "L1"),))
    trace = Trace()
    trace.record(0.0, EventKind.ACTIVATE, run)
    trace.record(2.0, EventKind.DEACTIVATE, run)
    here = QAtom(SentencePattern("Run", ("A",), "L1"))
    elsewhere = QAtom(SentencePattern("Run", ("A",), "Other"))
    assert question_name(here) == question_name(elsewhere) == "{A Run}"
    assert evaluate_questions(trace, [here])["{A Run}"].satisfied_time == 2.0
    assert evaluate_questions(trace, [elsewhere])["{A Run}"].satisfied_time == 0.0
    with pytest.raises(ValueError, match='"{A Run}"'):
        evaluate_question_batch(trace, [here, elsewhere])
    # structurally equal duplicates still share one answer
    assert evaluate_question_batch(trace, [here, here])["{A Run}"].satisfied_time == 2.0


# ----------------------------------------------------------------------
# static reachability pruning: dead questions shrink the scan, not answers
# ----------------------------------------------------------------------
def dead_questions():
    ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
    return [
        PerformanceQuestion("dead_conj", (ghost,)),
        OrderedQuestion("dead_ord", (ghost, SentencePattern("?", ()))),
    ]


@pytest.mark.parametrize("seed", SEEDS)
def test_dead_questions_prune_scan_but_answers_are_identical(tmp_path, seed):
    trace = random_trace(seed, events=300, nodes=2, sentences=14)
    qs = questions_for(trace) + dead_questions()
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path), segment_records=64)
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        batched = evaluate_question_batch(reader, qs)
    assert_identical(batched, naive_answers(trace.events(), qs))
    for name in ("dead_conj", "dead_ord"):
        assert batched[name].satisfied_time == 0.0
        assert batched[name].transitions == 0
        assert not batched[name].satisfied_at_end


def test_dead_question_sids_are_dropped_from_the_union(tmp_path):
    from repro.trace.scan import question_sids

    trace = random_trace(3, events=200, nodes=2, sentences=10)
    live = questions_for(trace)
    path = tmp_path / "t.rtrcx"
    writer = ColumnarTraceWriter(str(path))
    writer.record_trace(trace.events())
    writer.close()
    with open_trace(str(path)) as reader:
        table = list(reader.sentences)
        base = question_sids(table, live, prune_dead=True)
        # a dead conjunction sharing a live pattern contributes nothing:
        # its live component's sids are covered only if a live question
        # also wants them
        ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
        dead = PerformanceQuestion("dead", (ghost, live[0].components[0]))
        pruned = question_sids(table, live + [dead], prune_dead=True)
        unpruned = question_sids(table, live + [dead], prune_dead=False)
    assert pruned == base  # the dead question added no sids
    assert pruned <= unpruned


def test_boolean_questions_are_never_pruned(tmp_path):
    from repro.trace.scan import question_sids

    trace = random_trace(4, events=100, nodes=1, sentences=8)
    ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
    expr = QNot(QAtom(ghost))  # trivially satisfied: must not be pruned
    some = questions_for(trace)[0]
    with_expr = [some, expr]
    table = sorted({e.sentence for e in trace.events()}, key=str)
    assert question_sids(table, with_expr, prune_dead=True) == question_sids(
        table, with_expr, prune_dead=False
    )
