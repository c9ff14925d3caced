"""Differential oracle: the SAS vs the naive full-rescan reference.

Replays seeded random event traces (``repro.workloads.generators``) through
:class:`ActiveSentenceSet` (questions on the shared, incremental
``MultiQuestionEngine``) and the ``tests/core/oracle.py`` :class:`NaiveSAS`
(full rescan per notification) and asserts the two are *observably
identical*:

* every watcher's transition sequence (direction + time), transition count,
  final satisfied flag, and accumulated satisfied time;
* notification and ignored-notification counters;
* the active membership (sentences, order, depths, outermost times);
* dynamic-mapping pairs discovered from co-activity.

The acceptance bar is >= 1000 generated traces; the suite sweeps trace
shapes (sparse/dense pools, re-entrancy bias, interest filtering, interned
vocabularies) so the count is spent on diverse schedules, not repetition.
"""

import pytest

from repro.core import (
    AbstractionLevel,
    ActiveSentenceSet,
    DynamicMappingRecorder,
    EventKind,
    Trace,
    Vocabulary,
    interest_from_questions,
)
from repro.workloads import sas_event_trace, sas_questions, sas_sentence_pool

from .oracle import NaiveSAS


def _replay_observed(sas_factory, pool_seed, trace_seed, *, events, question_count,
                     use_interest=False, use_vocab=False, mappings=False):
    """Replay one generated trace; return the full observable state."""
    vocab, pool = sas_sentence_pool(pool_seed)
    questions = sas_questions(pool_seed + 1, pool, count=question_count)
    trace = sas_event_trace(trace_seed, pool, events=events)

    kwargs = {}
    if use_interest:
        kwargs["interest"] = interest_from_questions(questions)
    if use_vocab:
        kwargs["vocabulary"] = vocab
    sas = sas_factory(**kwargs)

    transitions = {}  # watcher index -> [(direction, time), ...]
    watchers = []
    for i, q in enumerate(questions):
        w = sas.attach_question(q)
        watchers.append(w)
        log = transitions.setdefault(i, [])
        w.on_satisfied.append(lambda t, log=log: log.append(("on", t)))
        w.on_unsatisfied.append(lambda t, log=log: log.append(("off", t)))

    recorder = None
    if mappings:
        recorder = DynamicMappingRecorder(vocab)
        recorder.attach(sas)

    for kind, sent in trace:
        if kind is EventKind.ACTIVATE:
            sas.activate(sent)
        else:
            sas.deactivate(sent)

    return {
        "transitions": transitions,
        "watcher_state": [
            (w.satisfied, w.transitions, round(w.satisfied_time, 9)) for w in watchers
        ],
        "notifications": sas.notifications,
        "ignored": sas.ignored_notifications,
        "active": sas.active_sentences(),
        "active_times": sas.active_with_times(),
        "depths": {s: sas.activation_depth(s) for s in sas.active_sentences()},
        "pairs_seen": recorder.pairs_seen if recorder else None,
        "mappings": (
            sorted((str(m.source), str(m.destination)) for m in recorder.graph)
            if recorder
            else None
        ),
    }


def _assert_engines_agree(pool_seed, trace_seed, **config):
    live = _replay_observed(ActiveSentenceSet, pool_seed, trace_seed, **config)
    naive = _replay_observed(NaiveSAS, pool_seed, trace_seed, **config)
    assert live == naive, (
        f"engines diverged for pool_seed={pool_seed} trace_seed={trace_seed} "
        f"config={config}"
    )


# One thousand-plus seeds split across four trace shapes.  Each case is a
# distinct (pool, schedule) pair; the plain shape carries the bulk.
@pytest.mark.parametrize("trace_seed", range(550))
def test_oracle_plain(trace_seed):
    _assert_engines_agree(trace_seed % 37, 1000 + trace_seed,
                          events=60, question_count=5)


@pytest.mark.parametrize("trace_seed", range(200))
def test_oracle_with_interest_filter(trace_seed):
    _assert_engines_agree(trace_seed % 23, 2000 + trace_seed,
                          events=60, question_count=5, use_interest=True)


@pytest.mark.parametrize("trace_seed", range(150))
def test_oracle_with_interning_and_mappings(trace_seed):
    _assert_engines_agree(trace_seed % 17, 3000 + trace_seed,
                          events=50, question_count=4,
                          use_vocab=True, mappings=True)


@pytest.mark.parametrize("trace_seed", range(150))
def test_oracle_dense_reentrant(trace_seed):
    _assert_engines_agree(trace_seed % 13, 4000 + trace_seed,
                          events=120, question_count=8)


def test_oracle_trace_count_meets_acceptance_bar():
    """The sweep above replays >= 1000 distinct generated traces."""
    assert 550 + 200 + 150 + 150 >= 1000


def test_trace_replay_into_drives_both_engines():
    """Trace.replay_into reproduces a live run on a fresh SAS and oracle."""
    _, pool = sas_sentence_pool(7)
    questions = sas_questions(8, pool, count=4)
    events = sas_event_trace(9, pool, events=60)

    recorded = Trace()
    live = ActiveSentenceSet(trace=recorded)
    live_watchers = [live.attach_question(q) for q in questions]
    for kind, sent in events:
        if kind is EventKind.ACTIVATE:
            live.activate(sent)
        else:
            live.deactivate(sent)

    for engine in (ActiveSentenceSet, NaiveSAS):
        replayed = engine()
        replayed_watchers = [replayed.attach_question(q) for q in questions]
        recorded.replay_into(replayed)
        assert replayed.active_sentences() == live.active_sentences()
        for lw, rw in zip(live_watchers, replayed_watchers, strict=True):
            assert rw.satisfied == lw.satisfied
            assert rw.transitions == lw.transitions
            assert rw.satisfied_time == pytest.approx(lw.satisfied_time)


def test_interning_keeps_engines_aligned_across_equal_copies():
    """Structurally-equal duplicate sentences behave like the originals."""
    vocab = Vocabulary.with_levels([AbstractionLevel(0, "L0")])
    _, pool = sas_sentence_pool(11)
    questions = sas_questions(12, pool, count=4)
    events = sas_event_trace(13, pool, events=60)

    def copies(sent):
        return type(sent)(sent.verb, tuple(sent.nouns))

    results = []
    for engine in (ActiveSentenceSet, NaiveSAS):
        sas = engine(vocabulary=Vocabulary())
        watchers = [sas.attach_question(q) for q in questions]
        for kind, sent in events:
            dup = copies(sent)  # fresh object every notification
            if kind is EventKind.ACTIVATE:
                sas.activate(dup)
            else:
                sas.deactivate(dup)
        results.append(
            [(w.satisfied, w.transitions, round(w.satisfied_time, 9)) for w in watchers]
        )
    assert results[0] == results[1]
