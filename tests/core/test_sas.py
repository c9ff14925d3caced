"""Unit tests for the Set of Active Sentences."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    WILDCARD,
    AbstractionLevel,
    ActiveSentenceSet,
    DynamicMappingRecorder,
    Noun,
    PerformanceQuestion,
    QAtom,
    SentencePattern,
    Trace,
    Verb,
    Vocabulary,
    interest_from_questions,
    sentence,
)

HPF = Verb("Executes", "HPF")
SUM = Verb("Sum", "HPF")
SEND = Verb("Send", "Base")

LINE1 = sentence(HPF, Noun("line1", "HPF"))
A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
P_SEND = sentence(SEND, Noun("Processor_0", "Base"))


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_activate_deactivate_roundtrip():
    sas = ActiveSentenceSet()
    sas.activate(A_SUM)
    assert sas.is_active(A_SUM)
    assert sas.active_sentences() == (A_SUM,)
    sas.deactivate(A_SUM)
    assert not sas.is_active(A_SUM)
    assert len(sas) == 0


def test_figure5_snapshot_contents():
    """Figure 5: while a message is sent during SUM(A), the SAS holds
    {line #1 executes}, {A sums}, {processor sends a message}."""
    sas = ActiveSentenceSet()
    sas.activate(LINE1)
    sas.activate(A_SUM)
    sas.activate(P_SEND)
    assert sas.active_sentences() == (LINE1, A_SUM, P_SEND)
    sas.deactivate(P_SEND)
    assert sas.active_sentences() == (LINE1, A_SUM)


def test_reentrant_activation_is_a_multiset():
    sas = ActiveSentenceSet()
    sas.activate(A_SUM)
    sas.activate(A_SUM)
    assert sas.activation_depth(A_SUM) == 2
    sas.deactivate(A_SUM)
    assert sas.is_active(A_SUM)  # still active once
    sas.deactivate(A_SUM)
    assert not sas.is_active(A_SUM)


def test_deactivate_inactive_raises():
    sas = ActiveSentenceSet()
    with pytest.raises(ValueError):
        sas.deactivate(A_SUM)


def test_notification_counting_with_interest_filter():
    """Limitation #2: ignored notifications still arrive (and cost), but are
    not stored."""
    only_a = interest_from_questions(
        [PerformanceQuestion("qa", (SentencePattern("Sum", ("A",)),))]
    )
    sas = ActiveSentenceSet(interest=only_a)
    assert sas.activate(A_SUM)
    assert not sas.activate(B_SUM)  # filtered
    assert not sas.is_active(B_SUM)
    assert sas.notifications == 2
    assert sas.ignored_notifications == 1
    # deactivation of a filtered sentence is also ignored, not an error
    assert not sas.deactivate(B_SUM)
    assert sas.ignored_notifications == 2


def test_question_watcher_transitions_and_time():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    q = PerformanceQuestion(
        "sends while summing A",
        (SentencePattern("Sum", ("A",)), SentencePattern("Send", (WILDCARD,))),
    )
    w = sas.attach_question(q)
    assert not w.satisfied

    clock.t = 1.0
    sas.activate(A_SUM)
    assert not w.satisfied
    clock.t = 2.0
    sas.activate(P_SEND)
    assert w.satisfied
    clock.t = 5.0
    sas.deactivate(P_SEND)
    assert not w.satisfied
    assert w.satisfied_time == pytest.approx(3.0)
    assert w.transitions == 2


def test_watcher_open_interval_counted_by_total():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    w = sas.attach_question(PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),)))
    clock.t = 1.0
    sas.activate(A_SUM)
    clock.t = 4.0
    assert w.total_satisfied_time(clock.t) == pytest.approx(3.0)


def test_watcher_callbacks_fire():
    sas = ActiveSentenceSet()
    w = sas.attach_question(QAtom(SentencePattern("Sum", ("A",))))
    events = []
    w.on_satisfied.append(lambda t: events.append(("on", t)))
    w.on_unsatisfied.append(lambda t: events.append(("off", t)))
    sas.activate(A_SUM)
    sas.deactivate(A_SUM)
    assert [e[0] for e in events] == ["on", "off"]


def test_question_attached_against_existing_state():
    sas = ActiveSentenceSet()
    sas.activate(A_SUM)
    w = sas.attach_question(PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),)))
    assert w.satisfied
    # a mid-run question's satisfied time starts when it is attached
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    clock.t = 1.0
    sas.activate(A_SUM)
    clock.t = 4.0
    w = sas.attach_question(PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),)))
    assert w.satisfied and w.satisfied_since == 4.0
    clock.t = 6.0
    sas.deactivate(A_SUM)
    assert w.satisfied_time == 2.0


def test_restrict_to_questions():
    sas = ActiveSentenceSet()
    sas.attach_question(PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),)))
    sas.restrict_to_questions()
    assert sas.activate(A_SUM)
    assert not sas.activate(B_SUM)
    assert sas.ignored_notifications == 1


def test_restrict_nonempty_sas_refused():
    sas = ActiveSentenceSet()
    sas.activate(A_SUM)
    with pytest.raises(RuntimeError):
        sas.restrict_to_questions()


def test_trace_recording():
    clock = ManualClock()
    trace = Trace()
    sas = ActiveSentenceSet(clock=clock, node_id=3, trace=trace)
    clock.t = 1.0
    sas.activate(A_SUM)
    clock.t = 2.5
    sas.deactivate(A_SUM)
    events = trace.events()
    assert len(events) == 2
    assert events[0].node_id == 3
    assert trace.active_time(A_SUM) == pytest.approx(1.5)


def test_active_with_times_reports_outermost():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    clock.t = 1.0
    sas.activate(A_SUM)
    clock.t = 2.0
    sas.activate(A_SUM)  # nested
    assert sas.active_with_times() == [(A_SUM, 1.0)]


def test_dynamic_mapping_recorder_orients_by_level():
    vocab = Vocabulary.with_levels(
        [AbstractionLevel(0, "Base"), AbstractionLevel(1, "HPF")]
    )
    recorder = DynamicMappingRecorder(vocab)
    sas = ActiveSentenceSet()
    recorder.attach(sas)

    sas.activate(A_SUM)
    sas.activate(P_SEND)  # base-level activates while HPF-level active
    assert recorder.pairs_seen == 1
    assert (P_SEND, A_SUM) in recorder.graph
    assert (A_SUM, P_SEND) not in recorder.graph


def test_dynamic_mapping_recorder_same_level_bidirectional():
    vocab = Vocabulary.with_levels([AbstractionLevel(1, "HPF")])
    recorder = DynamicMappingRecorder(vocab)
    sas = ActiveSentenceSet()
    recorder.attach(sas)
    sas.activate(A_SUM)
    sas.activate(B_SUM)
    assert (A_SUM, B_SUM) in recorder.graph
    assert (B_SUM, A_SUM) in recorder.graph


def test_snapshot_by_level_orders_most_abstract_first():
    vocab = Vocabulary.with_levels(
        [AbstractionLevel(0, "Base"), AbstractionLevel(2, "HPF")]
    )
    sas = ActiveSentenceSet()
    sas.activate(P_SEND)
    sas.activate(LINE1)
    sas.activate(A_SUM)
    snap = sas.snapshot_by_level(vocab)
    assert snap == [LINE1, A_SUM, P_SEND]


def test_active_sentences_keep_first_activation_order():
    """Re-entrant activations keep a sentence's place; a sentence that
    leaves and comes back moves to the end."""
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    for t, (sent, on) in enumerate([
        (LINE1, True), (A_SUM, True), (LINE1, True), (P_SEND, True),
        (LINE1, False), (A_SUM, False), (B_SUM, True), (A_SUM, True),
        (LINE1, False), (LINE1, True),
    ]):
        clock.t = float(t)
        (sas.activate if on else sas.deactivate)(sent)
    assert sas.active_sentences() == (P_SEND, B_SUM, A_SUM, LINE1)
    assert sas.active_with_times() == [(P_SEND, 3.0), (B_SUM, 6.0), (A_SUM, 7.0), (LINE1, 9.0)]
    assert len(sas) == 4


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.booleans()), max_size=60))
def test_active_sentences_match_an_ordered_multiset(steps):
    """Against a list model: members in outermost-activation order, each
    with its activation count and outermost time."""
    pool = (LINE1, A_SUM, B_SUM, P_SEND)
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    model: list[list] = []  # [sentence, depth, outermost time]
    for t, (i, on) in enumerate(steps):
        clock.t = float(t)
        sent = pool[i]
        entry = next((e for e in model if e[0] == sent), None)
        if on:
            sas.activate(sent)
            if entry is None:
                model.append([sent, 1, clock.t])
            else:
                entry[1] += 1
        elif entry is None:
            with pytest.raises(ValueError):
                sas.deactivate(sent)
        else:
            sas.deactivate(sent)
            entry[1] -= 1
            if entry[1] == 0:
                model.remove(entry)
        assert sas.active_sentences() == tuple(e[0] for e in model)
        assert sas.active_with_times() == [(e[0], e[2]) for e in model]
        assert [sas.activation_depth(s) for s in pool] == [
            next((e[1] for e in model if e[0] == s), 0) for s in pool
        ]
