"""Naive full-rescan oracle for live question answering.

The SAS answers questions through the shared
:class:`~repro.core.multiq.MultiQuestionEngine` (interned patterns, lattice
routing, dirty bits, subscription dedup).  This module is the obviously
correct executable specification those optimizations are tested against:
every handled notification re-evaluates every question over a full scan of
the active set.  Keep it dumb on purpose.

* :class:`NaiveWatcher` -- the watcher accumulation rule (transition count,
  satisfied time, closed intervals) fed whole re-evaluations;
* :func:`naive_eval` -- one question over one active-set snapshot;
* :class:`NaiveSAS` -- a minimal full-rescan SAS: multiset membership, interest
  filter, interning, co-activity listeners, and attached questions;
* :func:`naive_answers` -- retrospective answers: recorded events replayed
  through a :class:`NaiveSAS` at their recorded times.
"""

from repro.core import EventKind, OrderedQuestion, PerformanceQuestion


class NaiveWatcher:
    """QuestionWatcher's accumulation rule, driven by full re-evaluation."""

    def __init__(self, question=None):
        self.question = question
        self.satisfied = False
        self.satisfied_since = 0.0
        self.satisfied_time = 0.0
        self.transitions = 0
        self.intervals = []
        self.on_satisfied = []
        self.on_unsatisfied = []

    def apply(self, new, now):
        if new == self.satisfied:
            return
        self.transitions += 1
        self.satisfied = new
        if new:
            self.satisfied_since = now
            for cb in self.on_satisfied:
                cb(now)
        else:
            self.satisfied_time += now - self.satisfied_since
            self.intervals.append((self.satisfied_since, now))
            for cb in self.on_unsatisfied:
                cb(now)

    def total_satisfied_time(self, now):
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time

    def closed_intervals(self, end):
        out = list(self.intervals)
        if self.satisfied:
            out.append((self.satisfied_since, end))
        return out


def naive_eval(question, active_with_times):
    active = [s for s, _ in active_with_times]
    if isinstance(question, OrderedQuestion):
        return question.satisfied(active_with_times)
    if isinstance(question, PerformanceQuestion):
        return question.satisfied(active)
    return question.evaluate(active)


class NaiveSAS:
    """Full-rescan reference SAS with the production notification contract.

    Same clock calls (one per handled notification, one per question
    attached to a non-empty set), same counters, same interning and
    interest filtering, same co-activity pairs as
    :class:`~repro.core.sas.ActiveSentenceSet`.
    """

    def __init__(self, clock=None, interest=None, vocabulary=None):
        self._ticks = 0
        self.clock = clock if clock is not None else self._tick
        self.interest = interest
        self.vocabulary = vocabulary
        self.depth = {}  # sentence -> activation depth
        self.since = {}  # sentence -> outermost activation time, activation order
        self.watchers = []
        self.co_active_listeners = []
        self.notifications = 0
        self.ignored_notifications = 0

    def _tick(self):
        self._ticks += 1
        return float(self._ticks)

    def _admit(self, sent):
        self.notifications += 1
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return None
        return sent

    def _rescan(self, now):
        if not self.watchers:
            return
        active = self.active_with_times()
        for w in self.watchers:
            w.apply(naive_eval(w.question, active), now)

    def activate(self, sent):
        sent = self._admit(sent)
        if sent is None:
            return False
        now = self.clock()
        if sent not in self.since:
            for other in self.since:
                for cb in self.co_active_listeners:
                    cb(other, sent, now)
            self.since[sent] = now
        self.depth[sent] = self.depth.get(sent, 0) + 1
        self._rescan(now)
        return True

    def deactivate(self, sent):
        sent = self._admit(sent)
        if sent is None:
            return False
        if sent not in self.since:
            raise ValueError(f"deactivate of non-active sentence {sent}")
        now = self.clock()
        self.depth[sent] -= 1
        if not self.depth[sent]:
            del self.depth[sent]
            del self.since[sent]
        self._rescan(now)
        return True

    def attach_question(self, question):
        watcher = NaiveWatcher(question)
        self.watchers.append(watcher)
        now = self.clock() if self.since else 0.0
        watcher.apply(naive_eval(question, self.active_with_times()), now)
        return watcher

    def active_sentences(self):
        return tuple(self.since)

    def active_with_times(self):
        return list(self.since.items())

    def activation_depth(self, sent):
        return self.depth.get(sent, 0)

    def is_active(self, sent):
        return sent in self.since

    def __len__(self):
        return len(self.since)


def naive_answers(events, questions, end_time=None, node=None):
    """``{name: (satisfied_time, transitions, satisfied_at_end, end_time)}``.

    Replays ``events`` (only ``node``'s, if given) through a
    :class:`NaiveSAS` whose clock reads each event's recorded time; open
    intervals close at ``end_time``, by default the last replayed event's
    time.  Answers are keyed by question name (``name``, else the
    question's rendering), later questions winning a shared name.
    """
    now = [0.0]
    sas = NaiveSAS(clock=lambda: now[0])
    watchers = [
        (getattr(q, "name", None) or str(q), sas.attach_question(q)) for q in questions
    ]
    for event in events:
        if node is not None and event.node_id != node:
            continue
        now[0] = event.time
        if event.kind is EventKind.ACTIVATE:
            sas.activate(event.sentence)
        else:
            sas.deactivate(event.sentence)
    end = end_time if end_time is not None else now[0]
    return {
        name: (w.total_satisfied_time(end), w.transitions, w.satisfied, end)
        for name, w in watchers
    }
