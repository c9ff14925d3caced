"""Bench baseline: the per-question watcher path, one watcher per question.

Before every question ran on the shared
:class:`~repro.core.multiq.MultiQuestionEngine`, each
``attach_question`` built a dedicated incremental :class:`QuestionWatcher`
(per-component counts, a flattened boolean tree, or a time-sorted
activation list) and the SAS bucketed watchers in an inverted index keyed
by :meth:`~repro.core.questions.SentencePattern.index_key`, so a
transition re-evaluated every watcher whose patterns could match it.  This
module keeps that path as it was, as :class:`WatcherSAS`, for ablation
abl11's live fan-out comparison (N subscriptions = N watchers here vs one
shared engine); its membership bookkeeping follows the SAS's own (one
dict, whose key order is first-activation order), so the two sides differ
in question evaluation alone.  Nothing in ``src/`` imports it; its answers are pinned to
the engine's by abl11's differential check.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from repro.core import (
    ActiveSentenceSet,
    EventKind,
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QExpr,
    QNot,
    QOr,
    Sentence,
)


class _IncrementalExpr:
    """Incrementally-maintained boolean :class:`QExpr` tree.

    The expression is flattened children-first, so node-index order is a
    valid bottom-up evaluation order.  Each leaf (:class:`QAtom`) keeps a
    count of active member sentences matching its pattern; a membership
    delta touches only the leaves whose pattern matches the transitioning
    sentence and re-evaluates only their ancestor chains, stopping as soon
    as an ancestor's value is unchanged.
    """

    __slots__ = ("nodes", "parent", "values", "counts", "atoms", "root")

    def __init__(self, expr: QExpr) -> None:
        # node payloads: ("atom", pattern) | ("and"|"or", child idxs) | ("not", child idx)
        self.nodes: list[tuple[str, object]] = []
        self.parent: list[int] = []
        self.counts: list[int] = []
        self.atoms: list[int] = []
        self.root = self._build(expr)
        self.values: list[bool] = [False] * len(self.nodes)

    def _build(self, expr: QExpr) -> int:
        if isinstance(expr, QAtom):
            idx = self._append(("atom", expr.pattern))
            self.atoms.append(idx)
            return idx
        if isinstance(expr, (QAnd, QOr)):
            children = tuple(self._build(t) for t in expr.terms)
            idx = self._append(("and" if isinstance(expr, QAnd) else "or", children))
            for child in children:
                self.parent[child] = idx
            return idx
        if isinstance(expr, QNot):
            child = self._build(expr.term)
            idx = self._append(("not", child))
            self.parent[child] = idx
            return idx
        raise TypeError(f"cannot index QExpr node {expr!r}")

    def _append(self, node: tuple[str, object]) -> int:
        self.nodes.append(node)
        self.parent.append(-1)
        self.counts.append(0)
        return len(self.nodes) - 1

    def _eval_node(self, idx: int) -> bool:
        kind, payload = self.nodes[idx]
        if kind == "atom":
            return self.counts[idx] > 0
        if kind == "and":
            return all(self.values[c] for c in payload)  # type: ignore[union-attr]
        if kind == "or":
            return any(self.values[c] for c in payload)  # type: ignore[union-attr]
        return not self.values[payload]  # type: ignore[index]

    def seed(self, active: Iterable[Sentence]) -> bool:
        snapshot = list(active)
        for idx in range(len(self.nodes)):
            kind, payload = self.nodes[idx]
            if kind == "atom":
                self.counts[idx] = sum(1 for s in snapshot if payload.matches(s))  # type: ignore[union-attr]
            self.values[idx] = self._eval_node(idx)
        return self.values[self.root]

    def update(self, sent: Sentence, delta: int) -> bool:
        """Apply a membership delta for ``sent``; returns the root value."""
        changed: list[int] = []
        for idx in self.atoms:
            pattern = self.nodes[idx][1]
            if pattern.matches(sent):  # type: ignore[union-attr]
                self.counts[idx] += delta
                new = self.counts[idx] > 0
                if new != self.values[idx]:
                    self.values[idx] = new
                    changed.append(idx)
        for idx in changed:
            node = self.parent[idx]
            while node >= 0:
                new = self._eval_node(node)
                if new == self.values[node]:
                    break
                self.values[node] = new
                node = self.parent[node]
        return self.values[self.root]


class _IncrementalOrdered:
    """Time-sorted activations relevant to one :class:`OrderedQuestion`.

    Only sentences matching some component pattern can influence the
    question, so the engine maintains just those (with their outermost
    activation times, kept time-ordered) instead of rescanning
    ``active_with_times()`` on every notification.
    """

    __slots__ = ("question", "entries")

    def __init__(self, question: OrderedQuestion) -> None:
        self.question = question
        self.entries: list[tuple[Sentence, float]] = []

    def seed(self, active_with_times: Iterable[tuple[Sentence, float]]) -> bool:
        relevant = self.question.relevant
        self.entries = [(s, t) for s, t in active_with_times if relevant(s)]
        return self.evaluate()

    def add(self, sent: Sentence, now: float) -> bool:
        """Record an outermost activation; False if the question ignores it."""
        if not self.question.relevant(sent):
            return False
        # clocks are (almost always) monotone, so this is an append; walk
        # back only if a custom clock handed out an earlier time
        i = len(self.entries)
        while i > 0 and self.entries[i - 1][1] > now:
            i -= 1
        self.entries.insert(i, (sent, now))
        return True

    def remove(self, sent: Sentence) -> bool:
        if not self.question.relevant(sent):
            return False
        for i in range(len(self.entries) - 1, -1, -1):
            if self.entries[i][0] == sent:
                del self.entries[i]
                return True
        return False

    def evaluate(self) -> bool:
        return self.question._match(self.entries, 0, -float("inf"))


@dataclass(eq=False)
class QuestionWatcher:
    """Tracks the satisfaction state of one attached question.

    ``question`` may be a :class:`PerformanceQuestion`, a boolean
    :class:`QExpr`, or an :class:`OrderedQuestion`; all three expose the
    state transitions that instrumentation predicates subscribe to.

    On the indexed engine every question kind is evaluated incrementally
    (``_seed`` builds the state, ``_update`` applies membership deltas):
    per-component match counts for conjunction questions, a
    :class:`_IncrementalExpr` tree for boolean expressions, and a
    :class:`_IncrementalOrdered` activation list for ordered questions.
    Notification cost is therefore independent of the SAS size for all
    three kinds.

    Watchers compare by identity (``eq=False``) so they can live in index
    buckets and be detached unambiguously.
    """

    question: PerformanceQuestion | QExpr | OrderedQuestion
    satisfied: bool = False
    satisfied_since: float = 0.0
    satisfied_time: float = 0.0
    transitions: int = 0

    def __post_init__(self) -> None:
        self.on_satisfied: list[Callable[[float], None]] = []
        self.on_unsatisfied: list[Callable[[float], None]] = []
        self._counts: list[int] | None = None
        self._expr: _IncrementalExpr | None = None
        self._ordered: _IncrementalOrdered | None = None

    def _evaluate(self, sas: "WatcherSAS") -> bool:
        """Reference evaluation: full scan of the SAS's active set."""
        q = self.question
        if isinstance(q, OrderedQuestion):
            return q.satisfied(sas.active_with_times())
        if isinstance(q, PerformanceQuestion):
            return q.satisfied(sas.active_sentences())
        return q.evaluate(sas.active_sentences())

    def _seed(self, sas: "WatcherSAS") -> None:
        """Build incremental state from the SAS's current membership."""
        q = self.question
        if isinstance(q, PerformanceQuestion):
            snapshot = sas.active_sentences()
            self._counts = [
                sum(1 for s in snapshot if p.matches(s)) for p in q.components
            ]
        elif isinstance(q, OrderedQuestion):
            self._ordered = _IncrementalOrdered(q)
            self._ordered.seed(sas.active_with_times())
        else:
            self._expr = _IncrementalExpr(q)
            self._expr.seed(sas.active_sentences())

    def _update(
        self,
        sas: "WatcherSAS",
        now: float,
        sent: Sentence | None = None,
        became_member: bool | None = None,
    ) -> None:
        incremental = (
            self._counts is not None
            or self._expr is not None
            or self._ordered is not None
        )
        if sent is not None and incremental:
            if became_member is None:
                return  # nested (re-entrant): membership and outermost times unchanged
            if self._counts is not None:
                components = self.question.components  # type: ignore[union-attr]
                delta = 1 if became_member else -1
                for i, pattern in enumerate(components):
                    if pattern.matches(sent):
                        self._counts[i] += delta
                new = all(c > 0 for c in self._counts)
            elif self._expr is not None:
                new = self._expr.update(sent, 1 if became_member else -1)
            else:
                assert self._ordered is not None
                touched = (
                    self._ordered.add(sent, now)
                    if became_member
                    else self._ordered.remove(sent)
                )
                if not touched:
                    return  # irrelevant sentence: satisfaction cannot change
                new = self._ordered.evaluate()
        else:
            new = self._evaluate(sas)
        self._apply(new, now)

    def _apply(self, new: bool, now: float) -> None:
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
            for cb in self.on_unsatisfied:
                cb(now)

    def total_satisfied_time(self, now: float) -> float:
        """Accumulated satisfied time, counting an open interval up to ``now``."""
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time


class WatcherSAS(ActiveSentenceSet):
    """A SAS whose questions each get a dedicated indexed watcher."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.watchers: list[QuestionWatcher] = []
        # inverted watcher index: pattern discriminator key -> watcher bucket
        # (dicts double as insertion-ordered sets); wildcard-only watchers
        # live in _watch_all and are notified on every transition
        self._watch_index: dict[tuple[str, str], dict[QuestionWatcher, None]] = {}
        self._watch_all: dict[QuestionWatcher, None] = {}
        self._watch_keys: dict[QuestionWatcher, list[tuple[str, str]] | None] = {}

    def activate(self, sent: Sentence) -> bool:
        """A sentence became active.  Returns False if filtered out.

        Any part of an application (user code, programming libraries, or
        system level code) may call this and "need not know about the
        existence of other layers to do so".
        """
        self.notifications += 1
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        now = self.clock()
        stack = self._active.setdefault(sent, [])
        became_member = not stack
        if became_member:
            if self.co_active_listeners:
                for other in self._active:
                    if other != sent:
                        for cb in self.co_active_listeners:
                            cb(other, sent, now)
        stack.append(now)
        if self.trace is not None:
            self.trace.record(now, EventKind.ACTIVATE, sent, self.node_id)
        self._update_watchers(now, sent, True if became_member else None)
        self.transition_epoch += 1
        for cb in self.on_transition:
            cb(sent, True, now)
        return True

    def deactivate(self, sent: Sentence) -> bool:
        """A sentence became inactive.  Returns False if filtered/unknown."""
        self.notifications += 1
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        stack = self._active.get(sent)
        if not stack:
            raise ValueError(f"deactivate of non-active sentence {sent}")
        now = self.clock()
        stack.pop()
        left_membership = not stack
        if left_membership:
            del self._active[sent]
        if self.trace is not None:
            self.trace.record(now, EventKind.DEACTIVATE, sent, self.node_id)
        self._update_watchers(now, sent, False if left_membership else None)
        self.transition_epoch += 1
        for cb in self.on_transition:
            cb(sent, False, now)
        return True

    def attach_question(
        self, question: PerformanceQuestion | QExpr | OrderedQuestion
    ) -> QuestionWatcher:
        """Register a question; its watcher updates on every transition.

        The question is evaluated immediately against the current state.
        """
        watcher = QuestionWatcher(question)
        self.watchers.append(watcher)
        self._register_watcher(watcher)
        self._seed_watcher(watcher)
        watcher._update(self, self.clock() if self._active else 0.0)
        return watcher

    # -- inverted index ------------------------------------------------
    def _register_watcher(self, watcher: QuestionWatcher) -> None:
        patterns = watcher.question.patterns()
        keys = {p.index_key() for p in patterns}
        if None in keys:
            # some pattern has no concrete component: check on every transition
            self._watch_all[watcher] = None
            self._watch_keys[watcher] = None
            return
        for key in keys:
            self._watch_index.setdefault(key, {})[watcher] = None  # type: ignore[index]
        self._watch_keys[watcher] = list(keys)  # type: ignore[arg-type]

    def _seed_watcher(self, watcher: QuestionWatcher) -> None:
        watcher._seed(self)

    def affected_watchers(self, sent: Sentence) -> list[QuestionWatcher]:
        """Watchers whose satisfaction could change when ``sent`` transitions.

        A guaranteed superset of the watchers whose satisfaction *does*
        change, computed in O(#nouns + #affected) -- independent of both
        the SAS size and the total attached-watcher count.
        """
        hit: dict[QuestionWatcher, None] = dict(self._watch_all)
        index = self._watch_index
        if index:
            bucket = index.get(("v", sent.verb.name))
            if bucket:
                hit.update(bucket)
            bucket = index.get(("l", sent.abstraction))
            if bucket:
                hit.update(bucket)
            for noun in sent.nouns:
                bucket = index.get(("n", noun.name))
                if bucket:
                    hit.update(bucket)
        return list(hit)

    def _update_watchers(
        self, now: float, sent: Sentence | None = None, became_member: bool | None = None
    ) -> None:
        if sent is None:
            for watcher in self.watchers:
                watcher._update(self, now)
            return
        for watcher in self.affected_watchers(sent):
            watcher._update(self, now, sent, became_member)
