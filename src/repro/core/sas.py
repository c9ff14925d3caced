"""The Set of Active Sentences (SAS).

Section 4.2: "The Set of Active Sentences (SAS) is a data structure that
records the current execution state of each level of abstraction similar to
the way a procedure call stack keeps track of active functions.  Whenever a
sentence at any level of abstraction becomes active, it adds itself to the
SAS, and when any sentence becomes inactive, it deletes itself from the SAS.
Any two sentences contained in the SAS concurrently are considered to
dynamically map to one another."

Key behaviours reproduced here:

* multiset semantics -- re-entrant activations are counted, a sentence stays
  active until its matching deactivation;
* **interest filtering** (Section 4.2 size reduction + limitation #2): a SAS
  may ignore notifications for sentences no attached question cares about.
  Ignored notifications are *counted* (their run-time cost was still paid by
  the application -- ablation abl3 measures this) but not stored;
* **question watching**: attached questions get satisfied/unsatisfied
  transitions with accumulated satisfied-time, which is what SAS-gated
  instrumentation predicates read.  The SAS owns one
  :class:`~repro.core.multiq.MultiQuestionEngine`, created at its first
  question, and feeds it only the membership changes it computes anyway
  (outermost activation, last deactivation) -- before any
  ``on_transition`` hook runs, so a hook reads up-to-date watchers.  An
  engine attached with
  :meth:`~repro.core.multiq.MultiQuestionEngine.attach_sas` is fed the
  same changes at the same point: the SAS is the one place a live
  sentence's nesting depth is counted;
* **dynamic mapping discovery**: optional recording of co-active sentence
  pairs as dynamic mappings;
* per-node replication (Section 4.2.3) is achieved by creating one SAS per
  node; cross-node forwarding lives in :mod:`repro.dbsim.bus` (the
  fault-tolerant batching bus; the naive fire-and-forget baseline is a
  test-side one under ``tests/dbsim/``).
"""

from __future__ import annotations

from typing import Callable, Iterable

from .events import EventKind, Trace
from .mapping import Mapping, MappingGraph, MappingOrigin
from .multiq import MultiQuestionEngine, Question, QuestionWatcher
from .nouns import Sentence, SentenceTable, Vocabulary
from .questions import SentencePattern

__all__ = [
    "ActiveSentenceSet",
    "DynamicMappingRecorder",
    "interest_from_questions",
]


class ActiveSentenceSet:
    """One node's Set of Active Sentences.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current (virtual) time; defaults
        to an internal step counter so the SAS is usable standalone.
    node_id:
        Identity of the owning node, recorded into traces.
    interest:
        Optional predicate; sentences it rejects are counted as ignored
        notifications and not stored.
    trace:
        Optional :class:`~repro.core.events.Trace` receiving every *handled*
        transition.
    vocabulary:
        Optional :class:`~repro.core.nouns.Vocabulary`; when given, every
        sentence is interned through it before it gets a sid (:meth:`sid`).
    table:
        Optional :class:`~repro.core.nouns.SentenceTable` numbering the
        run's sentences; membership is keyed on its ids, and the sid entry
        points (:meth:`activate_sid`, :meth:`deactivate_sid`) take them.
        The node SASes of one run share one, so an id names one sentence
        on every node.  Default: a table of this SAS's own.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        node_id: int | None = None,
        interest: Callable[[Sentence], bool] | None = None,
        trace: Trace | None = None,
        vocabulary: Vocabulary | None = None,
        table: SentenceTable | None = None,
    ):
        self._ticks = 0
        self.clock = clock if clock is not None else self._tick
        self.node_id = node_id
        self.interest = interest
        self.trace = trace
        self.vocabulary = vocabulary
        # the run's sentence ids (one table per run: a tool hands every node
        # SAS the same one); membership and the engine are keyed on them
        self.table = table if table is not None else SentenceTable()
        # active multiset: sid -> stack of activation times; a key is
        # inserted at the outermost activation and deleted at the last
        # deactivation, so key order is first-activation order
        self._active: dict[int, list[float]] = {}
        # evaluates the attached questions; created by the first one
        self._engine: MultiQuestionEngine | None = None
        # fed (sid, joined, time) at each membership change, before the
        # on_transition hooks: the own engine's and attached engines'
        # membership_change_sid (MultiQuestionEngine.attach_sas)
        self._membership_hooks: list[Callable[[int, bool, float], None]] = []
        self.notifications = 0
        self.ignored_notifications = 0
        # monotonically increasing sequence number of *handled* transitions;
        # incremented before on_transition fires, so forwarding layers can
        # stamp each captured transition with its position in this SAS's
        # history (the bus asserts per-link epoch monotonicity on delivery)
        self.transition_epoch = 0
        self.co_active_listeners: list[Callable[[Sentence, Sentence, float], None]] = []
        # generic transition hooks: (sentence, became_active, time); fired for
        # every *handled* notification (cross-node forwarding subscribes here)
        self.on_transition: list[Callable[[Sentence, bool, float], None]] = []

    def _tick(self) -> float:
        self._ticks += 1
        return float(self._ticks)

    # ------------------------------------------------------------------
    # notifications from the application / runtime / system layers
    # ------------------------------------------------------------------
    def activate(self, sent: Sentence) -> bool:
        """A sentence became active.  Returns False if filtered out.

        Any part of an application (user code, programming libraries, or
        system level code) may call this and "need not know about the
        existence of other layers to do so".  Costs one table lookup
        (:meth:`sid`) over :meth:`activate_sid`.
        """
        return self.activate_sid(self.sid(sent))

    def deactivate(self, sent: Sentence) -> bool:
        """A sentence became inactive.  Returns False if filtered/unknown."""
        return self.deactivate_sid(self.sid(sent))

    def sid(self, sent: Sentence) -> int:
        """The id of ``sent`` in :attr:`table`, interned through the
        vocabulary first if there is one."""
        if self.vocabulary is not None:
            sent = self.vocabulary.intern(sent)
        return self.table.sid(sent)

    def activate_sid(self, sid: int) -> bool:
        """:meth:`activate` of the sentence ``sid`` in :attr:`table`."""
        self.notifications += 1
        sent = self.table.sentences[sid]
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        now = self.clock()
        active = self._active
        stack = active.get(sid)
        if stack is None:
            if self.co_active_listeners:
                sentences = self.table.sentences
                for other in active:
                    for cb in self.co_active_listeners:
                        cb(sentences[other], sent, now)
            active[sid] = [now]
        else:
            stack.append(now)
        if self.trace is not None:
            self.trace.record(now, EventKind.ACTIVATE, sent, self.node_id)
        if stack is None and self._membership_hooks:
            for hook in self._membership_hooks:
                hook(sid, True, now)
        self.transition_epoch += 1
        for cb in self.on_transition:
            cb(sent, True, now)
        return True

    def deactivate_sid(self, sid: int) -> bool:
        """:meth:`deactivate` of the sentence ``sid`` in :attr:`table`."""
        self.notifications += 1
        sent = self.table.sentences[sid]
        if self.interest is not None and not self.interest(sent):
            self.ignored_notifications += 1
            return False
        stack = self._active.get(sid)
        if not stack:
            raise ValueError(f"deactivate of non-active sentence {sent}")
        now = self.clock()
        stack.pop()
        left_membership = not stack
        if left_membership:
            del self._active[sid]
        if self.trace is not None:
            self.trace.record(now, EventKind.DEACTIVATE, sent, self.node_id)
        if left_membership and self._membership_hooks:
            for hook in self._membership_hooks:
                hook(sid, False, now)
        self.transition_epoch += 1
        for cb in self.on_transition:
            cb(sent, False, now)
        return True

    # ------------------------------------------------------------------
    # queries ("monitoring code queries the SAS to determine what sentences
    # are currently active")
    # ------------------------------------------------------------------
    def active_sentences(self) -> tuple[Sentence, ...]:
        """Snapshot of active sentences in first-activation order (Figure 5)."""
        return tuple(map(self.table.sentences.__getitem__, self._active))

    def active_with_times(self) -> list[tuple[Sentence, float]]:
        """Active sentences paired with their outermost activation time."""
        sentences = self.table.sentences
        return [(sentences[sid], stack[0]) for sid, stack in self._active.items()]

    def is_active(self, sent: Sentence) -> bool:
        return self.table.get(sent) in self._active

    def activation_depth(self, sent: Sentence) -> int:
        return len(self._active.get(self.table.get(sent), ()))

    def __len__(self) -> int:
        return len(self._active)

    def snapshot_by_level(self, vocab: Vocabulary | None = None) -> list[Sentence]:
        """Active sentences ordered most-abstract-first, as Figure 5 renders.

        Without a vocabulary, falls back to grouping by level name in
        activation order.
        """
        order = list(self.active_sentences())
        if vocab is None:
            seen: list[str] = []
            for s in order:
                if s.abstraction not in seen:
                    seen.append(s.abstraction)
            return sorted(order, key=lambda s: (seen.index(s.abstraction),))
        position = {s: i for i, s in enumerate(order)}
        return sorted(
            order,
            key=lambda s: (-vocab.level(s.abstraction).rank, position[s]),
        )

    # ------------------------------------------------------------------
    # questions
    # ------------------------------------------------------------------
    def attach_question(self, question: Question) -> QuestionWatcher:
        """Register a question; its watcher follows every membership change.

        The question is evaluated immediately against the current state.
        Structurally-equal questions attached at the same point of the run
        share one watcher, whose ``question`` is the first of them.
        """
        if self._engine is None:
            self._engine = MultiQuestionEngine(table=self.table)
            self._engine.seed(self.active_with_times())
            self._membership_hooks.append(self._engine.membership_change_sid)
        now = self.clock() if self._active else 0.0
        return self._engine.subscribe(question, now=now).watcher

    def restrict_to_questions(self) -> None:
        """Enable the Section-4.2 size reduction: only keep sentences that
        could satisfy some attached question.

        Must be called while the SAS is empty (otherwise already-stored
        sentences could be stranded without their deactivations).
        """
        if self._active:
            raise RuntimeError("cannot restrict a non-empty SAS")
        subs = self._engine.subscriptions if self._engine is not None else ()
        self.interest = interest_from_questions(sub.question for sub in subs)

    # ------------------------------------------------------------------
    # recorders (the persistent trace store subscribes here)
    # ------------------------------------------------------------------
    def attach_recorder(self, recorder) -> Callable[[Sentence, bool, float], None]:
        """Stream every handled transition into ``recorder``.

        ``recorder`` is anything with a ``transition(time, kind, sentence,
        node_id)`` method -- normally a
        :class:`~repro.trace.columnar.ColumnarTraceWriter`.  Unlike
        ``trace=``, a recorder can be shared by many SASes (each transition carries this
        SAS's ``node_id``) and attached/detached mid-run.  Returns the hook
        to pass to :meth:`detach_recorder`.
        """
        node_id = self.node_id
        # bound once: an enum member lookup costs more than the rest of a
        # buffered recorder's call
        activate, deactivate = EventKind.ACTIVATE, EventKind.DEACTIVATE

        def hook(sent: Sentence, became_active: bool, now: float) -> None:
            recorder.transition(
                now, activate if became_active else deactivate, sent, node_id
            )

        self.on_transition.append(hook)
        return hook

    def detach_recorder(self, hook: Callable[[Sentence, bool, float], None]) -> None:
        self.on_transition.remove(hook)


def interest_from_questions(questions: Iterable[Question]) -> Callable[[Sentence], bool]:
    """Build an interest predicate keeping only question-relevant sentences."""
    patterns: list[SentencePattern] = []
    for q in questions:
        patterns.extend(q.patterns())

    def interesting(sent: Sentence) -> bool:
        return any(p.matches(sent) for p in patterns)

    return interesting


class DynamicMappingRecorder:
    """Derives dynamic mapping records from SAS co-activity.

    "Any two sentences contained in the SAS concurrently are considered to
    dynamically map to one another."  The recorder orients each co-active
    pair lower-level -> higher-level using the vocabulary's level ranks
    (same-level pairs are recorded in both directions) and registers the
    result in a :class:`~repro.core.mapping.MappingGraph`.
    """

    def __init__(self, vocab: Vocabulary, graph: MappingGraph | None = None):
        self.vocab = vocab
        self.graph = graph if graph is not None else MappingGraph()
        self.pairs_seen = 0

    def attach(self, sas: ActiveSentenceSet) -> None:
        sas.co_active_listeners.append(self._on_pair)

    def _on_pair(self, a: Sentence, b: Sentence, _now: float) -> None:
        self.pairs_seen += 1
        rank_a = self.vocab.level(a.abstraction).rank
        rank_b = self.vocab.level(b.abstraction).rank
        if rank_a == rank_b:
            self.graph.add(Mapping(a, b, MappingOrigin.DYNAMIC))
            self.graph.add(Mapping(b, a, MappingOrigin.DYNAMIC))
        elif rank_a < rank_b:
            self.graph.add(Mapping(a, b, MappingOrigin.DYNAMIC))
        else:
            self.graph.add(Mapping(b, a, MappingOrigin.DYNAMIC))
