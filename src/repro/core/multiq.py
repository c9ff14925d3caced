"""The question engine: every live and retrospective question runs here.

A Figure-6 question is satisfied while its patterns match the set of active
sentences (Section 4.2).  :class:`MultiQuestionEngine` evaluates any number
of questions over one stream of membership changes -- a live SAS's
(:meth:`~repro.core.sas.ActiveSentenceSet.attach_question` subscribes to the
engine the SAS owns; :meth:`MultiQuestionEngine.attach_sas` feeds another
engine the same changes), a recorded trace's
(:func:`repro.trace.retro.evaluate_question_batch`), or ``repro serve``'s --
and shares the work between questions, so the marginal subscription is
nearly free.  The engine counts no nesting depth: its sources hand it
only outermost activations and last deactivations, by sentence id.

* **pattern interning** -- every subscription's
  :class:`~repro.core.questions.SentencePattern` is canonicalized
  (:meth:`~repro.core.questions.SentencePattern.canonical`) and interned into
  one node table: equal patterns dedupe to one :class:`PatternNode`, whose
  active-match count and activation entries are maintained once no matter how
  many questions reference it;
* **subsumption lattice** -- nodes are linked parent -> child whenever the
  parent's match set contains the child's
  (:meth:`~repro.core.questions.SentencePattern.subsumes`).  A never-seen
  sentence is matched by descending from the lattice roots and pruning every
  sub-lattice whose root fails -- a sentence that misses ``{A Sum}`` can
  never match ``{A B Sum}``.  Each shard files its roots under their
  :meth:`~repro.core.questions.SentencePattern.index_key` (**key-routed
  roots**), so the descent starts only from roots whose key the sentence
  carries; and a new node is compared only with the nodes it could be
  related to -- those sharing a concrete noun with it or having none
  (**noun-indexed insertion**).  Neither step grows with the number of
  unrelated patterns;
* **consistent-hash sharding** -- nodes partition into shards by their
  level/noun discriminator (:meth:`~repro.core.questions.SentencePattern.index_key`)
  on a :class:`HashRing`, so a transition touches only the shards whose key
  space its sentence carries, and the per-shard work is independent --
  the fan-out unit for the ``repro serve`` front end and the per-node
  replicated SAS;
* **watched conjunctions** -- an unsatisfied conjunction waits on one of
  its zero-count nodes, a satisfied one on all of its nodes.  A count 0->1
  flip visits only the conjunctions waiting on that node (each moves on to
  another zero node or becomes satisfied), and a 1->0 flip only the
  satisfied conjunctions referencing it.  Boolean expressions keep dirty
  bits (re-evaluated on a 0<->1 flip of one of their nodes), and so do
  ordered questions (on any relevant entry change).  A membership change
  costs nothing for a subscriber whose answer it cannot change;
* **subscription dedup** -- structurally-equivalent questions subscribed
  against the same history share one :class:`QuestionWatcher` outright.

Per-question observable state (``satisfied_time``, ``transitions``,
``satisfied_at_end``) equals a naive full-rescan evaluation of the same
stream -- the oracle in ``tests/core/oracle.py`` that the differential and
property suites and ablations abl5b and abl11 pin the engine against.
"""

from __future__ import annotations

import hashlib
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from .nouns import Sentence, SentenceTable
from .questions import (
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QExpr,
    QNot,
    QOr,
    SentencePattern,
    WILDCARD,
)

__all__ = [
    "HashRing",
    "PatternNode",
    "QuestionWatcher",
    "Subscription",
    "MultiQuestionEngine",
]

Question = PerformanceQuestion | QExpr | OrderedQuestion

#: Ring key of patterns with no concrete discriminator (wildcard-only); their
#: lattice roots are filed under ``None`` and tried for every sentence.
_WILDCARD_KEY = ("*", "*")


def _stable_hash(text: str) -> int:
    """A process-stable 64-bit hash (``hash()`` is salted per process)."""
    return int.from_bytes(
        hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest(), "big"
    )


class HashRing:
    """Consistent hashing of discriminator keys onto ``shards`` buckets.

    Each shard owns ``replicas`` points on a 64-bit ring; a key maps to the
    first point at or after its own hash.  Adding or removing one shard
    moves only ~1/shards of the key space -- the property that lets a
    long-running ``repro serve`` grow its worker pool without re-homing
    every pattern node.
    """

    def __init__(self, shards: int, replicas: int = 64):
        if shards < 1:
            raise ValueError("need at least one shard")
        self.shards = shards
        points = [
            (_stable_hash(f"shard{k}:{r}"), k)
            for k in range(shards)
            for r in range(replicas)
        ]
        points.sort()
        self._hashes = [h for h, _ in points]
        self._owners = [k for _, k in points]

    def shard_for(self, key: object) -> int:
        if self.shards == 1:
            return 0
        i = bisect_right(self._hashes, _stable_hash(repr(key)))
        return self._owners[i % len(self._owners)]


@dataclass(eq=False)
class PatternNode:
    """One interned canonical pattern: shared state for all its questions."""

    pid: int
    pattern: SentencePattern
    shard: int
    count: int = 0  # active sentences currently matching
    #: time-sorted (sentence id, outermost activation time), maintained
    #: only while some OrderedQuestion references this node (rebuilt from
    #: live membership when the first ordered subscriber attaches)
    entries: list[tuple[int, float]] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)  # subsuming nodes (same shard)
    children: list[int] = field(default_factory=list)  # subsumed nodes (same shard)
    #: these four sets hold subscription ids (``Subscription.sub_id``)
    expr_subs: set[int] = field(default_factory=set)
    ordered_subs: set[int] = field(default_factory=set)
    #: unsatisfied conjunctions waiting on this (zero-count) node
    blocked: set[int] = field(default_factory=set)
    #: satisfied conjunctions referencing this node
    sat: set[int] = field(default_factory=set)


@dataclass(eq=False)
class QuestionWatcher:
    """Satisfaction state of one (possibly shared) subscription.

    ``satisfied`` is the node-global boolean that SAS-gated instrumentation
    reads (Section 6.1); ``satisfied_time`` accumulates closed satisfied
    intervals, and ``on_interval`` callbacks receive each one as it closes
    (what ``repro serve`` streams).  The state is bounded: the open
    interval, if any, starts at ``satisfied_since``.
    """

    question: Question
    satisfied: bool = False
    satisfied_since: float = 0.0
    satisfied_time: float = 0.0
    transitions: int = 0

    def __post_init__(self) -> None:
        self.on_satisfied: list[Callable[[float], None]] = []
        self.on_unsatisfied: list[Callable[[float], None]] = []
        self.on_interval: list[Callable[[float, float], None]] = []

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
            for cb in self.on_interval:
                cb(self.satisfied_since, now)
            for cb in self.on_unsatisfied:
                cb(now)

    def total_satisfied_time(self, now: float) -> float:
        """Accumulated satisfied time, counting an open interval up to ``now``."""
        if self.satisfied:
            return self.satisfied_time + (now - self.satisfied_since)
        return self.satisfied_time


@dataclass(eq=False)
class Subscription:
    """One compiled question: its node references and shared watcher.

    ``sub_id`` is the subscription's index in its engine -- not a sentence
    id (``sid``), which the engine keys membership on.
    """

    sub_id: int
    name: str
    question: Question
    kind: str  # "conj" | "expr" | "ordered"
    nids: tuple[int, ...]  # component order (ordered) / unique, in order (conj)
    program: list[tuple] | None  # expr: flattened children-first op list
    watcher: QuestionWatcher
    created_at: int  # engine membership-change count at creation (dedup guard)
    key: tuple  # structural-equivalence key


class _Shard:
    """One shard's sub-lattice: the unit of routed matching work."""

    __slots__ = ("index", "nids", "roots", "by_noun", "nounless")

    def __init__(self, index: int) -> None:
        self.index = index
        self.nids: list[int] = []
        #: lattice roots by ``index_key()`` (``None``: wildcard-only)
        self.roots: dict[tuple[str, str] | None, list[int]] = {}
        #: node ids by concrete noun required, and those requiring none
        self.by_noun: dict[str, list[int]] = {}
        self.nounless: list[int] = []


class MultiQuestionEngine:
    """Evaluate many questions over one transition stream, sharing work.

    Membership and the match memo are keyed on the sentence ids of
    :attr:`table`, and every change arrives by id
    (:meth:`membership_change_sid`).  Every
    :class:`~repro.core.sas.ActiveSentenceSet` owns one engine, created at
    its first question on the SAS's own table, and feeds it the membership
    changes the SAS computes anyway; :meth:`attach_sas` binds a fresh
    engine to a SAS's table and has the SAS feed it too (forwarded bus
    transitions included, since the bus applies them to the replica SAS);
    a trace replay binds a fresh engine to the file's table and feeds it
    the recorded changes (:func:`repro.trace.retro.replay_batch`).
    """

    def __init__(self, shards: int = 1, table: SentenceTable | None = None):
        self.ring = HashRing(shards)
        self.shards = [_Shard(k) for k in range(shards)]
        self._nodes: list[PatternNode] = []
        self._by_pattern: dict[SentencePattern, int] = {}
        self._subs: list[Subscription] = []
        # subscription ids (positions in _subs) by structural key and by name
        self._by_key: dict[tuple, int] = {}
        self._names: dict[str, int] = {}
        self.table = table if table is not None else SentenceTable()
        # members and their outermost activation times, by sentence id
        self._active: dict[int, float] = {}
        # True while a SAS feeds this engine (attach_sas)
        self._attached = False
        # sentence id -> matching node ids (invalidated when nodes are added)
        self._match_cache: dict[int, tuple[int, ...]] = {}
        # counters: membership_changes is also the subscription dedup guard
        self.membership_changes = 0  # outermost activate / last deactivate
        self.shard_touches: list[int] = [0] * shards

    # ------------------------------------------------------------------
    # node table + lattice
    # ------------------------------------------------------------------
    def _node_for(self, pattern: SentencePattern) -> int:
        canon = pattern.canonical()
        nid = self._by_pattern.get(canon)
        if nid is not None:
            return nid
        key = canon.index_key()
        shard = self.shards[self.ring.shard_for(key or _WILDCARD_KEY)]
        nodes = self._nodes
        nid = len(nodes)
        node = PatternNode(nid, canon, shard.index)
        # lattice edges live within the owning shard (descent is per shard;
        # a cross-shard subsumer would prune nodes the router never visits).
        # Only a node whose concrete nouns are a subset of ours can subsume
        # us, and only one holding our first noun (any, if we have none) can
        # be subsumed; ascending ids keep the edge lists in insertion order
        nouns = [n for n in canon.nouns if n != WILDCARD]
        uppers = set(shard.nounless)
        for noun in nouns:
            uppers.update(shard.by_noun.get(noun, ()))
        for other_id in sorted(uppers):
            other = nodes[other_id]
            if other.pattern.subsumes(canon):
                other.children.append(nid)
                node.parents.append(other_id)
        for other_id in shard.by_noun.get(nouns[0], ()) if nouns else shard.nids:
            other = nodes[other_id]
            if canon.subsumes(other.pattern):
                node.children.append(other_id)
                other.parents.append(nid)
        nodes.append(node)
        self._by_pattern[canon] = nid
        shard.nids.append(nid)
        for noun in nouns:
            shard.by_noun.setdefault(noun, []).append(nid)
        if not nouns:
            shard.nounless.append(nid)
        if not node.parents:
            shard.roots.setdefault(key, []).append(nid)
        for child_id in node.children:
            child = nodes[child_id]
            if len(child.parents) == 1:  # was a root until now
                shard.roots[child.pattern.index_key()].remove(child_id)
        # existing cached match sets don't know about the new node
        self._match_cache.clear()
        # seed from current membership so late subscriptions see true state
        sentences = self.table.sentences
        for sid, t in self._active.items():
            if canon.matches(sentences[sid]):
                node.count += 1
                node.entries.append((sid, t))
        node.entries.sort(key=lambda st: st[1])
        return nid

    def _match_nodes(self, sid: int) -> tuple[int, ...]:
        cached = self._match_cache.get(sid)
        if cached is not None:
            return cached
        sent = self.table.sentences[sid]
        nodes = self._nodes
        # a sentence matching a node carries its index key and matches all
        # its ancestors, so every matching node sits under a root whose key
        # the sentence carries: only those roots are tried
        keys: list[tuple[str, str] | None] = [
            None, ("v", sent.verb.name), ("l", sent.abstraction)
        ]
        keys.extend(("n", noun.name) for noun in sent.nouns)
        stack = [
            nid for shard in self.shards for key in keys
            for nid in shard.roots.get(key, ())
        ]
        out: list[int] = []
        seen: set[int] = set()
        while stack:
            nid = stack.pop()
            if nid in seen:
                continue
            seen.add(nid)
            node = nodes[nid]
            if node.pattern.matches(sent):
                out.append(nid)
                stack.extend(node.children)
            # a failed pattern prunes its whole sub-lattice: children
            # match subsets of this node's match set
        out.sort()
        result = tuple(out)
        self._match_cache[sid] = result
        return result

    # ------------------------------------------------------------------
    # subscriptions
    # ------------------------------------------------------------------
    def _compile_expr(self, expr: QExpr, nids: list[int]) -> list[tuple]:
        """Flatten ``expr`` children-first; leaves reference node ids."""
        program: list[tuple] = []

        def build(e: QExpr) -> int:
            if isinstance(e, QAtom):
                nid = self._node_for(e.pattern)
                nids.append(nid)
                program.append(("atom", nid))
            elif isinstance(e, (QAnd, QOr)):
                idxs = tuple(build(t) for t in e.terms)
                program.append(("and" if isinstance(e, QAnd) else "or", idxs))
            elif isinstance(e, QNot):
                child = build(e.term)
                program.append(("not", child))
            else:
                raise TypeError(f"cannot compile QExpr node {e!r}")
            return len(program) - 1

        build(expr)
        return program

    def _structural_key(self, kind: str, nids: tuple[int, ...], program) -> tuple:
        if kind == "conj":
            return ("conj", tuple(sorted(set(nids))))
        if kind == "ordered":
            return ("ordered", nids)
        return ("expr", tuple(program))

    def subscribe(self, question: Question, name: str | None = None, now: float = 0.0) -> Subscription:
        """Register a question; returns its (possibly shared) subscription.

        Structurally-equivalent questions subscribed while the engine has
        processed the same history share one subscription -- the
        "subsumption-cached fan-out": the marginal duplicate subscriber
        costs one dict lookup.  ``now`` stamps the initial evaluation (use
        the current clock when subscribing mid-run, as
        :meth:`~repro.core.sas.ActiveSentenceSet.attach_question` does).
        """
        nids_acc: list[int] = []
        program = None
        if isinstance(question, PerformanceQuestion):
            kind = "conj"
            nids = tuple(dict.fromkeys(self._node_for(p) for p in question.components))
        elif isinstance(question, OrderedQuestion):
            kind = "ordered"
            nids = tuple(self._node_for(p) for p in question.components)
        elif isinstance(question, QExpr):
            kind = "expr"
            program = self._compile_expr(question, nids_acc)
            nids = tuple(nids_acc)
        else:
            raise TypeError(f"cannot subscribe {question!r}")
        key = self._structural_key(kind, nids, program)
        effective_name = name if name is not None else _question_name(question)
        existing = self._by_key.get(key)
        if existing is not None:
            sub = self._subs[existing]
            # share only while observably fresh: the shared watcher must be
            # in exactly the state a dedicated watcher attached at ``now``
            # would be in -- same engine history (created_at) and no
            # accumulated past (no closed interval, i.e. fewer than two
            # flips, and any open interval must have started at ``now``
            # itself, not earlier wall-clock)
            w = sub.watcher
            if (
                sub.created_at == self.membership_changes
                and w.transitions < 2
                and (not w.satisfied or w.satisfied_since == now)
            ):
                self._names.setdefault(effective_name, sub.sub_id)
                return sub
        sub = Subscription(
            sub_id=len(self._subs),
            name=effective_name,
            question=question,
            kind=kind,
            nids=nids,
            program=program,
            watcher=QuestionWatcher(question),
            created_at=self.membership_changes,
            key=key,
        )
        self._subs.append(sub)
        self._by_key[key] = sub.sub_id
        self._names.setdefault(sub.name, sub.sub_id)
        for nid in set(nids):
            node = self._nodes[nid]
            if kind == "ordered":
                if not node.ordered_subs:
                    # entries are only maintained while the node has ordered
                    # subscribers; membership changes since creation (e.g. a
                    # node first referenced by boolean questions) left them
                    # stale -- rebuild from live membership before trusting
                    sentences = self.table.sentences
                    node.entries = sorted(
                        (
                            (sid, t)
                            for sid, t in self._active.items()
                            if node.pattern.matches(sentences[sid])
                        ),
                        key=lambda st: st[1],
                    )
                node.ordered_subs.add(sub.sub_id)
            elif kind == "expr":
                node.expr_subs.add(sub.sub_id)
        if kind == "conj":
            self._watch(sub)
        sub.watcher._apply(self._evaluate(sub), now)
        return sub

    def subscribe_all(
        self, questions: Iterable[Question], now: float = 0.0
    ) -> list[Subscription]:
        return [self.subscribe(q, now=now) for q in questions]

    def subscription(self, name: str) -> Subscription:
        return self._subs[self._names[name]]

    @property
    def subscriptions(self) -> Sequence[Subscription]:
        return tuple(self._subs)

    def dead_subscriptions(self, sentences: Iterable[Sentence]) -> list[str]:
        """Names of subscriptions that can never fire over ``sentences``.

        A plain conjunction or ordered question with a component pattern
        matching none of the given sentences (e.g. a recorded trace's
        sentence table) can never flip its satisfaction state: both
        watcher kinds count only state flips, so its answer is already
        known to be ``(0.0, 0, False)``.  Boolean-expression questions
        are never reported -- a NOT over a dead atom is trivially live.
        This is the engine-level form of the NV019 static check; ``repro
        serve`` runs it per subscription at subscribe time.
        """
        table = list(sentences)
        dead: list[str] = []
        for sub in self._subs:
            if sub.kind not in ("conj", "ordered"):
                continue
            components = getattr(sub.question, "components", ())
            if any(
                not any(p.matches(s) for s in table) for p in components
            ):
                dead.extend(
                    name for name, sub_id in self._names.items() if sub_id == sub.sub_id
                )
        return sorted(dead)

    @property
    def nodes(self) -> Sequence[PatternNode]:
        return tuple(self._nodes)

    @property
    def fresh(self) -> bool:
        """True while the engine has no member and no history: nothing
        seeded or replayed into it, and no SAS's member attached."""
        return not (self._active or self.membership_changes)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def _watch(self, sub: Subscription) -> bool:
        """File conjunction ``sub`` by the current counts; True if satisfied.

        An unsatisfied conjunction waits on its first zero-count node, a
        satisfied one on all of its nodes.
        """
        nodes = self._nodes
        for nid in sub.nids:
            if not nodes[nid].count:
                nodes[nid].blocked.add(sub.sub_id)
                return False
        for nid in sub.nids:
            nodes[nid].sat.add(sub.sub_id)
        return True

    def _move_on(self, node: PatternNode, satisfied: set[int]) -> None:
        """Re-file the conjunctions waiting on ``node``, which is no longer
        zero (so none is filed back under it); collect the now-satisfied."""
        for sub_id in node.blocked:
            if self._watch(self._subs[sub_id]):
                satisfied.add(sub_id)
        node.blocked.clear()

    def _evaluate(self, sub: Subscription) -> bool:
        nodes = self._nodes
        if sub.kind == "conj":
            return all(nodes[nid].count > 0 for nid in sub.nids)
        if sub.kind == "expr":
            values: list[bool] = []
            for op, payload in sub.program:  # children precede parents
                if op == "atom":
                    values.append(nodes[payload].count > 0)
                elif op == "and":
                    values.append(all(values[i] for i in payload))
                elif op == "or":
                    values.append(any(values[i] for i in payload))
                else:
                    values.append(not values[payload])
            return values[-1]
        # ordered: merge the component nodes' entry lists (a sentence in
        # several nodes carries one outermost time, so dedupe by sentence)
        merged: dict[int, float] = {}
        for nid in set(sub.nids):
            merged.update(nodes[nid].entries)
        sentences = self.table.sentences
        entries = [
            (sentences[sid], t) for sid, t in sorted(merged.items(), key=lambda st: st[1])
        ]
        return sub.question._match(entries, 0, -float("inf"))

    def membership_change_sid(self, sid: int, joined: bool, now: float) -> None:
        """The sentence ``sid`` of :attr:`table` became a member (outermost
        activation, ``joined``) or stopped being one (last deactivation) at
        ``now``."""
        if joined:
            self._active[sid] = now
        else:
            del self._active[sid]
        self.membership_changes += 1
        nids = self._match_cache.get(sid)
        if nids is None:
            nids = self._match_nodes(sid)
        if not nids:
            return
        nodes = self._nodes
        subs = self._subs
        touches = self.shard_touches
        dirty: set[int] = set()
        for nid in nids:
            node = nodes[nid]
            touches[node.shard] += 1
            if joined:
                node.count += 1
                if node.count == 1:
                    dirty |= node.expr_subs
                    if node.blocked:
                        self._move_on(node, dirty)
                if node.ordered_subs:
                    # clocks are (almost always) monotone: append, walking
                    # back only if a custom clock handed out an earlier time
                    entries = node.entries
                    i = len(entries)
                    while i > 0 and entries[i - 1][1] > now:
                        i -= 1
                    entries.insert(i, (sid, now))
                    dirty |= node.ordered_subs
            else:
                node.count -= 1
                if node.count == 0:
                    dirty |= node.expr_subs
                    satisfied = node.sat
                    if satisfied:
                        # each now waits on a zero node; no set but this
                        # one's is cleared while it is read
                        for sub_id in satisfied:
                            sub = subs[sub_id]
                            for other in sub.nids:
                                if other != nid:
                                    nodes[other].sat.discard(sub_id)
                            self._watch(sub)
                            dirty.add(sub_id)
                        satisfied.clear()
                if node.ordered_subs:
                    entries = node.entries
                    for i in range(len(entries) - 1, -1, -1):
                        if entries[i][0] == sid:
                            del entries[i]
                            break
                    dirty |= node.ordered_subs
        if not dirty:
            return
        for sub_id in sorted(dirty):
            sub = subs[sub_id]
            # a conjunction is dirty only if this change flipped it
            value = joined if sub.kind == "conj" else self._evaluate(sub)
            sub.watcher._apply(value, now)

    # ------------------------------------------------------------------
    # live attachment
    # ------------------------------------------------------------------
    def seed(self, members: Iterable[tuple[Sentence, float]]) -> None:
        """Silently add ``(sentence, outermost activation time)`` members.

        No watcher fires; questions subscribed afterwards evaluate against
        the seeded state.  Sentences that are already members keep theirs.
        """
        for sent, t in members:
            sid = self.table.sid(sent)
            if sid in self._active:
                continue
            self._active[sid] = t
            for nid in self._match_nodes(sid):
                node = self._nodes[nid]
                node.count += 1
                if node.count == 1 and node.blocked:
                    # silently: a conjunction left waiting on a non-zero
                    # node would miss its last component's flip
                    self._move_on(node, set())
                if node.ordered_subs:
                    node.entries.append((sid, t))
                    node.entries.sort(key=lambda st: st[1])

    def attach_sas(self, sas) -> Callable[[int, bool, float], None]:
        """Have ``sas`` feed this engine the membership changes it computes.

        The engine is bound to the SAS's sentence table, so it must be
        :attr:`fresh` and observe no other SAS (ids of two tables must not
        mix); otherwise ``ValueError``.  The SAS's current members seed it
        first, so questions subscribed afterwards evaluate against true
        state; if the SAS is non-empty, every existing subscription is then
        re-evaluated at the SAS's clock, as a question attached to it now
        would be.  The SAS feeds each later change where it feeds its own
        engine, before any ``on_transition`` hook runs.  Forwarded
        transitions applied to a replica SAS by the
        :class:`~repro.dbsim.bus.ForwardingBus` change its membership like
        local ones, so attaching to the replica sees the fused local +
        remote stream exactly as the SAS's own questions do.  Returns the
        hook; pass it to :meth:`detach_sas`.
        """
        if self._attached or not self.fresh:
            raise ValueError(
                "engine already observes a SAS or has members or membership "
                "changes; attach a fresh one"
            )
        self._attached = True
        self.table = sas.table
        active = sas.active_with_times()
        self.seed(active)
        if active:
            now = sas.clock()
            for sub in self._subs:
                sub.watcher._apply(self._evaluate(sub), now)
        hook = self.membership_change_sid
        sas._membership_hooks.append(hook)
        return hook

    def detach_sas(self, sas, hook) -> None:
        sas._membership_hooks.remove(hook)
        self._attached = False

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def answers(self, end_time: float) -> dict[str, tuple[float, int, bool]]:
        """Per-question ``(satisfied_time, transitions, satisfied_at_end)``.

        Names map to their (shared) subscription; duplicate questions report
        the shared watcher's values, which are identical to what dedicated
        watchers would have accumulated.
        """
        out: dict[str, tuple[float, int, bool]] = {}
        for name, sub_id in self._names.items():
            w = self._subs[sub_id].watcher
            out[name] = (w.total_satisfied_time(end_time), w.transitions, w.satisfied)
        return out

    def shard_summary(self) -> dict[str, object]:
        """Node and touch distribution across shards (the fan-out balance)."""
        sizes = [len(s.nids) for s in self.shards]
        return {
            "shards": len(self.shards),
            "nodes": len(self._nodes),
            "nodes_per_shard": sizes,
            "touches_per_shard": list(self.shard_touches),
        }


def _question_name(question: Question) -> str:
    return getattr(question, "name", None) or str(question)
