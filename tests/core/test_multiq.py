"""Unit tests for the shared multi-question engine (core/multiq.py)."""

import pytest

from repro.core import (
    ActiveSentenceSet,
    HashRing,
    MultiQuestionEngine,
    Noun,
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QNot,
    QOr,
    QuestionWatcher,
    SentencePattern,
    Verb,
    sentence,
)

from .oracle import NaiveSAS

SUM = Verb("Sum", "HPF")
EXEC = Verb("Executes", "HPF")
SEND = Verb("Send", "Base")

A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
AB_SUM = sentence(SUM, Noun("A", "HPF"), Noun("B", "HPF"))
LINE = sentence(EXEC, Noun("line1", "HPF"))
P_SEND = sentence(SEND, Noun("Processor_0", "Base"))


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def make_pair():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    eng = MultiQuestionEngine()
    eng.attach_sas(sas)
    return clock, sas, eng


def feed(eng):
    """Attach ``eng`` to a SAS with a settable clock; the returned
    ``step(sent, activate, t)`` notifies the SAS at time ``t``."""
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    eng.attach_sas(sas)

    def step(sent, activate, t):
        clock.t = t
        (sas.activate if activate else sas.deactivate)(sent)

    return step


class OracleMirror:
    """Drives a SAS and the full-rescan oracle with the same notifications."""

    def __init__(self, clock, sas):
        self.sas = sas
        self.oracle = NaiveSAS(clock=clock)

    def activate(self, sent):
        self.sas.activate(sent)
        self.oracle.activate(sent)

    def deactivate(self, sent):
        self.sas.deactivate(sent)
        self.oracle.deactivate(sent)


# ----------------------------------------------------------------------
# pattern interning and the node table
# ----------------------------------------------------------------------
def test_equal_patterns_share_one_node():
    eng = MultiQuestionEngine()
    q1 = PerformanceQuestion("q1", (SentencePattern("Sum", ("A",)),))
    q2 = QAtom(SentencePattern("Sum", ("A",)))
    # noun order / duplicates canonicalize away
    q3 = PerformanceQuestion("q3", (SentencePattern("Sum", ("A", "A")),))
    eng.subscribe(q1)
    eng.subscribe(q2)
    eng.subscribe(q3)
    assert len(eng.nodes) == 1


def test_duplicate_questions_share_one_subscription():
    eng = MultiQuestionEngine()
    pats = (SentencePattern("Sum", ("A",)), SentencePattern("Executes", ("line1",)))
    s1 = eng.subscribe(PerformanceQuestion("first", pats))
    s2 = eng.subscribe(PerformanceQuestion("second", tuple(reversed(pats))))
    assert s1 is s2
    assert len(eng.subscriptions) == 1
    # both names resolve to the shared subscription
    assert eng.subscription("first") is eng.subscription("second")


def test_duplicate_at_later_time_gets_own_watcher():
    # same engine history (no membership change in between), but later wall
    # clock: sharing would inherit an open interval that started before the
    # duplicate's own subscription time
    eng = MultiQuestionEngine()
    feed(eng)(A_SUM, True, 5.0)
    q = PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),))
    s1 = eng.subscribe(q, now=5.0)
    s2 = eng.subscribe(q, now=8.0)
    assert s2 is not s1
    assert s2.watcher.satisfied and s2.watcher.satisfied_since == 8.0
    assert s1.watcher.total_satisfied_time(13.0) == 8.0
    assert s2.watcher.total_satisfied_time(13.0) == 5.0  # dedicated-watcher value
    # a duplicate at the same instant still shares
    s3 = eng.subscribe(q, now=8.0)
    assert s3 is s2


def test_duplicate_after_history_gets_own_watcher():
    clock, sas, eng = make_pair()
    q = PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),))
    s1 = eng.subscribe(q)
    clock.t = 1.0
    sas.activate(A_SUM)
    s2 = eng.subscribe(q, now=sas.clock())
    assert s2 is not s1  # sharing would inherit s1's earlier history
    assert s2.watcher.satisfied


def test_subsumption_lattice_edges():
    eng = MultiQuestionEngine()
    broad = SentencePattern("Sum", ())
    narrow = SentencePattern("Sum", ("A",))
    narrower = SentencePattern("Sum", ("A", "B"))
    eng.subscribe(QAtom(broad))
    eng.subscribe(QAtom(narrow))
    eng.subscribe(QAtom(narrower))
    by_pattern = {node.pattern: node for node in eng.nodes}
    b, n, nn = by_pattern[broad], by_pattern[narrow], by_pattern[narrower.canonical()]
    assert n.pid in b.children
    assert nn.pid in n.children
    assert b.pid in n.parents


def _count_calls(monkeypatch, owner, name):
    calls = []
    orig = getattr(owner, name)

    def counting(self, *args):
        calls.append(self)
        return orig(self, *args)

    monkeypatch.setattr(owner, name, counting)
    return calls


def test_lattice_prunes_matching(monkeypatch):
    eng = MultiQuestionEngine()
    eng.subscribe(QAtom(SentencePattern("Sum", ())))
    eng.subscribe(QAtom(SentencePattern("Sum", ("A",))))
    eng.subscribe(QAtom(SentencePattern("Sum", ("A", "B"))))
    narrow = MultiQuestionEngine()
    narrow.subscribe(QAtom(SentencePattern("Sum", ("A",))))
    narrow.subscribe(QAtom(SentencePattern("Sum", ("A", "B"))))
    step, narrow_step = feed(eng), feed(narrow)
    calls = _count_calls(monkeypatch, SentencePattern, "matches")
    a_exec = sentence(EXEC, Noun("A", "HPF"))
    # the only root, {Sum}, is filed under verb Sum: a sentence whose verb
    # is Executes never reaches it, nor anything below it
    step(a_exec, True, 1.0)
    assert calls == []
    # root {A Sum} is reached through noun A and fails on the verb, so its
    # child {A B Sum} is never tested
    narrow_step(a_exec, True, 1.0)
    assert calls == [SentencePattern("Sum", ("A",))]
    calls.clear()
    narrow_step(a_exec, False, 2.0)  # memoized: no pattern tests at all
    assert calls == []
    # a sentence carrying none of the roots' keys makes no pattern test
    step(P_SEND, True, 3.0)
    narrow_step(P_SEND, True, 3.0)
    assert calls == []


# ----------------------------------------------------------------------
# cost model: work per membership change and per subscription
# ----------------------------------------------------------------------
RUN = Verb("Run", "DB")
READ = Verb("Read", "DB")
DISK_READ = sentence(READ, Noun("disk", "DB"))


def _waiting_conjunctions(count=200):
    """``count`` conjunctions {Qi Run} & {disk Read}, all sharing one node."""
    eng = MultiQuestionEngine()
    for i in range(count):
        eng.subscribe(PerformanceQuestion(f"q{i}", (
            SentencePattern("Run", (f"Q{i}",)), SentencePattern("Read", ("disk",)),
        )))
    return eng


def test_shared_node_flips_visit_only_ready_conjunctions(monkeypatch):
    eng = _waiting_conjunctions()
    step = feed(eng)
    evaluated = _count_calls(monkeypatch, MultiQuestionEngine, "_evaluate")
    applied = _count_calls(monkeypatch, QuestionWatcher, "_apply")
    # no {Qi Run} is active: no conjunction can change on a {disk Read} flip
    for k in range(10):
        step(DISK_READ, True, 2.0 * k + 1)
        step(DISK_READ, False, 2.0 * k + 2)
    assert evaluated == [] and applied == []
    # once {Q7 Run} is active, a flip reaches exactly its conjunction
    q7_run = sentence(RUN, Noun("Q7", "DB"))
    step(q7_run, True, 30.0)
    assert evaluated == [] and applied == []
    step(DISK_READ, True, 31.0)
    step(DISK_READ, False, 32.0)
    q7 = eng.subscription("q7").watcher
    assert applied == [q7, q7]
    assert (q7.transitions, q7.satisfied_time) == (2, 1.0)


def test_new_sentence_tries_only_its_roots(monkeypatch):
    eng = _waiting_conjunctions()
    step = feed(eng)
    tested = _count_calls(monkeypatch, SentencePattern, "matches")
    step(sentence(RUN, Noun("Q7", "DB")), True, 1.0)
    assert len(tested) <= 2


def test_subscribing_over_new_nouns_compares_no_nodes(monkeypatch):
    eng = _waiting_conjunctions()
    compared = _count_calls(monkeypatch, SentencePattern, "subsumes")
    eng.subscribe(PerformanceQuestion("q200", (
        SentencePattern("Run", ("Q200",)), SentencePattern("Read", ("disk",)),
    )))
    assert compared == []


# ----------------------------------------------------------------------
# differential vs the full-rescan oracle (tests/core/oracle.py)
# ----------------------------------------------------------------------
def test_matches_live_watchers_exactly():
    clock, sas, eng = make_pair()
    both = OracleMirror(clock, sas)
    questions = [
        PerformanceQuestion("conj", (SentencePattern("Sum", ("A",)),
                                     SentencePattern("Executes", ()))),
        QOr((QAtom(SentencePattern("Sum", ("A",))),
             QNot(QAtom(SentencePattern("Send", ()))))),
        QAnd((QAtom(SentencePattern("?", ("?",))),
              QAtom(SentencePattern("Sum", ("A", "B"))))),
        OrderedQuestion("ord", (SentencePattern("Executes", ()),
                                SentencePattern("Send", ()))),
    ]
    watchers = [both.oracle.attach_question(q) for q in questions]
    live = [sas.attach_question(q) for q in questions]
    subs = [eng.subscribe(q, name=f"q{i}") for i, q in enumerate(questions)]
    script = [
        (1.0, A_SUM, True), (2.0, LINE, True), (3.0, P_SEND, True),
        (4.0, A_SUM, False), (5.0, AB_SUM, True), (6.0, LINE, False),
        (7.0, P_SEND, False), (8.0, AB_SUM, False), (9.0, LINE, True),
        (10.0, P_SEND, True),
    ]
    for t, sent, up in script:
        clock.t = t
        (both.activate if up else both.deactivate)(sent)
    for w, lw, sub in zip(watchers, live, subs, strict=True):
        for mw in (lw, sub.watcher):
            assert (w.satisfied, w.transitions, w.satisfied_time) == (
                mw.satisfied, mw.transitions, mw.satisfied_time
            )
            assert w.total_satisfied_time(11.0) == mw.total_satisfied_time(11.0)


def test_nested_reactivation_is_ignored():
    clock, sas, eng = make_pair()
    both = OracleMirror(clock, sas)
    q = QAtom(SentencePattern("Sum", ("A",)))
    w = both.oracle.attach_question(q)
    lw = sas.attach_question(q)
    sub = eng.subscribe(q, name="q")
    clock.t = 1.0
    both.activate(A_SUM)
    clock.t = 2.0
    both.activate(A_SUM)  # nested: no membership change
    clock.t = 3.0
    both.deactivate(A_SUM)  # still active (depth 1)
    assert sub.watcher.satisfied and lw.satisfied and w.satisfied
    assert sub.watcher.transitions == lw.transitions == w.transitions == 1
    clock.t = 4.0
    both.deactivate(A_SUM)
    assert not sub.watcher.satisfied and not lw.satisfied
    assert sub.watcher.satisfied_time == lw.satisfied_time == w.satisfied_time == 3.0


def test_attach_midrun_seeds_membership():
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    clock.t = 1.0
    sas.activate(A_SUM)
    sas.activate(A_SUM)  # depth 2
    clock.t = 2.0
    sas.activate(LINE)
    eng = MultiQuestionEngine()
    eng.attach_sas(sas)
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ("A",))), now=sas.clock())
    assert sub.watcher.satisfied and sub.watcher.satisfied_since == 2.0
    clock.t = 3.0
    sas.deactivate(A_SUM)  # depth 2 -> 1: still satisfied
    assert sub.watcher.satisfied
    clock.t = 4.0
    sas.deactivate(A_SUM)
    assert not sub.watcher.satisfied
    assert sub.watcher.satisfied_time == 2.0


def test_attach_reevaluates_existing_subscriptions():
    # questions subscribed before the attach answer exactly like one
    # subscribed right after it: all see {A Sum} active from t=2 on
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    eng = MultiQuestionEngine()
    pat = SentencePattern("Sum", ("A",))
    eng.subscribe(PerformanceQuestion("q", (pat,)), name="q")
    eng.subscribe(QAtom(pat) | QAtom(SentencePattern("Send", ("P",))), name="e")
    clock.t = 1.0
    sas.activate(A_SUM)
    clock.t = 2.0
    eng.attach_sas(sas)
    eng.subscribe(QAtom(pat), name="late", now=sas.clock())
    answers = eng.answers(5.0)
    assert answers["q"] == answers["e"] == answers["late"] == (3.0, 1, True)


def test_attach_to_empty_sas_reads_no_clock():
    def no_clock():
        raise AssertionError("clock read while attaching to an empty SAS")

    eng = MultiQuestionEngine()
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ("A",))))
    eng.attach_sas(ActiveSentenceSet(clock=no_clock))
    assert (sub.watcher.satisfied, sub.watcher.transitions) == (False, 0)


def test_attach_refuses_an_engine_with_members_history_or_a_sas():
    # the engine is bound to the SAS's sentence table: ids of two tables
    # must not mix, so only a fresh engine observing no SAS attaches
    seeded = MultiQuestionEngine()
    seeded.seed([(A_SUM, 1.0)])
    replayed = MultiQuestionEngine()
    sas = ActiveSentenceSet(clock=ManualClock())
    hook = replayed.attach_sas(sas)
    sas.activate(A_SUM)
    sas.deactivate(A_SUM)
    replayed.detach_sas(sas, hook)
    sas.activate(A_SUM)  # detached: no longer fed
    assert (replayed.membership_changes, replayed.fresh) == (2, False)
    attached = MultiQuestionEngine()
    attached.attach_sas(ActiveSentenceSet())
    assert attached.fresh
    for eng in (seeded, replayed, attached):
        with pytest.raises(ValueError, match="attach a fresh one"):
            eng.attach_sas(ActiveSentenceSet())


def test_attached_watchers_update_before_transition_hooks():
    # a hook registered before the attach still reads up-to-date watchers
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    seen = []
    sas.on_transition.append(lambda _sent, up, _now: seen.append((up, sub.watcher.satisfied)))
    eng = MultiQuestionEngine()
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ("A",))))
    eng.attach_sas(sas)
    clock.t = 1.0
    sas.activate(A_SUM)
    clock.t = 2.0
    sas.deactivate(A_SUM)
    assert seen == [(True, True), (False, False)]


def test_attach_refiles_conjunction_waiting_on_seeded_node():
    # the conjunction waits on {A Sum}, its first zero node; seeding makes
    # that node non-zero, so it must move on to wait for {Processor_0 Send}
    eng = MultiQuestionEngine()
    sub = eng.subscribe(PerformanceQuestion("q", (
        SentencePattern("Sum", ("A",)), SentencePattern("Send", ("Processor_0",)),
    )))
    clock = ManualClock()
    sas = ActiveSentenceSet(clock=clock)
    clock.t = 1.0
    sas.activate(A_SUM)
    eng.attach_sas(sas)
    clock.t = 2.0
    sas.activate(P_SEND)
    clock.t = 3.0
    sas.deactivate(P_SEND)
    assert (sub.watcher.transitions, sub.watcher.satisfied_time) == (2, 1.0)


def test_ordered_midrun_reuses_boolean_nodes_correctly():
    # nodes first referenced only by boolean questions do not maintain
    # activation entries; an OrderedQuestion subscribed mid-run that reuses
    # them must still see the true activation history (rebuilt from live
    # membership), matching the oracle's question attached at the same
    # moment
    clock, sas, eng = make_pair()
    both = OracleMirror(clock, sas)
    pat_a = SentencePattern("Sum", ("A",))
    pat_exec = SentencePattern("Executes", ())
    eng.subscribe(QAtom(pat_a), name="bool_a")
    eng.subscribe(QAtom(pat_exec), name="bool_exec")
    clock.t = 1.0
    both.activate(A_SUM)
    clock.t = 2.0
    both.activate(LINE)
    q = OrderedQuestion("ord", (pat_a, pat_exec))
    dedicated = both.oracle.attach_question(q)
    sub = eng.subscribe(q, now=sas.clock())
    assert dedicated.satisfied  # A (1.0) precedes Executes (2.0)
    assert sub.watcher.satisfied
    script = [
        (3.0, A_SUM, False), (4.0, A_SUM, True),   # order now violated
        (5.0, LINE, False), (6.0, LINE, True),     # order restored
    ]
    for t, sent, up in script:
        clock.t = t
        (both.activate if up else both.deactivate)(sent)
        assert sub.watcher.satisfied == dedicated.satisfied
    assert (dedicated.transitions, dedicated.satisfied_time) == (
        sub.watcher.transitions, sub.watcher.satisfied_time
    )


def test_deactivate_unknown_raises():
    eng = MultiQuestionEngine()
    step = feed(eng)
    with pytest.raises(ValueError):
        step(A_SUM, False, 1.0)


# ----------------------------------------------------------------------
# intervals and answers
# ----------------------------------------------------------------------
def test_intervals_and_answers_close_open_interval():
    eng = MultiQuestionEngine()
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ())), name="q")
    step = feed(eng)
    closed = []
    sub.watcher.on_interval.append(lambda s, e: closed.append((s, e)))
    step(A_SUM, True, 1.0)
    step(A_SUM, False, 3.0)
    step(B_SUM, True, 5.0)
    # one closed interval; the open one starts at satisfied_since
    assert closed == [(1.0, 3.0)]
    assert sub.watcher.satisfied and sub.watcher.satisfied_since == 5.0
    sat_time, transitions, at_end = eng.answers(8.0)["q"]
    assert sat_time == 5.0 and transitions == 3 and at_end
    # answers() must not mutate watcher state
    assert eng.answers(9.0)["q"][0] == 6.0


def test_interval_callbacks_fire_on_close():
    eng = MultiQuestionEngine()
    sub = eng.subscribe(QAtom(SentencePattern("Sum", ())), name="q")
    step = feed(eng)
    seen = []
    sub.watcher.on_interval.append(lambda s, e: seen.append((s, e)))
    step(A_SUM, True, 1.0)
    step(A_SUM, False, 4.0)
    assert seen == [(1.0, 4.0)]


# ----------------------------------------------------------------------
# sharding
# ----------------------------------------------------------------------
def test_hash_ring_stable_and_total():
    ring = HashRing(4)
    keys = [("n", f"N{i}") for i in range(64)]
    owners = [ring.shard_for(k) for k in keys]
    assert owners == [HashRing(4).shard_for(k) for k in keys]  # deterministic
    assert set(owners) <= {0, 1, 2, 3}
    assert len(set(owners)) > 1  # spreads across shards


def test_hash_ring_minimal_movement():
    keys = [("n", f"N{i}") for i in range(200)]
    before = [HashRing(4).shard_for(k) for k in keys]
    after = [HashRing(5).shard_for(k) for k in keys]
    moved = sum(1 for b, a in zip(before, after, strict=True) if b != a)
    # consistent hashing: growing 4 -> 5 shards moves ~1/5 of keys, not most
    assert moved < len(keys) // 2


def test_sharded_engine_same_answers():
    questions = [
        PerformanceQuestion(f"q{i}", (SentencePattern("Sum", (n,)),
                                      SentencePattern("Executes", ())))
        for i, n in enumerate(("A", "B"))
    ]
    script = [
        (1.0, A_SUM, True), (2.0, LINE, True), (3.0, B_SUM, True),
        (4.0, A_SUM, False), (5.0, LINE, False), (6.0, B_SUM, False),
    ]
    results = []
    for shards in (1, 2, 5):
        eng = MultiQuestionEngine(shards=shards)
        for q in questions:
            eng.subscribe(q)
        step = feed(eng)
        for t, sent, up in script:
            step(sent, up, t)
        results.append(eng.answers(7.0))
        assert len(eng.shards) == shards
    assert results[0] == results[1] == results[2]


def test_unrouted_shards_untouched():
    eng = MultiQuestionEngine(shards=8)
    eng.subscribe(QAtom(SentencePattern("Sum", ("A",))), name="a")
    eng.subscribe(QAtom(SentencePattern("Send", ("Processor_0",))), name="b")
    step = feed(eng)
    step(A_SUM, True, 1.0)
    step(A_SUM, False, 2.0)
    summary = eng.shard_summary()
    touched = [k for k, n in enumerate(summary["touches_per_shard"]) if n]
    populated = [k for k, n in enumerate(summary["nodes_per_shard"]) if n]
    assert len(touched) == 1  # only {A Sum}'s shard saw the transition
    assert set(touched) <= set(populated)
