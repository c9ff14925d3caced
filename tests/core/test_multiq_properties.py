"""Hypothesis property suite: the question engine vs the naive oracle.

For random question batches (QExpr trees with QNot, conjunctions, ordered
questions, plus subsumption-collapsed duplicates) and random valid
transition streams, every question's satisfied intervals, transition count,
and accumulated satisfied-time from the shared
:class:`~repro.core.multiq.MultiQuestionEngine` must equal the
``tests/core/oracle.py`` oracle that re-evaluates ``QExpr.evaluate`` /
``satisfied`` over the full active set after every membership change -- the
engine's watched conjunctions, dirty bits, key-routed lattice pruning,
memoized matching, sharding, and subscription dedup must all be pure
optimizations, and the lattice itself must equal a brute-force pairwise
subsumption check.  The same holds end to end: live SAS questions equal
both the oracle and a retrospective replay of the run's recorded trace.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    ActiveSentenceSet,
    MultiQuestionEngine,
    Noun,
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QNot,
    QOr,
    SentencePattern,
    Trace,
    Verb,
    sentence,
)
from repro.trace.retro import evaluate_questions, question_name

from .oracle import NaiveSAS, NaiveWatcher, naive_eval

VERBS = ["V0", "V1", "V2"]
NOUNS = ["N0", "N1", "N2", "N3"]
LEVELS = {"V0": "L0", "V1": "L0", "V2": "L1"}

SENTENCES = [
    sentence(Verb(v, LEVELS[v]), *(Noun(n, LEVELS[v]) for n in nouns))
    for v in VERBS
    for nouns in ([], ["N0"], ["N1"], ["N0", "N1"], ["N2", "N3"])
]

patterns = st.builds(
    SentencePattern,
    st.sampled_from(VERBS + ["?"]),
    st.lists(st.sampled_from(NOUNS + ["?"]), max_size=2).map(tuple),
    st.sampled_from([None, "L0", "L1"]),
)


def exprs(depth: int = 2):
    leaf = st.builds(QAtom, patterns)
    if depth == 0:
        return leaf
    sub = exprs(depth - 1)
    return st.one_of(
        leaf,
        st.builds(QNot, sub),
        st.builds(QAnd, st.lists(sub, min_size=2, max_size=3).map(tuple)),
        st.builds(QOr, st.lists(sub, min_size=2, max_size=3).map(tuple)),
    )


def _pq(components):
    return PerformanceQuestion("pq", tuple(components))


def _oq(components):
    return OrderedQuestion("oq", tuple(components))


questions = st.one_of(
    exprs(),
    st.builds(_pq, st.lists(patterns, min_size=1, max_size=3)),
    st.builds(_oq, st.lists(patterns, min_size=1, max_size=3)),
)

#: a transition script: sentence indices; the driver resolves each index to
#: activate (if inactive) or deactivate (if active), so scripts are always
#: valid, and odd indices occasionally re-activate for nesting coverage
scripts = st.lists(
    st.tuples(st.integers(0, len(SENTENCES) - 1), st.booleans()),
    max_size=40,
)


def collect_intervals(watcher):
    """The watcher's closed intervals, collected as they close."""
    closed = []
    watcher.on_interval.append(lambda start, end: closed.append((start, end)))
    return closed


def closed_at(watcher, closed, end):
    """``closed`` plus the watcher's open interval (if any) closed at ``end``."""
    if watcher.satisfied:
        return closed + [(watcher.satisfied_since, end)]
    return closed


def with_duplicates(batch):
    """The engine-facing batch: every question twice (dedup must collapse
    them), plus a broadened copy of each conjunction (subsumption edges)."""
    out = list(batch)
    out.extend(batch)
    for q in batch:
        if isinstance(q, PerformanceQuestion):
            broad = tuple(
                SentencePattern(p.verb, (), p.level) for p in q.components
            )
            out.append(PerformanceQuestion("broad", broad))
    return out


@given(st.lists(questions, min_size=1, max_size=16), scripts, st.sampled_from([1, 3]))
@settings(max_examples=150, deadline=None)
def test_engine_equals_naive_oracle(batch, script, shards):
    engine = MultiQuestionEngine(shards=shards)
    subs = [engine.subscribe(q, name=f"q{i}") for i, q in enumerate(with_duplicates(batch))]
    closed = [collect_intervals(sub.watcher) for sub in subs]
    fired = []  # (time, sub_id) of every flip, in firing order
    for sub in {sub.sub_id: sub for sub in subs}.values():
        for hooks in (sub.watcher.on_satisfied, sub.watcher.on_unsatisfied):
            hooks.append(lambda now, sub_id=sub.sub_id: fired.append((now, sub_id)))

    oracle = [NaiveWatcher() for _ in subs]
    oracle_qs = with_duplicates(batch)
    for w, q in zip(oracle, oracle_qs, strict=True):
        w.apply(naive_eval(q, []), 0.0)

    depth = {}
    active = []  # (sentence, outermost activation time), activation order
    t = 0.0
    for idx, prefer_nested in script:
        sent = SENTENCES[idx]
        t += 1.0
        if depth.get(sent, 0) and not prefer_nested:
            d = depth[sent] - 1
            depth[sent] = d
            if d == 0:
                engine.membership_change_sid(engine.table.sid(sent), False, t)
                active = [(s, at) for s, at in active if s != sent]
        else:
            d = depth.get(sent, 0)
            depth[sent] = d + 1
            if d == 0:
                engine.membership_change_sid(engine.table.sid(sent), True, t)
                active.append((sent, t))
            else:
                continue  # nested re-activation: no membership change
        for w, q in zip(oracle, oracle_qs, strict=True):
            w.apply(naive_eval(q, active), t)

    end = t + 1.0
    for sub, ivs, w in zip(subs, closed, oracle, strict=True):
        mw = sub.watcher
        assert mw.satisfied == w.satisfied
        assert mw.transitions == w.transitions
        assert mw.satisfied_time == w.satisfied_time  # exact, not approx
        assert closed_at(mw, ivs, end) == w.closed_intervals(end)
    # the watchers one membership change flips fire in subscription order
    assert fired == sorted(fired)


@given(st.lists(patterns, max_size=12), st.sampled_from([1, 3]))
@settings(max_examples=150, deadline=None)
def test_lattice_equals_brute_force(pats, shards):
    """The indexed lattice holds exactly the subsumption edges between the
    nodes of each shard, its keyed roots are exactly the nodes without
    parents, and root-routed matching finds exactly the matching nodes."""
    engine = MultiQuestionEngine(shards=shards)
    for p in pats:
        engine.subscribe(QAtom(p))
    nodes = engine.nodes
    for shard in engine.shards:
        for n in (nodes[i] for i in shard.nids):
            assert n.children == [
                m for m in shard.nids if m != n.pid and n.pattern.subsumes(nodes[m].pattern)
            ]
            assert n.parents == [
                m for m in shard.nids if m != n.pid and nodes[m].pattern.subsumes(n.pattern)
            ]
        roots = sorted(nid for ids in shard.roots.values() for nid in ids)
        assert roots == [i for i in shard.nids if not nodes[i].parents]
        for key, ids in shard.roots.items():
            assert all(nodes[i].pattern.index_key() == key for i in ids)
    for sent in SENTENCES:
        assert engine._match_nodes(engine.table.sid(sent)) == tuple(
            n.pid for n in nodes if n.pattern.matches(sent)
        )


@given(
    st.lists(questions, min_size=1, max_size=3),
    st.lists(questions, min_size=1, max_size=3),
    scripts,
    st.integers(0, 40),
    st.sampled_from([1, 3]),
)
@settings(max_examples=100, deadline=None)
def test_midrun_subscription_equals_naive_oracle(warmup, late, script, split, shards):
    """Questions subscribed mid-run -- reusing nodes the warmup batch
    created (including boolean-only nodes an ordered question attaches to)
    -- must match an oracle that starts accumulating at subscription time."""
    split = min(split, len(script))
    engine = MultiQuestionEngine(shards=shards)
    for i, q in enumerate(with_duplicates(warmup)):
        engine.subscribe(q, name=f"w{i}")

    depth = {}
    active = []  # (sentence, outermost activation time), activation order
    t = 0.0

    def drive(part):
        """Feed transitions; yield ``t`` after each membership change."""
        nonlocal t
        for idx, prefer_nested in part:
            sent = SENTENCES[idx]
            t += 1.0
            if depth.get(sent, 0) and not prefer_nested:
                d = depth[sent] - 1
                depth[sent] = d
                if d == 0:
                    engine.membership_change_sid(engine.table.sid(sent), False, t)
                    active[:] = [(s, at) for s, at in active if s != sent]
                    yield t
            else:
                d = depth.get(sent, 0)
                depth[sent] = d + 1
                if d == 0:
                    engine.membership_change_sid(engine.table.sid(sent), True, t)
                    active.append((sent, t))
                    yield t

    for _ in drive(script[:split]):
        pass

    late_qs = with_duplicates(late)
    # deliberately reuse warmup-interned patterns as ordered questions: the
    # engine must not trust entry lists of nodes that had no ordered
    # subscribers while the prefix ran
    for q in warmup:
        if isinstance(q, PerformanceQuestion):
            late_qs.append(OrderedQuestion("reuse", q.components))
        elif isinstance(q, QAtom):
            late_qs.append(OrderedQuestion("reuse", (q.pattern,)))
    subs = [engine.subscribe(q, name=f"l{i}", now=t) for i, q in enumerate(late_qs)]
    closed = [collect_intervals(sub.watcher) for sub in subs]
    oracle = [NaiveWatcher() for _ in subs]
    for w, q in zip(oracle, late_qs, strict=True):
        w.apply(naive_eval(q, active), t)

    for now in drive(script[split:]):
        for w, q in zip(oracle, late_qs, strict=True):
            w.apply(naive_eval(q, active), now)

    end = t + 1.0
    for sub, ivs, w in zip(subs, closed, oracle, strict=True):
        mw = sub.watcher
        assert mw.satisfied == w.satisfied
        assert mw.transitions == w.transitions
        assert mw.satisfied_time == w.satisfied_time
        assert closed_at(mw, ivs, end) == w.closed_intervals(end)


@given(
    st.lists(questions, min_size=1, max_size=4),
    st.lists(questions, max_size=3),
    scripts,
    st.integers(0, 40),
    st.lists(patterns, max_size=2),
)
@settings(max_examples=150, deadline=None)
def test_live_sas_equals_retro_replay_and_oracle(batch, late, script, split, interest_patterns):
    """Live ``attach_question`` answers -- nesting and an interest filter
    included -- equal the naive oracle and ``evaluate_questions`` over the
    run's recorded trace, float for float; questions attached mid-run
    (seeded from current membership, stamped with the SAS clock) equal
    the oracle's."""
    def interest(sent):
        return any(p.matches(sent) for p in interest_patterns)

    now = [0.0]
    recorded = Trace()
    sas = ActiveSentenceSet(
        clock=lambda: now[0],
        interest=interest if interest_patterns else None,
        trace=recorded,
    )
    oracle = NaiveSAS(clock=lambda: now[0], interest=sas.interest)
    live = [sas.attach_question(q) for q in batch]
    naive = [oracle.attach_question(q) for q in batch]

    def attach_late():
        now[0] += 0.5
        live.extend(sas.attach_question(q) for q in late)
        naive.extend(oracle.attach_question(q) for q in late)

    split = min(split, len(script))
    for step, (idx, prefer_nested) in enumerate(script):
        if step == split:
            attach_late()
        sent = SENTENCES[idx]
        now[0] += 1.0
        if sas.is_active(sent) and not prefer_nested:
            sas.deactivate(sent)
            oracle.deactivate(sent)
        else:
            sas.activate(sent)
            oracle.activate(sent)
        assert [w.satisfied for w in live] == [w.satisfied for w in naive]
    if split == len(script):
        attach_late()

    end = now[0] + 1.0
    for w, n in zip(live, naive, strict=True):
        assert (w.total_satisfied_time(end), w.transitions, w.satisfied) == (
            n.total_satisfied_time(end), n.transitions, n.satisfied
        )
    for q, w in zip(batch, live[: len(batch)], strict=True):
        # one question per call: distinct QExprs can render to one name
        # (pattern strings omit the level), and answers are keyed by name
        answer = evaluate_questions(recorded, [q], end_time=end)[question_name(q)]
        assert (w.total_satisfied_time(end), w.transitions, w.satisfied) == (
            answer.satisfied_time, answer.transitions, answer.satisfied_at_end
        )
