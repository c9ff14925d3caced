"""Property-based tests (hypothesis) for core-model invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    CPU_TIME,
    ActiveSentenceSet,
    CostVector,
    Mapping,
    MappingGraph,
    MergePolicy,
    Noun,
    PerformanceQuestion,
    Sentence,
    SentencePattern,
    SplitPolicy,
    Verb,
    Vocabulary,
    assign_costs,
    sentence,
)

from .oracle import NaiveSAS

# ----------------------------------------------------------------------
# cost vectors
# ----------------------------------------------------------------------
costs = st.floats(min_value=0.0, max_value=1e6, allow_nan=False)


@given(costs, costs, costs)
def test_cost_addition_associative_commutative(a, b, c):
    va, vb, vc = (CostVector({CPU_TIME: x}) for x in (a, b, c))
    assert (va + vb).approx_equal(vb + va)
    assert ((va + vb) + vc).approx_equal(va + (vb + vc), tol=1e-6)


@given(costs, st.floats(min_value=0.0, max_value=100.0), st.floats(min_value=0.0, max_value=100.0))
def test_scaling_composes(v, f1, f2):
    vec = CostVector({CPU_TIME: v})
    assert vec.scaled(f1).scaled(f2).approx_equal(vec.scaled(f1 * f2), tol=max(1.0, v) * 1e-6)


@given(costs, st.integers(min_value=1, max_value=20))
def test_even_split_conserves(v, n):
    vec = CostVector({CPU_TIME: v})
    shares = [vec.scaled(1.0 / n) for _ in range(n)]
    total = CostVector()
    for s in shares:
        total = total + s
    assert total.approx_equal(vec, tol=max(1.0, v) * 1e-9)


# ----------------------------------------------------------------------
# cost assignment over random bipartite mapping graphs
# ----------------------------------------------------------------------
EXEC = Verb("Executes", "HI")
CPU = Verb("CPU", "LO")


def _line(i):
    return sentence(EXEC, Noun(f"line{i}", "HI"))


def _func(i):
    return sentence(CPU, Noun(f"f{i}", "LO"))


graph_strategy = st.lists(
    st.tuples(st.integers(0, 5), st.integers(0, 5)), min_size=1, max_size=20
)
measure_strategy = st.dictionaries(st.integers(0, 5), costs, min_size=1, max_size=6)


@given(graph_strategy, measure_strategy)
@settings(max_examples=200, deadline=None)
def test_assignment_conserves_cost_under_both_policies(edges, measures):
    graph = MappingGraph()
    for lo, hi in edges:
        graph.add(Mapping(_func(lo), _line(hi)))
    measured = [(_func(i), CostVector({CPU_TIME: v})) for i, v in measures.items()]
    expected = sum(measures.values())
    for policy in (SplitPolicy(), MergePolicy()):
        att = assign_costs(measured, graph, policy)
        assert abs(att.total().get(CPU_TIME) - expected) <= max(1.0, expected) * 1e-9


@given(graph_strategy, measure_strategy)
@settings(max_examples=100, deadline=None)
def test_merge_never_invents_per_sentence_costs_for_shared_blocks(edges, measures):
    graph = MappingGraph()
    for lo, hi in edges:
        graph.add(Mapping(_func(lo), _line(hi)))
    measured = [(_func(i), CostVector({CPU_TIME: v})) for i, v in measures.items()]
    att = assign_costs(measured, graph, MergePolicy())
    for sent in att.per_sentence:
        if sent.verb == EXEC:  # a high-level destination got a direct cost
            srcs, dsts = graph.component(sent)
            assert len(dsts) == 1  # only singleton destinations may be direct


# ----------------------------------------------------------------------
# SAS invariants under random balanced notification sequences
# ----------------------------------------------------------------------
SUM = Verb("Sum", "HI")
NOUNS = [Noun(n, "HI") for n in "ABCDE"]
SENTS = [sentence(SUM, n) for n in NOUNS]


@given(st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=120))
def test_sas_matches_reference_multiset(ops):
    sas = ActiveSentenceSet()
    depth = [0] * len(SENTS)
    for idx, is_activate in ops:
        if is_activate:
            sas.activate(SENTS[idx])
            depth[idx] += 1
        else:
            if depth[idx] == 0:
                continue  # would raise; skip unbalanced
            sas.deactivate(SENTS[idx])
            depth[idx] -= 1
        for i, s in enumerate(SENTS):
            assert sas.activation_depth(s) == depth[i]
            assert sas.is_active(s) == (depth[i] > 0)
    assert len(sas) == sum(1 for d in depth if d > 0)
    # active_sentences has no duplicates and only active entries
    active = sas.active_sentences()
    assert len(set(active)) == len(active)


@given(st.lists(st.integers(0, 4), min_size=1, max_size=30))
def test_watcher_satisfied_iff_question_satisfied(indices):
    sas = ActiveSentenceSet()
    q = PerformanceQuestion(
        "q", (SentencePattern("Sum", ("A",)), SentencePattern("Sum", ("B",)))
    )
    w = sas.attach_question(q)
    for idx in indices:
        sas.activate(SENTS[idx])
        assert w.satisfied == q.satisfied(sas.active_sentences())
    for idx in reversed(indices):
        sas.deactivate(SENTS[idx])
        assert w.satisfied == q.satisfied(sas.active_sentences())
    assert not w.satisfied


# ----------------------------------------------------------------------
# questions: vector form equals boolean-expression form
# ----------------------------------------------------------------------
pattern_strategy = st.builds(
    SentencePattern,
    verb=st.sampled_from(["Sum", "?", "Exec"]),
    nouns=st.tuples(st.sampled_from(["A", "B", "?"])),
)


@given(st.lists(pattern_strategy, min_size=1, max_size=4), st.lists(st.integers(0, 4), max_size=5))
def test_question_equals_expression_form(patterns, active_idx):
    q = PerformanceQuestion("q", tuple(patterns))
    active = [SENTS[i] for i in active_idx]
    assert q.satisfied(active) == q.as_expr().evaluate(active)


# ----------------------------------------------------------------------
# SAS and its full-rescan oracle: round-trips, interning
# ----------------------------------------------------------------------
ops_strategy = st.lists(st.tuples(st.integers(0, 4), st.booleans()), max_size=100)


@given(ops_strategy)
def test_sas_multiset_roundtrip_unwinds_to_empty(ops):
    """Balanced ops + a full unwind leave the SAS and the oracle exactly empty."""
    for engine in (ActiveSentenceSet, NaiveSAS):
        sas = engine(vocabulary=Vocabulary())
        depth = [0] * len(SENTS)
        for idx, is_activate in ops:
            if is_activate:
                sas.activate(SENTS[idx])
                depth[idx] += 1
            elif depth[idx] > 0:
                sas.deactivate(SENTS[idx])
                depth[idx] -= 1
        for idx, d in enumerate(depth):
            for _ in range(d):
                sas.deactivate(SENTS[idx])
        assert len(sas) == 0
        assert sas.active_sentences() == ()
        assert sas.active_with_times() == []
        assert all(not sas.is_active(s) for s in SENTS)


verb_strategy = st.sampled_from(["Sum", "Exec", "Send"])
noun_names_strategy = st.lists(st.sampled_from("ABCDE"), max_size=3)


@given(verb_strategy, noun_names_strategy, st.integers(0, 3))
def test_interning_idempotent(verb_name, noun_names, extra_copies):
    vocab = Vocabulary()
    s = sentence(Verb(verb_name, "HI"), *[Noun(n, "HI") for n in noun_names])
    canonical = vocab.intern(s)
    assert vocab.intern(s) is canonical
    for _ in range(extra_copies + 1):
        copy = Sentence(s.verb, tuple(s.nouns))  # structurally equal, new object
        assert copy == s and hash(copy) == hash(s)
        assert vocab.intern(copy) is canonical
    assert vocab.interned_count() == 1
