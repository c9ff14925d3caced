"""Static verdicts vs a dynamic oracle: zero disagreements allowed.

Two oracles, both independent re-derivations of what the static passes
claim:

* the flow verifier's per-source accounting (delivered / leaked /
  multipath, exact ``Fraction``\\ s) is checked against brute-force
  enumeration of *every* source-to-sink path -- a different algorithm
  (exhaustive DFS with per-path mass products) than the verifier's
  topological DP, so agreement is evidence, not tautology;
* a question that :func:`table_dead_patterns` calls dead for a recorded
  table must never fire when that table is actually replayed through the
  real engines (``MultiQuestionEngine`` live, ``evaluate_question_batch``
  retrospective) -- across >= 10 seeded random traces.
"""

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.analyze import table_dead_patterns, verify_graph
from repro.core import (
    ActiveSentenceSet,
    EventKind,
    MultiQuestionEngine,
    OrderedQuestion,
    PerformanceQuestion,
    Sentence,
    SentencePattern,
)
from repro.core.mapping import Mapping, MappingGraph
from repro.core.nouns import Noun, Verb
from repro.trace.retro import evaluate_question_batch
from repro.workloads.fuzz import random_trace

SEEDS = range(12)

# ----------------------------------------------------------------------
# random upward-oriented mapping graphs
# ----------------------------------------------------------------------
#: levels Lv0..Lv3 with rank == index; nodes live at a level and edges
#: only run strictly upward, so orientation is unambiguous and the graph
#: is a DAG by construction (the cyclic case has its own corpus witness)
LEVELS = [f"Lv{i}" for i in range(4)]
RANKS = {name: i for i, name in enumerate(LEVELS)}


def _node(idx: int, rank: int) -> Sentence:
    level = LEVELS[rank]
    return Sentence(Verb("Works", level), (Noun(f"n{idx}", level),))


@st.composite
def upward_graphs(draw):
    per_rank = draw(
        st.lists(st.integers(min_value=1, max_value=3), min_size=2, max_size=4)
    )
    nodes: list[tuple[int, Sentence]] = []
    idx = 0
    for rank, count in enumerate(per_rank):
        for _ in range(count):
            nodes.append((rank, _node(idx, rank)))
            idx += 1
    candidates = [
        (a, b)
        for (ra, a) in nodes
        for (rb, b) in nodes
        if ra < rb
    ]
    edges = draw(
        st.lists(
            st.sampled_from(candidates) if candidates else st.nothing(),
            min_size=1,
            max_size=min(10, len(candidates)),
            unique=True,
        )
    )
    return edges


def _oracle(edges):
    """Exhaustive path enumeration: the independent accounting."""
    succ: dict[str, list[str]] = {}
    nodes: dict[str, int] = {}
    indeg: dict[str, int] = {}
    for a, b in edges:
        ka, kb = str(a), str(b)
        nodes[ka] = RANKS[a.abstraction]
        nodes[kb] = RANKS[b.abstraction]
        if kb not in succ.setdefault(ka, []):
            succ[ka].append(kb)
        succ.setdefault(kb, [])
        indeg[kb] = indeg.get(kb, 0) + 1
        indeg.setdefault(ka, indeg.get(ka, 0))
    top = max(RANKS.values())
    sources = sorted(n for n in nodes if indeg[n] == 0 and succ[n])
    verdicts = {}
    for src in sources:
        delivered = Fraction(0)
        leaked = Fraction(0)
        arrivals: dict[str, int] = {}
        stack = [(src, Fraction(1))]
        while stack:
            node, mass = stack.pop()
            arrivals[node] = arrivals.get(node, 0) + 1
            nxts = succ[node]
            if not nxts:
                if nodes[node] == top:
                    delivered += mass
                else:
                    leaked += mass
                continue
            share = mass / len(nxts)
            for nxt in nxts:
                stack.append((nxt, share))
        multipath = any(n != src and c >= 2 for n, c in arrivals.items())
        verdicts[src] = (delivered, leaked, multipath)
    return verdicts


@settings(max_examples=120, deadline=None)
@given(upward_graphs())
def test_flow_verdicts_agree_with_path_enumeration(edges):
    graph = MappingGraph()
    graph.add_all([Mapping(a, b) for a, b in edges])
    report = verify_graph(graph, RANKS)
    expected = _oracle(edges)
    assert not report.cyclic
    assert report.sources == sorted(expected)
    for src, (delivered, leaked, multipath) in expected.items():
        verdict = report.verdicts[src]
        assert verdict.delivered == delivered, src
        assert verdict.leaked == leaked, src
        assert verdict.multipath == multipath, src
        # split discipline is exhaustive: no mass is ever lost in transit
        assert delivered + leaked == 1
    assert report.conservative == all(
        d == 1 and l == 0 and not m for d, l, m in expected.values()
    )
    # diagnostics mirror the verdicts exactly
    codes = sorted(d.code for d in report.diagnostics)
    want_017 = sum(m for *_, m in expected.values())
    assert codes.count("NV017") == want_017
    assert ("NV018" in codes) == any(l > 0 for _, l, _ in expected.values())


# ----------------------------------------------------------------------
# dead questions never fire: retrospective oracle over seeded traces
# ----------------------------------------------------------------------
def _questions(trace):
    """The questions the trace's first four sentences can fill (a trace
    with fewer sentences gets fewer questions)."""
    sents = sorted({e.sentence for e in trace.events()}, key=str)
    pats = [
        SentencePattern(s.verb.name, tuple(n.name for n in s.nouns))
        for s in sents[:4]
    ]
    ghost = SentencePattern("NoSuchVerb", ("no_such_noun",))
    questions = []
    if pats:
        questions += [
            PerformanceQuestion("live_conj", tuple(pats[:2])),
            PerformanceQuestion("half_dead", (pats[0], ghost)),
        ]
    questions.append(PerformanceQuestion("all_dead", (ghost,)))
    if len(pats) > 1:
        questions.append(OrderedQuestion("dead_ord", (pats[1], ghost)))
    if len(pats) > 2:
        questions.append(OrderedQuestion("live_ord", tuple(pats[2:4])))
    return questions


@pytest.mark.parametrize("seed", SEEDS)
def test_static_dead_verdicts_match_the_retrospective_oracle(seed):
    trace = random_trace(seed, events=250, nodes=2, sentences=12)
    table = sorted({e.sentence for e in trace.events()}, key=str)
    questions = _questions(trace)
    verdicts = {q.name: bool(table_dead_patterns(q, table)) for q in questions}
    assert verdicts["half_dead"] and verdicts["all_dead"] and verdicts["dead_ord"]
    assert not verdicts["live_conj"] and not verdicts["live_ord"]
    answers = evaluate_question_batch(trace, questions)
    for q in questions:
        if verdicts[q.name]:
            # a statically-dead question must be dynamically silent
            answer = answers[q.name]
            assert answer.transitions == 0, q.name
            assert answer.satisfied_time == 0.0, q.name


@pytest.mark.parametrize("seed", SEEDS)
def test_static_dead_verdicts_match_the_live_engine(seed):
    trace = random_trace(seed, events=250, nodes=2, sentences=12)
    table = sorted({e.sentence for e in trace.events()}, key=str)
    questions = _questions(trace)
    engine = MultiQuestionEngine()
    subs = {q.name: engine.subscribe(q, q.name) for q in questions}
    assert sorted(
        name
        for name, q in ((q.name, q) for q in questions)
        if table_dead_patterns(q, table)
    ) == engine.dead_subscriptions(table)
    # one SAS for every node counts depth across nodes
    now = [0.0]
    sas = ActiveSentenceSet(clock=lambda: now[0])
    engine.attach_sas(sas)
    for event in trace.events():
        now[0] = event.time
        if event.kind is EventKind.ACTIVATE:
            sas.activate(event.sentence)
        else:
            sas.deactivate(event.sentence)
    for q in questions:
        if table_dead_patterns(q, table):
            watcher = subs[q.name].watcher
            assert not watcher.satisfied, q.name
            assert watcher.transitions == 0, q.name


@given(
    st.integers(min_value=0, max_value=2**32 - 1),
    st.integers(min_value=20, max_value=120),
)
@example(981, 20)  # two distinct sentences: no room for live_ord
@settings(max_examples=40, deadline=None)
def test_dead_flag_is_sound_on_arbitrary_traces(seed, events):
    trace = random_trace(seed, events=events, nodes=1, sentences=8)
    table = sorted({e.sentence for e in trace.events()}, key=str)
    questions = _questions(trace)
    answers = evaluate_question_batch(trace, questions)
    for q in questions:
        if table_dead_patterns(q, table):
            assert answers[q.name].transitions == 0
            assert answers[q.name].satisfied_time == 0.0


# ----------------------------------------------------------------------
# proven-conservative graphs leak nothing dynamically
# ----------------------------------------------------------------------
def test_proven_conservative_graph_shows_no_dynamic_leak():
    from pathlib import Path

    from repro.analyze import analyze_flow, sanitize_trace
    from repro.pif import load as load_pif
    from repro.trace import open_trace

    repo = Path(__file__).resolve().parents[2]
    fig6 = repo / "benchmarks" / "out" / "sample_fig6.rtrcx"
    doc = load_pif(str(repo / "examples" / "fragment.pif"))
    report = analyze_flow(doc)
    assert report.conservative  # the static proof ...
    if not fig6.exists():
        pytest.skip("sample trace not present")
    diags = sanitize_trace(open_trace(str(fig6)), doc, "sample_fig6.rtrcx")
    # ... and the dynamic audit agree: no whole-level attribution leak
    assert not any(d.code == "NV013" for d in diags)
