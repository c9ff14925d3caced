"""The answer contract, end to end on generated CMF programs.

A performance question gets one answer however it is asked: live, from the
SAS watchers of the run itself; post-mortem, from the run's ``.rtrcx``
recording through ``evaluate_question_batch``; from a ``repro serve``
batch over that recording; and, for a question that exactly one sentence
satisfies, from that sentence's flattened intervals, serial or with
``jobs=2``.  The naive full-rescan SAS of ``tests/core/oracle.py``,
replaying the recorded events, is the reference for all of them.

Each seed generates a ``random_program`` and runs it on 1-6 nodes under
``Paradyn`` with SAS-gated metric requests, asking questions drawn from
the run's own sentence table: single sentences, cross-level conjunctions,
wildcards, ordered questions and node filters -- the mix perfbench's
``trace`` workload asks.  A first run of the same program finds the
table; the second asks the questions and records.  The heavier seeds run
with ``-m contract_heavy``.
"""

from __future__ import annotations

import asyncio
import random
from dataclasses import dataclass

import numpy
import pytest

from repro.cmfortran import compile_source
from repro.core import OrderedQuestion, PerformanceQuestion
from repro.paradyn import Paradyn
from repro.serve import QuestionSpec, ServeServer, TraceSource, _client_session
from repro.trace import ColumnarTraceWriter, open_trace, parse_pattern
from repro.trace.retro import evaluate_question_batch, sentence_intervals
from repro.workloads import random_program

from ..core.oracle import naive_answers

#: seeds every tier-1 run checks; ``contract_heavy`` adds the rest
SEEDS = range(6)
HEAVY_SEEDS = range(6, 30)
#: small segments, so replays cross snapshots and ``jobs=2`` really splits
SEGMENT_RECORDS = 256


@dataclass(frozen=True)
class Spec:
    """One generated question and the node its live watcher sits on."""

    name: str
    patterns: tuple[str, ...]
    ordered: bool
    node: int

    def question(self):
        cls = OrderedQuestion if self.ordered else PerformanceQuestion
        return cls(self.name, tuple(parse_pattern(p) for p in self.patterns))

    def wire(self) -> QuestionSpec:
        return QuestionSpec(patterns=self.patterns, ordered=self.ordered, name=self.name)


def _pattern(sentence, wildcard: bool = False) -> str:
    nouns = ["?"] if wildcard else [n.name for n in sentence.nouns]
    return "{" + " ".join([*nouns, sentence.verb.name]) + "}@" + sentence.abstraction


class _Collect:
    """Recorder collecting the sentences a run's transitions carry."""

    def __init__(self) -> None:
        self.n = 0
        self.sentences: set = set()

    def transition(self, _time, _kind, sentence, _node_id) -> None:
        self.n += 1
        self.sentences.add(sentence)


def _tool(program, nodes: int, metrics) -> Paradyn:
    tool = Paradyn.for_program(program, num_nodes=nodes)
    for metric, focus in metrics:
        tool.request_metric(metric, focus=focus)
    return tool


def _plan(rng: random.Random, table: list, nodes: int) -> list[Spec]:
    by_level: dict[str, list] = {}
    for sent in table:
        by_level.setdefault(sent.abstraction, []).append(sent)
    levels = sorted(by_level)

    def pick(level=None):
        return rng.choice(by_level[level or rng.choice(levels)])

    def across(k: int) -> tuple[str, ...]:
        return tuple(_pattern(pick(level)) for level in rng.sample(levels, min(k, len(levels))))

    makers = [
        lambda: ((_pattern(pick()),), False),
        lambda: (across(2), False),
        lambda: (across(3), False),
        lambda: ((_pattern(pick(), wildcard=True), _pattern(pick())), False),
        lambda: ((_pattern(pick(), wildcard=True),), False),
        lambda: (across(2), True),
        lambda: ((_pattern(pick()), _pattern(pick(), wildcard=True)), True),
    ]
    return [
        Spec(f"q{i}", *make(), node=rng.randrange(nodes))
        for i, make in enumerate(makers * 2)
    ]


def _triples(answers) -> dict[str, tuple]:
    return {
        name: (a.satisfied_time, a.transitions, a.satisfied_at_end)
        for name, a in answers.items()
    }


def _naive(events, questions, end_time=None, node=None) -> dict[str, tuple]:
    return {
        name: value[:3]
        for name, value in naive_answers(events, questions, end_time, node).items()
    }


async def _serve(path: str, clients: list[list[Spec]], node: int | None):
    server = ServeServer(TraceSource(path, node=node), subscribers=len(clients), once=True)
    task = asyncio.create_task(server.serve())
    while server.port == 0 and not task.done():
        await asyncio.sleep(0.01)
    if task.done():
        task.result()
    results = await asyncio.gather(
        *(_client_session("127.0.0.1", server.port, [s.wire() for s in specs], stream=True)
          for specs in clients)
    )
    await asyncio.wait_for(task, timeout=30)
    return results


def _served(path: str, specs: list[Spec], node: int | None) -> dict[str, tuple]:
    """Answers of one two-client serve batch; streamed intervals must sum
    exactly to each summary."""
    clients = [specs[::2], specs[1::2]]
    out: dict[str, tuple] = {}
    for payload, divergence in asyncio.run(_serve(path, clients, node)):
        assert divergence == 0
        for name, a in payload["questions"].items():
            out[name] = (a["satisfied_time"], a["transitions"], a["satisfied_at_end"])
    return out


def _check_contract(seed: int, tmp_path) -> None:
    rng = random.Random(f"contract:{seed}")
    nodes = 1 + seed % 6
    program = compile_source(random_program(seed), "contract.cmf")
    arrays = sorted(program.symbols.arrays)
    metrics = [
        ("summation_time", {"array": rng.choice(arrays)}),
        ("computation_time", {"array": rng.choice(arrays)}),
    ]

    # first run: the run's own sentence table
    tool = _tool(program, nodes, metrics)
    collect = _Collect()
    for sas in tool.sases:
        sas.attach_recorder(collect)
    with numpy.errstate(all="ignore"):
        tool.run()
    table = sorted(collect.sentences, key=str)
    specs = _plan(rng, table, nodes)

    # second run: the same program asks the questions live and records
    tool = _tool(program, nodes, metrics)
    live = {s.name: tool.ask_question(s.question(), node=s.node).watchers[s.node] for s in specs}
    path = tmp_path / f"contract{seed}.rtrcx"
    writer = ColumnarTraceWriter(path, segment_records=SEGMENT_RECORDS)
    tool.record_to(writer)
    with numpy.errstate(all="ignore"):
        tool.run()
    writer.close()
    end = tool.elapsed
    # asking questions costs no virtual time: the same transitions recorded
    assert writer.transitions == collect.n

    with open_trace(path) as reader:
        assert sorted(reader.sentences, key=str) == table
        events = list(reader.events())

        # live watchers == node-filtered replay == naive oracle, per node
        for node in sorted({s.node for s in specs}):
            on_node = [s for s in specs if s.node == node]
            questions = [s.question() for s in on_node]
            retro = _triples(evaluate_question_batch(reader, questions, node=node, end_time=end))
            watched = {
                s.name: (
                    live[s.name].total_satisfied_time(end),
                    live[s.name].transitions,
                    live[s.name].satisfied,
                )
                for s in on_node
            }
            assert retro == watched, f"seed {seed}, node {node}"
            assert retro == _naive(events, questions, end, node)

        # whole-run replay == naive oracle == a serve batch; a node-filtered
        # serve batch == the node-filtered replay at its default end time
        questions = [s.question() for s in specs]
        retro = _triples(evaluate_question_batch(reader, questions))
        assert any(transitions for _, transitions, _ in retro.values())
        assert retro == _naive(events, questions)
        assert _served(str(path), specs, None) == retro
        node = specs[0].node
        on_node = [s for s in specs if s.node == node]
        assert _served(str(path), on_node, node) == _triples(
            evaluate_question_batch(reader, [s.question() for s in on_node], node=node)
        )

        # a question one sentence alone satisfies == that sentence's
        # flattened intervals, summed in order; jobs=2 flattens identically
        serial = sentence_intervals(reader)
        assert list(serial.items()) == list(sentence_intervals(reader, jobs=2).items())
        single = {}
        for sent in table:
            pattern = parse_pattern(_pattern(sent))
            if sum(pattern.matches(s) for s in table) == 1:
                single[str(sent)] = sent
        answers = evaluate_question_batch(
            reader,
            [PerformanceQuestion(name, (parse_pattern(_pattern(s)),)) for name, s in single.items()],
        )
        for name, sent in single.items():
            a = answers[name]
            ivs = serial.get(sent, [])
            assert a.satisfied_time == sum(e - s for s, e in ivs), name
            assert a.transitions == 2 * len(ivs) - a.satisfied_at_end, name


@pytest.mark.parametrize("seed", SEEDS)
def test_answers_agree_everywhere(seed, tmp_path):
    _check_contract(seed, tmp_path)


@pytest.mark.contract_heavy
@pytest.mark.parametrize("seed", HEAVY_SEEDS)
def test_answers_agree_everywhere_heavy(seed, tmp_path, request):
    if "contract_heavy" not in (request.config.getoption("markexpr") or ""):
        pytest.skip("opt-in: run with -m contract_heavy")
    _check_contract(seed, tmp_path)
