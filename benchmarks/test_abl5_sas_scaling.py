"""Ablation 5: SAS operation cost vs active-set size and question count.

The SAS sits on the application's critical path, so its per-notification
cost matters.  This bench measures real (host) time for activate/deactivate
cycles while scaling (a) the number of concurrently active sentences and
(b) the number of attached questions, unrelated to the probe sentence or
(c) sharing its pattern node.

Expected shape: per-op cost is roughly flat in the active-set size (dict
operations) AND roughly flat in the number of attached questions -- the
SAS's question engine routes a transition only to the pattern nodes that
could match it (key-routed lattice roots, a memoized per-sentence match
set), so unrelated questions cost nothing; and a conjunction waits on one
of its zero-count nodes, so the probe's flips skip every question that
shares its node but still waits on a never-active sentence.  (The seed
engine re-touched every watcher per transition, and the engine before
watched conjunctions re-evaluated every question on a flipped node; both
read as ~linear growth here; abl5b records the head-to-head against the
full-rescan oracle.)
"""

import time

from repro.core import ActiveSentenceSet, Noun, PerformanceQuestion, SentencePattern, Verb, sentence
from repro.paradyn import text_table

SUM = Verb("Sum", "HPF")
SENTS = [sentence(SUM, Noun(f"N{i}", "HPF")) for i in range(600)]

CYCLES = 300


def _cycle_cost(background: int, questions: int, shared: bool = False) -> float:
    """Seconds per activate+deactivate pair with the given SAS state.

    ``shared`` questions are ``{N(100+q) Sum}, {probe}``: each waits on its
    own never-active sentence, and all share the probe's pattern node.
    """
    probe = SENTS[-1]
    sas = ActiveSentenceSet()
    for q in range(questions):
        if shared:
            components = (
                SentencePattern("Sum", (f"N{100 + q}",)),
                SentencePattern("Sum", (probe.nouns[0].name,)),
            )
        else:
            components = (SentencePattern("Sum", (f"N{q}",)),)
        sas.attach_question(PerformanceQuestion(f"q{q}", components))
    for s in SENTS[:background]:
        sas.activate(s)
    t0 = time.perf_counter()
    for _ in range(CYCLES):
        sas.activate(probe)
        sas.deactivate(probe)
    dt = time.perf_counter() - t0
    return dt / (2 * CYCLES)


def run_experiment():
    sizes = [0, 10, 100, 500]
    question_counts = [0, 1, 4, 16, 64]
    by_size = {n: _cycle_cost(n, questions=1) for n in sizes}
    by_questions = {q: _cycle_cost(10, questions=q) for q in question_counts}
    by_shared = {q: _cycle_cost(10, questions=q, shared=True) for q in question_counts}
    return by_size, by_questions, by_shared


def test_abl5_sas_scaling(benchmark, save_artifact):
    by_size, by_questions, by_shared = benchmark.pedantic(
        run_experiment, rounds=3, iterations=1
    )

    # -- shape claims ---------------------------------------------------------
    # near-flat in active-set size: 50x more active sentences costs < 10x
    assert by_size[500] < by_size[10] * 10
    # near-flat in question count: the probe matches none of the attached
    # questions, so routing keeps 64 attached questions < 10x the
    # 0-question cost (the seed engine grew ~linearly here, >30x at 64)
    assert by_questions[64] < by_questions[0] * 10
    # near-flat in questions sharing the probe's node: each waits on its
    # own never-active sentence, so the probe's flips visit none of them
    # (re-evaluating every question on the flipped node read 55x at 64)
    assert by_shared[64] < by_shared[0] * 10

    rows_a = [(n, f"{c * 1e9:.0f}") for n, c in by_size.items()]
    rows_b = [(q, f"{c * 1e9:.0f}") for q, c in by_questions.items()]
    rows_c = [(q, f"{c * 1e9:.0f}") for q, c in by_shared.items()]
    text = (
        "Ablation 5 -- SAS notification cost scaling (host-machine ns/op)\n\n"
        "vs concurrently-active sentences (1 question attached):\n"
        + text_table(rows_a, headers=("active sentences", "ns per notification"))
        + "\n\nvs attached questions (10 active sentences):\n"
        + text_table(rows_b, headers=("attached questions", "ns per notification"))
        + "\n\nvs questions sharing the probe's node, each waiting on a never-active"
        "\nsentence ({N(100+q) Sum}, {probe}; 10 active sentences):\n"
        + text_table(rows_c, headers=("attached questions", "ns per notification"))
        + "\n\nshape: ~flat in SAS size; ~flat in unrelated-question count; ~flat in"
        "\nshared-node question count (question-engine routing and watched"
        "\nconjunctions -- see abl5b for SAS vs oracle throughput)."
    )
    save_artifact("abl5_sas_scaling", text)
