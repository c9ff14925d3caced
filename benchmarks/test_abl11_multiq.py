"""Ablation 11: the shared multi-question engine vs per-question watchers.

The serve-front-end load story: N overlapping Figure-6 subscriptions (the
1000-subscriber case mixes exact duplicates with distinct questions built
from a shared pattern pool -- what a real subscriber population looks like)
evaluated over one SAS transition stream.

* **live fan-out**: N dedicated per-question watchers on an indexed SAS
  (``watcher_baseline.WatcherSAS``, the path every live question took
  before it ran on the shared engine) vs one :class:`MultiQuestionEngine`
  attached to a SAS.
  Subscription dedup collapses duplicate questions to one watcher, pattern
  interning collapses shared patterns to one node, and dirty bits skip
  untouched subscriptions -- the marginal subscriber is nearly free, so
  engine throughput stays ~flat with N while the watcher baseline decays
  linearly.  Tentpole claim: >= 10x transitions/sec at 1000 overlapping
  subscriptions (>= 3x in quick mode, where streams are short and constant
  costs dominate).
* **retro batch**: answering the question set over a recorded ``.rtrcx``
  trace -- one single-question scan per question vs one
  ``evaluate_question_batch`` pass for the whole set.
* **differential oracle**: at every subscriber count, and across 10 seeds,
  engine answers (satisfied_time / transitions / satisfied) are
  byte-identical to the dedicated watchers, and batch answers to the
  per-question scans.

Results merge into ``benchmarks/out/BENCH_trace.json`` under ``"abl11"``.
"""

from __future__ import annotations

import os
import random
import time

from repro.core import (
    ActiveSentenceSet,
    MultiQuestionEngine,
    OrderedQuestion,
    PerformanceQuestion,
    QAtom,
    QNot,
    QOr,
    SentencePattern,
)
from repro.paradyn import text_table
from repro.trace.columnar import ColumnarTraceWriter, open_trace
from repro.trace.retro import evaluate_question_batch, evaluate_questions
from repro.workloads import random_trace
from repro.workloads.generators import sas_sentence_pool
from watcher_baseline import WatcherSAS

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: (stream events, sentence pool size, distinct questions, retro question count)
SCALE = (1200, 20, 40, 20) if QUICK else (8000, 24, 60, 100)
SUBSCRIBER_COUNTS = (1, 10, 100, 1000)
SPEEDUP_FLOOR = 3.0 if QUICK else 10.0
DIFFERENTIAL_SEEDS = 10


def _make_stream(seed: int, events: int, pool_size: int):
    """A valid activate/deactivate script over the shared sentence pool."""
    _, pool = sas_sentence_pool(seed, levels=3, verbs=4, nouns=8, sentences=pool_size)
    rng = random.Random(seed * 7919 + 13)
    depth: dict = {}
    active: list = []
    stream = []
    t = 0.0
    for _ in range(events):
        t += rng.random() * 1e-3
        if active and rng.random() < 0.45:
            sent = active.pop(rng.randrange(len(active)))
            depth[sent] -= 1
            stream.append((sent, False, t))
        else:
            sent = rng.choice(pool)
            depth[sent] = depth.get(sent, 0) + 1
            active.append(sent)
            stream.append((sent, True, t))
    return pool, stream


def _question_pool(pool, distinct: int):
    """Distinct-but-overlapping questions drawn from a small pattern set."""
    verbs = sorted({s.verb.name for s in pool})
    nouns = sorted({n.name for s in pool for n in s.nouns})
    levels = sorted({s.abstraction for s in pool})
    rng = random.Random(4242)
    patterns = [SentencePattern(v, ()) for v in verbs]
    patterns += [SentencePattern("?", (n,)) for n in nouns[:6]]
    patterns += [SentencePattern(v, (n,)) for v in verbs[:2] for n in nouns[:4]]
    patterns += [SentencePattern("?", (), lv) for lv in levels]
    questions = []
    for i in range(distinct):
        kind = i % 4
        picks = rng.sample(patterns, 2)
        if kind == 0:
            questions.append(PerformanceQuestion(f"q{i}", tuple(picks)))
        elif kind == 1:
            questions.append(OrderedQuestion(f"q{i}", tuple(picks)))
        elif kind == 2:
            questions.append(QOr((QAtom(picks[0]), QNot(QAtom(picks[1])))))
        else:
            questions.append(PerformanceQuestion(f"q{i}", (picks[0],)))
    return questions


def _subscriptions(questions, count: int):
    """``count`` subscriptions cycling the distinct pool: past len(pool),
    every extra subscriber is an exact duplicate (the serve fan-out case)."""
    return [questions[i % len(questions)] for i in range(count)]


def _replay_watchers(stream, questions):
    clock = {"t": 0.0}
    sas = WatcherSAS(clock=lambda: clock["t"])
    watchers = [sas.attach_question(q) for q in questions]
    t0 = time.perf_counter()
    for sent, up, t in stream:
        clock["t"] = t
        (sas.activate if up else sas.deactivate)(sent)
    elapsed = time.perf_counter() - t0
    return elapsed, watchers


def _replay_engine(stream, questions, shards=1):
    clock = {"t": 0.0}
    sas = ActiveSentenceSet(clock=lambda: clock["t"])
    engine = MultiQuestionEngine(shards=shards)
    engine.attach_sas(sas)
    subs = [engine.subscribe(q, name=f"sub{i}") for i, q in enumerate(questions)]
    t0 = time.perf_counter()
    for sent, up, t in stream:
        clock["t"] = t
        (sas.activate if up else sas.deactivate)(sent)
    elapsed = time.perf_counter() - t0
    return elapsed, subs, engine


def _assert_identical(watchers, subs, end):
    for w, sub in zip(watchers, subs, strict=True):
        mw = sub.watcher
        assert (w.satisfied, w.transitions, w.satisfied_time) == (
            mw.satisfied, mw.transitions, mw.satisfied_time
        )
        assert w.total_satisfied_time(end) == mw.total_satisfied_time(end)


def _measure_live():
    events, pool_size, distinct, _ = SCALE
    pool, stream = _make_stream(0, events, pool_size)
    questions = _question_pool(pool, distinct)
    end = stream[-1][2] + 1.0
    rows = {}
    for count in SUBSCRIBER_COUNTS:
        subscribed = _subscriptions(questions, count)
        base_s, watchers = _replay_watchers(stream, subscribed)
        eng_s, subs, engine = _replay_engine(stream, subscribed, shards=8)
        _assert_identical(watchers, subs, end)
        rows[count] = {
            "base_transitions_per_sec": len(stream) / base_s,
            "engine_transitions_per_sec": len(stream) / eng_s,
            "speedup": base_s / eng_s,
            "engine_question_transitions_per_sec": count * len(stream) / eng_s,
            "engine_subscriptions": len(engine.subscriptions),
            "engine_nodes": len(engine.nodes),
        }
    # fan-out balance at the top count (8-way consistent-hash sharding)
    shard = engine.shard_summary()
    return {"counts": rows, "shard_summary": shard, "stream_events": len(stream)}


def _measure_retro(tmpdir: str):
    events, pool_size, distinct, retro_n = SCALE
    trace = random_trace(11, events=max(events // 4, 400), nodes=2, sentences=14)
    path = os.path.join(tmpdir, "abl11.rtrcx")
    writer = ColumnarTraceWriter(path, segment_records=256)
    writer.record_trace(trace.events())
    writer.close()
    sents = sorted({e.sentence for e in trace.events()}, key=str)
    pats = [
        SentencePattern(s.verb.name, tuple(n.name for n in s.nouns)) for s in sents
    ]
    rng = random.Random(99)
    questions = [
        PerformanceQuestion(f"r{i}", tuple(rng.sample(pats, 2)))
        for i in range(retro_n)
    ]
    with open_trace(path) as reader:
        t0 = time.perf_counter()
        per_question = {}
        for q in questions:
            per_question.update(evaluate_questions(reader, [q]))
        per_q_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        batch = evaluate_question_batch(reader, questions, shards=4)
        batch_s = time.perf_counter() - t0
    assert per_question.keys() == batch.keys()
    for name in per_question:
        a, b = per_question[name], batch[name]
        assert (a.satisfied_time, a.transitions, a.satisfied_at_end, a.end_time) == (
            b.satisfied_time, b.transitions, b.satisfied_at_end, b.end_time
        )
    return {
        "questions": retro_n,
        "per_question_s": per_q_s,
        "batch_s": batch_s,
        "speedup": per_q_s / batch_s,
        "batch_questions_per_sec": retro_n / batch_s,
    }


def _measure_differential_seeds():
    """Acceptance criterion: byte-identical answers across >= 10 seeds."""
    checked = 0
    for seed in range(DIFFERENTIAL_SEEDS):
        pool, stream = _make_stream(seed, 400, 16)
        questions = _subscriptions(_question_pool(pool, 20), 100)
        end = stream[-1][2] + 1.0
        _, watchers = _replay_watchers(stream, questions)
        _, subs, _ = _replay_engine(stream, questions, shards=3)
        _assert_identical(watchers, subs, end)
        checked += 1
    return {"seeds": checked}


def run_experiment():
    import tempfile

    with tempfile.TemporaryDirectory() as tmpdir:
        return {
            "live": _measure_live(),
            "retro": _measure_retro(tmpdir),
            "differential": _measure_differential_seeds(),
        }


def test_abl11_multiq(benchmark, save_artifact, merge_bench):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    live, retro = r["live"], r["retro"]
    top = live["counts"][SUBSCRIBER_COUNTS[-1]]

    # -- shape claims -------------------------------------------------------
    # tentpole: shared evaluation >= 10x per-question watchers at 1000
    # overlapping subscriptions (3x floor in quick mode)
    assert top["speedup"] >= SPEEDUP_FLOOR, (
        f"engine only {top['speedup']:.2f}x the per-question baseline at "
        f"{SUBSCRIBER_COUNTS[-1]} subscriptions (floor {SPEEDUP_FLOOR}x)"
    )
    # dedup actually collapses the duplicate subscriptions
    assert top["engine_subscriptions"] < SUBSCRIBER_COUNTS[-1]
    # speedup grows with subscriber count (the marginal-subscriber story)
    speedups = [live["counts"][c]["speedup"] for c in SUBSCRIBER_COUNTS]
    assert speedups[-1] > speedups[0]
    # the whole-batch retro pass beats one scan per question
    assert retro["speedup"] > 1.0
    # differential oracle held on every seed
    assert r["differential"]["seeds"] >= 10
    # sharding spread the node table (not everything on one shard)
    populated = [n for n in live["shard_summary"]["nodes_per_shard"] if n]
    assert len(populated) > 1

    bench_json = {
        "stream_events": live["stream_events"],
        "subscriber_counts": {
            str(c): live["counts"][c] for c in SUBSCRIBER_COUNTS
        },
        "retro": retro,
        "differential_seeds": r["differential"]["seeds"],
        "shard_summary": live["shard_summary"],
        "quick": QUICK,
    }
    merge_bench({"abl11": bench_json})

    rows = [
        (
            f"{c}",
            f"{live['counts'][c]['base_transitions_per_sec']:,.0f}",
            f"{live['counts'][c]['engine_transitions_per_sec']:,.0f}",
            f"{live['counts'][c]['speedup']:.2f}x",
            f"{live['counts'][c]['engine_question_transitions_per_sec']:,.0f}",
        )
        for c in SUBSCRIBER_COUNTS
    ]
    table = text_table(
        rows, headers=("subs", "watchers tps", "engine tps", "speedup", "q-transitions/s")
    )
    text = (
        "ablation abl11: shared multi-question engine vs per-question watchers\n"
        f"(stream of {live['stream_events']} transitions, quick={QUICK})\n\n"
        f"{table}\n"
        f"retro batch: {retro['questions']} questions, one batch pass "
        f"{retro['batch_s'] * 1e3:.1f} ms vs per-question "
        f"{retro['per_question_s'] * 1e3:.1f} ms ({retro['speedup']:.2f}x)\n"
        f"differential oracle: byte-identical on {r['differential']['seeds']} seeds\n"
        f"shards: nodes {live['shard_summary']['nodes_per_shard']}, "
        f"touches {live['shard_summary']['touches_per_shard']}\n\n"
        "shape: engine >= "
        f"{SPEEDUP_FLOOR:.0f}x at {SUBSCRIBER_COUNTS[-1]} subscriptions; speedup\n"
        "grows with subscriber count; batch retro beats one-scan-per-question;\n"
        "answers byte-identical to dedicated watchers at every count.\n"
        "Machine-readable numbers: benchmarks/out/BENCH_trace.json (abl11)."
    )
    save_artifact("abl11_multiq", text)
