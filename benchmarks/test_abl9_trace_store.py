"""Ablation 9: the persistent trace store (.rtrcx) and retrospective mapping.

Four claims, one artifact:

* **overhead**: streaming every SAS transition of the abl4-shaped db study
  through a :class:`~repro.trace.ColumnarTraceWriter` (``.rtrcx``) costs
  <= 10% of the unrecorded run's CPU time (the median of paired per-round
  differences over the median plain round; a recorder that does nothing
  is measured the same way, as the estimator's zero point);
* **retro == live**: replaying the recorded HPF fragment answers all four
  Figure-6 performance questions with *identical* satisfied time and
  transition counts to the live ``QuestionWatcher`` attached during the run;
* **lag windows recover Figure 7**: on the asynchronous unixsim run the
  live co-activity rule (window 0) attributes nothing, while a lag window
  covering the kernel's flush delay recovers the ground-truth write counts
  exactly -- a mapping the live SAS *cannot* make;
* **indexed seek**: reconstructing the SAS at an arbitrary time via the
  segment index (each segment opens with a SAS snapshot) beats a linear
  replay from the start of the trace.

Quick mode (``REPRO_BENCH_QUICK=1``, the CI bench-smoke job) shrinks scales
but keeps every assertion.  Machine-readable numbers land in
``benchmarks/out/BENCH_trace.json`` under ``"abl9"``; the recorded
Figure-6 run is kept as
``benchmarks/out/sample_fig6.rtrcx`` so CI archives a real trace file.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import tempfile
import time

from repro.cmfortran import compile_source
from repro.core import PerformanceQuestion, SentencePattern, WILDCARD
from repro.dbsim import Query, run_db_study
from repro.paradyn import Paradyn, text_table
from repro.trace import (
    ColumnarTraceWriter,
    SASState,
    evaluate_questions,
    open_trace,
    parse_pattern,
    windowed_attribution,
    windowed_mappings,
)
from repro.unixsim import FunctionSpec, run_figure7_study
from repro.workloads import HPF_FRAGMENT, random_trace

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: overhead workload: (db clients, queries, timing rounds per side).
#: Not shrunk under QUICK -- a shorter run makes the ratio noise-dominated.
DB_SCALE = (8, 120, 21)
#: seek workload: (events, segment records, indexed probes, linear probes)
SEEK_SCALE = (4_000, 128, 60, 8) if QUICK else (20_000, 256, 200, 12)

#: the paper's four Figure-6 questions (same shapes as test_fig6_questions)
FIG6_QUESTIONS = [
    PerformanceQuestion("{A Sum}", (SentencePattern("Sum", ("A",)),)),
    PerformanceQuestion("{Processor_P Send}", (SentencePattern("Send", ("Processor_0",)),)),
    PerformanceQuestion(
        "{A Sum}, {Processor_P Send}",
        (SentencePattern("Sum", ("A",)), SentencePattern("Send", ("Processor_0",))),
    ),
    PerformanceQuestion(
        "{? Sum}, {Processor_P Send}",
        (SentencePattern("Sum", (WILDCARD,)), SentencePattern("Send", ("Processor_0",))),
    ),
]

FIG7_SCRIPT = [
    FunctionSpec("func", writes=2, compute_time=4e-4),
    FunctionSpec("other", writes=1, compute_time=4e-4),
    FunctionSpec("idle_tail", writes=0, compute_time=2e-2),
]
#: covers the kernel's 5 ms flush delay with slack
FIG7_WINDOW = 0.01


def _db_queries():
    _, nq, _ = DB_SCALE
    return [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(nq)]


class _NullRecorder:
    """A recorder that does nothing: its overhead is the estimator's zero."""

    def transition(self, time, kind, sentence, node_id) -> None:
        pass


def _cpu(fn) -> float:
    t0 = time.process_time()
    fn()
    return time.process_time() - t0


def _paired_overhead(plain, recorded, rounds: int) -> tuple[float, float]:
    """``(median plain round, median of paired recorded - plain rounds)``,
    in CPU seconds of this process.

    The studies run in-process, so CPU time leaves out what other
    processes on the host take; which side of a round runs first
    alternates, and the median of the per-round differences cancels the
    drift both sides of a round share.
    """
    base, extra = [], []
    for r in range(rounds):
        if r % 2:
            q = _cpu(recorded)
            p = _cpu(plain)
        else:
            p = _cpu(plain)
            q = _cpu(recorded)
        base.append(p)
        extra.append(q - p)
    return statistics.median(base), statistics.median(extra)


def _measure_overhead(tmpdir: str) -> dict:
    """CPU time of the db study, plain vs recorded and vs a null recorder."""
    clients, _, rounds = DB_SCALE
    path = os.path.join(tmpdir, "overhead.rtrcx")
    counts = []

    def plain():
        run_db_study(_db_queries(), num_clients=clients)

    def recorded():
        with ColumnarTraceWriter(path) as w:
            run_db_study(_db_queries(), num_clients=clients, recorder=w)
        counts.append(w.transitions)

    def null():
        run_db_study(_db_queries(), num_clients=clients, recorder=_NullRecorder())

    base, extra = _paired_overhead(plain, recorded, rounds)
    null_base, null_extra = _paired_overhead(plain, null, rounds)
    transitions = counts[-1]
    return {
        "transitions": transitions,
        "file_bytes": os.path.getsize(path),
        "events_per_sec_plain": transitions / base,
        "events_per_sec_recorded": transitions / (base + extra),
        "overhead_frac": extra / base,
        "null_overhead_frac": null_extra / null_base,
        "writer_us_per_transition": extra / transitions * 1e6,
    }


def _fig6_retro_vs_live(sample_path: str) -> dict:
    """Record the HPF fragment, answer Figure 6 live and retrospectively."""
    program = compile_source(HPF_FRAGMENT, "fragment.cmf")
    tool = Paradyn.for_program(program, num_nodes=4)
    watchers = {q.name: tool.sases[0].attach_question(q) for q in FIG6_QUESTIONS}
    writer = ColumnarTraceWriter(sample_path, metadata={"study": "fig6", "nodes": 4})
    tool.record_to(writer, nodes=[0])
    tool.run()
    writer.close()

    live = {
        name: (w.total_satisfied_time(tool.elapsed), w.transitions)
        for name, w in watchers.items()
    }
    reader = open_trace(sample_path)
    answers = evaluate_questions(
        reader, FIG6_QUESTIONS, end_time=tool.elapsed, node=0
    )
    retro = {name: (a.satisfied_time, a.transitions) for name, a in answers.items()}
    return {
        "live": live,
        "retro": retro,
        "metric_samples": len(list(reader.metric_samples())),
        "trace_transitions": reader.transitions,
    }


def _fig7_window_recovery(tmpdir: str) -> dict:
    """Asynchronous run: co-activity fails, a lag window recovers truth."""
    path = os.path.join(tmpdir, "fig7.rtrcx")
    with ColumnarTraceWriter(path) as w:
        out = run_figure7_study(script=FIG7_SCRIPT, causal=False, recorder=w)
    reader = open_trace(path)
    producers = parse_pattern("{? WriteCall}@UNIX Process")
    consumers = parse_pattern("{? DiskWrite}@UNIX Kernel")

    def key(s):  # "{func() WriteCall}" -> "func"
        return s.nouns[0].name[:-2]

    live_rule = windowed_attribution(reader, producers, consumers, window=0.0, key=key)
    windowed = windowed_attribution(
        reader, producers, consumers, window=FIG7_WINDOW, key=key
    )
    live_maps = windowed_mappings(
        reader, src_filter=producers, dst_filter=consumers
    )
    window_maps = windowed_mappings(
        reader, window=FIG7_WINDOW, src_filter=producers, dst_filter=consumers
    )
    return {
        "ground_truth": {f: n for f, n in out.ground_truth.items() if n},
        "live_counts": dict(live_rule.counts),
        "live_unattributed": live_rule.unattributed,
        "window_counts": dict(windowed.counts),
        "window_unattributed": windowed.unattributed,
        "live_mappings": len(live_maps),
        "window_mappings": len(window_maps),
        "max_lag_ms": max((m.lag for m in window_maps), default=0.0) * 1e3,
    }


def _measure_seek(tmpdir: str) -> dict:
    """Indexed seek vs linear replay on a large synthetic trace."""
    events_n, cadence, n_indexed, n_linear = SEEK_SCALE
    trace = random_trace(3, events=events_n, nodes=4)
    path = os.path.join(tmpdir, "seek.rtrcx")
    with ColumnarTraceWriter(path, segment_records=cadence) as w:
        w.record_trace(trace)
    reader = open_trace(path)
    t0, t1 = reader.time_bounds()
    rng = random.Random(1234)
    probes = [rng.uniform(t0, t1) for _ in range(n_indexed)]

    start = time.perf_counter()
    for t in probes:
        reader.seek(t)
    seek_per_probe = (time.perf_counter() - start) / n_indexed

    events = trace.events()
    start = time.perf_counter()
    for t in probes[:n_linear]:
        SASState.from_events(events, t)
    linear_per_probe = (time.perf_counter() - start) / n_linear

    # spot-check correctness at the timed probes too
    for t in probes[:n_linear]:
        assert reader.seek(t) == SASState.from_events(events, t)
    return {
        "events": reader.transitions,
        "segments": len(reader.segments),
        "seeks_per_sec": 1.0 / seek_per_probe,
        "linear_replays_per_sec": 1.0 / linear_per_probe,
        "seek_speedup": linear_per_probe / seek_per_probe,
    }


def run_experiment(sample_path: str) -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        return {
            "overhead": _measure_overhead(tmpdir),
            "fig6": _fig6_retro_vs_live(sample_path),
            "fig7": _fig7_window_recovery(tmpdir),
            "seek": _measure_seek(tmpdir),
        }


def test_abl9_trace_store(benchmark, save_artifact, artifact_dir, merge_bench):
    sample_path = str(artifact_dir / "sample_fig6.rtrcx")
    r = benchmark.pedantic(lambda: run_experiment(sample_path), rounds=1, iterations=1)
    ov, fig6, fig7, seek = r["overhead"], r["fig6"], r["fig7"], r["seek"]

    # -- shape claims -------------------------------------------------------
    # tentpole: recording costs <= 10% events/sec on the db workload
    assert ov["overhead_frac"] <= 0.10, (
        f"recording overhead {ov['overhead_frac']:.1%} exceeds 10% "
        f"({ov['events_per_sec_recorded']:,.0f} vs "
        f"{ov['events_per_sec_plain']:,.0f} events/s)"
    )

    # retro replay answers every Figure-6 question *identically* to the
    # live watchers: same satisfied time (bit-exact) and transition count
    assert fig6["retro"] == fig6["live"], (
        f"retrospective answers diverged from live watchers:\n"
        f"  live : {fig6['live']}\n  retro: {fig6['retro']}"
    )
    assert fig6["live"]["{A Sum}"][0] > 0

    # Figure 7: the live co-activity rule sees nothing across the async
    # boundary; the lag window recovers ground truth exactly
    assert fig7["live_counts"] == {}
    assert fig7["live_unattributed"] == 3
    assert fig7["live_mappings"] == 0
    assert fig7["window_counts"] == fig7["ground_truth"] == {"func": 2, "other": 1}
    assert fig7["window_unattributed"] == 0
    assert fig7["window_mappings"] > 0

    # the segment index pays for itself: seek beats linear replay
    assert seek["segments"] > 1
    assert seek["seek_speedup"] > 2.0, (
        f"indexed seek only {seek['seek_speedup']:.2f}x a linear replay"
    )

    bench_json = {
        "recording_overhead_frac": ov["overhead_frac"],
        "null_recorder_overhead_frac": ov["null_overhead_frac"],
        "writer_us_per_transition": ov["writer_us_per_transition"],
        "overhead_estimator": "median paired CPU-time difference / median plain round",
        "events_per_sec_plain": ov["events_per_sec_plain"],
        "events_per_sec_recorded": ov["events_per_sec_recorded"],
        "db_transitions": ov["transitions"],
        "db_trace_bytes": ov["file_bytes"],
        # of the .rtrcx recording the overhead is measured on
        "bytes_per_transition": ov["file_bytes"] / ov["transitions"],
        "overhead_trace_format": "rtrcx",
        "fig6_identical": fig6["retro"] == fig6["live"],
        "fig6_satisfied_times": {k: v[0] for k, v in fig6["retro"].items()},
        "fig7_live_counts": fig7["live_counts"],
        "fig7_window_counts": fig7["window_counts"],
        "fig7_window_s": FIG7_WINDOW,
        "fig7_max_lag_ms": fig7["max_lag_ms"],
        "seek_events": seek["events"],
        "seek_segments": seek["segments"],
        "seeks_per_sec": seek["seeks_per_sec"],
        "linear_replays_per_sec": seek["linear_replays_per_sec"],
        "seek_speedup": seek["seek_speedup"],
        "quick": QUICK,
    }
    # abl10/abl11 report into the same file, each under its own key
    merge_bench({"abl9": bench_json})

    retro_rows = [
        (name, f"{t_live:.3e}", f"{fig6['retro'][name][0]:.3e}", n_live)
        for name, (t_live, n_live) in fig6["live"].items()
    ]
    clients, nq, rounds = DB_SCALE
    text = (
        "Ablation 9 -- persistent trace store and retrospective mapping\n\n"
        f"recording overhead (db study, {clients} clients x {nq} queries, "
        f".rtrcx writer; CPU time, median of {rounds} paired rounds):\n"
        f"  plain    : {ov['events_per_sec_plain']:>12,.0f} events/s\n"
        f"  recorded : {ov['events_per_sec_recorded']:>12,.0f} events/s"
        f"  ({ov['overhead_frac']:+.1%}, "
        f"{ov['writer_us_per_transition']:.2f} us and "
        f"{ov['file_bytes'] / ov['transitions']:.1f} .rtrcx bytes per transition)\n"
        f"  no-op recorder control: {ov['null_overhead_frac']:+.1%}\n\n"
        "Figure 6 questions, live watcher vs retrospective replay:\n"
        + text_table(
            retro_rows,
            headers=("question", "live satisfied (s)", "retro satisfied (s)", "transitions"),
        )
        + "\n\nFigure 7 write attribution from the same trace:\n"
        f"  co-activity (window 0)   : {fig7['live_counts']} "
        f"({fig7['live_unattributed']} writes unattributable live)\n"
        f"  lag window {FIG7_WINDOW * 1e3:.0f} ms         : {fig7['window_counts']} "
        f"== ground truth (max lag {fig7['max_lag_ms']:.2f} ms)\n\n"
        f"indexed seek ({seek['events']} events, {seek['segments']} segments):\n"
        f"  seek       : {seek['seeks_per_sec']:>10,.0f} states/s\n"
        f"  linear     : {seek['linear_replays_per_sec']:>10,.0f} states/s"
        f"  (seek {seek['seek_speedup']:.1f}x faster)\n\n"
        "shape: overhead <= 10%; retro identical to live on all four\n"
        "Figure-6 questions; window-0 attribution empty while the lag window\n"
        "recovers ground truth exactly; indexed seek beats linear replay.\n"
        "Machine-readable numbers: benchmarks/out/BENCH_trace.json."
    )
    save_artifact("abl9_trace_store", text)
