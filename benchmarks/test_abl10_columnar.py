"""Ablation 10: the columnar ``.rtrcx`` store vs row-layout replay.

One trace, two layouts, four workloads.  The row side is the layout the
columnar store replaced -- one varint record per transition plus a SAS
snapshot frame every 256 -- kept as a baseline in
``benchmarks/row_baseline.py``:

* **seek**: reconstructing the SAS at random times through the columnar
  segment index vs the row snapshot index vs a bare linear replay;
* **Figure-6 retro query**: a two-sentence conjunction question answered
  by the question engine.  The row side replays every record as an event,
  counting nesting depth itself (``row_baseline.replay_questions``); the
  columnar reader pushes the question's sentence-id set into the scan,
  prunes segments by zone map, and decodes only the transition columns --
  the tentpole claim is >= 3x on queries touching <= 2 of the interned
  sentences.  The workload's sentences occur in every segment, so a
  second question asks about one the run activates once, at its end:
  zone maps must skip every segment but the last;
* **Figure-7 attribution**: the lag-window producer/consumer match on the
  asynchronous unixsim run, answers byte-identical across layouts;
* **lint**: trace sanitization throughput on both layouts (``repro lint``
  on the columnar file, ``sanitize_trace`` over the row reader), plus the
  parallel segment scan (``--jobs``) on the columnar file.

The fig7 and lint row sides call the package's functions on the row
reader, which encode its decoded events into an in-memory ``.rtrcx``
first; those two rows are reported, not gated, and say so.

Two side measurements ride along: the vectorized windowed-mapping pairing
kernel (``_window_pairs``) vs the seed's quadratic cross product, and a
subprocess peak-RSS probe showing ``repro trace info`` on a columnar file
reads footer pages only (mmap) instead of materializing the event stream.

Results merge into ``benchmarks/out/BENCH_trace.json`` under ``"abl10"``.
Quick mode shrinks scales but keeps every assertion.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
import time

from repro.analyze import Severity, lint_paths, sanitize_trace
from repro.core import (
    EventKind,
    Noun,
    PerformanceQuestion,
    SentenceEvent,
    SentencePattern,
    Verb,
    sentence,
)
from repro.paradyn import text_table
from repro.trace import (
    ColumnarTraceReader,
    ColumnarTraceWriter,
    SASState,
    evaluate_questions,
    parse_pattern,
    sentence_intervals,
    windowed_attribution,
)
from repro.trace.retro import _window_pairs
from repro.unixsim import FunctionSpec, run_figure7_study
from repro.workloads import random_trace
from row_baseline import RowBaselineReader, RowBaselineWriter, replay_questions

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: main workload: (events, nodes, sentences, row snapshot cadence, segment records)
#: segment granularity matches the row snapshot cadence so the seek
#: comparison is iso-replay-distance; both sides pay one snapshot per 256
#: records of file
TRACE_SCALE = (30_000, 4, 24, 256, 256) if QUICK else (100_000, 4, 24, 256, 256)
#: probes per seek timing loop
SEEK_PROBES = 40 if QUICK else 120
#: query timing rounds per layout (best-of)
QUERY_ROUNDS = 3 if QUICK else 5

#: activated once, when the workload ends: only the last segment holds it
RARE = sentence(Verb("Probe", "Bench"), Noun("rare", "Bench"))

FIG7_SCRIPT = [
    FunctionSpec("func", writes=2, compute_time=4e-4),
    FunctionSpec("other", writes=1, compute_time=4e-4),
    FunctionSpec("idle_tail", writes=0, compute_time=2e-2),
]
FIG7_WINDOW = 0.01


def _best_of(fn, rounds: int) -> float:
    best = float("inf")
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _build_pair(tmpdir: str):
    """The shared workload recorded in both layouts."""
    events_n, nodes, sentences, cadence, seg_records = TRACE_SCALE
    trace = random_trace(7, events=events_n, nodes=nodes, sentences=sentences)
    end = trace.events()[-1].time
    trace.append(SentenceEvent(end, EventKind.ACTIVATE, RARE, 0))
    trace.append(SentenceEvent(end, EventKind.DEACTIVATE, RARE, 0))
    row_path = os.path.join(tmpdir, "abl10.rowb")
    with RowBaselineWriter(row_path, snapshot_every=cadence) as w:
        w.record_trace(trace)
    col_path = os.path.join(tmpdir, "abl10.rtrcx")
    with ColumnarTraceWriter(col_path, segment_records=seg_records) as w:
        w.record_trace(trace)
    return trace, row_path, col_path


def _measure_seek(trace, row_path: str, col_path: str) -> dict:
    row = RowBaselineReader(row_path)
    col = ColumnarTraceReader(col_path)
    t0, t1 = row.time_bounds()
    rng = random.Random(99)
    probes = [rng.uniform(t0, t1) for _ in range(SEEK_PROBES)]
    events = trace.events()

    for t in probes[:6]:  # correctness spot-check before timing
        want = SASState.from_events(events, t)
        assert row.seek(t) == want and col.seek(t) == want

    row_s = _best_of(lambda: [row.seek(t) for t in probes], 3) / len(probes)
    col_s = _best_of(lambda: [col.seek(t) for t in probes], 3) / len(probes)
    lin_n = max(4, SEEK_PROBES // 10)
    start = time.perf_counter()
    for t in probes[:lin_n]:
        SASState.from_events(events, t)
    lin_s = (time.perf_counter() - start) / lin_n
    return {
        "events": row.transitions,
        "segments": len(col.segments),
        "row_seeks_per_sec": 1.0 / row_s,
        "columnar_seeks_per_sec": 1.0 / col_s,
        "linear_replays_per_sec": 1.0 / lin_s,
        "columnar_vs_linear": lin_s / col_s,
        "columnar_vs_row": row_s / col_s,
    }


def _measure_query(row_path: str, col_path: str) -> dict:
    """A Figure-6-shaped conjunction over two interned sentences."""
    row = RowBaselineReader(row_path)
    col = ColumnarTraceReader(col_path)
    sents = sorted((s for s in row.sentences if s != RARE), key=str)
    a, b = sents[0], sents[1]
    questions = [
        PerformanceQuestion(
            "conj",
            (
                SentencePattern(a.verb.name, tuple(n.name for n in a.nouns)),
                SentencePattern(b.verb.name, tuple(n.name for n in b.nouns)),
            ),
        )
    ]
    end = row.time_bounds()[1]
    row_ans = replay_questions(row, questions, end)
    col_ans = evaluate_questions(col, questions, end_time=end)
    assert {k: vars(v) for k, v in row_ans.items()} == {
        k: vars(v) for k, v in col_ans.items()
    }, "columnar question answers diverged from row replay"

    row_t = _best_of(lambda: replay_questions(row, questions, end), QUERY_ROUNDS)
    col_t = _best_of(lambda: evaluate_questions(col, questions, end_time=end), QUERY_ROUNDS)
    pruned = col.prune_segments(
        sids=frozenset(i for i, s in enumerate(col.sentences) if s in (a, b))
    )
    rare = [PerformanceQuestion("rare", (SentencePattern("Probe", ("rare",)),))]
    rare_ans = evaluate_questions(col, rare, end_time=end)
    assert vars(rare_ans["rare"]) == vars(replay_questions(row, rare, end)["rare"])
    return {
        "question_sentences": 2,
        "satisfied_time": row_ans["conj"].satisfied_time,
        "segments_scanned": len(pruned),
        "rare_segments_scanned": len(col.prune_segments(sids={col.sentences.index(RARE)})),
        "segments_total": len(col.segments),
        "row_query_s": row_t,
        "columnar_query_s": col_t,
        "speedup": row_t / col_t,
    }


def _measure_fig7(tmpdir: str) -> dict:
    row_path = os.path.join(tmpdir, "fig7.rowb")
    with RowBaselineWriter(row_path) as w:
        out = run_figure7_study(script=FIG7_SCRIPT, causal=False, recorder=w)
    col_path = os.path.join(tmpdir, "fig7.rtrcx")
    with ColumnarTraceWriter(col_path) as w:
        run_figure7_study(script=FIG7_SCRIPT, causal=False, recorder=w)
    producers = parse_pattern("{? WriteCall}@UNIX Process")
    consumers = parse_pattern("{? DiskWrite}@UNIX Kernel")

    def key(s):
        return s.nouns[0].name[:-2]

    def run(path, reader_cls):
        return windowed_attribution(
            reader_cls(path), producers, consumers, window=FIG7_WINDOW, key=key
        )

    row_res = run(row_path, RowBaselineReader)
    col_res = run(col_path, ColumnarTraceReader)
    assert row_res.counts == col_res.counts == {
        f: n for f, n in out.ground_truth.items() if n
    }
    assert row_res.unattributed == col_res.unattributed == 0
    row_t = _best_of(lambda: run(row_path, RowBaselineReader), QUERY_ROUNDS)
    col_t = _best_of(lambda: run(col_path, ColumnarTraceReader), QUERY_ROUNDS)
    return {
        "counts": dict(row_res.counts),
        "row_s": row_t,
        "columnar_s": col_t,
        "speedup": row_t / col_t,
    }


def _measure_lint(row_path: str, col_path: str) -> dict:
    def row_lint():
        return sanitize_trace(RowBaselineReader(row_path), None, row_path)

    # lint must pass on both layouts
    assert not any(d.severity >= Severity.ERROR for d in row_lint())
    assert not lint_paths([col_path]).fails(Severity.ERROR)

    row_t = _best_of(row_lint, QUERY_ROUNDS)
    col_t = _best_of(lambda: lint_paths([col_path]), QUERY_ROUNDS)
    par_t = _best_of(lambda: lint_paths([col_path], jobs=2), 1)
    serial = sentence_intervals(ColumnarTraceReader(col_path))
    parallel = sentence_intervals(ColumnarTraceReader(col_path), jobs=2)
    assert serial == parallel, "parallel segment scan diverged from serial"
    return {
        "row_s": row_t,
        "columnar_s": col_t,
        "columnar_jobs2_s": par_t,
        "speedup": row_t / col_t,
    }


def _measure_window_overlaps() -> dict:
    """The pairing kernel vs the seed's cross product, on one sentence pair."""
    rng = random.Random(5)
    n = 150 if QUICK else 400
    ivs = []
    t = 0.0
    for _ in range(n):
        t += rng.uniform(0.01, 0.5)
        s = t
        t += rng.uniform(0.01, 0.5)
        ivs.append((s, t))
    window = 0.25

    def quadratic():
        count = 0
        min_lag = float("inf")
        for s0, s1 in ivs:
            for d0, d1 in ivs:
                if d1 >= s0 and d0 <= s1 + window:
                    count += 1
                    lag = d0 - s1
                    min_lag = min(min_lag, lag if lag > 0.0 else 0.0)
        return count, min_lag

    def kernel():
        counts, lags = _window_pairs([ivs], [ivs], window)
        return counts[0][0], lags[0][0]

    assert kernel() == quadratic()
    before = _best_of(quadratic, 3)
    after = _best_of(kernel, 3)
    return {"intervals": n, "before_s": before, "after_s": after, "speedup": before / after}


_RSS_PROBE = """\
import sys
from repro.trace import open_trace
r = open_trace(sys.argv[1])
if sys.argv[2] == "full":
    events = list(r.events())  # held alive: resident when VmRSS is read
elif sys.argv[2] == "info":
    r.info()
# "open": constructor only -- the interpreter + footer-decode baseline.
# Current VmRSS, not ru_maxrss: the peak counter inherits the parent's
# pages across fork and would just report the pytest process's heap.
with open("/proc/self/status") as fh:
    for line in fh:
        if line.startswith("VmRSS:"):
            print(line.split()[1])
            break
"""

#: transitions in the dedicated RSS-probe trace (not shrunk under QUICK:
#: the claim is about memory scaling, and a small file hides in the
#: interpreter's ~60 MB baseline)
RSS_TRANSITIONS = 250_000


def _measure_info_rss(tmpdir: str) -> dict:
    """Peak RSS of ``repro trace info`` vs a full event materialization.

    ``info()`` on a columnar reader touches only the mmap'd footer pages,
    so its peak RSS must sit well below a full decode of the same file.
    """
    from repro.core import EventKind, Noun, Verb
    from repro.core import sentence as mk_sentence
    from repro.trace import ColumnarTraceWriter

    col_path = os.path.join(tmpdir, "rss.rtrcx")
    verb = Verb("Sum", "HPF")
    sents = [mk_sentence(verb, Noun(f"S{i}", "HPF")) for i in range(8)]
    with ColumnarTraceWriter(col_path, segment_records=8_192) as w:
        t = 0.0
        for i in range(RSS_TRANSITIONS // 2):
            t += 1e-6
            w.transition(t, EventKind.ACTIVATE, sents[i % 8], 0)
            t += 1e-6
            w.transition(t, EventKind.DEACTIVATE, sents[i % 8], 0)

    def probe(mode: str) -> int:
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src)
        out = subprocess.run(
            [sys.executable, "-c", _RSS_PROBE, col_path, mode],
            capture_output=True, text=True, env=env, check=True,
        )
        return int(out.stdout.strip())  # KiB on Linux

    base_kib = probe("open")
    info_kib = probe("info")
    full_kib = probe("full")
    # deltas over the open-only baseline cancel the interpreter's own
    # footprint (which varies tens of MB across environments)
    return {
        "transitions": RSS_TRANSITIONS,
        "file_bytes": os.path.getsize(col_path),
        "open_peak_kib": base_kib,
        "info_peak_kib": info_kib,
        "full_read_peak_kib": full_kib,
        "info_delta_kib": max(0, info_kib - base_kib),
        "full_delta_kib": max(0, full_kib - base_kib),
    }


def run_experiment() -> dict:
    with tempfile.TemporaryDirectory() as tmpdir:
        trace, row_path, col_path = _build_pair(tmpdir)
        return {
            "seek": _measure_seek(trace, row_path, col_path),
            "query": _measure_query(row_path, col_path),
            "fig7": _measure_fig7(tmpdir),
            "lint": _measure_lint(row_path, col_path),
            "window_overlaps": _measure_window_overlaps(),
            "rss": _measure_info_rss(tmpdir),
        }


def test_abl10_columnar(benchmark, save_artifact, artifact_dir, merge_bench):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    seek, query, fig7 = r["seek"], r["query"], r["fig7"]
    lint, wo, rss = r["lint"], r["window_overlaps"], r["rss"]

    # -- shape claims -------------------------------------------------------
    # tentpole: the pushdown query beats full row replay >= 3x when the
    # question touches <= 2 of the interned sentences
    assert query["speedup"] >= 3.0, (
        f"columnar pattern query only {query['speedup']:.2f}x row replay "
        f"({query['columnar_query_s'] * 1e3:.1f} ms vs "
        f"{query['row_query_s'] * 1e3:.1f} ms)"
    )
    # zone maps actually prune: the 2-sentence question skips segments
    assert query["segments_scanned"] <= query["segments_total"]
    # its sentences occur in every segment, so that check cannot fail; the
    # question about a sentence only the last segment holds must skip the rest
    assert query["rare_segments_scanned"] < query["segments_total"], (
        f"the rare-sentence question scanned {query['rare_segments_scanned']} of "
        f"{query['segments_total']} segments"
    )

    # columnar seek beats a bare linear replay comfortably and is not
    # worse than the row snapshot index
    assert seek["columnar_vs_linear"] > 2.0, (
        f"columnar seek only {seek['columnar_vs_linear']:.2f}x linear replay"
    )
    assert seek["columnar_vs_row"] > 0.5, (
        f"columnar seek {seek['columnar_vs_row']:.2f}x row seek -- "
        "segment snapshots are not pulling their weight"
    )

    # the pairing kernel wins against the seed's cross product
    assert wo["speedup"] > 2.0, (
        f"_window_pairs kernel only {wo['speedup']:.2f}x the quadratic seed"
    )

    # info() is footer-only: its RSS growth over a bare open is a sliver
    # of what materializing the event stream costs
    assert rss["full_delta_kib"] > 2_000, (
        f"full read only grew RSS by {rss['full_delta_kib']} KiB -- "
        "the probe workload is too small to measure against"
    )
    assert rss["info_delta_kib"] < 0.25 * rss["full_delta_kib"], (
        f"trace info grew RSS by {rss['info_delta_kib']} KiB vs "
        f"{rss['full_delta_kib']} KiB for a full read "
        "-- the mmap fast path is not engaged"
    )

    bench_json = {
        "trace_events": seek["events"],
        "segments": seek["segments"],
        "seek_row_per_sec": seek["row_seeks_per_sec"],
        "seek_columnar_per_sec": seek["columnar_seeks_per_sec"],
        "seek_columnar_vs_linear": seek["columnar_vs_linear"],
        "seek_columnar_vs_row": seek["columnar_vs_row"],
        "query_speedup": query["speedup"],
        "query_segments_scanned": query["segments_scanned"],
        "query_rare_segments_scanned": query["rare_segments_scanned"],
        "query_segments_total": query["segments_total"],
        "fig7_speedup": fig7["speedup"],
        "fig7_counts": fig7["counts"],
        "lint_speedup": lint["speedup"],
        "lint_columnar_jobs2_s": lint["columnar_jobs2_s"],
        "window_overlaps_speedup": wo["speedup"],
        "window_overlaps_intervals": wo["intervals"],
        "info_rss_delta_kib": rss["info_delta_kib"],
        "full_read_rss_delta_kib": rss["full_delta_kib"],
        "quick": QUICK,
    }
    merge_bench({"abl10": bench_json})

    rows = [
        ("seek (states/s)", f"{seek['row_seeks_per_sec']:,.0f}",
         f"{seek['columnar_seeks_per_sec']:,.0f}", f"{seek['columnar_vs_row']:.2f}x"),
        ("fig6 conj query (s)", f"{query['row_query_s']:.4f}",
         f"{query['columnar_query_s']:.4f}", f"{query['speedup']:.1f}x"),
        ("fig7 attribution (s) *", f"{fig7['row_s']:.4f}",
         f"{fig7['columnar_s']:.4f}", f"{fig7['speedup']:.1f}x"),
        ("lint sanitize (s) *", f"{lint['row_s']:.4f}",
         f"{lint['columnar_s']:.4f}", f"{lint['speedup']:.1f}x"),
    ]
    text = (
        "Ablation 10 -- columnar .rtrcx store vs row-layout replay\n\n"
        f"workload: {seek['events']:,} transitions, {seek['segments']} segments\n\n"
        + text_table(rows, headers=("workload", "row", "columnar", "columnar wins"))
        + "\n* row side: decoded row events encoded into an in-memory .rtrcx,\n"
        "  then the columnar scan (reported, not gated)\n\n"
        f"zone-map pruning: the 2-sentence question scanned "
        f"{query['segments_scanned']}/{query['segments_total']} segments, "
        f"the rare-sentence one {query['rare_segments_scanned']}/{query['segments_total']}\n"
        f"columnar seek vs linear replay: {seek['columnar_vs_linear']:.1f}x\n"
        f"parallel lint (--jobs 2): {lint['columnar_jobs2_s']:.4f} s\n\n"
        f"windowed-mapping pairing kernel, {wo['intervals']} x "
        f"{wo['intervals']} intervals:\n"
        f"  quadratic seed   : {wo['before_s'] * 1e3:8.1f} ms\n"
        f"  _window_pairs    : {wo['after_s'] * 1e3:8.1f} ms  ({wo['speedup']:.1f}x)\n\n"
        f"trace info peak RSS growth over a bare open (subprocess, "
        f"{rss['transitions']:,} transitions, {rss['file_bytes']:,}-byte file):\n"
        f"  info (footer only) : {rss['info_delta_kib']:>8,} KiB\n"
        f"  full event read    : {rss['full_delta_kib']:>8,} KiB\n\n"
        "shape: pushdown query >= 3x row replay; columnar seek > 2x linear;\n"
        "fig7 answers identical across layouts; _window_pairs > 2x the\n"
        "seed; info() RSS bounded by footer pages, not file size.\n"
        "Machine-readable numbers: benchmarks/out/BENCH_trace.json (abl10)."
    )
    save_artifact("abl10_columnar", text)
