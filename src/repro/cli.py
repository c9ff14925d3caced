"""Command-line interface: compile, run, and measure CMF programs.

Usage::

    python -m repro compile heat.cmf --pif heat.pif
    python -m repro run heat.cmf --nodes 8 --scalars TOTAL
    python -m repro measure heat.cmf --metric computation_time \\
        --metric summation_time@array=U --block-times --attribute merge
    python -m repro consultant heat.cmf --nodes 8
    python -m repro metrics
    python -m repro sweep db --clients 1,2,4 --queries 1,3,6 --workers 4 --verify
    python -m repro trace record db --out run.rtrcx --clients 2
    python -m repro trace query run.rtrcx --pattern "{Q0 QueryActive}" --mappings
    python -m repro lint examples/fragment.pif run.rtrcx --mdl-library --fail-on error
    python -m repro mapc check examples/fragment.map
    python -m repro mapc build examples/heat.map --pif heat.pif

Exit codes: 0 success, 1 findings/divergence at or above the requested
threshold, 2 usage or input errors.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Mapping high-level parallel performance data (Irvin & Miller, ICPP 1996).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compile = sub.add_parser("compile", help="compile a CMF program")
    p_compile.add_argument("file", help="CMF source file")
    p_compile.add_argument("--no-optimize", action="store_true", help="disable block merging")
    p_compile.add_argument("--listing", metavar="OUT", help="write the compiler listing here")
    p_compile.add_argument("--pif", metavar="OUT", help="write generated PIF here")

    p_run = sub.add_parser("run", help="execute a CMF program on the simulated machine")
    p_run.add_argument("file")
    p_run.add_argument("--nodes", type=int, default=4)
    p_run.add_argument("--arrays", default="", help="comma-separated arrays to print")
    p_run.add_argument("--scalars", default="", help="comma-separated scalars to print")

    p_measure = sub.add_parser("measure", help="run under Paradyn with requested metrics")
    p_measure.add_argument("file")
    p_measure.add_argument("--nodes", type=int, default=4)
    p_measure.add_argument(
        "--metric",
        action="append",
        default=[],
        metavar="NAME[@array=A|@line=N|@node=P]",
        help="metric request; repeatable",
    )
    p_measure.add_argument("--block-times", action="store_true", help="time every node code block")
    p_measure.add_argument(
        "--attribute", choices=("merge", "split"), help="attribute block CPU to source lines"
    )
    p_measure.add_argument("--where-axis", action="store_true", help="print the where axis")

    p_pc = sub.add_parser("consultant", help="run the Performance Consultant")
    p_pc.add_argument("file")
    p_pc.add_argument("--nodes", type=int, default=4)
    p_pc.add_argument("--threshold", type=float, default=0.15)
    p_pc.add_argument("--no-refine", action="store_true")

    sub.add_parser("metrics", help="list the Figure-9 MDL metric library")

    p_sweep = sub.add_parser(
        "sweep", help="run a study's configuration grid across a worker pool"
    )
    p_sweep.add_argument("study", choices=("db", "unix", "kernel"))
    p_sweep.add_argument(
        "--workers", type=int, default=None, help="pool size (default: cpu count)"
    )
    p_sweep.add_argument("--serial", action="store_true", help="run in-process, no pool")
    p_sweep.add_argument(
        "--chunk-size",
        type=int,
        default=None,
        metavar="N",
        help="tasks dispatched per worker round-trip (default: auto, "
        "~4 chunks per worker)",
    )
    p_sweep.add_argument(
        "--start-method",
        choices=("fork", "spawn", "forkserver"),
        default=None,
        help="multiprocessing start method (default: fork where available; "
        "fork hydrates the grid in workers by copy-on-write)",
    )
    p_sweep.add_argument(
        "--verify",
        action="store_true",
        help="also run serially and assert the results are byte-identical",
    )
    p_sweep.add_argument("--json", metavar="OUT", help="write results as JSON here")
    p_sweep.add_argument("--clients", default="", help="db: comma list of client counts")
    p_sweep.add_argument("--queries", default="", help="db: comma list of query counts")
    p_sweep.add_argument(
        "--scales", default="", help="kernel: comma list of clients:shards pairs"
    )
    p_sweep.add_argument("--seeds", default="", help="kernel: comma list of seeds")
    p_sweep.add_argument(
        "--capture",
        metavar="DIR",
        help="db/unix: record each task's run to DIR/<key>.rtrcx and fold the "
        "trace sha256 into the verified fingerprint",
    )

    p_trace = sub.add_parser(
        "trace", help="record .rtrcx trace files and analyze them post-mortem"
    )
    tsub = p_trace.add_subparsers(dest="trace_command", required=True)

    t_record = tsub.add_parser("record", help="run a study, persisting its trace")
    t_record.add_argument("study", choices=("db", "unix"))
    t_record.add_argument("--out", required=True, metavar="FILE.rtrcx", help="destination trace")
    t_record.add_argument("--clients", type=int, default=2, help="db: client count")
    t_record.add_argument("--queries", type=int, default=3, help="db: query count")
    t_record.add_argument(
        "--writes", default="2,1,0", help="unix: comma list of per-function write counts"
    )
    t_record.add_argument(
        "--no-causal", action="store_true", help="unix: disable causal write tags"
    )

    t_info = tsub.add_parser("info", help="summarize a trace file")
    t_info.add_argument("file")
    t_info.add_argument("--json", action="store_true")

    t_query = tsub.add_parser(
        "query", help="evaluate questions / windowed mappings retrospectively"
    )
    t_query.add_argument("file")
    t_query.add_argument(
        "--pattern",
        action="append",
        default=[],
        metavar='"{A Sum}[@Level]"',
        help="sentence pattern; repeat to build a conjunction question",
    )
    t_query.add_argument(
        "--ordered",
        action="store_true",
        help="require component activation times non-decreasing in pattern order",
    )
    t_query.add_argument("--node", type=int, default=None, help="restrict to one node")
    t_query.add_argument(
        "--window", type=float, default=0.0, help="lag window (seconds) for --mappings"
    )
    t_query.add_argument(
        "--mappings", action="store_true", help="report lag-windowed dynamic mappings"
    )
    t_query.add_argument(
        "--stats", action="store_true", help="per-sentence activation statistics"
    )
    t_query.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel segment-scan workers",
    )
    t_query.add_argument("--json", action="store_true")

    t_diff = tsub.add_parser("diff", help="compare two traces per sentence and level")
    t_diff.add_argument("file_a")
    t_diff.add_argument("file_b")
    t_diff.add_argument(
        "--tolerance", type=float, default=0.0, help="active-time delta to ignore"
    )
    t_diff.add_argument("--json", action="store_true")

    p_lint = sub.add_parser(
        "lint", help="statically check PIF/MDL/CMF mapping information and sanitize traces"
    )
    p_lint.add_argument(
        "files", nargs="+", metavar="FILE", help="inputs: .pif, .mdl, .cmf/.fcm, .rtrcx"
    )
    p_lint.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    p_lint.add_argument(
        "--fail-on",
        choices=("warn", "error"),
        default="error",
        help="exit 1 when findings at/above this severity exist (default: error)",
    )
    p_lint.add_argument(
        "--mdl-library",
        action="store_true",
        help="also lint the built-in Figure-9 MDL metric library",
    )
    p_lint.add_argument(
        "--jobs", type=int, default=None, metavar="N",
        help="parallel segment-scan workers for trace inputs",
    )
    p_lint.add_argument(
        "--deep",
        action="store_true",
        help="prove flow conservation and question liveness "
        "(NV017-NV021; whole-program semantic passes)",
    )

    p_mapc = sub.add_parser(
        "mapc", help="compile, check, format and decompile mapping DSL (.map) programs"
    )
    msub = p_mapc.add_subparsers(dest="mapc_command", required=True)

    m_check = msub.add_parser(
        "check", help="compile and NV-lint .map programs; findings carry line:col carets"
    )
    m_check.add_argument("files", nargs="+", metavar="FILE.map")
    m_check.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    m_check.add_argument(
        "--fail-on",
        choices=("warn", "error"),
        default="error",
        help="exit 1 when findings at/above this severity exist (default: error)",
    )
    m_check.add_argument(
        "--deep",
        action="store_true",
        help="prove flow conservation and question liveness "
        "(NV017-NV021), re-anchored to .map source spans",
    )

    m_build = msub.add_parser(
        "build", help="compile a .map program to PIF (and MDL) artifacts"
    )
    m_build.add_argument("file", metavar="FILE.map")
    m_build.add_argument("--pif", metavar="OUT", help="write the compiled PIF here")
    m_build.add_argument(
        "--mdl", metavar="OUT", help="write embedded metric blocks as MDL here"
    )
    m_build.add_argument(
        "--fail-on",
        choices=("warn", "error"),
        default="error",
        help="refuse to build when findings at/above this severity exist",
    )

    m_format = msub.add_parser(
        "format", help="rewrite .map programs in canonical layout"
    )
    m_format.add_argument("files", nargs="+", metavar="FILE.map")
    m_format.add_argument(
        "--write", action="store_true", help="rewrite files in place (default: stdout)"
    )
    m_format.add_argument(
        "--check",
        action="store_true",
        help="exit 1 if any file is not already canonically formatted",
    )

    m_decompile = msub.add_parser(
        "decompile", help="lift an existing PIF (and optional MDL) into DSL text"
    )
    m_decompile.add_argument("file", metavar="FILE.pif")
    m_decompile.add_argument(
        "--mdl", metavar="FILE.mdl", help="also lift these metric definitions"
    )
    m_decompile.add_argument("-o", "--out", metavar="OUT.map", help="write DSL text here")

    p_serve = sub.add_parser(
        "serve",
        help="stream Figure-6 question answers to subscribers over live or recorded runs",
    )
    p_serve.add_argument("--trace", metavar="FILE.rtrcx", help="recorded source")
    p_serve.add_argument(
        "--live", choices=("db",), default=None,
        help="live source: drive one dbsim study per subscriber batch",
    )
    p_serve.add_argument("--clients", type=int, default=2, help="live db: client count")
    p_serve.add_argument("--queries", type=int, default=3, help="live db: query count")
    p_serve.add_argument("--node", type=int, default=None, help="trace: restrict to one node")
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument("--port", type=int, default=0, help="0 picks a free port")
    p_serve.add_argument(
        "--port-file", default=None, metavar="FILE",
        help="write the bound port here once listening (for scripted clients)",
    )
    p_serve.add_argument(
        "--subscribers", type=int, default=1, metavar="N",
        help="collect N subscriptions into one shared evaluation batch",
    )
    p_serve.add_argument(
        "--once", action="store_true", help="serve a single batch, then exit"
    )
    p_serve.add_argument(
        "--shards", type=int, default=1,
        help="consistent-hash shards for the pattern-node table",
    )
    p_serve.add_argument(
        "--reject-dead",
        action="store_true",
        help="refuse subscriptions containing provably dead questions "
        "(patterns matching no recorded sentence); default warns only",
    )
    p_serve.add_argument(
        "--connect", metavar="HOST:PORT", default=None,
        help="client role: subscribe to a running server and print the answers",
    )
    p_serve.add_argument(
        "--pattern", action="append", default=[], metavar='"{A Sum}[@Level]"',
        help="client role: sentence pattern; repeat to build a conjunction question",
    )
    p_serve.add_argument(
        "--ordered", action="store_true",
        help="client role: require component activation times non-decreasing",
    )
    p_serve.add_argument("--name", default=None, help="client role: question name")
    p_serve.add_argument(
        "--no-stream", action="store_true",
        help="client role: summary only, skip per-interval events",
    )
    p_serve.add_argument("--json", action="store_true", help="client role: JSON output")

    p_fuzz = sub.add_parser(
        "fuzz", help="differential-test random programs against the oracle"
    )
    p_fuzz.add_argument("--count", type=int, default=20, help="programs to test")
    p_fuzz.add_argument("--seed", type=int, default=0, help="first seed")
    p_fuzz.add_argument("--nodes", type=int, default=4)
    p_fuzz.add_argument("--layouts", action="store_true", help="include LAYOUT directives")
    return parser


def _load(path: str, optimize: bool = True):
    from .cmfortran import compile_source

    source = Path(path).read_text(encoding="utf-8")
    return compile_source(source, source_file=path, optimize=optimize)


def _parse_metric_spec(spec: str) -> tuple[str, dict]:
    name, _, focus_text = spec.partition("@")
    focus: dict = {}
    if focus_text:
        key, _, value = focus_text.partition("=")
        if key == "array":
            focus["array"] = value
        elif key == "line":
            focus["line"] = int(value)
        elif key == "node":
            focus["node"] = int(value)
        else:
            raise SystemExit(f"bad metric focus {focus_text!r} (use array=/line=/node=)")
    return name, focus


def _cmd_compile(args) -> int:
    from .pif import dumps as pif_dumps, generate_pif

    program = _load(args.file, optimize=not args.no_optimize)
    print(f"program {program.name}: {len(program.plan.blocks)} node code blocks")
    for block in program.plan.blocks:
        print(f"  {block}")
    if program.lowering.merged_groups:
        print("merged statement groups (one-to-many mappings):")
        for name, lines in program.lowering.merged_groups:
            print(f"  {name} <- lines {', '.join(map(str, lines))}")
    if args.listing:
        Path(args.listing).write_text(program.listing, encoding="utf-8")
        print(f"listing written to {args.listing}")
    if args.pif:
        Path(args.pif).write_text(pif_dumps(generate_pif(program.listing)), encoding="utf-8")
        print(f"PIF written to {args.pif}")
    return 0


def _cmd_run(args) -> int:
    from .cmrts import run_program

    program = _load(args.file)
    runtime = run_program(program, num_nodes=args.nodes)
    print(f"completed in {runtime.elapsed * 1e3:.4f} virtual ms on {args.nodes} nodes")
    for name in filter(None, args.scalars.split(",")):
        print(f"  {name} = {runtime.scalar(name.strip()):g}")
    for name in filter(None, args.arrays.split(",")):
        print(f"  {name.strip()} = {runtime.array(name.strip())}")
    return 0


def _cmd_measure(args) -> int:
    from .paradyn import Paradyn, text_table

    program = _load(args.file)
    tool = Paradyn.for_program(program, num_nodes=args.nodes)
    for spec in args.metric:
        name, focus = _parse_metric_spec(spec)
        tool.request_metric(name, focus=focus or None)
    if args.block_times or args.attribute:
        tool.measure_block_times()
    tool.run()
    if args.metric:
        print(tool.report())
    if args.block_times:
        rows = [(n, f"{t.value():.6g}") for n, t in sorted(tool._block_timers.items())]
        print(text_table(rows, headers=("node code block", "CPU time (s)")))
    if args.attribute:
        attribution = tool.attribute(args.attribute)
        print(f"attribution ({args.attribute} policy):")
        for sent, cost in attribution.per_sentence.items():
            print(f"  {sent}: {cost}")
        for group, cost in attribution.per_group.items():
            print(f"  {group}: {cost}")
    if args.where_axis:
        print(tool.where_axis())
    return 0


def _cmd_consultant(args) -> int:
    from .paradyn import PerformanceConsultant

    program = _load(args.file)
    consultant = PerformanceConsultant(
        program, num_nodes=args.nodes, threshold=args.threshold
    )
    findings = consultant.search(refine=not args.no_refine)
    print(consultant.report(findings))
    return 0


def _cmd_metrics(_args) -> int:
    from .mdl import FIGURE9_ROWS, standard_metrics
    from .paradyn import text_table

    library = standard_metrics()
    rows = [
        (level, name, library[name].style, library[name].units, library[name].description)
        for level, name in FIGURE9_ROWS
    ]
    print(text_table(rows, headers=("level", "metric", "style", "units", "description")))
    return 0


def _sweep_headline(value: dict) -> str:
    """One-line summary of a study result for the sweep table."""
    parts = []
    for key, label in (
        ("elapsed", "elapsed"),
        ("final_time", "final_time"),
        ("forwarded_messages", "fwd"),
        ("unattributed_sas", "unattributed"),
        ("events", "events"),
    ):
        if key in value:
            v = value[key]
            parts.append(f"{label}={v:.6g}" if isinstance(v, float) else f"{label}={v}")
    return ", ".join(parts)


def _cmd_sweep(args) -> int:
    import json
    import time as _time

    from .paradyn import text_table
    from .sweep import SweepRunner, build_grid, fingerprint

    def ints(text: str) -> tuple[int, ...]:
        return tuple(int(x) for x in text.split(",") if x)

    options: dict = {}
    if args.study == "db":
        if args.clients:
            options["clients"] = ints(args.clients)
        if args.queries:
            options["queries"] = ints(args.queries)
    elif args.study == "kernel":
        if args.scales:
            options["scales"] = tuple(
                tuple(int(p) for p in pair.split(":")) for pair in args.scales.split(",") if pair
            )
        if args.seeds:
            options["seeds"] = ints(args.seeds)
    if args.capture:
        if args.study == "kernel":
            raise SystemExit("--capture needs a SAS-bearing study (db or unix)")
        options["capture_dir"] = args.capture
    tasks = build_grid(args.study, **options)

    # bad --chunk-size / unavailable --start-method raise ValueError, which
    # main() reports under the usage-error exit code (2)
    runner = SweepRunner(
        workers=1 if args.serial else args.workers,
        chunk_size=args.chunk_size,
        start_method=args.start_method,
    )
    t0 = _time.perf_counter()
    results = runner.run(tasks)
    dt = _time.perf_counter() - t0
    mode = "serial" if args.serial or runner.workers == 1 else f"{runner.workers} workers"
    print(f"{len(results)} configurations in {dt:.3f}s ({mode})")

    rows = [(r.key, _sweep_headline(r.value)) for r in results]
    print(text_table(rows, headers=("configuration", "summary")))

    if args.verify:
        serial = runner.run_serial(tasks)
        if fingerprint(serial) == fingerprint(results):
            print("verify: parallel results byte-identical to serial run")
        else:
            print("verify: MISMATCH between parallel and serial results")
            return 1
    if args.json:
        payload = [{"key": r.key, "seed": r.seed, "value": r.value} for r in results]
        Path(args.json).write_text(json.dumps(payload, indent=2), encoding="utf-8")
        print(f"results written to {args.json}")
    return 0


def _cmd_fuzz(args) -> int:
    import numpy as np

    from .cmfortran import compile_source, interpret
    from .cmrts import run_program
    from .workloads import random_program
    from .workloads.fuzz import FuzzConfig

    cfg = FuzzConfig(allow_layouts=args.layouts, num_2d_pairs=2 if args.layouts else 1)
    failures = 0
    for seed in range(args.seed, args.seed + args.count):
        source = random_program(seed, cfg)
        program = compile_source(source, f"fuzz{seed}.cmf")
        runtime = run_program(program, num_nodes=args.nodes)
        oracle = interpret(program.analyzed)
        bad = [
            name
            for name in program.symbols.arrays
            if not np.allclose(runtime.array(name), oracle.array(name))
        ] + [
            name
            for name in program.symbols.scalars
            if not np.isclose(runtime.scalar(name), oracle.scalar(name))
        ]
        if bad:
            failures += 1
            print(f"seed {seed}: DIVERGED on {', '.join(bad)}")
            print(source)
        else:
            print(f"seed {seed}: ok ({runtime.elapsed * 1e3:.3f} virtual ms)")
    print(f"{args.count - failures}/{args.count} programs matched the oracle")
    return 1 if failures else 0


def _trace_record(args) -> int:
    from .trace import ColumnarTraceWriter

    if args.study == "db":
        from .dbsim import Query, run_db_study

        queries = [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(args.queries)]
        meta = {"study": "db", "clients": args.clients, "queries": args.queries}
        with ColumnarTraceWriter(args.out, metadata=meta) as w:
            outcome = run_db_study(queries, num_clients=args.clients, recorder=w)
    else:
        from .unixsim import FunctionSpec, run_figure7_study

        writes = [int(x) for x in args.writes.split(",") if x]
        script = [
            FunctionSpec(f"f{i}", writes=n, compute_time=4e-4)
            for i, n in enumerate(writes)
        ]
        script.append(FunctionSpec("idle_tail", writes=0, compute_time=2e-2))
        meta = {"study": "unix", "writes": writes, "causal": not args.no_causal}
        with ColumnarTraceWriter(args.out, metadata=meta) as w:
            outcome = run_figure7_study(script, causal=not args.no_causal, recorder=w)
    print(
        f"recorded {w.transitions} transitions over {outcome.elapsed * 1e3:.4f} "
        f"virtual ms to {args.out}"
    )
    return 0


def _trace_info(args) -> int:
    import json

    from .trace import open_trace

    info = open_trace(args.file).info()
    if args.json:
        print(json.dumps(info, indent=2, sort_keys=True))
        return 0
    for key in (
        "path",
        "format",
        "bytes",
        "transitions",
        "metric_samples",
        "mappings",
        "sentences",
        "strings",
        "segments",
    ):
        print(f"{key}: {info[key]}")
    bounds = info["time_bounds"]
    if bounds is None:
        print("time_bounds: none (empty trace)")
    else:
        t0, t1 = bounds
        print(f"time_bounds: [{t0:.6g}, {t1:.6g}]")
    for level, n in sorted(info["sentences_by_level"].items()):
        print(f"  level {level!r}: {n} sentences")
    if info["meta"]:
        print(f"metadata: {json.dumps(info['meta'], sort_keys=True)}")
    return 0


def _trace_query(args) -> int:
    import json

    from .core import OrderedQuestion, PerformanceQuestion
    from .trace import (
        evaluate_questions,
        open_trace,
        parse_pattern,
        trace_stats,
        windowed_mappings,
    )

    reader = open_trace(args.file)
    payload: dict = {}
    if args.pattern:
        components = tuple(parse_pattern(text) for text in args.pattern)
        cls = OrderedQuestion if args.ordered else PerformanceQuestion
        question = cls(" & ".join(args.pattern), components)
        answers = evaluate_questions(reader, [question], node=args.node)
        payload["questions"] = {
            name: {
                "satisfied_time": a.satisfied_time,
                "transitions": a.transitions,
                "satisfied_at_end": a.satisfied_at_end,
            }
            for name, a in answers.items()
        }
    if args.mappings:
        found = windowed_mappings(reader, window=args.window, jobs=args.jobs)
        payload["mappings"] = [
            {
                "source": str(m.source),
                "destination": str(m.destination),
                "lag": m.lag,
                "overlaps": m.overlaps,
            }
            for m in found
        ]
    if args.stats or not payload:
        payload["stats"] = {
            str(sent): {
                "activations": st.activations,
                "active_time": st.active_time,
            }
            for sent, st in sorted(
                trace_stats(reader, jobs=args.jobs).items(), key=lambda kv: str(kv[0])
            )
        }
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    for name, ans in payload.get("questions", {}).items():
        state = "satisfied" if ans["satisfied_at_end"] else "not satisfied"
        print(
            f"question {name}: satisfied {ans['satisfied_time'] * 1e3:.4f} virtual ms "
            f"across {ans['transitions']} transitions ({state} at end)"
        )
    for m in payload.get("mappings", []):
        print(
            f"mapping {m['source']} -> {m['destination']} "
            f"(lag {m['lag'] * 1e3:.4f} ms, {m['overlaps']} overlaps)"
        )
    for sent, st in payload.get("stats", {}).items():
        print(
            f"{sent}: {st['activations']} activations, "
            f"{st['active_time'] * 1e3:.4f} virtual ms active"
        )
    return 0


def _trace_diff(args) -> int:
    import json

    from .trace import diff_traces, open_trace

    diff = diff_traces(
        open_trace(args.file_a), open_trace(args.file_b), time_tolerance=args.tolerance
    )
    if args.json:
        payload = {
            "identical": diff.is_identical(),
            "only_a": sorted(str(s) for s in diff.only_a),
            "only_b": sorted(str(s) for s in diff.only_b),
            "changed": {
                str(sent): {
                    "activations": [a.activations, b.activations],
                    "active_time": [a.active_time, b.active_time],
                }
                for sent, a, b in sorted(diff.changed, key=lambda c: str(c[0]))
            },
            "unchanged": diff.unchanged,
            "level_deltas": {
                level: {"activations": d_act, "active_time": d_time}
                for level, (d_act, d_time) in sorted(diff.level_deltas.items())
            },
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0 if diff.is_identical() else 1
    if diff.is_identical():
        print("traces are identical per sentence")
        return 0
    for sent in sorted(diff.only_a, key=str):
        print(f"only in A: {sent}")
    for sent in sorted(diff.only_b, key=str):
        print(f"only in B: {sent}")
    for sent, a, b in sorted(diff.changed, key=lambda c: str(c[0])):
        print(
            f"changed {sent}: activations {a.activations} -> {b.activations}, "
            f"active time {a.active_time:.6g}s -> {b.active_time:.6g}s"
        )
    print(f"{diff.unchanged} sentences unchanged")
    for level, (d_act, d_time) in sorted(diff.level_deltas.items()):
        print(f"level {level!r}: {d_act:+d} activations, {d_time:+.6g}s active time")
    return 1


def _cmd_lint(args) -> int:
    from .analyze import Severity, format_json, format_sarif, format_text, lint_paths

    result = lint_paths(
        args.files, mdl_library=args.mdl_library, jobs=args.jobs, deep=args.deep
    )
    formatter = {"json": format_json, "sarif": format_sarif, "text": format_text}
    print(formatter[args.format](result))
    return 1 if result.fails(Severity.parse(args.fail_on)) else 0


def _mapc_check(args) -> int:
    from .analyze import Severity, counts
    from .mapdsl import check_map

    results = [
        check_map(Path(path).read_text(encoding="utf-8"), path, deep=args.deep)
        for path in args.files
    ]
    diagnostics = [d for r in results for d in r.diagnostics]
    if args.format in ("json", "sarif"):
        from .analyze import LintResult, format_json, format_sarif

        formatter = format_sarif if args.format == "sarif" else format_json
        print(formatter(LintResult(diagnostics=diagnostics, inputs=list(args.files))))
    else:
        for r in results:
            if r.diagnostics:
                print(r.render())
        c = counts(diagnostics)
        print(
            f"{len(args.files)} input(s): "
            f"{c['error']} error(s), {c['warn']} warning(s), {c['info']} info"
        )
    worst = max((d.severity for d in diagnostics), default=None)
    return 1 if worst is not None and worst >= Severity.parse(args.fail_on) else 0


def _mapc_build(args) -> int:
    from .analyze import Severity
    from .mapdsl import check_map
    from .mdl import dumps_mdl
    from .pif import dumps as pif_dumps_text

    result = check_map(Path(args.file).read_text(encoding="utf-8"), args.file)
    threshold = Severity.parse(args.fail_on)
    blocking = [d for d in result.diagnostics if d.severity >= threshold]
    if result.elaborated is None or blocking:
        print(result.render())
        print(f"mapc: {args.file}: not built ({len(result.diagnostics)} finding(s))")
        return 1
    for d in result.diagnostics:  # below-threshold findings still print
        print(d.render())
    elab = result.elaborated
    doc = elab.document
    if args.pif:
        Path(args.pif).write_text(pif_dumps_text(doc), encoding="utf-8")
        print(f"PIF written to {args.pif}")
    if args.mdl:
        Path(args.mdl).write_text(dumps_mdl(elab.metrics), encoding="utf-8")
        print(f"MDL written to {args.mdl} ({len(elab.metrics)} metric(s))")
    if not args.pif and not args.mdl:
        print(pif_dumps_text(doc), end="")
        return 0
    print(
        f"compiled {args.file}: {len(doc.levels)} level(s), {len(doc.nouns)} noun(s), "
        f"{len(doc.verbs)} verb(s), {len(doc.mappings)} mapping(s)"
    )
    return 0


def _mapc_format(args) -> int:
    from .mapdsl import format_program, parse_map

    stale = []
    for path in args.files:
        source = Path(path).read_text(encoding="utf-8")
        text = format_program(parse_map(source))
        if args.check:
            if text != source:
                stale.append(path)
        elif args.write:
            if text != source:
                Path(path).write_text(text, encoding="utf-8")
                print(f"reformatted {path}")
        else:
            sys.stdout.write(text)
    for path in stale:
        print(f"{path}: not canonically formatted")
    return 1 if stale else 0


def _mapc_decompile(args) -> int:
    from .mapdsl import decompile
    from .mdl.parser import parse_mdl
    from .pif import load as load_pif

    doc = load_pif(args.file)
    metrics = None
    if args.mdl:
        metrics = parse_mdl(Path(args.mdl).read_text(encoding="utf-8"))
    text = decompile(doc, metrics)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"DSL written to {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _cmd_mapc(args) -> int:
    return {
        "check": _mapc_check,
        "build": _mapc_build,
        "format": _mapc_format,
        "decompile": _mapc_decompile,
    }[args.mapc_command](args)


def _cmd_serve(args) -> int:
    from .serve import (
        DbStudySource,
        QuestionSpec,
        TraceSource,
        run_client,
        run_server,
    )

    if args.connect:
        if not args.pattern:
            raise ValueError("serve --connect needs at least one --pattern")
        host, _, port_text = args.connect.rpartition(":")
        if not host or not port_text.isdigit():
            raise ValueError(f"bad --connect address {args.connect!r} (use HOST:PORT)")
        spec = QuestionSpec(
            patterns=tuple(args.pattern), ordered=args.ordered, name=args.name
        )
        return run_client(
            host,
            int(port_text),
            [spec],
            stream=not args.no_stream,
            json_output=args.json,
        )
    if args.trace:
        source = TraceSource(args.trace, node=args.node)
    elif args.live:
        source = DbStudySource(clients=args.clients, queries=args.queries)
    else:
        raise ValueError("serve needs --trace, --live, or --connect")
    return run_server(
        source,
        host=args.host,
        port=args.port,
        subscribers=args.subscribers,
        once=args.once,
        shards=args.shards,
        port_file=args.port_file,
        reject_dead=args.reject_dead,
    )


def _cmd_trace(args) -> int:
    return {
        "record": _trace_record,
        "info": _trace_info,
        "query": _trace_query,
        "diff": _trace_diff,
    }[args.trace_command](args)


_COMMANDS = {
    "compile": _cmd_compile,
    "run": _cmd_run,
    "measure": _cmd_measure,
    "consultant": _cmd_consultant,
    "metrics": _cmd_metrics,
    "sweep": _cmd_sweep,
    "fuzz": _cmd_fuzz,
    "trace": _cmd_trace,
    "serve": _cmd_serve,
    "lint": _cmd_lint,
    "mapc": _cmd_mapc,
}


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # output piped into a pager/head that closed early: not an error
        import os

        try:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        except OSError:
            pass
        return 0
    except Exception as exc:
        import os

        if os.environ.get("REPRO_DEBUG"):
            raise
        print(f"repro: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
