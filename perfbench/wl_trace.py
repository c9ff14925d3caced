"""``trace``: a post-mortem session on one large recorded run.

A seeded CMF program (an outer ``DO`` loop around a ``random_program``
body, iterated until the run makes about 100k SAS transitions over three
levels) runs on 8 simulated nodes under ``Paradyn`` with SAS-gated metric
requests and a few live Figure-6 questions, recording to ``.rtrcx``.  A
session then re-records it (write), answers seeded questions against the
recording one at a time as ``repro trace query --json`` does (read), sends
two-connection subscription batches to a ``repro serve --trace`` child
(serve), and builds one stats + mappings report.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import math
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from harness import CheckFailed, answer_fields, answer_json, check, latency_names, median

NODES = 8
#: SAS transitions the recorded run aims for
TARGET = 100_000
#: per-session op counts: every session asks the same questions and sends
#: the same batches
QUESTIONS = 30
BATCHES = 4
CONNECTIONS = 2
QUESTIONS_PER_CLIENT = 2
LIMIT = {"record": 120.0, "question": 30.0, "subscribe": 30.0, "report": 120.0}


@dataclass(frozen=True)
class Spec:
    """One generated question: patterns, ordering and an optional node."""

    name: str
    patterns: tuple[str, ...]
    ordered: bool = False
    node: int | None = None

    def question(self):
        from repro.core import OrderedQuestion, PerformanceQuestion
        from repro.trace import parse_pattern

        cls = OrderedQuestion if self.ordered else PerformanceQuestion
        return cls(self.name, tuple(parse_pattern(p) for p in self.patterns))


def _pattern(sentence, wildcard: bool = False) -> str:
    nouns = ["?"] if wildcard else [n.name for n in sentence.nouns]
    return "{" + " ".join([*nouns, sentence.verb.name]) + "}@" + sentence.abstraction


def _looped_arithmetic():
    """The loop repeats a body generated to run once, so array values may
    overflow; only the run's SAS activity is measured, never its values."""
    import numpy

    return numpy.errstate(over="ignore", invalid="ignore")


class _Collect:
    """Counts SAS transitions and collects the sentences they carry."""

    def __init__(self) -> None:
        self.n = 0
        self.sentences: set = set()

    def transition(self, _time, _kind, sentence, _node_id) -> None:
        self.n += 1
        self.sentences.add(sentence)


class TraceWorkload:
    name = "trace"
    workers = 0
    connections = CONNECTIONS
    #: set-ups per run (setup_s is their median); one takes about 4 s
    setups = 3

    def __init__(self, seed: int, tmp: Path, tracer):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.rng = random.Random(f"trace:{seed}")
        self.server: subprocess.Popen | None = None
        self.reader = None
        self.counts: dict[str, list[float]] = {}
        self.first_report: str | None = None

    # ------------------------------------------------------------------
    # set-up
    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.trace import open_trace
        from repro.trace.retro import evaluate_question_batch

        self._make_program()
        self._plan_questions()
        self.path = self.tmp / "setup.rtrcx"
        self._record(self.path)
        self.ref_bytes = self.path.read_bytes()
        self.reader = open_trace(self.path)
        self.reference: dict[str, str] = {}
        by_node: dict[int | None, list[Spec]] = {}
        for spec in self.pool:
            by_node.setdefault(spec.node, []).append(spec)
        self.ref_answers = {}
        for node, specs in by_node.items():
            answers = evaluate_question_batch(
                self.reader, [s.question() for s in specs], node=node
            )
            self.ref_answers.update(answers)
            for name, answer in answers.items():
                self.reference[name] = answer_json({name: answer})
        # one-sentence questions whose pattern matches exactly one sentence:
        # satisfied exactly while that sentence is active (the report check)
        self.cross = []
        for spec in self.pool:
            if spec.node is None and len(spec.patterns) == 1 and not spec.ordered:
                (pattern,) = spec.question().components
                hits = [s for s in self.reader.sentences if pattern.matches(s)]
                if len(hits) == 1:
                    self.cross.append((spec.name, hits[0]))
        self._start_server()

    def _program(self, iterations: int) -> str:
        return "\n".join(
            [*self.head, f"  DO ITER = 1, {iterations}", *self.body, "  ENDDO", "END"]
        ) + "\n"

    def _make_program(self) -> None:
        from repro.workloads import FuzzConfig, random_program

        cfg = FuzzConfig(statements=12)
        lines = random_program(self.rng.randrange(10**6), cfg).splitlines()
        end = lines.index("END")
        last_decl = max(
            i for i, ln in enumerate(lines[:end]) if ln.lstrip().startswith(("REAL", "LAYOUT"))
        )
        n_init = cfg.num_1d_arrays + cfg.num_2d_pairs
        self.head = lines[: last_decl + 1 + n_init]
        self.body = lines[last_decl + 1 + n_init : end]
        one, two = self._calibrate(1), self._calibrate(2)
        per_iteration = max(1, two.n - one.n)
        fixed = one.n - per_iteration
        self.iterations = max(1, round((TARGET - fixed) / per_iteration))
        self.text = self._program(self.iterations)
        self.table = sorted(two.sentences, key=str)
        arrays = sorted({s.nouns[0].name for s in self.table if s.abstraction == "CM Fortran"
                         and s.verb.name != "Executes"})
        self.metric_requests = [
            ("summation_time", {"array": self.rng.choice(arrays)}),
            ("computation_time", {"array": self.rng.choice(arrays)}),
        ]
        self.meta = {"seed": self.seed, "iterations": self.iterations}

    def _calibrate(self, iterations: int) -> _Collect:
        from repro.cmfortran import compile_source
        from repro.paradyn import Paradyn

        tool = Paradyn.for_program(
            compile_source(self._program(iterations), "bench.cmf"), num_nodes=NODES
        )
        collect = _Collect()
        for sas in tool.sases:
            sas.attach_recorder(collect)
        with _looped_arithmetic():
            tool.run()
        return collect

    def _plan_questions(self) -> None:
        """A fixed mix per ten questions; the seed picks their sentences,
        the batches and the order they are asked in."""
        rng = self.rng
        by_level: dict[str, list] = {}
        for sentence in self.table:
            by_level.setdefault(sentence.abstraction, []).append(sentence)
        levels = sorted(by_level)
        nodes = sorted(rng.sample(range(NODES), 2))

        def pick(level=None):
            return rng.choice(by_level[level or rng.choice(levels)])

        def across(k):
            return [_pattern(pick(level)) for level in rng.sample(levels, k)]

        makers = [
            lambda: (_pattern(pick()),),
            lambda: (_pattern(pick()),),
            lambda: tuple(across(2)),
            lambda: tuple(across(2)),
            lambda: tuple(across(3)),
            lambda: (_pattern(pick(), wildcard=True), _pattern(pick())),
            lambda: (_pattern(pick(), wildcard=True),),
        ]
        pool: list[Spec] = []
        while len(pool) < QUESTIONS:
            for make in makers:
                pool.append(Spec(f"q{len(pool)}", make()))
            for patterns, extra in (
                (tuple(across(2)), {"ordered": True}),
                ((_pattern(pick()),), {"node": nodes[0]}),
                (tuple(across(2)), {"node": nodes[1]}),
            ):
                pool.append(Spec(f"q{len(pool)}", patterns, **extra))
        self.pool = pool
        plain = [s for s in pool if s.node is None]
        self.batches = [
            [rng.sample(plain, QUESTIONS_PER_CLIENT) for _ in range(CONNECTIONS)]
            for _ in range(BATCHES)
        ]
        self.live = [(spec, rng.randrange(NODES)) for spec in rng.sample(plain, 3)]
        self.order = rng.sample(pool, len(pool))

    def _start_server(self) -> None:
        port_file = self.tmp / "serve.port"
        self.server_log = (self.tmp / "serve.log").open("w")
        self.server = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--trace", str(self.path),
             "--subscribers", str(CONNECTIONS), "--port", "0",
             "--port-file", str(port_file)],
            cwd=self.tmp, stdout=subprocess.DEVNULL, stderr=self.server_log,
        )
        deadline = time.monotonic() + 60
        while not (port_file.exists() and port_file.read_text().strip()):
            if self.server.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(f"repro serve did not start (exit {self.server.poll()})")
            time.sleep(0.02)
        self.port = int(port_file.read_text())

    def teardown(self) -> None:
        if self.server is not None:
            self.server.terminate()
            try:
                self.server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.server.kill()
                self.server.wait()
            self.server = None
            self.server_log.close()
        if self.reader is not None:
            self.reader.close()
            self.reader = None

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def _record(self, path: Path) -> float:
        """Compile, run, record and close; then check the live questions."""
        from repro.cmfortran import compile_source
        from repro.paradyn import Paradyn
        from repro.trace import ColumnarTraceWriter, evaluate_questions, open_trace

        span = self.tracer.span
        t0 = time.perf_counter()
        with span("cmfortran.compile_ms"):
            program = compile_source(self.text, "bench.cmf")
        with span("paradyn.setup_ms"):
            tool = Paradyn.for_program(program, num_nodes=NODES)
            for metric, focus in self.metric_requests:
                tool.request_metric(metric, focus=focus)
            live = [(spec, node, tool.ask_question(spec.question(), node=node))
                    for spec, node in self.live]
        writer = ColumnarTraceWriter(path, metadata=self.meta)
        try:
            tool.record_to(writer)
            with span("trace.record_run"), _looped_arithmetic():
                tool.run()
                writer.close()
        finally:
            writer.close()
        elapsed = time.perf_counter() - t0
        end = tool.elapsed
        with open_trace(path) as reader:
            for spec, node, request in live:
                w = request.watchers[node]
                retro = evaluate_questions(reader, [spec.question()], node=node, end_time=end)
                a = retro[spec.name]
                check((a.satisfied_time, a.transitions, a.satisfied_at_end)
                      == (w.total_satisfied_time(end), w.transitions, w.satisfied),
                      f"retro answer to live question {spec.name} on node {node} differs")
            if self.tracer.enabled:
                self._count("trace.bytes_per_transition", path.stat().st_size / writer.transitions)
                self._count("trace.segments", len(reader.segments))
                self._count("sas.notifications", sum(s.notifications for s in tool.sases))
                self._count("instrument.executions", tool.instrumentation.total_executions)
        return elapsed

    def _plain_run(self) -> None:
        """Traced only: the same run with recording off."""
        from repro.cmfortran import compile_source
        from repro.paradyn import Paradyn

        tool = Paradyn.for_program(compile_source(self.text, "bench.cmf"), num_nodes=NODES)
        for metric, focus in self.metric_requests:
            tool.request_metric(metric, focus=focus)
        for spec, node in self.live:
            tool.ask_question(spec.question(), node=node)
        with self.tracer.span("paradyn.run_ms"), _looped_arithmetic():
            tool.run()

    def _record_op(self) -> float:
        path = self.tmp / "timed.rtrcx"
        elapsed = self._record(path)
        check(path.read_bytes() == self.ref_bytes, "recording differs from the set-up recording")
        path.unlink()
        if self.tracer.enabled:
            self._plain_run()
        return elapsed

    def _question_op(self, spec: Spec):
        def op() -> float:
            from repro.trace import evaluate_questions, open_trace

            span = self.tracer.span
            t0 = time.perf_counter()
            with span("scan.open_ms"):
                reader = open_trace(self.path)
            try:
                with span("retro.evaluate"):
                    answers = evaluate_questions(reader, [spec.question()], node=spec.node)
                with span("format.json_ms"):
                    text = answer_json(answers)
                elapsed = time.perf_counter() - t0
            finally:
                reader.close()
            check(text == self.reference[spec.name],
                  f"answer to {spec.name} differs from evaluate_question_batch")
            if self.tracer.enabled:
                self._decode(spec)
            return elapsed

        return op

    def _decode(self, spec: Spec) -> None:
        """Traced only: decode, without answering, the stream that
        ``evaluate_questions`` replays for this question.

        ``batch_event_plan`` takes the same pushdown branch: a pruned scan,
        or, when a node filter keeps the scan from being pushed down, every
        transition in the file, filtered here.  (Its ``prune_dead`` drops
        nothing: every pattern comes from a sentence in the table.)  The
        segment and event ratios describe pruned scans only.
        """
        from repro.trace import question_sids
        from repro.trace.retro import batch_event_plan

        question = spec.question()
        with self.tracer.span("scan.decode_ms"):
            events, pushed, _end = batch_event_plan(self.reader, [question], node=spec.node)
            if pushed or spec.node is None:
                n = sum(1 for _ in events)
            else:
                n = sum(1 for e in events if e.node_id == spec.node)
        if pushed:
            sids = question_sids(self.reader.sentences, [question], prune_dead=True)
            kept = self.reader.prune_segments(sids=sids)
            scanned = sum(self.reader.segments[i].n_trans for i in kept)
            self._count("scan.segments_ratio", len(kept) / len(self.reader.segments))
            self._count("scan.events_ratio", n / scanned if scanned else 0.0)

    def _subscribe_op(self, batch):
        # answers do not depend on what else a batch holds, so the set-up
        # batch answers serve as the reference for every subscription
        reference = self.ref_answers

        def op() -> float:
            with self.tracer.span("serve.batch"):
                t0 = time.perf_counter()
                replies = asyncio.run(self._round_trip(batch))
                elapsed = time.perf_counter() - t0
            for client, (summary, end_time, streamed, _lines) in zip(batch, replies):
                names = [s.name for s in client]
                want = answer_fields({n: reference[n] for n in names})
                check(json.dumps(summary, sort_keys=True) == json.dumps(want, sort_keys=True),
                      "serve summary differs from evaluate_question_batch")
                check(end_time == reference[names[0]].end_time, "serve end_time differs")
                for n in names:
                    check(streamed.get(n, 0.0) == summary[n]["satisfied_time"],
                          f"streamed intervals of {n} do not sum to its summary")
            if self.tracer.enabled:
                self._batch_in_process(batch)
                self._count("serve.lines", sum(r[3] for r in replies))
            return elapsed

        return op

    async def _round_trip(self, batch):
        return await asyncio.gather(*(self._client(specs) for specs in batch))

    async def _client(self, specs):
        reader, writer = await asyncio.open_connection("127.0.0.1", self.port)
        try:
            request = {"questions": [{"name": s.name, "patterns": list(s.patterns),
                                      "ordered": s.ordered} for s in specs],
                       "stream": True}
            writer.write(json.dumps(request).encode() + b"\n")
            await writer.drain()
            summary, end_time, streamed, lines = None, None, {}, 0
            while True:
                line = await reader.readline()
                if not line:
                    raise CheckFailed("server closed the stream before its end event")
                lines += 1
                msg = json.loads(line)
                event = msg.get("event")
                if event == "error":
                    raise CheckFailed(f"serve error event: {msg.get('message')}")
                if event == "interval":
                    q = msg["question"]
                    streamed[q] = streamed.get(q, 0.0) + (msg["end"] - msg["start"])
                elif event == "summary":
                    summary, end_time = msg["questions"], msg["end_time"]
                elif event == "end":
                    break
            check(summary is not None, "no summary before end")
            return summary, end_time, streamed, lines
        finally:
            writer.close()

    def _batch_in_process(self, batch) -> None:
        """Traced only: the batch's questions through one shared engine."""
        from repro.core import MultiQuestionEngine
        from repro.trace.retro import evaluate_question_batch

        specs = {s.name: s for client in batch for s in client}
        engine = MultiQuestionEngine()
        with self.tracer.span("retro.batch_ms"):
            evaluate_question_batch(self.reader, [s.question() for s in specs.values()],
                                    engine=engine)
        self._count("multiq.nodes_per_question", len(engine.nodes) / len(engine.subscriptions))

    def _report_op(self) -> float:
        from repro.trace import open_trace, trace_stats, windowed_mappings

        span = self.tracer.span
        t0 = time.perf_counter()
        with open_trace(self.path) as reader:
            with span("retro.intervals_ms"):
                stats = trace_stats(reader)
            with span("retro.mappings_ms"):
                mappings = windowed_mappings(reader)
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256(repr((
            sorted((str(s), v.activations, v.active_time) for s, v in stats.items()),
            [(str(m.source), str(m.destination), m.lag, m.overlaps) for m in mappings],
        )).encode()).hexdigest()
        if self.first_report is None:
            self.first_report = digest
        check(digest == self.first_report, "report differs between sessions")
        for name, sentence in self.cross:
            want = self.ref_answers[name].satisfied_time
            check(math.isclose(stats[sentence].active_time, want, rel_tol=1e-9, abs_tol=1e-15),
                  f"stats active time of {sentence} differs from question {name}")
        return elapsed

    def sessions(self, _ops):
        """Endless identical sessions: record, the questions in the run's
        seeded order with a batch after every sixth, then the report."""
        ops = [("record", self._record_op, LIMIT["record"])]
        pending = list(self.batches)
        for i, spec in enumerate(self.order, 1):
            ops.append(("question", self._question_op(spec), LIMIT["question"]))
            if i % 6 == 0 and pending:
                ops.append(("subscribe", self._subscribe_op(pending.pop(0)), LIMIT["subscribe"]))
        ops.append(("report", self._report_op, LIMIT["report"]))
        while True:
            yield ops

    # ------------------------------------------------------------------
    # figures
    # ------------------------------------------------------------------
    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def e2e(self, ops) -> dict:
        return {"op": ops.samples["question"], "sessions": ops.sessions}

    def named(self, ops) -> list[tuple[str, float, str, str]]:
        s = ops.samples
        return [
            ("record_s", median(s["record"]), "s", f"n={len(s['record'])}"),
            *latency_names("question", s["question"]),
            ("subscribe_p50_ms", 1e3 * median(s["subscribe"]), "ms", f"n={len(s['subscribe'])}"),
            ("report_s", median(s["report"]), "s", f"n={len(s['report'])}"),
        ]

    def layers(self) -> dict[str, tuple[float, str]]:
        selfs = self.tracer.self_times()

        def ms(name):
            return 1e3 * median(selfs.get(name, []))

        def count(name):
            return median(self.counts.get(name, []))

        def paired(a, b, combine):
            """Median over ops of ``combine`` applied to two spans of one op."""
            da, db = self.tracer.by_op(a), self.tracer.by_op(b)
            return median([combine(da[op], db[op]) for op in da if op in db])

        return {
            "cmfortran.compile_ms": (ms("cmfortran.compile_ms"), "ms"),
            "paradyn.setup_ms": (ms("paradyn.setup_ms"), "ms"),
            "paradyn.run_ms": (ms("paradyn.run_ms"), "ms"),
            "sas.notifications": (count("sas.notifications"), "count"),
            "instrument.executions": (count("instrument.executions"), "count"),
            "trace.record_overhead": (
                paired("trace.record_run", "paradyn.run_ms", lambda r, p: r / p - 1), "ratio"),
            "trace.bytes_per_transition": (count("trace.bytes_per_transition"), "B"),
            "trace.segments": (count("trace.segments"), "count"),
            "scan.open_ms": (ms("scan.open_ms"), "ms"),
            "scan.decode_ms": (ms("scan.decode_ms"), "ms"),
            "scan.segments_ratio": (count("scan.segments_ratio"), "ratio"),
            "scan.events_ratio": (count("scan.events_ratio"), "ratio"),
            "retro.answer_ms": (
                1e3 * paired("retro.evaluate", "scan.decode_ms", lambda e, d: e - d), "ms"),
            "format.json_ms": (ms("format.json_ms"), "ms"),
            "retro.batch_ms": (ms("retro.batch_ms"), "ms"),
            "multiq.nodes_per_question": (count("multiq.nodes_per_question"), "ratio"),
            "serve.overhead_ms": (
                1e3 * paired("serve.batch", "retro.batch_ms", lambda t, b: t - b), "ms"),
            "serve.lines": (count("serve.lines"), "count"),
            "retro.intervals_ms": (ms("retro.intervals_ms"), "ms"),
            "retro.mappings_ms": (ms("retro.mappings_ms"), "ms"),
        }
