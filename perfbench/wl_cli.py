"""``cli``: an analyst's shell session of short real ``python -m repro`` commands.

Every command runs cold in a fresh interpreter, one at a time, so start-up
(interpreter plus ``import repro.cli``) dominates while the command bodies
do little.  Set-up runs each command once in-process through
``repro.cli.main`` to get its reference output; a cold command passes when
its output matches (or, for ``lint`` and ``sweep``, when it meets the
contract stated beside it).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import subprocess
import sys
import time
from pathlib import Path

from harness import (
    ROOT, CheckFailed, answer_json, check, latency_names, median, parallelism, run_child,
)

#: every command a session runs, in the names ``cli.work_ms.<name>`` uses
COMMANDS = (
    "measure",
    "trace_record",
    "trace_info",
    "trace_query",
    "lint",
    "mapc_check",
    "sweep",
    "metrics",
)
#: seconds one cold command may take before it counts as failed
COMMAND_LIMIT = 60.0
CORPUS = ROOT / "tests" / "analyze" / "corpus"
MAPS = sorted((ROOT / "examples").glob("*.map"))


class CliWorkload:
    name = "cli"
    connections = 0
    #: set-ups per run (setup_s is their median); one takes about 0.2 s
    setups = 11

    def __init__(self, seed: int, tmp: Path, tracer):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.rng = random.Random(f"cli:{seed}")
        self.workers = parallelism()
        self.layer_samples: dict[str, list[float]] = {}
        self.counts: dict[str, float] = {}

    # ------------------------------------------------------------------
    def setup(self) -> None:
        from repro.workloads import FuzzConfig, random_program

        rng, tmp = self.rng, self.tmp
        prog = tmp / "session.cmf"
        prog.write_text(
            random_program(rng.randrange(10**6), FuzzConfig(statements=8)),
            encoding="utf-8",
        )
        arrays = ("A0", "A1", "A2")
        metric = rng.choice(("summation_time", "computation_time", "rotation_time"))
        clients, queries = rng.randint(2, 4), rng.randint(4, 10)
        self.ref_trace = tmp / "ref.rtrcx"
        self.run_trace = tmp / "run.rtrcx"
        sweep_clients = ",".join(map(str, sorted(rng.sample(range(1, 5), 2))))
        sweep_queries = ",".join(map(str, sorted(rng.sample(range(2, 7), 2))))
        # linting several corpus files in one command adds cross-document
        # findings (NV001, NV003, NV015) that the per-file manifest does not
        # list, so the command lints one seeded file
        self.lint_files = sorted(
            str(p) for p in CORPUS.iterdir() if not p.name.startswith("manifest")
        )
        self.lint_file = rng.choice(self.lint_files)
        self.manifest = json.loads((CORPUS / "manifest_deep.json").read_text())
        self.argv = {
            "measure": ["measure", str(prog), "--metric",
                        f"{metric}@array={rng.choice(arrays)}", "--attribute", "merge"],
            "trace_record": ["trace", "record", "db", "--out", "{trace}",
                             "--clients", str(clients), "--queries", str(queries)],
            "trace_info": ["trace", "info", "{trace}"],
            "lint": ["lint", "--deep", "--format", "json", "{lint}"],
            "mapc_check": ["mapc", "check", "--deep", *map(str, MAPS)],
            "sweep": ["sweep", "db", "--workers", str(self.workers), "--verify",
                      "--clients", sweep_clients, "--queries", sweep_queries],
            "metrics": ["metrics"],
        }

        self.reference = {}
        for name in ("measure", "trace_record", "trace_info", "mapc_check", "metrics"):
            self.reference[name] = self._in_process(name, self.ref_trace)
        self.ref_bytes = self.ref_trace.read_bytes()
        self._plan_query(clients)
        self.reference["trace_query"] = self._query_reference()
        self.reference["sweep"] = _sweep_table(self._in_process("sweep", None))
        check(" 0 error(s), 0 warning(s)" in self.reference["mapc_check"],
              "shipped .map files are not clean")
        # a seeded order; the record -> info -> query chain stays in order
        units = [["measure"], ["trace_record", "trace_info", "trace_query"],
                 ["lint"], ["mapc_check"], ["sweep"], ["metrics"]]
        rng.shuffle(units)
        self.order = [name for unit in units for name in unit]

    def _plan_query(self, clients: int) -> None:
        from repro.trace import open_trace

        with open_trace(self.ref_trace) as reader:
            active = sorted(str(s) for s in reader.sentences if s.verb.name == "QueryActive")
        query = self.rng.choice(active)
        self.query_patterns = [f"{query}@Database", "{server0 DiskRead}@DB Server"]
        self.query_ordered = self.rng.random() < 0.5
        self.query_node = self.rng.choice((None, clients))  # the server node
        argv = ["trace", "query", "{trace}"]
        for p in self.query_patterns:
            argv += ["--pattern", p]
        if self.query_ordered:
            argv.append("--ordered")
        if self.query_node is not None:
            argv += ["--node", str(self.query_node)]
        self.argv["trace_query"] = argv + ["--json"]

    def _query_reference(self) -> str:
        """``trace query --json`` output, from the batch evaluator."""
        from repro.core import OrderedQuestion, PerformanceQuestion
        from repro.trace import open_trace, parse_pattern
        from repro.trace.retro import evaluate_question_batch

        cls = OrderedQuestion if self.query_ordered else PerformanceQuestion
        question = cls(
            " & ".join(self.query_patterns),
            tuple(parse_pattern(p) for p in self.query_patterns),
        )
        with open_trace(self.ref_trace) as reader:
            answers = evaluate_question_batch(reader, [question], node=self.query_node)
        return answer_json(answers) + "\n"

    def _args(self, name: str, trace: Path | None) -> list[str]:
        fill = {"{trace}": str(trace), "{lint}": self.lint_file}
        return [fill.get(a, a) for a in self.argv[name]]

    def _in_process(self, name: str, trace: Path | None) -> str:
        from repro.cli import main

        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            rc = main(self._args(name, trace))
        text = out.getvalue()
        check(rc == _expected_rc(name, text), f"in-process {name} exited {rc}")
        return text.replace(str(trace), "{trace}") if trace else text

    def _lint_ok(self, text: str) -> bool:
        """Each linted file reports exactly its manifest_deep.json codes."""
        result = json.loads(text)
        codes: dict[str, set[str]] = {Path(f).name: set() for f in result["inputs"]}
        for d in result["diagnostics"]:
            codes[Path(d["path"]).name].add(d["code"])
        return bool(codes) and all(sorted(v) == self.manifest[k] for k, v in codes.items())

    # ------------------------------------------------------------------
    def _check(self, name: str, proc: subprocess.CompletedProcess) -> None:
        check(proc.returncode == _expected_rc(name, proc.stdout),
              f"{name} exited {proc.returncode}: {proc.stderr.strip()[-300:]}")
        out = proc.stdout.replace(str(self.run_trace), "{trace}")
        if name == "lint":
            check(self._lint_ok(out), f"{self.lint_file}: codes differ from manifest_deep.json")
        elif name == "sweep":
            check("verify: parallel results byte-identical" in out, "sweep --verify failed")
            check(_sweep_table(out) == self.reference["sweep"], "sweep table differs")
        else:
            check(out == self.reference[name], f"{name} output differs from reference")
        if name == "trace_record":
            check(self.run_trace.read_bytes() == self.ref_bytes,
                  "recording differs from the set-up recording")

    def _cold(self, name: str):
        def op() -> float:
            argv = [sys.executable, "-m", "repro", *self._args(name, self.run_trace)]
            with self.tracer.span(f"cli.cmd.{name}"):
                t0 = time.perf_counter()
                proc = run_child(argv, COMMAND_LIMIT, self.tmp)
                elapsed = time.perf_counter() - t0
            self._check(name, proc)
            if self.tracer.enabled:
                self._work(name)
            return elapsed

        return op

    def _work(self, name: str) -> float:
        """Traced only: the same command body in-process, after imports."""
        trace = self.tmp / "inproc.rtrcx" if name == "trace_record" else self.ref_trace
        with self.tracer.span(f"cli.work_ms.{name}"):
            t0 = time.perf_counter()
            out = self._in_process(name, trace)
            elapsed = time.perf_counter() - t0
        if name == "lint":
            check(self._lint_ok(out), f"{self.lint_file}: codes differ from manifest_deep.json")
        elif name == "sweep":
            check(_sweep_table(out) == self.reference["sweep"], "sweep table differs")
        else:
            check(out == self.reference[name], f"in-process {name} output differs")
        return elapsed

    def sessions(self, _ops):
        """Endless sessions, each running every command once in the
        run's seeded order."""
        while True:
            yield [("cmd", self._cold(name), COMMAND_LIMIT + 5) for name in self.order]

    def direct_layers(self) -> float:
        """Traced only: the start-up split and the analyzers called directly."""
        from repro.analyze import lint_paths
        from repro.mapdsl import check_map

        t0 = time.perf_counter()
        for _ in range(3):
            interp = _spawn_ms(["-c", "pass"])
            imported = _spawn_ms(["-c", "import repro.cli"])
            self.layer_samples.setdefault("cli.interp_ms", []).append(interp)
            self.layer_samples.setdefault("cli.import_ms", []).append(imported - interp)
        counted = run_child(
            [sys.executable, "-c",
             "import sys; n = len(sys.modules); import repro.cli; "
             "print(len(sys.modules) - n)"],
            COMMAND_LIMIT, self.tmp,
        )
        self.counts["cli.modules"] = float(counted.stdout.strip())
        with self.tracer.span("analyze.lint_ms"):
            results = [lint_paths([path], deep=True) for path in self.lint_files]
        for path, result in zip(self.lint_files, results):
            check(result.codes() == self.manifest[Path(path).name],
                  f"{path}: lint_paths codes differ from manifest_deep.json")
        with self.tracer.span("mapdsl.check_ms"):
            for path in MAPS:
                check_map(path.read_text(encoding="utf-8"), str(path), deep=True)
        return time.perf_counter() - t0

    # ------------------------------------------------------------------
    def e2e(self, ops) -> dict:
        return {"op": ops.samples["cmd"], "sessions": ops.sessions}

    def named(self, ops) -> list[tuple[str, float, str, str]]:
        """The e2e figures under this workload's own names."""
        return latency_names("cmd", ops.samples["cmd"])

    def layers(self) -> dict[str, tuple[float, str]]:
        selfs = self.tracer.self_times()
        out = {
            "cli.interp_ms": (median(self.layer_samples.get("cli.interp_ms", [])), "ms"),
            "cli.import_ms": (median(self.layer_samples.get("cli.import_ms", [])), "ms"),
            "cli.modules": (self.counts.get("cli.modules", float("nan")), "count"),
            "analyze.lint_ms": (1e3 * median(selfs.get("analyze.lint_ms", [])), "ms"),
            "mapdsl.check_ms": (1e3 * median(selfs.get("mapdsl.check_ms", [])), "ms"),
        }
        for name in COMMANDS:
            key = f"cli.work_ms.{name}"
            out[key] = (1e3 * median(selfs.get(key, [])), "ms")
        return out

    def teardown(self) -> None:
        pass


def _expected_rc(name: str, stdout: str) -> int:
    """0, except that lint exits 1 when it reports an error-level finding."""
    if name == "lint":
        return 1 if json.loads(stdout)["counts"]["error"] else 0
    return 0


def _sweep_table(text: str) -> list[str]:
    """The result table of ``repro sweep``, without its timing line."""
    lines = text.splitlines()
    return [ln for ln in lines[1:] if not ln.startswith(("verify:", "results written"))]


def _spawn_ms(args: list[str]) -> float:
    t0 = time.perf_counter()
    proc = run_child([sys.executable, *args], COMMAND_LIMIT, ROOT)
    elapsed = 1e3 * (time.perf_counter() - t0)
    if proc.returncode != 0:
        raise CheckFailed(f"python {' '.join(args)} exited {proc.returncode}")
    return elapsed
