"""``live``: a parameter study of live dbsim client/server runs.

A seeded grid of studies goes through ``SweepRunner`` on ``min(2, nproc)``
workers, as ``repro sweep db`` does.  Each study is one ``db_task``
configuration (the same query list and fault plan) run through
``run_db_study``, so the check can read the outcome's local-question total,
which ``db_task``'s summary leaves out.  Nothing is read back from disk:
the simulator, the server SAS's live question watchers, the forwarding bus
and sweep dispatch do the work.
"""

from __future__ import annotations

import random
import time
from pathlib import Path

from harness import kill_descendants, latency_names, median, parallelism

#: query counts, one stratum each.  A study's cost grows with the square of
#: its query count, so the seed only jitters a count within its stratum and
#: every grid holds the same spread of small and large studies.  An odd
#: number of strata puts the median study inside the middle stratum.
QUERY_STRATA = tuple(round(20 * (250 / 20) ** (i / 12)) for i in range(13))
#: each stratum runs once with few clients and once with many, the counts
#: cycling over the strata.  A study's cost moves by up to a fifth with its
#: client count, and not monotonically, so seeded counts would make whole
#: grids differ in cost from seed to seed.
CLIENT_CYCLES = ((2, 3, 4), (5, 6, 7, 8))
#: one study in three, seeded, runs under a seeded FaultPlan
FAULT_SHARE = 3
#: set-up runs this many of the smallest studies serially, as references
REFERENCE_STUDIES = 8
SWEEP_LIMIT = 300.0


def study_task(num_clients, num_queries, fault_seed, recorder=None):
    """One study, timed inside whichever process runs it."""
    from repro.dbsim import FaultPlan, Query, run_db_study

    queries = [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(num_queries)]
    fault_plan = None
    if fault_seed is not None:
        fault_plan = FaultPlan(drop=0.1, duplicate=0.05, delay=0.2, seed=fault_seed)
    t0 = time.perf_counter()
    out = run_db_study(
        queries, num_clients=num_clients, fault_plan=fault_plan, recorder=recorder
    )
    elapsed = time.perf_counter() - t0
    return {
        "task_s": elapsed,
        "clients": num_clients,
        "faults": fault_seed is not None,
        "ground_truth": out.ground_truth,
        "measured": out.measured,
        "local_reads": out.total_reads_local_question,
        "bus": out.bus_stats,
        "server_notifications": out.server_sas_notifications,
        "stray_watchers": out.stray_watchers,
        "per_query_watcher_time": out.per_query_watcher_time,
        "elapsed": out.elapsed,
    }


def study_errors(v: dict) -> list[str]:
    """The invariants every study keeps; an empty list means it passed."""
    truth, measured, bus = v["ground_truth"], v["measured"], v["bus"]
    errors = []
    if v["local_reads"] != sum(truth.values()):
        errors.append("local-question total differs from ground truth")
    if not (bus["fwd_transitions_applied"] == bus["fwd_transitions_forwarded"]
            == 2 * len(truth) and bus["fwd_gave_up"] == 0):
        errors.append("a forwarded transition was not applied exactly once")
    if v["stray_watchers"]:
        errors.append("client SAS hooks left behind")
    # delay faults legitimately under-credit, so only fault-free studies
    # promise measured >= truth (and equality with one client)
    if not v["faults"]:
        if any(measured[q] < truth[q] for q in truth):
            errors.append("measured reads below ground truth")
        if v["clients"] == 1 and measured != truth:
            errors.append("one-client study measured != ground truth")
    return errors


def _outcome(summary: dict) -> dict:
    """A study summary without its timing."""
    return {k: v for k, v in summary.items() if k != "task_s"}


class _ServerCapture:
    """A ``recorder=`` that keeps the server node's transitions."""

    def __init__(self, node: int) -> None:
        self.node = node
        self.events: list = []

    def transition(self, time_, kind, sentence, node_id) -> None:
        if node_id == self.node:
            self.events.append((time_, kind, sentence))


class LiveWorkload:
    name = "live"
    connections = 0
    #: set-ups per run (setup_s is their median); one takes about 0.15 s
    setups = 11

    def __init__(self, seed: int, tmp: Path, tracer):
        self.seed = seed
        self.tmp = tmp
        self.tracer = tracer
        self.rng = random.Random(f"live:{seed}")
        self.workers = parallelism()
        self.counts: dict[str, list[float]] = {}
        self.layer_samples: dict[str, list[float]] = {}

    def setup(self) -> None:
        from repro.sweep import SweepTask

        rng = self.rng
        grid = [(cycle[i % len(cycle)], round(base * rng.uniform(0.98, 1.02)))
                for i, base in enumerate(QUERY_STRATA) for cycle in CLIENT_CYCLES]
        faulty = set(rng.sample(range(len(grid)), len(grid) // FAULT_SHARE))
        specs = [(c, q, rng.randrange(10**6) if i in faulty else None)
                 for i, (c, q) in enumerate(grid)]
        self.tasks = [
            SweepTask(key=f"db/c{c}q{q}" + (f"-f{f}" if f is not None else ""),
                      fn=study_task,
                      kwargs={"num_clients": c, "num_queries": q, "fault_seed": f})
            for c, q, f in specs
        ]
        # serial reference answers: a sweep must reproduce them exactly
        self.reference = {
            task.key: _outcome(study_task(**task.kwargs_dict))
            for task in self.tasks[:REFERENCE_STUDIES]
        }

    def teardown(self) -> None:
        pass

    @staticmethod
    def on_timeout() -> None:
        """A sweep over its limit: kill the pool's workers, so the pool
        breaks instead of waiting for them."""
        kill_descendants()

    # ------------------------------------------------------------------
    def _sweep_op(self, ops):
        def op() -> float:
            from repro.sweep import SweepRunner

            runner = SweepRunner(workers=self.workers)
            with self.tracer.span("sweep.parallel"):
                t0 = time.perf_counter()
                results = runner.run(self.tasks)
                wall = time.perf_counter() - t0
            for r in results:
                errors = study_errors(r.value)
                if r.key in self.reference and _outcome(r.value) != self.reference[r.key]:
                    errors.append("differs from its serial set-up run")
                ops.sub(not errors, f"study {r.key}: {'; '.join(errors)}")
                if not errors:
                    ops.samples["study"].append(r.value["task_s"])
            if self.tracer.enabled:
                self._trace_sweep(runner, results, wall, ops)
            return wall

        return op

    def _trace_sweep(self, runner, results, wall, ops) -> None:
        """Traced only: serial rerun, dispatch overhead and a live-SAS replay."""
        busy = sum(r.value["task_s"] for r in results)
        self._count("sweep.dispatch_overhead", 1 - busy / (self.workers * wall))
        with self.tracer.span("sweep.serial"):
            t0 = time.perf_counter()
            serial = runner.run_serial(self.tasks)
            serial_wall = time.perf_counter() - t0
        self._count("sweep.speedup", serial_wall / wall)
        for r in serial:
            self.layer_samples.setdefault("dbsim.study_ms", []).append(1e3 * r.value["task_s"])
        forwarded = sum(r.value["bus"]["fwd_transitions_forwarded"] for r in results)
        sent = sum(r.value["bus"]["fwd_messages_sent"] for r in results)
        self._count("bus.retries", sum(r.value["bus"]["fwd_retries"] for r in results))
        self._count("bus.messages_per_transition", sent / forwarded)
        self._count("sas.server_notifications",
                    median([r.value["server_notifications"] for r in results]))
        # replay the two slowest studies: across a run's repeated sweeps
        # they are the samples at and beyond study_tail_ms
        slowest = sorted(zip(results, self.tasks), key=lambda rt: rt[0].value["task_s"])[-2:]
        for _r, task in slowest:
            ops.sub(self._replay(task.kwargs_dict), f"replay of {task.key} diverged")

    def _replay(self, kwargs: dict) -> bool:
        """Server transitions captured live, then replayed through a fresh
        SAS carrying the study's per-query and per-client questions."""
        from repro.core import ActiveSentenceSet, EventKind, PerformanceQuestion, SentencePattern

        clients = kwargs["num_clients"]
        capture = _ServerCapture(node=clients)
        live = study_task(**kwargs, recorder=capture)
        now = [0.0]
        sas = ActiveSentenceSet(clock=lambda: now[0], node_id=clients)
        read = SentencePattern("DiskRead", ("server0",))
        per_query = {
            q: sas.attach_question(PerformanceQuestion(
                f"reads for {q}", (SentencePattern("QueryActive", (q,)), read)))
            for q in live["ground_truth"]
        }
        for c in range(clients):
            sas.attach_question(PerformanceQuestion(
                f"reads for client{c}", (SentencePattern("QueryActive", (f"client{c}",)), read)))
        activate = EventKind.ACTIVATE
        with self.tracer.span("sas.replay_ms"):
            for t, kind, sentence in capture.events:
                now[0] = t
                if kind is activate:
                    sas.activate(sentence)
                else:
                    sas.deactivate(sentence)
        end = live["elapsed"]
        return all(
            w.total_satisfied_time(end) == live["per_query_watcher_time"][q]
            for q, w in per_query.items()
        )

    def sessions(self, ops):
        """Endless sessions of one sweep over the whole grid."""
        while True:
            yield [("sweep", self._sweep_op(ops), SWEEP_LIMIT)]

    # ------------------------------------------------------------------
    def _count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def e2e(self, ops) -> dict:
        return {"op": ops.samples["study"], "sessions": ops.sessions}

    def named(self, ops) -> list[tuple[str, float, str, str]]:
        walls = ops.samples["sweep"]
        rate = len(self.tasks) / median(walls) if walls else float("nan")
        return [
            *latency_names("study", ops.samples["study"]),
            ("studies_per_s", rate, "1/s", f"{len(self.tasks)} tasks, {len(walls)} sweeps"),
        ]

    def layers(self) -> dict[str, tuple[float, str]]:
        selfs = self.tracer.self_times()

        def count(name):
            return median(self.counts.get(name, []))

        return {
            "dbsim.study_ms": (median(self.layer_samples.get("dbsim.study_ms", [])), "ms"),
            "sas.server_notifications": (count("sas.server_notifications"), "count"),
            "sas.replay_ms": (1e3 * median(selfs.get("sas.replay_ms", [])), "ms"),
            "bus.retries": (count("bus.retries"), "count"),
            "bus.messages_per_transition": (count("bus.messages_per_transition"), "ratio"),
            "sweep.dispatch_overhead": (count("sweep.dispatch_overhead"), "ratio"),
            "sweep.speedup": (count("sweep.speedup"), "ratio"),
        }
