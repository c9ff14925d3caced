"""Picklable sweep adapters for the repository's studies.

Each ``*_task`` function runs one configuration of a study and returns a
plain-data summary (dicts / lists / numbers / strings only), so results
pass the worker pool's plain-data check (a live object here is a loud
``TypeError``), ``repr`` deterministically for
:func:`repro.sweep.runner.fingerprint`, and dump straight to JSON.

Crucially the summaries include the *observable dynamic record* of each run
-- final virtual times, metric counters, and SAS transition logs -- not just
scalar outputs, so the serial-vs-parallel differential has teeth: a sweep
that perturbed event ordering anywhere would change a transition log and
break the fingerprint.

Each ``*_grid`` builder expands option tuples into an ordered
:class:`~repro.sweep.runner.SweepTask` list; :func:`build_grid` is the
string-keyed dispatcher the CLI uses.
"""

from __future__ import annotations

import hashlib
import random
from pathlib import Path
from typing import Any, Sequence

from ..dbsim import FaultPlan, Query, run_db_study
from ..machine.sim import Simulator, Timeout
from ..unixsim import FunctionSpec, run_figure7_study
from .runner import SweepTask

__all__ = [
    "db_task",
    "db_grid",
    "unix_task",
    "unix_grid",
    "kernel_task",
    "kernel_grid",
    "build_grid",
    "STUDIES",
]


# ----------------------------------------------------------------------
# trace capture (the sweep's opt-in per-task recording path)
# ----------------------------------------------------------------------
def _open_recorder(record_path: str | None, metadata: dict):
    """A ColumnarTraceWriter for the task's capture path, or None."""
    if record_path is None:
        return None
    from ..trace import ColumnarTraceWriter

    Path(record_path).parent.mkdir(parents=True, exist_ok=True)
    return ColumnarTraceWriter(record_path, metadata=metadata)


def _capture_summary(writer) -> dict[str, Any]:
    """Close the writer and fingerprint the recorded bytes.

    A worker's recording stays on its disk: only the sha256 crosses the
    process boundary (the file's *path* already rides the task spec as
    ``capture_path``), never the trace bytes.  The digest -- not the
    location -- is what the summary carries, so fingerprints stay
    byte-identical across runs that capture into different directories.
    The encoding is fully deterministic (no wall-clock anywhere), so the
    sha256 folds into the sweep's serial-vs-parallel fingerprint: a sweep
    that perturbed any recorded transition changes the trace bytes.
    """
    writer.close()
    digest = hashlib.sha256(Path(writer.path).read_bytes()).hexdigest()
    return {"trace_sha256": digest, "trace_transitions": writer.transitions}


# ----------------------------------------------------------------------
# dbsim: the abl4 client/server grid
# ----------------------------------------------------------------------
def db_task(
    num_clients: int = 1,
    num_queries: int = 3,
    think_time: float = 2e-4,
    fault_seed: int | None = None,
    record_path: str | None = None,
) -> dict[str, Any]:
    """One ``run_db_study`` configuration, summarized as plain data."""
    queries = [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(num_queries)]
    fault_plan = None
    if fault_seed is not None:
        fault_plan = FaultPlan(drop=0.1, duplicate=0.05, delay=0.2, seed=fault_seed)
    config = {"num_clients": num_clients, "num_queries": num_queries, "fault_seed": fault_seed}
    writer = _open_recorder(record_path, {"study": "db", "config": config})
    outcome = run_db_study(
        queries,
        num_clients=num_clients,
        think_time=think_time,
        fault_plan=fault_plan,
        recorder=writer,
    )
    capture = _capture_summary(writer) if writer is not None else {}
    return {
        **capture,
        "config": config,
        "elapsed": outcome.elapsed,
        "ground_truth": dict(sorted(outcome.ground_truth.items())),
        "measured": dict(sorted(outcome.measured.items())),
        "forwarded_messages": outcome.forwarded_messages,
        "network_messages": outcome.network_messages,
        "client_notifications": outcome.client_sas_notifications,
        "server_notifications": outcome.server_sas_notifications,
        "bus_stats": dict(sorted(outcome.bus_stats.items())),
    }


def _capture_path(capture_dir: str | None, key: str) -> str | None:
    if capture_dir is None:
        return None
    return str(Path(capture_dir) / (key.replace("/", "_") + ".rtrcx"))


def db_grid(
    clients: Sequence[int] = (1, 2, 4),
    queries: Sequence[int] = (1, 3, 6),
    fault_seeds: Sequence[int | None] = (None,),
    capture_dir: str | None = None,
) -> list[SweepTask]:
    tasks = []
    for c in clients:
        for q in queries:
            for s in fault_seeds:
                key = f"db/c{c}q{q}" + (f"-f{s}" if s is not None else "")
                tasks.append(
                    SweepTask(
                        key=key,
                        fn=db_task,
                        kwargs={"num_clients": c, "num_queries": q, "fault_seed": s},
                        capture_path=_capture_path(capture_dir, key),
                    )
                )
    return tasks


# ----------------------------------------------------------------------
# unixsim: the Figure-7 attribution grid
# ----------------------------------------------------------------------
def unix_task(
    writes: Sequence[int] = (2, 1, 0),
    compute_time: float = 4e-4,
    causal: bool = True,
    record_path: str | None = None,
) -> dict[str, Any]:
    """One ``run_figure7_study`` configuration, transition log included."""
    script = [
        FunctionSpec(f"f{i}", writes=w, compute_time=compute_time)
        for i, w in enumerate(writes)
    ]
    script.append(FunctionSpec("idle_tail", writes=0, compute_time=2e-2))
    config = {"writes": list(writes), "causal": causal}
    writer = _open_recorder(record_path, {"study": "unix", "config": config})
    outcome = run_figure7_study(script, causal=causal, recorder=writer)
    capture = _capture_summary(writer) if writer is not None else {}
    transitions = [
        (round(e.time, 12), e.kind.value, str(e.sentence), e.node_id)
        for e in outcome.trace
    ]
    return {
        **capture,
        "config": config,
        "elapsed": outcome.elapsed,
        "ground_truth": dict(sorted(outcome.ground_truth.items())),
        "sas_attributed": dict(sorted(outcome.sas_attributed.items())),
        "causal_attributed": dict(sorted(outcome.causal_attributed.items())),
        "unattributed_sas": outcome.unattributed_sas,
        "transitions": transitions,
    }


def unix_grid(
    write_mixes: Sequence[Sequence[int]] = ((2, 1, 0), (3, 3, 1), (1, 0, 4)),
    causal_options: Sequence[bool] = (True, False),
    capture_dir: str | None = None,
) -> list[SweepTask]:
    tasks = []
    for mix in write_mixes:
        for c in causal_options:
            key = f"unix/w{'-'.join(map(str, mix))}-{'causal' if c else 'sas'}"
            tasks.append(
                SweepTask(
                    key=key,
                    fn=unix_task,
                    kwargs={"writes": tuple(mix), "causal": c},
                    capture_path=_capture_path(capture_dir, key),
                )
            )
    return tasks


# ----------------------------------------------------------------------
# machine: the sharded abl4-shaped kernel workload
# ----------------------------------------------------------------------
def kernel_task(
    clients: int = 128,
    shards: int = 32,
    queries: int = 6,
    reads: int = 3,
    read_time: float = 5e-5,
    seed: int = 0,
) -> dict[str, Any]:
    """Run the abl4-shaped workload on the event kernel; log its behaviour.

    Think times are drawn from ``random.Random(seed)`` per client (exercising
    the per-task seeding path), and the returned summary pins both the final
    clock and an ordered sample of the event log.
    """
    rng = random.Random(seed)
    thinks = [rng.uniform(1e-4, 3e-4) for _ in range(clients)]
    sim = Simulator()
    reqs = [sim.channel(f"req{s}") for s in range(shards)]
    replies = [sim.channel(f"rep{c}") for c in range(clients)]
    log: list[tuple[float, str]] = []
    per_shard = clients // shards

    def server(s: int):
        for _ in range(per_shard * queries):
            c, q = yield reqs[s].get()
            for _ in range(reads):
                yield Timeout(read_time)
            log.append((sim.now, f"served c{c} q{q}"))
            replies[c].put(q)

    def client(c: int):
        for q in range(queries):
            yield Timeout(thinks[c])
            reqs[c % shards].put((c, q))
            yield replies[c].get()

    for s in range(shards):
        sim.spawn(server(s), f"db-server{s}")
    for c in range(clients):
        sim.spawn(client(c), f"db-client{c}")
    sim.run()
    return {
        "config": {"clients": clients, "shards": shards, "queries": queries, "seed": seed},
        "final_time": sim.now,
        "events": sim._seq,
        "served": len(log),
        "log_head": [(round(t, 12), what) for t, what in log[:50]],
        "log_tail": [(round(t, 12), what) for t, what in log[-50:]],
    }


def kernel_grid(
    scales: Sequence[tuple[int, int]] = ((64, 16), (128, 32), (256, 64)),
    queries: Sequence[int] = (6,),
    seeds: Sequence[int] = (0, 1),
) -> list[SweepTask]:
    return [
        SweepTask(
            key=f"kernel/c{c}s{s}q{q}-seed{seed}",
            fn=kernel_task,
            kwargs={"clients": c, "shards": s, "queries": q, "seed": seed},
            seed=seed,
        )
        for (c, s) in scales
        for q in queries
        for seed in seeds
    ]


# ----------------------------------------------------------------------
# dispatcher
# ----------------------------------------------------------------------
STUDIES = {"db": db_grid, "unix": unix_grid, "kernel": kernel_grid}


def build_grid(study: str, **options: Any) -> list[SweepTask]:
    """Expand the named study's grid; unknown names raise ``KeyError``."""
    try:
        builder = STUDIES[study]
    except KeyError:
        raise KeyError(
            f"unknown study {study!r}; choose from {sorted(STUDIES)}"
        ) from None
    return builder(**options)
