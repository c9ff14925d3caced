"""Ablation 8: tuple event kernel vs the seed kernel + parallel sweeps.

Two claims, one artifact:

* **kernel**: the rewritten event kernel (plain-tuple heap entries, int kind
  dispatch, deque waiters, same-instant batch drain) sustains >= 2x the seed
  kernel's events/sec on the abl4 workload shape -- the db study's
  client/server kernel-op sequence (send query, N busy disk reads, reply,
  think), sharded wide the way the ROADMAP's scale story runs it.  Both
  kernels execute the *same generator code*; only the scheduler differs
  (the seed scheduler is preserved in ``tests/machine/sim_legacy.py``).
* **sweep**: `SweepRunner` fans study grids across a process pool
  (once-per-worker grid hydration, index chunks, plain-data results
  returned as the pool's pickled replies) with results byte-identical to
  the serial run (per-configuration final times, metric counters, and SAS
  transition logs all equal), and near-linear speedup when real cores are
  available.

Quick mode (``REPRO_BENCH_QUICK=1``, used by the CI bench-smoke job) shrinks
the workloads but keeps every assertion.  Multi-core runners additionally
export ``REPRO_REQUIRE_SWEEP_SPEEDUP=<floor>`` (the CI bench-smoke job sets
1.5) to turn the parallel-speedup measurement into a hard regression gate --
unset, single-core machines assert determinism only.  Besides the text
artifact this bench emits machine-readable
``benchmarks/out/BENCH_kernel.json`` so future PRs have a perf trajectory,
and the txt artifact carries an ``indexed_ops_per_sec`` line for the
``--baseline`` conftest guard.
"""

from __future__ import annotations

import json
import os
import time

from repro.machine.sim import Simulator, Timeout
from repro.paradyn import text_table
from repro.sweep import (
    SweepRunner,
    db_grid,
    fingerprint,
    kernel_grid,
    resolve_chunk_size,
    unix_grid,
)
from tests.machine.sim_legacy import LegacySimulator

QUICK = os.environ.get("REPRO_BENCH_QUICK") == "1"

#: kernel microbench scale: (clients, shards, queries, timing repeats)
KERNEL_SCALE = (256, 64, 8, 3) if QUICK else (512, 128, 25, 4)
#: sweep timing grid: kernel tasks are uniform-cost, so load balance is
#: clean; queries are sized so per-task work dwarfs pool spin-up and the
#: measured ratio reflects dispatch overhead, not fork latency
SWEEP_SCALES = ((64, 16), (128, 32)) if QUICK else ((128, 32), (256, 64))
SWEEP_SEEDS = (0, 1, 2, 3) if QUICK else (0, 1, 2, 3, 4, 5)
SWEEP_QUERIES = 25
SWEEP_WORKERS = 4
#: multi-core runners export this as a hard floor on parallel_speedup
SPEEDUP_FLOOR = float(os.environ.get("REPRO_REQUIRE_SWEEP_SPEEDUP", "0") or 0)


def _abl4_workload(sim, clients: int, shards: int, queries: int,
                   reads: int = 3, read_time: float = 5e-5, think: float = 2e-4) -> int:
    """The db study's kernel-op sequence, stripped to pure kernel operations.

    Returns the number of events the kernel processed (its seq counter).
    """
    reqs = [sim.channel(f"req{s}") for s in range(shards)]
    replies = [sim.channel(f"rep{c}") for c in range(clients)]
    per_shard = clients // shards

    def server(s: int):
        for _ in range(per_shard * queries):
            c, q = yield reqs[s].get()
            for _ in range(reads):
                yield Timeout(read_time)
            replies[c].put(q)

    def client(c: int):
        for q in range(queries):
            yield Timeout(think)
            reqs[c % shards].put((c, q))
            yield replies[c].get()

    for s in range(shards):
        sim.spawn(server(s), f"db-server{s}")
    for c in range(clients):
        sim.spawn(client(c), f"db-client{c}")
    sim.run()
    return sim._seq


def _events_per_sec(sim_cls, repeats: int) -> tuple[float, int]:
    """Best-of-N events/sec (best-of defends against CPU steal in CI)."""
    clients, shards, queries, _ = KERNEL_SCALE
    best = 0.0
    events = 0
    for _ in range(repeats):
        sim = sim_cls()
        t0 = time.perf_counter()
        events = _abl4_workload(sim, clients, shards, queries)
        dt = time.perf_counter() - t0
        best = max(best, events / dt)
    return best, events


def _sweep_grids():
    """Small mixed grid whose results carry every observable kind: db metric
    counters, unixsim SAS transition logs, kernel final clocks + event logs."""
    return (
        db_grid(clients=(1, 2), queries=(1, 3))
        + unix_grid(write_mixes=((2, 1, 0), (1, 0, 4)), causal_options=(True, False))
        + kernel_grid(scales=((64, 16),), seeds=(0,))
    )


def run_experiment():
    repeats = KERNEL_SCALE[3]
    tuple_eps, events = _events_per_sec(Simulator, repeats)
    legacy_eps, _ = _events_per_sec(LegacySimulator, repeats)

    # -- sweep determinism: serial vs 4-way parallel, byte-identical --------
    runner = SweepRunner(workers=SWEEP_WORKERS)
    diff_tasks = _sweep_grids()
    serial_results = runner.run_serial(diff_tasks)
    parallel_results = runner.run(diff_tasks)

    # -- sweep speedup on a uniform-cost grid -------------------------------
    # best-of-2 on both sides, like the kernel microbench: one CI neighbor
    # stealing cycles mid-measurement must not sink the regression gate
    timing_tasks = kernel_grid(
        scales=SWEEP_SCALES, queries=(SWEEP_QUERIES,), seeds=SWEEP_SEEDS
    )
    serial_s = float("inf")
    parallel_s = float("inf")
    for _ in range(2):
        t0 = time.perf_counter()
        timing_serial = runner.run_serial(timing_tasks)
        serial_s = min(serial_s, time.perf_counter() - t0)
        t0 = time.perf_counter()
        timing_parallel = runner.run(timing_tasks)
        parallel_s = min(parallel_s, time.perf_counter() - t0)
    sweep_events = sum(r.value["events"] for r in timing_parallel)

    return {
        "tuple_eps": tuple_eps,
        "legacy_eps": legacy_eps,
        "events": events,
        "serial_results": serial_results,
        "parallel_results": parallel_results,
        "timing_serial": timing_serial,
        "timing_parallel": timing_parallel,
        "serial_s": serial_s,
        "parallel_s": parallel_s,
        "sweep_events": sweep_events,
        "start_method": runner.start_method,
        "chunk_size": resolve_chunk_size(len(timing_tasks), SWEEP_WORKERS, runner.chunk_size),
    }


def test_abl8_kernel_sweep(benchmark, save_artifact, baseline_guard, artifact_dir):
    r = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    kernel_speedup = r["tuple_eps"] / r["legacy_eps"]
    sweep_speedup = r["serial_s"] / r["parallel_s"] if r["parallel_s"] > 0 else 0.0
    cpus = os.cpu_count() or 1

    # -- shape claims -------------------------------------------------------
    # tentpole: tuple kernel >= 2x the seed kernel on the abl4 workload
    assert kernel_speedup >= 2.0, (
        f"tuple kernel only {kernel_speedup:.2f}x the seed kernel "
        f"({r['tuple_eps']:,.0f} vs {r['legacy_eps']:,.0f} events/s)"
    )

    # differential: parallel sweep output is byte-identical to serial --
    # same final times, metric counters, and SAS transition logs per config
    for s, p in zip(r["serial_results"], r["parallel_results"], strict=True):
        assert s.key == p.key
        assert s.value == p.value, f"sweep result diverged for {s.key}"
    assert fingerprint(r["serial_results"]) == fingerprint(r["parallel_results"])
    assert fingerprint(r["timing_serial"]) == fingerprint(r["timing_parallel"])

    # near-linear sweep scaling is only observable with real cores; this
    # container/CI may pin us to fewer, so the assertion gates on cpu count
    if cpus >= SWEEP_WORKERS:
        assert sweep_speedup >= 0.6 * SWEEP_WORKERS, (
            f"sweep speedup {sweep_speedup:.2f}x on {SWEEP_WORKERS} workers "
            f"({cpus} cpus) is not near-linear"
        )
    # regression gate: multi-core runners (CI bench-smoke exports the floor)
    # fail the build if the chunked dispatch path decays
    if SPEEDUP_FLOOR > 0:
        assert sweep_speedup >= SPEEDUP_FLOOR, (
            f"parallel_speedup {sweep_speedup:.2f} fell below the "
            f"REPRO_REQUIRE_SWEEP_SPEEDUP={SPEEDUP_FLOOR} regression floor "
            f"({cpus} cpus)"
        )

    baseline_guard("abl8_kernel_sweep", r["tuple_eps"])

    per_worker_eps = r["sweep_events"] / r["parallel_s"] / SWEEP_WORKERS
    bench_json = {
        "events_per_sec_serial": r["tuple_eps"],
        "events_per_sec_legacy": r["legacy_eps"],
        "kernel_speedup": kernel_speedup,
        "events_per_sec_per_worker": per_worker_eps,
        "parallel_speedup": sweep_speedup,
        "sweep_workers": SWEEP_WORKERS,
        "sweep_start_method": r["start_method"],
        "sweep_chunk_size": r["chunk_size"],
        "sweep_tasks": len(r["timing_parallel"]),
        "sweep_serial_s": r["serial_s"],
        "sweep_parallel_s": r["parallel_s"],
        "speedup_floor": SPEEDUP_FLOOR,
        "deterministic": True,
        "cpus": cpus,
        "quick": QUICK,
    }
    (artifact_dir / "BENCH_kernel.json").write_text(
        json.dumps(bench_json, indent=2) + "\n", encoding="utf-8"
    )

    rows = [
        ("tuple kernel (this PR)", f"{r['tuple_eps']:,.0f}", f"{kernel_speedup:.2f}x"),
        ("seed kernel (legacy)", f"{r['legacy_eps']:,.0f}", "1.00x"),
    ]
    clients, shards, queries, _ = KERNEL_SCALE
    text = (
        "Ablation 8 -- tuple event kernel + deterministic parallel sweeps\n"
        f"(abl4 workload shape: {clients} clients / {shards} server shards / "
        f"{queries} queries each, {r['events']} kernel events per run)\n\n"
        + text_table(rows, headers=("kernel", "events/s", "relative"))
        + "\n\n"
        f"indexed_ops_per_sec: {r['tuple_eps']:.1f}\n"
        f"legacy_ops_per_sec: {r['legacy_eps']:.1f}\n"
        f"kernel_speedup: {kernel_speedup:.2f}\n"
        f"sweep_workers: {SWEEP_WORKERS}\n"
        f"sweep_start_method: {r['start_method']}\n"
        f"sweep_chunk_size: {r['chunk_size']}\n"
        f"sweep_serial_s: {r['serial_s']:.3f}\n"
        f"sweep_parallel_s: {r['parallel_s']:.3f}\n"
        f"sweep_speedup: {sweep_speedup:.2f}\n"
        f"cpus: {cpus}\n"
        "\nshape: tuple kernel >= 2x seed kernel events/sec; parallel sweep\n"
        "(chunked dispatch: per-worker grid hydration, index chunks,\n"
        "plain-data results as pickled replies) byte-identical to serial\n"
        "(final times, metrics, SAS transition logs); near-linear sweep\n"
        "speedup asserted when >= 4 cpus, and REPRO_REQUIRE_SWEEP_SPEEDUP=\n"
        "<floor> turns the measurement into a hard regression gate on\n"
        "multi-core runners.\n"
        "Machine-readable trajectory: benchmarks/out/BENCH_kernel.json."
    )
    save_artifact("abl8_kernel_sweep", text)
