"""Differential determinism: chunked-parallel sweeps vs the serial oracle.

The serial path is the specification; every parallel configuration --
chunk sizes {1, 3, whole-grid}, ``fork`` and ``spawn`` start methods --
must reproduce it byte-for-byte across a mixed db/unixsim/kernel grid
carrying every observable kind this repo emits: metric counters, SAS
transition logs, final virtual clocks, event-log samples, and (for the
capture tests) sha256 digests of recorded ``.rtrcx`` trace bytes.  Ten
kernel seeds ride the grid so per-task RNG seeding is exercised well past
coincidence.

Result equality is asserted twice: structural (``SweepResult`` lists
compare ``==`` after the pool pickles them back) and hashed
(:func:`repro.sweep.fingerprint`, the digest ``--verify`` and the abl8
bench gate on).
"""

import multiprocessing

import pytest

from repro.sweep import SweepRunner, db_grid, fingerprint, kernel_grid, unix_grid

START_METHODS = [m for m in ("fork", "spawn") if m in multiprocessing.get_all_start_methods()]

#: chunk sizes named by the issue: singleton, mid-chunk sharing, one chunk
CHUNK_MODES = ("one", "three", "whole-grid")

SEEDS = tuple(range(10))


def _mixed_grid(capture_dir=None):
    """db + unixsim + kernel tasks in one grid (16 tasks, 10 seeded)."""
    return (
        db_grid(clients=(1,), queries=(1, 2), capture_dir=capture_dir)
        + unix_grid(
            write_mixes=((1, 0), (2, 1, 0)),
            causal_options=(True, False),
            capture_dir=capture_dir,
        )
        + kernel_grid(scales=((8, 2),), queries=(2,), seeds=SEEDS)
    )


def _chunk_size(mode: str, n_tasks: int) -> int:
    return {"one": 1, "three": 3, "whole-grid": n_tasks}[mode]


@pytest.fixture(scope="module")
def oracle():
    tasks = _mixed_grid()
    return tasks, SweepRunner(workers=1).run_serial(tasks)


@pytest.mark.parametrize("start_method", START_METHODS)
@pytest.mark.parametrize("chunk_mode", CHUNK_MODES)
def test_chunked_parallel_matches_serial_oracle(oracle, start_method, chunk_mode):
    tasks, serial = oracle
    runner = SweepRunner(
        workers=2,
        start_method=start_method,
        chunk_size=_chunk_size(chunk_mode, len(tasks)),
    )
    parallel = runner.run(tasks)
    assert [r.key for r in parallel] == [t.key for t in tasks]
    for s, p in zip(serial, parallel, strict=True):
        assert s == p, f"parallel diverged from serial at {s.key}"
    assert fingerprint(parallel) == fingerprint(serial)


def test_capture_fingerprints_extend_to_recorded_trace_bytes(tmp_path, oracle):
    del oracle  # capture grid records to disk; build its own tasks
    tasks = _mixed_grid(capture_dir=str(tmp_path))
    runner = SweepRunner(workers=2, chunk_size=3)
    serial = runner.run_serial(tasks)
    parallel = runner.run(tasks)
    assert fingerprint(parallel) == fingerprint(serial)
    captured = [
        (t, r) for t, r in zip(tasks, parallel, strict=True) if "trace_sha256" in r.value
    ]
    assert len(captured) == 6  # every db + unix task records; kernel has no SAS
    for task, r in captured:
        # the path rides the task spec, the digest rides the summary --
        # trace bytes never cross the process boundary
        assert task.capture_path.endswith(".rtrcx")
        assert len(r.value["trace_sha256"]) == 64
        assert r.value["trace_transitions"] > 0


def test_workers_beyond_tasks_and_uneven_tails_stay_identical(oracle):
    tasks, serial = oracle
    # 16 tasks / chunk 5 -> 4 chunks, last one short; 8 workers > 4 chunks
    parallel = SweepRunner(workers=8, chunk_size=5).run(tasks)
    assert parallel == serial
