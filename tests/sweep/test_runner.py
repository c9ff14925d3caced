"""Unit tests for the deterministic parallel sweep runner."""

import random

import pytest

from repro.sweep import (
    SweepRunner,
    SweepTask,
    SweepWorkerError,
    build_grid,
    db_grid,
    db_task,
    fingerprint,
    kernel_task,
    unix_grid,
    unix_task,
)


# module-level task functions: picklable across the worker pool
def _square(x):
    return {"x": x, "sq": x * x}


def _draw():
    """Reads the global RNG the runner seeds per task."""
    return {"draw": random.random()}


def _boom(x):
    raise ValueError(f"bad input {x}")


class TestRunner:
    def test_serial_and_parallel_agree(self):
        tasks = [SweepTask(f"sq/{i}", _square, args=(i,)) for i in range(6)]
        runner = SweepRunner(workers=3)
        serial = runner.run_serial(tasks)
        par = runner.run(tasks)
        assert [r.value for r in serial] == [{"x": i, "sq": i * i} for i in range(6)]
        assert serial == par
        assert fingerprint(serial) == fingerprint(par)

    def test_results_merge_in_task_order(self):
        tasks = [SweepTask(f"t{i}", _square, args=(i,)) for i in range(8)]
        results = SweepRunner(workers=4).run(tasks)
        assert [r.key for r in results] == [f"t{i}" for i in range(8)]

    def test_per_task_seeds_apply_identically_in_both_modes(self):
        tasks = [SweepTask(f"rng/{s}", _draw, seed=s) for s in (7, 7, 11)]
        runner = SweepRunner(workers=2)
        with pytest.raises(ValueError):
            runner.run(tasks)  # duplicate keys rejected
        tasks = [SweepTask(f"rng/{i}", _draw, seed=s) for i, s in enumerate((7, 7, 11))]
        serial = runner.run_serial(tasks)
        par = runner.run(tasks)
        # same seed -> same draw (even though tasks may share a worker);
        # different seed -> different draw
        assert serial[0].value == serial[1].value
        assert serial[0].value != serial[2].value
        assert serial == par

    def test_worker_crash_surfaces_with_traceback(self):
        tasks = [
            SweepTask("ok", _square, args=(1,)),
            SweepTask("bad", _boom, args=(42,)),
        ]
        with pytest.raises(SweepWorkerError) as excinfo:
            SweepRunner(workers=2).run(tasks)
        assert excinfo.value.key == "bad"
        assert "bad input 42" in str(excinfo.value)
        assert "ValueError" in excinfo.value.remote_traceback

    def test_serial_path_raises_the_original_exception(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=1).run([SweepTask("bad", _boom, args=(1,))])

    def test_single_task_short_circuits_to_serial(self):
        results = SweepRunner(workers=4).run([SweepTask("only", _square, args=(3,))])
        assert results[0].value == {"x": 3, "sq": 9}

    def test_invalid_workers_rejected(self):
        with pytest.raises(ValueError):
            SweepRunner(workers=0)

    def test_fingerprint_is_order_and_value_sensitive(self):
        a = SweepRunner(workers=1).run([SweepTask("t", _square, args=(2,))])
        b = SweepRunner(workers=1).run([SweepTask("t", _square, args=(3,))])
        assert fingerprint(a) != fingerprint(b)
        two = SweepRunner(workers=1).run(
            [SweepTask("x", _square, args=(1,)), SweepTask("y", _square, args=(2,))]
        )
        assert fingerprint(two) != fingerprint(reversed(two))


class TestStudies:
    def test_build_grid_dispatches_and_rejects_unknown(self):
        assert len(build_grid("db", clients=(1,), queries=(1, 3))) == 2
        with pytest.raises(KeyError):
            build_grid("nope")

    def test_grid_keys_are_unique(self):
        keys = [t.key for t in db_grid(clients=(1, 2), queries=(1, 3), fault_seeds=(None, 0, 1))]
        assert len(keys) == len(set(keys)) == 12

    def test_db_task_summary_shape_and_determinism(self):
        one = db_task(num_clients=1, num_queries=2)
        two = db_task(num_clients=1, num_queries=2)
        assert one == two  # pure function of its config
        assert one["measured"] == one["ground_truth"]
        assert one["forwarded_messages"] == 2 * 2
        assert one["elapsed"] > 0

    def test_unix_task_carries_transition_log(self):
        out = unix_task(writes=(2, 1), causal=True)
        assert out["transitions"], "expected a SAS transition log"
        times = [t for t, _, _, _ in out["transitions"]]
        assert times == sorted(times)
        assert out["causal_attributed"] == {
            k: v for k, v in out["ground_truth"].items() if v
        }

    def test_kernel_task_is_seed_deterministic(self):
        a = kernel_task(clients=16, shards=4, queries=2, seed=5)
        b = kernel_task(clients=16, shards=4, queries=2, seed=5)
        c = kernel_task(clients=16, shards=4, queries=2, seed=6)
        assert a == b
        assert a["final_time"] != c["final_time"]
        assert a["served"] == 16 * 2


# module-level so the parallel pool can pickle it
def _echo_record_path(record_path=None):
    return {"record_path": record_path}


class TestCapture:
    def test_capture_path_injected_as_record_path_kwarg(self, tmp_path):
        dest = str(tmp_path / "t.rtrcx")
        tasks = [
            SweepTask("plain", _echo_record_path),
            SweepTask("captured", _echo_record_path, capture_path=dest),
        ]
        results = SweepRunner(workers=1).run_serial(tasks)
        assert results[0].value == {"record_path": None}
        assert results[1].value == {"record_path": dest}

    def test_db_task_capture_is_deterministic(self, tmp_path):
        a = db_task(num_clients=1, num_queries=2, record_path=str(tmp_path / "a.rtrcx"))
        b = db_task(num_clients=1, num_queries=2, record_path=str(tmp_path / "b.rtrcx"))
        assert a["trace_sha256"] == b["trace_sha256"]
        assert a["trace_transitions"] == b["trace_transitions"] > 0
        # uncaptured runs agree on everything but the capture fields
        plain = db_task(num_clients=1, num_queries=2)
        assert {k: v for k, v in a.items() if not k.startswith("trace_")} == plain

    def test_unix_task_capture_matches_file_on_disk(self, tmp_path):
        import hashlib

        from repro.trace import open_trace

        dest = tmp_path / "u.rtrcx"
        out = unix_task(writes=(2, 1), record_path=str(dest))
        assert out["trace_sha256"] == hashlib.sha256(dest.read_bytes()).hexdigest()
        assert out["trace_transitions"] == open_trace(dest).transitions

    def test_capture_fingerprint_identical_serial_vs_parallel(self, tmp_path):
        def grid(sub):
            d = tmp_path / sub
            return db_grid(clients=(1, 2), queries=(1,), capture_dir=str(d))

        runner = SweepRunner(workers=2)
        serial = runner.run_serial(grid("serial"))
        par = runner.run(grid("par"))
        assert [r.value["trace_sha256"] for r in serial] == [
            r.value["trace_sha256"] for r in par
        ]
        assert fingerprint(serial) == fingerprint(par)

    def test_grids_derive_capture_paths_from_keys(self, tmp_path):
        tasks = db_grid(clients=(1,), queries=(1,), capture_dir=str(tmp_path))
        assert tasks[0].capture_path == str(tmp_path / "db_c1q1.rtrcx")
        utasks = unix_grid(capture_dir=str(tmp_path))
        assert all(t.capture_path.endswith(".rtrcx") for t in utasks)
        assert all("/" not in t.capture_path.rsplit("/", 1)[-1] for t in utasks)
        plain = db_grid(clients=(1,), queries=(1,))
        assert plain[0].capture_path is None
