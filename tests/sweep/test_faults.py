"""Worker fault injection: crashes must be loud, attributed, and clean.

Three failure families, each with a distinct contract:

* a task that **raises** mid-chunk surfaces :class:`SweepWorkerError`
  carrying the *task's* key and the remote traceback -- not the chunk's
  first task, not a bare pool error;
* a worker **killed outright** (``os._exit``, the shape of an OOM kill)
  fails the sweep loudly instead of hanging the merge loop -- every test
  here runs under a SIGALRM watchdog so a regression to the historical
  ``Pool.imap`` hang shows up as a test failure, not a stuck CI job;
* a task that returns something other than plain data fails as its own
  task, with the check's ``TypeError`` in the remote traceback.
"""

import os
import signal
from contextlib import contextmanager

import pytest

from repro.sweep import SweepRunner, SweepTask, SweepWorkerError

WATCHDOG_SECONDS = 120


@contextmanager
def watchdog(seconds: int = WATCHDOG_SECONDS):
    """Fail the test if the body hangs (the old imap-on-dead-worker mode)."""
    if not hasattr(signal, "SIGALRM"):  # pragma: no cover - non-POSIX
        yield
        return

    def _trip(signum, frame):
        raise TimeoutError(f"sweep hung for {seconds}s instead of failing loudly")

    previous = signal.signal(signal.SIGALRM, _trip)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


# module-level task functions: picklable across the worker pool
def _fine(x):
    return {"x": x}


def _boom(x):
    raise ValueError(f"boom on {x}")


def _die_hard():
    os._exit(23)  # bypasses all exception handling, like an OOM kill


def _leak_object():
    return {"handle": object()}  # not plain data: the runner must refuse it


class TestTaskExceptions:
    def test_mid_chunk_raise_carries_key_and_remote_traceback(self):
        # chunk size 3 places 'bad' mid-chunk behind a succeeding neighbor
        tasks = [SweepTask(f"ok{i}", _fine, args=(i,)) for i in range(5)]
        tasks.insert(1, SweepTask("bad", _boom, args=(42,)))
        with watchdog(), pytest.raises(SweepWorkerError) as excinfo:
            SweepRunner(workers=2, chunk_size=3).run(tasks)
        err = excinfo.value
        assert err.key == "bad"
        assert "boom on 42" in str(err)
        assert "ValueError" in err.remote_traceback
        assert "_boom" in err.remote_traceback  # a real traceback, not repr

    def test_serial_path_raises_the_original_exception(self):
        with pytest.raises(ValueError, match="boom on 7"):
            SweepRunner(workers=1).run([SweepTask("bad", _boom, args=(7,))])

    def test_non_plain_result_is_attributed_to_its_task(self):
        tasks = [
            SweepTask("ok", _fine, args=(1,)),
            SweepTask("leaky", _leak_object),
        ]
        with watchdog(), pytest.raises(SweepWorkerError) as excinfo:
            SweepRunner(workers=2, chunk_size=2).run(tasks)
        assert excinfo.value.key == "leaky"
        assert "TypeError" in excinfo.value.remote_traceback


class TestKilledWorkers:
    def test_killed_worker_fails_loudly_instead_of_hanging(self):
        tasks = [SweepTask(f"ok{i}", _fine, args=(i,)) for i in range(4)]
        tasks.insert(2, SweepTask("killer", _die_hard))
        with watchdog(), pytest.raises(SweepWorkerError) as excinfo:
            SweepRunner(workers=2, chunk_size=1).run(tasks)
        assert "died abruptly" in str(excinfo.value)


class TestRecovery:
    def test_runner_survives_a_failed_sweep_and_runs_the_next_one(self):
        runner = SweepRunner(workers=2, chunk_size=2)
        with watchdog(), pytest.raises(SweepWorkerError):
            runner.run([SweepTask("a", _fine, args=(1,)), SweepTask("bad", _boom, args=(0,))])
        with watchdog():
            results = runner.run(
                [SweepTask("x", _fine, args=(1,)), SweepTask("y", _fine, args=(2,))]
            )
        assert [r.value for r in results] == [{"x": 1}, {"x": 2}]
