"""Process-parallel parameter sweeps with a hard determinism guarantee.

Every figure and ablation in this reproduction is built from repeated
instrumented runs over a grid of configurations (number of clients, query
mixes, fault plans, kernel scales...).  The simulation kernel is a pure
function of its inputs, so those runs are embarrassingly parallel -- but
only if the harness around them is careful:

* each task gets its *own* seed, applied identically whether the task runs
  in-process or in a worker, so no task ever observes another task's RNG
  draws;
* results merge back **in task order**, never in completion order;
* a worker crash surfaces as :class:`SweepWorkerError` carrying the remote
  traceback and the failing task's key -- a killed worker process (OOM,
  ``os._exit``) fails the sweep loudly instead of hanging the pool.

Under those rules the parallel run's output is byte-identical to the serial
run's -- :func:`fingerprint` hashes a result list so callers (the abl8
bench, the ``sweep --verify`` CLI) can assert it.

Dispatch costs one pool round-trip per chunk of tasks:

* the grid is hydrated **once per worker**, not once per task -- under
  ``fork`` the workers inherit the parent's task list by copy-on-write and
  nothing is pickled at all; under ``spawn``/``forkserver`` one pickled
  blob rides the pool initializer;
* tasks dispatch as **index chunks** (:mod:`repro.sweep.chunking`): one
  IPC round-trip carries ``chunk_size`` tasks, and the payload is a tuple
  of ints;
* a chunk's results return as the pool's ordinary pickled reply, after a
  check that each is plain data, so no live ``MetricInstance``/SAS object
  ever crosses the pool pipe;
* per-task ``.rtrcx`` trace capture stays on the worker's disk: the summary
  ships the file path plus its sha256, never the trace bytes.

Tasks must be *describable* by a picklable spec: ``fn`` a module-level
callable, every argument plain data.  The study adapters in
:mod:`repro.sweep.studies` satisfy this for the dbsim / unixsim / kernel
grids.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import pickle
import random
import traceback
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Sequence

from .chunking import chunk_indices, resolve_chunk_size

__all__ = [
    "SweepTask",
    "SweepResult",
    "SweepRunner",
    "SweepWorkerError",
    "fingerprint",
]


@dataclass(frozen=True)
class SweepTask:
    """One independent configuration to run -- a small picklable *spec*.

    ``fn`` must be picklable (a module-level callable); ``seed`` -- when not
    ``None`` -- is applied to the global RNGs just before ``fn`` runs, in
    the worker and in the serial path alike.

    ``kwargs`` may be passed as any mapping (or an iterable of pairs) and is
    normalized at construction to a **sorted tuple of items**: the task is
    then hashable, pickles a snapshot rather than a live mapping a caller
    could mutate after grid construction, and two tasks built from dicts
    with different insertion orders compare (and hash) equal.

    ``capture_path`` -- when set -- is injected into ``fn``'s kwargs as
    ``record_path``: the task function records its run to that ``.rtrcx``
    file and folds the file's path and sha256 into its summary, extending
    the serial-vs-parallel fingerprint to the recorded trace bytes without
    ever shipping them between processes.
    """

    key: str
    fn: Callable[..., Any]
    args: tuple = ()
    kwargs: Mapping[str, Any] | tuple = field(default_factory=tuple)
    seed: int | None = None
    capture_path: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "args", tuple(self.args))
        items = self.kwargs.items() if isinstance(self.kwargs, Mapping) else self.kwargs
        object.__setattr__(self, "kwargs", tuple(sorted(items)))

    @property
    def kwargs_dict(self) -> dict[str, Any]:
        """The normalized kwargs as a fresh dict (what ``fn`` receives)."""
        return dict(self.kwargs)


@dataclass(frozen=True)
class SweepResult:
    """The outcome of one task: deliberately excludes wall-clock/worker
    identity so serial and parallel runs compare byte-identical."""

    key: str
    value: Any
    seed: int | None = None


class SweepWorkerError(RuntimeError):
    """A task raised inside a worker; carries the remote traceback."""

    def __init__(self, key: str, message: str, remote_traceback: str = ""):
        super().__init__(f"sweep task {key!r} failed: {message}")
        self.key = key
        self.remote_traceback = remote_traceback


def _seed_rngs(seed: int | None) -> None:
    if seed is None:
        return
    random.seed(seed)
    try:  # numpy is an optional consumer of task seeds
        import numpy as np

        np.random.seed(seed % 2**32)
    except ImportError:  # pragma: no cover - numpy ships with the repo
        pass


def _execute(task: SweepTask) -> SweepResult:
    """Run one task (shared by the serial path and the workers)."""
    _seed_rngs(task.seed)
    kwargs = task.kwargs_dict
    if task.capture_path is not None:
        kwargs["record_path"] = task.capture_path
    value = task.fn(*task.args, **kwargs)
    return SweepResult(task.key, value, task.seed)


# ----------------------------------------------------------------------
# worker side: grid hydration + chunk execution
# ----------------------------------------------------------------------
#: set in the parent just before a ``fork``-context pool spins up, so the
#: children inherit the grid by copy-on-write without pickling anything
_PARENT_TASKS: list[SweepTask] | None = None

#: each worker's hydrated view of the grid (set once by the initializer)
_WORKER_TASKS: list[SweepTask] | None = None


def _init_worker(tasks_blob: bytes | None) -> None:
    """Pool initializer: hydrate the full grid once per worker process.

    ``fork`` contexts pass ``None`` and read the parent's module global
    straight out of the copy-on-write address space; ``spawn`` and
    ``forkserver`` contexts ship one pickled blob per *worker* (not per
    task -- that was the seed bottleneck).
    """
    global _WORKER_TASKS
    _WORKER_TASKS = _PARENT_TASKS if tasks_blob is None else pickle.loads(tasks_blob)


def _execute_chunk(tasks: Sequence[SweepTask]) -> list[SweepResult]:
    """Run a chunk's tasks in order, re-seeding before each exactly as the
    serial path does -- the property suite pins draw-for-draw equality."""
    return [_execute(task) for task in tasks]


#: the result vocabulary's leaves; ``list``, ``tuple`` and ``dict`` nest them
_SCALARS = frozenset({type(None), bool, int, float, str, bytes})


def _check_plain(value: Any) -> None:
    """Raise ``TypeError`` unless ``value`` is plain data.

    Only exact ``None``/``bool``/``int``/``float``/``str``/``bytes`` and
    ``list``/``tuple``/``dict`` trees of them pass: a set, a subclass or a
    live object in a summary fails loudly here rather than pickling.  A
    container whose elements are all leaves is cleared by one
    ``set(map(type, ...))`` instead of a per-element walk, which keeps a
    200k-float scan result cheap.
    """
    kind = type(value)
    if kind in _SCALARS:
        return
    if kind is list or kind is tuple:
        if not set(map(type, value)) <= _SCALARS:
            for item in value:
                _check_plain(item)
    elif kind is dict:
        if not set(map(type, value)) | set(map(type, value.values())) <= _SCALARS:
            for k, v in value.items():
                _check_plain(k)
                _check_plain(v)
    else:
        raise TypeError(
            f"sweep results must be plain data, got {kind.__name__}: {value!r} "
            "(return dicts/lists/numbers/strings from task functions)"
        )


def _run_chunk(indices: tuple[int, ...]) -> tuple:
    """Worker entry point: execute one index chunk against the hydrated grid.

    Never raises: a failing task returns ``("error", key, message, tb)``
    so the parent re-raises :class:`SweepWorkerError` with the *task's*
    identity, not the chunk's.  On success it returns ``("ok", entries)``,
    one ``(index, key, seed, value)`` entry per task, which the pool
    pickles back to the parent.
    """
    tasks = _WORKER_TASKS
    if tasks is None:  # pragma: no cover - initializer contract violation
        return ("error", "<init>", "worker grid was never hydrated", "")
    entries = []
    for idx in indices:
        task = tasks[idx]
        try:
            result = _execute(task)
            entry = (idx, result.key, result.seed, result.value)
            # checking inside the per-task guard attributes a non-plain-data
            # summary to the task that made it
            _check_plain(entry)
        except Exception as exc:  # noqa: BLE001 - re-raised as SweepWorkerError
            return ("error", task.key, repr(exc), traceback.format_exc())
        entries.append(entry)
    return ("ok", entries)


def fingerprint(results: Iterable[SweepResult]) -> str:
    """Order-sensitive digest of a result list.

    Serial and parallel runs of the same tasks must produce the same
    fingerprint -- this is the determinism guarantee made checkable.
    """
    h = hashlib.sha256()
    for r in results:
        h.update(repr((r.key, r.seed, r.value)).encode("utf-8"))
    return h.hexdigest()


class SweepRunner:
    """Fans independent tasks across a process pool.

    ``workers=1`` (or a single task) short-circuits to the in-process
    serial path, which is also what :meth:`run_serial` exposes directly;
    both paths execute tasks through the same :func:`_execute`, so the only
    difference between them is *where* a task runs.

    ``chunk_size=None`` picks the auto policy in
    :func:`repro.sweep.chunking.resolve_chunk_size`; ``start_method``
    defaults to ``fork`` where available (copy-on-write grid hydration)
    and ``spawn`` elsewhere.
    """

    def __init__(
        self,
        workers: int | None = None,
        start_method: str | None = None,
        chunk_size: int | None = None,
    ):
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("need at least one worker")
        if start_method is None:
            start_method = "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
        if start_method not in multiprocessing.get_all_start_methods():
            raise ValueError(
                f"start method {start_method!r} unavailable here; "
                f"choose from {multiprocessing.get_all_start_methods()}"
            )
        self.start_method = start_method
        if chunk_size is not None and chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self.chunk_size = chunk_size

    # ------------------------------------------------------------------
    def run_serial(self, tasks: Sequence[SweepTask]) -> list[SweepResult]:
        """Run every task in-process, in order."""
        tasks = list(tasks)
        self._check_keys(tasks)
        return _execute_chunk(tasks)

    def run(self, tasks: Sequence[SweepTask]) -> list[SweepResult]:
        """Run the grid; results come back in task order regardless of
        which worker finished first."""
        tasks = list(tasks)
        self._check_keys(tasks)
        if self.workers == 1 or len(tasks) <= 1:
            return _execute_chunk(tasks)
        return self._run_pool(tasks)

    # ------------------------------------------------------------------
    def _run_pool(self, tasks: list[SweepTask]) -> list[SweepResult]:
        global _PARENT_TASKS
        chunk_size = resolve_chunk_size(len(tasks), self.workers, self.chunk_size)
        chunks = chunk_indices(len(tasks), chunk_size)
        ctx = multiprocessing.get_context(self.start_method)
        if self.start_method == "fork":
            init_blob = None  # children inherit _PARENT_TASKS copy-on-write
            _PARENT_TASKS = tasks
        else:
            init_blob = pickle.dumps(tasks, protocol=pickle.HIGHEST_PROTOCOL)
        out: list[SweepResult | None] = [None] * len(tasks)
        try:
            with ProcessPoolExecutor(
                max_workers=min(self.workers, len(chunks)),
                mp_context=ctx,
                initializer=_init_worker,
                initargs=(init_blob,),
            ) as pool:
                futures = [pool.submit(_run_chunk, chunk) for chunk in chunks]
                try:
                    # futures are consumed in chunk order (not completion
                    # order): the merge is ordered by construction
                    for future in futures:
                        reply = future.result()
                        if reply[0] == "error":
                            _, key, message, remote_tb = reply
                            raise SweepWorkerError(key, message, remote_tb)
                        for idx, key, seed, value in reply[1]:
                            out[idx] = SweepResult(key, value, seed)
                except BrokenProcessPool as exc:
                    raise SweepWorkerError(
                        "<pool>",
                        "a sweep worker process died abruptly "
                        f"(killed / out of memory?): {exc}",
                    ) from exc
                finally:
                    for future in futures:
                        future.cancel()
        finally:
            _PARENT_TASKS = None
        return out  # type: ignore[return-value] - every slot filled above

    # ------------------------------------------------------------------
    @staticmethod
    def _check_keys(tasks: Sequence[SweepTask]) -> None:
        seen: set[str] = set()
        for task in tasks:
            if task.key in seen:
                raise ValueError(f"duplicate sweep task key {task.key!r}")
            seen.add(task.key)
