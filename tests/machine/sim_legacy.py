"""The seed event kernel, preserved as a baseline and differential oracle.

:class:`LegacySimulator` is the pre-tuple-kernel scheduler exactly as the
repository seeded it: heap entries are ``@dataclass(order=True)`` objects and
every scheduled event closes over a fresh ``lambda``.  It is kept for two
reasons:

* the abl8 bench (``benchmarks/test_abl8_kernel_sweep.py``) measures the
  rewritten tuple kernel against it, so the "events/sec over the seed
  kernel" claim stays reproducible from a checkout;
* ``tests/machine/test_sim_differential.py`` replays identical randomized
  workloads through both kernels and asserts identical event orderings and
  final clocks -- the legacy kernel is the executable specification of the
  FIFO tie-break semantics.

It lives with the tests because nothing in the package runs it.  The
process-facing classes (:class:`Timeout`, :class:`Signal`,
:class:`Channel`, :class:`Process`) are shared with :mod:`repro.machine.sim`
so the very same generator code runs on either kernel; only the scheduler
differs.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Generator, Iterable

from repro.machine.sim import (
    Channel,
    ChannelGet,
    Process,
    ProcessCrashed,
    Signal,
    SimulationError,
    Timeout,
)

__all__ = ["LegacySimulator"]


@dataclass(order=True)
class _QueueEntry:
    time: float
    seq: int
    action: Callable[[], None] = field(compare=False)


class LegacySimulator:
    """The seed kernel: dataclass heap entries + per-event lambda closures."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        self._queue: list[_QueueEntry] = []
        self._crashed: ProcessCrashed | None = None
        self.processes: list[Process] = []

    # ------------------------------------------------------------------
    # public API (identical to Simulator's)
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        return self._now

    def signal(self) -> Signal:
        return Signal(self)

    def channel(self, name: str = "") -> Channel:
        return Channel(self, name)

    def spawn(self, generator: Generator, name: str = "proc") -> Process:
        proc = Process(self, generator, name)
        self.processes.append(proc)
        self._schedule(0.0, lambda: self._step(proc, None))
        return proc

    def call_at(self, time: float, action: Callable[[], None]) -> None:
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        self._schedule(time - self._now, action)

    def run(self, until: float | None = None) -> float:
        while self._queue:
            if until is not None and self._queue[0].time > until:
                self._now = until
                break
            entry = heapq.heappop(self._queue)
            self._now = entry.time
            entry.action()
            if self._crashed is not None:
                crash = self._crashed
                self._crashed = None
                raise crash
        else:
            if until is not None and until > self._now:
                self._now = until
        return self._now

    def run_all(self, processes: Iterable[Generator], names: Iterable[str] | None = None) -> float:
        names = list(names) if names is not None else None
        for i, gen in enumerate(processes):
            self.spawn(gen, names[i] if names else f"proc{i}")
        return self.run()

    # ------------------------------------------------------------------
    # internals (the part the tuple kernel replaced)
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        heapq.heappush(self._queue, _QueueEntry(self._now + delay, self._seq, action))

    def _schedule_resume(self, proc: Process, value: Any) -> None:
        self._schedule(0.0, lambda: self._step(proc, value))

    def _step(self, proc: Process, send_value: Any) -> None:
        if proc.done:
            return
        try:
            yielded = proc.generator.send(send_value)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            if proc._completion is not None:
                proc._completion.succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - surfaced via run()
            proc.done = True
            proc.exception = exc
            self._crashed = ProcessCrashed(proc, exc)
            return

        if isinstance(yielded, Timeout):
            self._schedule(yielded.delay, lambda: self._step(proc, None))
        elif isinstance(yielded, Signal):
            yielded._add_waiter(proc)
        elif isinstance(yielded, ChannelGet):
            yielded.channel._register(proc)
        elif isinstance(yielded, Process):
            yielded.completion._add_waiter(proc)
        elif isinstance(yielded, (int, float)):
            self._schedule(float(yielded), lambda: self._step(proc, None))
        else:
            proc.done = True
            err = SimulationError(f"process {proc.name!r} yielded unsupported {yielded!r}")
            proc.exception = err
            self._crashed = ProcessCrashed(proc, err)
