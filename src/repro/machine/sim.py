"""Deterministic discrete-event simulation kernel.

The reproduction replaces the paper's CM-5 hardware with a simulated
distributed-memory machine.  This module provides the event kernel that the
machine is built on: a virtual clock, an ordered event queue, and
generator-based *processes* in the style of SimPy (which is not available
offline, so we implement the small subset we need).

A process is a Python generator that yields:

* :class:`Timeout` -- suspend for a span of virtual time,
* :class:`Signal`  -- suspend until another process succeeds the signal,
* :class:`ChannelGet` (returned by :meth:`Channel.get`) -- suspend until a
  message is available.

Determinism: events at equal virtual times fire in the order they were
scheduled (a monotonically increasing sequence number breaks ties), so a
simulation run is a pure function of its inputs.  Nothing in the kernel reads
wall-clock time or global random state.

Hot-path representation: every scheduled event is a plain
``(time, seq, kind, obj, arg)`` tuple.  ``seq`` is unique, so heap
comparisons resolve on ``(time, seq)`` at C speed and never look at the
payload; ``kind`` is a small int tag (:data:`_KIND_STEP` resumes the process
``obj`` with ``arg``, :data:`_KIND_CALL` invokes the callback ``obj``), which
eliminates the per-event closure allocation the seed kernel paid for every
resume.  :meth:`Simulator.run` drains all events sharing one timestamp in a
tight inner loop (one clock write and one ``until`` check per *instant*
instead of per event).  The seed kernel is preserved verbatim in
``tests/machine/sim_legacy.py`` as the differential oracle for these
semantics and the abl8 baseline.
"""

from __future__ import annotations

from collections import deque
from functools import partial
from heapq import heappop, heappush
from operator import attrgetter
from typing import Any, Callable, Generator, Iterable

__all__ = [
    "Simulator",
    "Process",
    "Timeout",
    "Signal",
    "Channel",
    "ChannelGet",
    "SimulationError",
    "ProcessCrashed",
]


class SimulationError(Exception):
    """Raised for kernel-level misuse (bad yields, negative delays...)."""


class ProcessCrashed(SimulationError):
    """Raised by :meth:`Simulator.run` when a process raised an exception."""

    def __init__(self, process: "Process", original: BaseException):
        super().__init__(f"process {process.name!r} crashed: {original!r}")
        self.process = process
        self.original = original


class Timeout:
    """Yielded by a process to suspend for ``delay`` units of virtual time."""

    __slots__ = ("delay",)

    def __init__(self, delay: float):
        if delay < 0:
            raise SimulationError(f"negative timeout: {delay}")
        object.__setattr__(self, "delay", delay)

    def __setattr__(self, name: str, value: Any) -> None:
        raise AttributeError("Timeout is immutable")

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Timeout) and other.delay == self.delay

    def __hash__(self) -> int:
        return hash((Timeout, self.delay))

    def __repr__(self) -> str:
        return f"Timeout(delay={self.delay})"


class Signal:
    """A one-shot synchronization point carrying an optional value.

    Any number of processes may ``yield`` the same signal; all of them resume
    (in yield order) once :meth:`succeed` is called.  Succeeding twice is an
    error -- create a new Signal per occurrence.
    """

    __slots__ = ("sim", "value", "_fired", "_waiters")

    def __init__(self, sim: "Simulator"):
        self.sim = sim
        self.value: Any = None
        self._fired = False
        self._waiters: deque[Process] = deque()

    @property
    def fired(self) -> bool:
        return self._fired

    def succeed(self, value: Any = None) -> None:
        """Fire the signal, waking every waiter at the current virtual time."""
        if self._fired:
            raise SimulationError("signal succeeded twice")
        self._fired = True
        self.value = value
        for proc in self._waiters:
            self.sim._schedule_resume(proc, value)
        self._waiters.clear()

    def _add_waiter(self, proc: "Process") -> None:
        if self._fired:
            self.sim._schedule_resume(proc, self.value)
        else:
            self._waiters.append(proc)


class ChannelGet:
    """Yielded by a process that wants the next message from a channel."""

    __slots__ = ("channel",)

    def __init__(self, channel: "Channel"):
        self.channel = channel


class Channel:
    """An unbounded FIFO message queue between processes.

    ``put`` never blocks.  ``get`` returns a :class:`ChannelGet` request to be
    yielded; the process resumes with the message as the yield value.  Messages
    are delivered in put order; competing getters are served in get order.
    Both sides are :class:`collections.deque`, so serving the oldest item or
    getter is O(1) rather than the ``list.pop(0)`` O(n) the seed paid.
    """

    __slots__ = ("sim", "name", "_items", "_getters", "puts", "gets")

    def __init__(self, sim: "Simulator", name: str = ""):
        self.sim = sim
        self.name = name
        self._items: deque[Any] = deque()
        self._getters: deque[Process] = deque()
        self.puts = 0
        self.gets = 0

    def __len__(self) -> int:
        return len(self._items)

    def put(self, item: Any) -> None:
        """Enqueue ``item``; wakes the oldest waiting getter, if any."""
        self.puts += 1
        if self._getters:
            proc = self._getters.popleft()
            self.gets += 1
            self.sim._schedule_resume(proc, item)
        else:
            self._items.append(item)

    def get(self) -> ChannelGet:
        """Build a get-request; ``yield`` it to receive the next message."""
        return ChannelGet(self)

    def _register(self, proc: "Process") -> None:
        if self._items:
            self.gets += 1
            self.sim._schedule_resume(proc, self._items.popleft())
        else:
            self._getters.append(proc)


class Process:
    """A running generator inside the simulator."""

    __slots__ = ("sim", "name", "generator", "done", "result", "exception", "_completion", "_send")

    def __init__(self, sim: "Simulator", generator: Generator, name: str):
        self.sim = sim
        self.name = name
        self.generator = generator
        self.done = False
        self.result: Any = None
        self.exception: BaseException | None = None
        self._completion: Signal | None = None
        self._send = generator.send  # bound once; _step calls it per event

    @property
    def completion(self) -> Signal:
        """A signal that fires (with the process result) when it finishes."""
        if self._completion is None:
            self._completion = Signal(self.sim)
            if self.done:
                self._completion.succeed(self.result)
        return self._completion

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "done" if self.done else "running"
        return f"<Process {self.name!r} {state}>"


#: Event kind tags: resume a process generator / invoke a plain callback.
_KIND_STEP = 0
_KIND_CALL = 1


class Simulator:
    """The event kernel: virtual clock + ordered event queue + processes."""

    def __init__(self) -> None:
        self._now = 0.0
        self._seq = 0
        # (time, seq, kind, obj, arg): kind==_KIND_STEP resumes process obj
        # with arg; kind==_KIND_CALL invokes callback obj.  seq is unique, so
        # heap ordering is decided entirely by (time, seq).
        self._queue: list[tuple[float, int, int, Any, Any]] = []
        self._crashed: ProcessCrashed | None = None
        self.processes: list[Process] = []

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current virtual time."""
        return self._now

    def now_reader(self) -> Callable[[], float]:
        """A zero-argument callable returning :attr:`now` without running a
        Python frame (a SAS clock reads it on every notification)."""
        return partial(attrgetter("_now"), self)

    def signal(self) -> Signal:
        """Create a fresh one-shot :class:`Signal`."""
        return Signal(self)

    def channel(self, name: str = "") -> Channel:
        """Create a fresh FIFO :class:`Channel`."""
        return Channel(self, name)

    def spawn(self, generator: Generator, name: str = "proc") -> Process:
        """Start ``generator`` as a process at the current virtual time."""
        proc = Process(self, generator, name)
        self.processes.append(proc)
        self._schedule_step(proc, None)
        return proc

    def call_at(self, time: float, action: Callable[[], None]) -> None:
        """Schedule a plain callback at absolute virtual ``time``."""
        if time < self._now:
            raise SimulationError(f"cannot schedule in the past: {time} < {self._now}")
        self._schedule(time - self._now, action)

    def run(self, until: float | None = None) -> float:
        """Run until the queue drains or virtual time reaches ``until``.

        Returns the final virtual time.  Re-raises process crashes as
        :class:`ProcessCrashed`.  All events sharing one timestamp drain in a
        micro-batch: the ``until`` bound and the clock are touched once per
        distinct instant, and events scheduled *at* the current instant by a
        firing event join the same batch (in seq order, preserving the FIFO
        tie-break).
        """
        queue = self._queue
        step = self._step
        while queue:
            now = queue[0][0]
            if until is not None and now > until:
                self._now = until
                return until
            self._now = now
            while queue and queue[0][0] == now:
                _, _, kind, obj, arg = heappop(queue)
                if kind == _KIND_STEP:
                    step(obj, arg)
                else:
                    obj()
                if self._crashed is not None:
                    crash = self._crashed
                    self._crashed = None
                    raise crash
        if until is not None and until > self._now:
            self._now = until
        return self._now

    def run_all(self, processes: Iterable[Generator], names: Iterable[str] | None = None) -> float:
        """Spawn every generator and run to completion; returns final time."""
        names = list(names) if names is not None else None
        for i, gen in enumerate(processes):
            self.spawn(gen, names[i] if names else f"proc{i}")
        return self.run()

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _schedule(self, delay: float, action: Callable[[], None]) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, _KIND_CALL, action, None))

    def _schedule_step(self, proc: Process, value: Any, delay: float = 0.0) -> None:
        if delay < 0:
            raise SimulationError(f"negative delay: {delay}")
        self._seq += 1
        heappush(self._queue, (self._now + delay, self._seq, _KIND_STEP, proc, value))

    def _schedule_resume(self, proc: Process, value: Any) -> None:
        # resume at the current instant: no delay to validate, push directly
        self._seq += 1
        heappush(self._queue, (self._now, self._seq, _KIND_STEP, proc, value))

    def _step(self, proc: Process, send_value: Any) -> None:
        if proc.done:
            return
        try:
            yielded = proc._send(send_value)
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

        # exact-type dispatch: nothing subclasses the kernel classes, and an
        # instance of a subclass is refused below; a bare int/float is a delay
        cls = yielded.__class__
        if cls is Timeout:
            # Timeout validated its delay at construction: push directly
            self._seq += 1
            heappush(self._queue, (self._now + yielded.delay, self._seq, _KIND_STEP, proc, None))
        elif cls is ChannelGet:
            yielded.channel._register(proc)
        elif cls is Signal:
            yielded._add_waiter(proc)
        elif cls is Process:
            yielded.completion._add_waiter(proc)
        elif isinstance(yielded, (int, float)):
            self._schedule_step(proc, None, float(yielded))
        else:
            proc.done = True
            err = SimulationError(f"process {proc.name!r} yielded unsupported {yielded!r}")
            proc.exception = err
            self._crashed = ProcessCrashed(proc, err)
