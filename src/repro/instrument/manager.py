"""The dynamic instrumentation manager.

Implements the insert/remove lifecycle of Section 4.1: requests attach
primitive actions (guarded by predicates) to named points; the manager *is*
the probe the CMRTS runtime calls out to, and it can change the inserted
set while the application runs -- dynamic instrumentation.

Perturbation model: each fired callout at an instrumented (point, phase)
costs ``guard_cost`` per inserted request (the predicate evaluates inside
the application) plus ``action_cost`` per action actually executed.  A
(point, phase) with nothing inserted costs exactly zero, preserving the
paper's central property of dynamic instrumentation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Union

from .primitives import PROCESS, WALL, Counter, Timer

if TYPE_CHECKING:  # pragma: no cover
    from ..machine import Machine

__all__ = [
    "IncrementCounter",
    "StartTimer",
    "StopTimer",
    "Action",
    "InstrumentationRequest",
    "InsertedHandle",
    "InstrumentationManager",
]


@dataclass(frozen=True)
class IncrementCounter:
    """Add ``amount`` (a number, or the name of a ctx field) to a counter."""

    counter: Counter
    amount: Union[float, str] = 1.0


@dataclass(frozen=True)
class StartTimer:
    """Start (or nest into) a timer primitive."""

    timer: Timer


@dataclass(frozen=True)
class StopTimer:
    """Stop (or un-nest) a timer primitive."""

    timer: Timer


Action = Union[IncrementCounter, StartTimer, StopTimer]


@dataclass
class InstrumentationRequest:
    """One piece of instrumentation to insert at a (point, phase)."""

    point: str
    phase: str  # "entry" | "exit"
    action: Action
    predicate: object | None = None  # Predicate; None = always fire
    label: str = ""

    def __post_init__(self) -> None:
        if self.phase not in ("entry", "exit"):
            raise ValueError(f"phase must be entry/exit, got {self.phase!r}")


@dataclass
class InsertedHandle:
    """Returned by :meth:`InstrumentationManager.insert`; pass to remove()."""

    uid: int
    request: InstrumentationRequest
    executions: int = 0
    fires: int = 0  # predicate passed and action ran


class InstrumentationManager:
    """Probe implementation that executes inserted instrumentation.

    Parameters
    ----------
    machine:
        Needed for timer clocks (wall = virtual time, process = per-node
        consumed CPU).
    guard_cost / action_cost:
        Perturbation charged per predicate evaluation / per executed action.
    """

    def __init__(
        self,
        machine: "Machine",
        guard_cost: float = 1e-7,
        action_cost: float = 2e-7,
    ):
        self.machine = machine
        self.guard_cost = guard_cost
        self.action_cost = action_cost
        self._by_point: dict[tuple[str, str], list[InsertedHandle]] = {}
        self._uid = itertools.count(1)
        self.total_executions = 0
        self.total_cost = 0.0
        self.known_points: set[str] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def register_points(self, points) -> None:
        """Declare the application's instrumentable points (validation aid)."""
        self.known_points.update(points)

    def insert(self, request: InstrumentationRequest) -> InsertedHandle:
        """Insert instrumentation at a running application's point."""
        if self.known_points and request.point not in self.known_points:
            raise KeyError(f"unknown instrumentation point {request.point!r}")
        handle = InsertedHandle(next(self._uid), request)
        self._by_point.setdefault((request.point, request.phase), []).append(handle)
        return handle

    def remove(self, handle: InsertedHandle) -> None:
        """Remove previously-inserted instrumentation (dynamic deletion)."""
        key = (handle.request.point, handle.request.phase)
        handles = self._by_point.get(key, [])
        if handle not in handles:
            raise KeyError(f"handle {handle.uid} not inserted")
        handles.remove(handle)
        if not handles:
            del self._by_point[key]

    def inserted_count(self) -> int:
        return sum(len(v) for v in self._by_point.values())

    def armed(self, point: str, phase: str) -> bool:
        """Whether anything is inserted at (point, phase): O(1), so callers
        skip building the context of a callout nothing would read."""
        return (point, phase) in self._by_point

    # ------------------------------------------------------------------
    # probe interface (called from inside the simulated application)
    # ------------------------------------------------------------------
    def fire(self, point: str, phase: str, node_id: int, ctx) -> float:
        handles = self._by_point.get((point, phase))
        if not handles:
            return 0.0  # uninstrumented points cause no perturbation
        cost = 0.0
        for handle in list(handles):
            handle.executions += 1
            self.total_executions += 1
            cost += self.guard_cost
            predicate = handle.request.predicate
            if predicate is not None and not predicate(node_id, ctx):
                continue
            handle.fires += 1
            self._execute(handle.request.action, node_id, ctx)
            cost += self.action_cost
        self.total_cost += cost
        return cost

    def _execute(self, action: Action, node_id: int, ctx) -> None:
        if isinstance(action, IncrementCounter):
            amount = action.amount
            if isinstance(amount, str):
                amount = float(ctx.get(amount, 0.0))
            action.counter.increment(node_id, amount)
        elif isinstance(action, StartTimer):
            action.timer.start(node_id, self._clock(action.timer, node_id))
        elif isinstance(action, StopTimer):
            action.timer.stop(node_id, self._clock(action.timer, node_id))
        else:  # pragma: no cover
            raise TypeError(f"unknown action {action!r}")

    def _clock(self, timer: Timer, node_id: int) -> float:
        if timer.kind == WALL:
            return self.machine.sim.now
        if 0 <= node_id < len(self.machine.nodes):
            return self.machine.nodes[node_id].process_time
        return self.machine.sim.now  # control processor has no CPU ledger

    def now(self, timer_kind: str = WALL, node_id: int = -1) -> float:
        """Current reading of a timer clock (used when sampling open timers)."""
        if timer_kind == PROCESS and 0 <= node_id < len(self.machine.nodes):
            return self.machine.nodes[node_id].process_time
        return self.machine.sim.now
