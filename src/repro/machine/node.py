"""Parallel compute node of the simulated machine.

Each node owns a virtual clock (the shared simulator clock observed from the
node's process), a set of *time accounts* used as ground truth when validating
instrumentation-derived metrics, and a small amount of vector-unit state that
reproduces the CM-5 behaviours named in the paper's Figure 9 (cleanups = resets
of node vector units; idle time = waiting for the control processor; node
activations = dispatches from the control processor).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Generator

from .sim import Simulator, Timeout

if TYPE_CHECKING:  # pragma: no cover
    from .network import Network

__all__ = ["TimeAccounts", "Node"]


@dataclass
class TimeAccounts:
    """Ground-truth per-node time ledger, by activity category.

    The categories mirror the CMRTS-level verbs of Figure 9 so tests can check
    instrumented timers against what the node actually did.
    """

    compute: float = 0.0
    communication: float = 0.0
    idle: float = 0.0
    argument_processing: float = 0.0
    cleanup: float = 0.0
    instrumentation: float = 0.0  # perturbation charged by inserted primitives
    other: float = field(default=0.0)

    def total(self) -> float:
        return (
            self.compute
            + self.communication
            + self.idle
            + self.argument_processing
            + self.cleanup
            + self.instrumentation
            + self.other
        )

    def charge(self, category: str, dt: float) -> None:
        if dt < 0:
            raise ValueError(f"negative charge: {dt}")
        if category not in _ACCOUNTS:
            raise KeyError(f"unknown time account {category!r}")
        self.__dict__[category] += dt

    def as_dict(self) -> dict[str, float]:
        return {
            "compute": self.compute,
            "communication": self.communication,
            "idle": self.idle,
            "argument_processing": self.argument_processing,
            "cleanup": self.cleanup,
            "instrumentation": self.instrumentation,
            "other": self.other,
        }


_ACCOUNTS = frozenset(f.name for f in fields(TimeAccounts))


class Node:
    """A single processing node (PE) of the simulated parallel machine.

    Parameters
    ----------
    sim:
        The event kernel this node lives in.
    node_id:
        Dense integer id, ``0 <= node_id < machine.num_nodes``.
    flop_time:
        Virtual seconds charged per element-operation of computation.
    """

    def __init__(self, sim: Simulator, node_id: int, flop_time: float = 1e-7):
        self.sim = sim
        self.node_id = node_id
        self.flop_time = flop_time
        self.accounts = TimeAccounts()
        self.activations = 0  # count of dispatches from the control processor
        self.vu_dirty = False  # vector unit needs a cleanup/reset
        self.cleanups = 0
        self.inbox = sim.channel(name=f"node{node_id}.inbox")
        self.network: "Network | None" = None  # wired up by Machine

    # ------------------------------------------------------------------
    # time-consuming activities (generator helpers -- ``yield from`` them)
    # ------------------------------------------------------------------
    def compute(self, element_ops: float) -> Generator:
        """Spend virtual time computing ``element_ops`` element-operations.

        Marks the vector unit dirty: a later context switch will require a
        cleanup (Figure 9's *Cleanups* metric).
        """
        if element_ops < 0:
            raise ValueError("negative work")
        dt = element_ops * self.flop_time
        self.vu_dirty = True
        self.accounts.charge("compute", dt)
        yield Timeout(dt)

    def busy(self, dt: float, category: str = "other") -> Generator:
        """Spend ``dt`` virtual seconds charged to ``category``."""
        self.accounts.charge(category, dt)
        yield Timeout(dt)

    def cleanup_vector_units(self, cleanup_time: float) -> Generator:
        """Reset the vector units if dirty (the CMRTS *Cleanup* activity)."""
        if self.vu_dirty:
            self.vu_dirty = False
            self.cleanups += 1
            self.accounts.charge("cleanup", cleanup_time)
            yield Timeout(cleanup_time)

    @property
    def process_time(self) -> float:
        """Virtual CPU time consumed so far (everything except idle waits).

        This is the clock a *process timer* primitive reads; a *wall timer*
        reads the simulator clock instead.
        """
        return self.accounts.total() - self.accounts.idle

    def idle_receive(self) -> Generator:
        """Wait for the next inbox message, charging the wait to *idle*.

        This reproduces Figure 9's *Idle Time* ("time spent waiting for
        control processor"): node processes block here between dispatches.
        """
        t0 = self.sim.now
        msg = yield self.inbox.get()
        self.accounts.charge("idle", self.sim.now - t0)
        return msg

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Node {self.node_id}>"
