"""The CMRTS runtime: executes a compiled CMF program on the machine.

The control processor walks the execution plan: it allocates the program's
parallel arrays (firing the allocation mapping points), broadcasts node code
blocks with their scalar arguments, collects reduction results and
acknowledgements, and executes front-end scalar statements.  Nodes run
:class:`~repro.cmrts.dispatch.NodeWorker` loops.

Measurement attachment is entirely optional: with no probe and no notifier,
the program runs unperturbed (the dynamic-instrumentation property the paper
leans on).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Mapping

import numpy as np

from ..cmfortran import (
    CompiledProgram,
    DispatchStep,
    LocalReduce,
    LoopStep,
    PlanStep,
    ScalarStep,
    eval_expr,
)
from ..instrument.probes import NullProbe
from ..machine import Machine, MachineConfig
from .alloc import AllocationManager
from .dispatch import NodeWorker

__all__ = ["RuntimeConfig", "CMRTSRuntime", "ScalarEnv"]


@dataclass(frozen=True)
class RuntimeConfig:
    """CMRTS cost-model parameters (virtual seconds / bytes)."""

    arg_fixed_time: float = 1e-6  # per-dispatch argument unpack overhead
    arg_byte_time: float = 2e-8  # per broadcast byte
    cleanup_time: float = 2e-6  # vector-unit reset
    dispatch_base_bytes: int = 64  # block descriptor size
    scalar_bytes: int = 8

    def __post_init__(self) -> None:
        if min(self.arg_fixed_time, self.arg_byte_time, self.cleanup_time) <= 0:
            raise ValueError("times must be positive")


class ScalarEnv(dict):
    """Front-end scalar store; unset scalars read as 0.0 (Fortran-of-convenience)."""

    def __missing__(self, key: str) -> float:
        return 0.0


class CMRTSRuntime:
    """One execution of one compiled program on one simulated machine.

    Parameters
    ----------
    program:
        A :func:`repro.cmfortran.compile_source` result.
    machine:
        The machine to run on; built from ``num_nodes`` if omitted.
    probe:
        Instrumentation probe receiving point callouts
        (default: a null probe with zero cost).
    notifier:
        A :class:`repro.instrument.SentenceNotifier` routing sentence
        activity to per-node SASes (default: no notifications at all).
    initial_arrays:
        Optional mapping of array name -> global numpy value installed right
        after allocation (lets tests/benches run on known data).
    """

    def __init__(
        self,
        program: CompiledProgram,
        machine: Machine | None = None,
        num_nodes: int = 4,
        config: RuntimeConfig | None = None,
        probe=None,
        notifier=None,
        initial_arrays: Mapping[str, np.ndarray] | None = None,
    ):
        self.program = program
        self.machine = machine or Machine(MachineConfig(num_nodes=num_nodes))
        self.config = config or RuntimeConfig()
        self.probe = probe or NullProbe()
        self.notifier = notifier
        self.initial_arrays = dict(initial_arrays or {})
        self.heap = AllocationManager(self.machine.num_nodes)
        self.scalars = ScalarEnv()
        self.workers = [NodeWorker(self, i) for i in range(self.machine.num_nodes)]
        self.finished = False
        self.done = False  # set by the CP process the moment the plan completes
        self.dispatches = 0
        self._plans: dict[tuple, tuple] = {}

    # ------------------------------------------------------------------
    def run(self) -> "CMRTSRuntime":
        """Execute the program to completion; returns self for chaining."""
        if self.finished:
            raise RuntimeError("runtime already ran")
        sim = self.machine.sim
        for worker in self.workers:
            sim.spawn(worker.main(), f"node{worker.node_id}")
        sim.spawn(self._cp_main(), "control")
        sim.run()
        self.finished = True
        return self

    def transfer_plan(self, planner: Callable[..., list], *args) -> tuple:
        """``planner(*args)`` as a tuple, computed once per run.

        A plan is a pure function of partition metadata, so every node of an
        SPMD step asks for the same one, and all get the same object; list
        arguments are keyed as tuples.
        """
        key = (planner, *(tuple(a) if isinstance(a, list) else a for a in args))
        plan = self._plans.get(key)
        if plan is None:
            plan = self._plans[key] = tuple(planner(*args))
        return plan

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def array(self, name: str) -> np.ndarray:
        """Global value of a parallel array (post-run verification)."""
        return self.heap.get(name).global_value()

    def scalar(self, name: str) -> float:
        return self.scalars[name]

    @property
    def elapsed(self) -> float:
        return self.machine.sim.now

    # ------------------------------------------------------------------
    # control-processor process
    # ------------------------------------------------------------------
    def _cp_main(self) -> Generator:
        # Allocate every declared array: each allocation is a mapping point
        # firing dynamic mapping information at the tool.
        for sym in sorted(self.program.symbols.arrays.values(), key=lambda s: s.decl_line):
            array = self.heap.allocate(
                sym.name,
                sym.dtype,
                sym.shape,
                owner=sym.owner or self.program.name,
                dist_axis=sym.dist_axis,
            )
            if sym.name in self.initial_arrays:
                array.set_global(self.initial_arrays[sym.name])
            yield from self.machine.control.scalar_compute(10)

        yield from self._run_steps(self.program.plan.steps)
        yield from self.machine.control.shutdown()
        self.done = True

    def _run_steps(self, steps: list[PlanStep]) -> Generator:
        for step in steps:
            if isinstance(step, DispatchStep):
                yield from self._dispatch(step)
            elif isinstance(step, ScalarStep):
                value = float(eval_expr(step.expr, self.scalars))
                self.scalars[step.target] = value
                yield from self.machine.control.scalar_compute(max(1, step.ops))
            elif isinstance(step, LoopStep):
                for i in range(step.lo, step.hi):
                    self.scalars[step.index] = float(i)
                    yield from self._run_steps(step.body)
            else:  # pragma: no cover
                raise RuntimeError(f"unknown plan step {step!r}")

    def _dispatch(self, step: DispatchStep) -> Generator:
        block = step.block
        scalar_args = {name: self.scalars[name] for name in block.scalar_args}
        size = (
            self.config.dispatch_base_bytes
            + len(scalar_args) * self.config.scalar_bytes
            + 8 * len(block.ops)
        )
        self.dispatches += 1
        yield from self.machine.control.dispatch((block, scalar_args), size)

        expected_results = sum(1 for op in block.ops if isinstance(op, LocalReduce))
        acks = 0
        while acks < self.machine.num_nodes or expected_results > 0:
            msg = yield from self.machine.network.control_receive()
            if msg.tag == "ack":
                acks += 1
            elif msg.tag == "reduce_result":
                slot, value = msg.payload
                self.scalars[slot] = value
                expected_results -= 1
            else:  # pragma: no cover
                raise RuntimeError(f"control processor got unexpected {msg.tag!r}")


def run_program(
    program: CompiledProgram,
    num_nodes: int = 4,
    initial_arrays: Mapping[str, np.ndarray] | None = None,
    **kwargs,
) -> CMRTSRuntime:
    """Convenience: build a machine, run ``program``, return the runtime."""
    runtime = CMRTSRuntime(
        program, num_nodes=num_nodes, initial_arrays=initial_arrays, **kwargs
    )
    return runtime.run()
