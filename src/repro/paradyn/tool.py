"""The Paradyn tool facade.

Assembles the full measurement stack of Section 5 around one program run:
simulated machine, CMRTS runtime, per-node SASes + daemons, instrumentation
manager, MDL metric manager, and the Data Manager loaded with the program's
PIF (generated from the compiler listing, as in Section 6.2).

Typical use::

    tool = Paradyn.for_program(compile_source(src), num_nodes=4)
    tool.request_metric("summation_time", focus={"array": "A"})
    tool.measure_block_times()
    tool.run()
    print(tool.report())
    attribution = tool.attribute(policy="merge")
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Mapping as TMapping

from ..cmfortran import CompiledProgram
from ..cmrts import CMRTSRuntime, POINTS, RuntimeConfig, standard_vocabulary
from ..core import (
    CPU_TIME,
    ActiveSentenceSet,
    Attribution,
    CostVector,
    MergePolicy,
    Sentence,
    SentenceTable,
    SplitPolicy,
    Trace,
)
from ..instrument import (
    ContextEquals,
    InstrumentationManager,
    SentenceNotifier,
    StartTimer,
    StopTimer,
    InstrumentationRequest,
    Timer,
)
from ..machine import Machine, MachineConfig
from ..pif import generate_pif
from .daemon import Daemon
from .datamgr import DataManager
from .metrics import Focus, MetricInstance, MetricManager
from .visualize import text_table

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = ["Paradyn", "QuestionRequest"]


class QuestionRequest:
    """A performance question attached to one or more node SASes."""

    def __init__(self, question, watchers, tool: "Paradyn"):
        self.question = question
        self.watchers = watchers  # node_id -> QuestionWatcher
        self._tool = tool

    def satisfied_time(self, node: int | None = None) -> float:
        """Accumulated satisfied time (summed over nodes by default)."""
        now = self._tool.machine.sim.now
        if node is not None:
            return self.watchers[node].total_satisfied_time(now)
        return sum(w.total_satisfied_time(now) for w in self.watchers.values())

    def transitions(self, node: int | None = None) -> int:
        if node is not None:
            return self.watchers[node].transitions
        return sum(w.transitions for w in self.watchers.values())

    def satisfied_now(self, node: int) -> bool:
        return self.watchers[node].satisfied


class Paradyn:
    """One Paradyn session measuring one program execution."""

    def __init__(
        self,
        program: CompiledProgram,
        num_nodes: int = 4,
        enable_sas: bool = True,
        trace_sentences: bool = False,
        machine_config: MachineConfig | None = None,
        runtime_config: RuntimeConfig | None = None,
        initial_arrays: TMapping[str, np.ndarray] | None = None,
        guard_cost: float = 1e-7,
        action_cost: float = 2e-7,
        notify_cost: float = 5e-7,
        sample_interval: float | None = None,
        lazy_notification_sites: bool = False,
    ):
        self.program = program
        machine_config = machine_config or MachineConfig(num_nodes=num_nodes)
        self.machine = Machine(machine_config)
        self.runtime = CMRTSRuntime(
            program,
            machine=self.machine,
            config=runtime_config,
            initial_arrays=initial_arrays,
        )
        self.instrumentation = InstrumentationManager(
            self.machine, guard_cost=guard_cost, action_cost=action_cost
        )
        self.instrumentation.register_points(POINTS)
        self.runtime.probe = self.instrumentation

        sim = self.machine.sim
        self.trace = Trace() if trace_sentences else None
        self.sases: list[ActiveSentenceSet] = []
        self.notifier: SentenceNotifier | None = None
        if enable_sas:
            # one sentence table for the run: a sid names one sentence on
            # every node, from the dispatcher's notification to the engine
            table = SentenceTable()
            self.sases = [
                ActiveSentenceSet(
                    clock=sim.now_reader(), node_id=i, trace=self.trace if i == 0 else None,
                    table=table,
                )
                for i in range(self.machine.num_nodes)
            ]
            self.notifier = SentenceNotifier(self.sases, notify_cost=notify_cost)
            self.runtime.notifier = self.notifier

        self.datamgr = DataManager(standard_vocabulary())
        self.datamgr.set_program(program.name, program.source_file)
        self.datamgr.register_machine(self.machine.num_nodes)
        self.daemons = [
            Daemon(i, self.sases[i] if self.sases else None, self.datamgr)
            for i in range(self.machine.num_nodes)
        ]

        # static mapping information: the daemon imports the program's PIF
        # "just after loading the executable"
        self.pif = generate_pif(program.listing)
        self.daemons[0].import_pif(self.pif)

        # dynamic mapping information: allocation mapping points -> daemon 0
        self.runtime.heap.on_allocate.append(self.daemons[0].forward_allocation)
        self.runtime.heap.on_deallocate.append(self.daemons[0].forward_allocation)

        self.metrics = MetricManager(
            self.runtime,
            self.instrumentation,
            self.notifier,
            lazy_sites=lazy_notification_sites,
        )
        if sample_interval is not None:
            self.metrics.start_sampling(sample_interval)

        self._block_timers: dict[str, Timer] = {}
        self._mapping_recorder = None
        self._ran = False

    def discover_dynamic_mappings(self) -> None:
        """Enable SAS co-activity mapping discovery (Section 4.2).

        "Any two sentences contained in the SAS concurrently are considered
        to dynamically map to one another": a recorder on node 0's SAS turns
        co-active pairs into dynamic mapping records and forwards them
        through the daemon to the Data Manager, which treats them exactly
        like static records.
        """
        if not self.sases:
            raise RuntimeError("dynamic mapping discovery needs the SAS enabled")
        if self._mapping_recorder is not None:
            return
        from ..core import DynamicMappingRecorder, MappingGraph

        class _ForwardingGraph(MappingGraph):
            def __init__(inner, daemon):
                super().__init__()
                inner._daemon = daemon

            def add(inner, mapping) -> bool:
                if super().add(mapping):
                    inner._daemon.forward_mapping(mapping)
                    return True
                return False

        recorder = DynamicMappingRecorder(
            self.datamgr.vocabulary, graph=_ForwardingGraph(self.daemons[0])
        )
        recorder.attach(self.sases[0])
        self._mapping_recorder = recorder

    def record_to(self, recorder, nodes: list[int] | None = None) -> None:
        """Stream this tool's dynamic record into a trace recorder.

        Attaches ``recorder`` (normally a
        :class:`~repro.trace.ColumnarTraceWriter`) to every node SAS (or
        just ``nodes``) and to the metric sampler, so the whole run persists
        for post-mortem analysis with :mod:`repro.trace.retro`.  Call before
        :meth:`run`.
        """
        if not self.sases:
            raise RuntimeError("trace recording needs the SAS enabled")
        targets = nodes if nodes is not None else range(len(self.sases))
        for i in targets:
            self.sases[i].attach_recorder(recorder)
        self.metrics.attach_recorder(recorder)

    # ------------------------------------------------------------------
    @classmethod
    def for_program(cls, program: CompiledProgram, **kwargs) -> "Paradyn":
        return cls(program, **kwargs)

    @property
    def elapsed(self) -> float:
        return self.machine.sim.now

    # ------------------------------------------------------------------
    # requests
    # ------------------------------------------------------------------
    def ask_question(self, question, node: int | None = None) -> "QuestionRequest":
        """Attach a performance question (Figure 6) to node SASes.

        ``node`` restricts to one node's SAS; default attaches everywhere
        (SPMD replication).  Returns a :class:`QuestionRequest` whose
        per-node watchers accumulate satisfied time.
        """
        if not self.sases:
            raise RuntimeError("performance questions need the SAS enabled")
        nodes = [node] if node is not None else list(range(len(self.sases)))
        watchers = {i: self.sases[i].attach_question(question) for i in nodes}
        return QuestionRequest(question, watchers, self)

    def request_metric(
        self, name: str, focus: Focus | dict | None = None
    ) -> MetricInstance:
        """Request a metric x focus; instrumentation inserts immediately."""
        if isinstance(focus, dict):
            focus = Focus(**focus)
        return self.metrics.request(name, focus)

    def focus_for(self, resource_name: str) -> Focus:
        """Translate a where-axis resource selection into a metric focus.

        This is the "users interact with the where axis display to choose
        resources" step of Section 6.2: pass the displayed name of a
        statement (``line5``), array (``A``), subregion
        (``A[0:30] on node 0``), node (``node2``), or processor
        (``Processor_2``).
        """
        node = self.datamgr.where_axis.find(resource_name)
        if node is None:
            raise KeyError(f"no where-axis resource named {resource_name!r}")
        if node.kind == "statement":
            return Focus(line=int(node.name.removeprefix("line")))
        if node.kind == "array":
            return Focus(array=node.name)
        if node.kind == "subregion":
            array, node_id, _rng = node.payload
            return Focus(array=array, node=node_id)
        if node.kind in ("node", "processor"):
            return Focus(node=node.payload)
        raise KeyError(
            f"where-axis resource {resource_name!r} ({node.kind}) is not a "
            "valid metric focus"
        )

    def measure_block_times(self) -> dict[str, Timer]:
        """Insert a process timer around every node code block.

        The resulting per-block CPU times are the base-level measurements
        that :meth:`attribute` maps up to source lines via the PIF mappings.
        """
        for block in self.program.plan.blocks:
            if block.name in self._block_timers:
                continue
            timer = Timer(f"block:{block.name}", "process")
            pred = ContextEquals("block", block.name)
            self.instrumentation.insert(
                InstrumentationRequest("cmrts.block", "entry", StartTimer(timer), pred)
            )
            self.instrumentation.insert(
                InstrumentationRequest("cmrts.block", "exit", StopTimer(timer), pred)
            )
            self._block_timers[block.name] = timer
        return dict(self._block_timers)

    # ------------------------------------------------------------------
    def run(self) -> "Paradyn":
        """Execute the program under measurement."""
        self.runtime.run()
        self._ran = True
        return self

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def report(self) -> str:
        """Text table of every requested metric."""
        rows = [
            (name, focus, f"{value:.6g}", units)
            for name, focus, value, units in self.metrics.table()
        ]
        return text_table(rows, headers=("metric", "focus", "value", "units"))

    def where_axis(self) -> str:
        return self.datamgr.where_axis.render()

    def block_cost_sentences(self) -> list[tuple[Sentence, CostVector]]:
        """Measured base-level costs as (sentence, cost) pairs."""
        if not self._ran:
            raise RuntimeError("run() first")
        vocab = self.datamgr.vocabulary
        cpu = vocab.verb("Base", "CPU Utilization")
        out = []
        for name, timer in self._block_timers.items():
            noun = vocab.noun("Base", f"{name}()")
            out.append(
                (Sentence(cpu, (noun,)), CostVector({CPU_TIME: timer.value()}))
            )
        return out

    def attribute(self, policy: str = "merge", aggregate: str = "sum") -> Attribution:
        """Assign measured block costs to source lines (Figure 1 policies)."""
        if policy not in ("merge", "split"):
            raise ValueError("policy must be 'merge' or 'split'")
        pol = MergePolicy() if policy == "merge" else SplitPolicy()
        return self.datamgr.attribute(self.block_cost_sentences(), pol, aggregate)
