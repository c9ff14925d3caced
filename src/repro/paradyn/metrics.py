"""The metric manager: metric x focus requests, insertion, and sampling.

Section 5: "Paradyn starts an application executing, waits for user requests
to measure performance metrics, instruments the running application ... and
then sends a stream of performance measurements back to the user.  By
limiting its instrumentation to only requested data, Paradyn can greatly
reduce instrumentation intrusion."

A request names an MDL metric and a *focus* (array / statement line / node).
Array foci are gated the Section-6.1 way: a per-node SAS question ("is any
sentence naming this array active?") drives a boolean the inserted
instrumentation checks.  When no SAS is attached the manager falls back to a
context predicate on the point's reported array list.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..cmrts import CMRTSRuntime
from ..core import PerformanceQuestion, SentencePattern
from ..instrument import (
    AndPredicate,
    ContextContains,
    FnPredicate,
    InstrumentationManager,
    SASGate,
    SentenceNotifier,
)
from ..mdl import CompiledMetric, MetricDef, compile_metric, standard_metrics
from .histogram import TimeHistogram

__all__ = ["Focus", "MetricInstance", "MetricManager"]


@dataclass(frozen=True)
class Focus:
    """A where-axis selection constraining a metric.

    Any combination of fields may be set; unset fields leave the metric
    unconstrained along that hierarchy (the hierarchy root).
    """

    array: str | None = None
    line: int | None = None
    node: int | None = None

    def describe(self) -> str:
        parts = []
        if self.array:
            parts.append(f"array={self.array}")
        if self.line is not None:
            parts.append(f"line={self.line}")
        if self.node is not None:
            parts.append(f"node={self.node}")
        return "<" + ", ".join(parts) + ">" if parts else "<whole program>"


@dataclass
class MetricInstance:
    """One requested metric x focus, streaming samples while enabled.

    Histogram ingest is batched: deltas buffer in ``_pending`` and fold into
    the histogram through :meth:`TimeHistogram.add_many` once per flush
    window instead of once per sample.  Reading :attr:`histogram` flushes
    first, so consumers never observe a partial view.
    """

    compiled: CompiledMetric
    focus: Focus
    units: str
    samples: list[tuple[float, float]] = field(default_factory=list)
    _histogram: TimeHistogram = field(default_factory=TimeHistogram)
    _last_sample: tuple[float, float] = (0.0, 0.0)
    _pending: list[tuple[float, float, float]] = field(default_factory=list)

    @property
    def histogram(self) -> TimeHistogram:
        """The folding histogram, with any buffered deltas applied."""
        self.flush_histogram()
        return self._histogram

    def flush_histogram(self) -> None:
        """Drain buffered ``(t0, t1, delta)`` triples into the histogram."""
        if self._pending:
            self._histogram.add_many(self._pending)
            self._pending.clear()

    @property
    def name(self) -> str:
        return self.compiled.definition.name

    def value(self, node_id: int | None = None) -> float:
        return self.compiled.value(node_id)

    @property
    def enabled(self) -> bool:
        return self.compiled.inserted

    def label(self) -> str:
        return f"{self.name}{self.focus.describe()}"


class MetricManager:
    """Compiles, inserts, removes, and samples metric instances."""

    def __init__(
        self,
        runtime: CMRTSRuntime,
        instrumentation: InstrumentationManager,
        notifier: SentenceNotifier | None = None,
        library: dict[str, MetricDef] | None = None,
        lazy_sites: bool = False,
    ):
        self.runtime = runtime
        self.instrumentation = instrumentation
        self.notifier = notifier
        self.library = library or standard_metrics()
        self.instances: list[MetricInstance] = []
        self.sample_interval: float | None = None
        # recorders receive every sample taken: objects with a
        # metric_sample(time, name, focus, value, units) method, normally a
        # repro.trace.ColumnarTraceWriter persisting the stream
        self.recorders: list = []
        # Section 5's closing remark: "Eventually, we could tie the enabling
        # and disabling of individual mapping instrumentation points to
        # requests for performance information."  With lazy_sites the
        # notifier starts fully disabled and each array-focused request
        # enables exactly the sites its SAS gate needs.
        self.lazy_sites = lazy_sites
        self._site_uses: dict[str, int] = {}
        if lazy_sites and self.notifier is not None:
            self.notifier.disable_all()

    # ------------------------------------------------------------------
    def define(self, definition: MetricDef) -> None:
        """Add a user-defined MDL metric to the library."""
        self.library[definition.name] = definition

    def request(self, metric_name: str, focus: Focus | None = None) -> MetricInstance:
        """Compile and (dynamically) insert a metric at a focus."""
        focus = focus or Focus()
        try:
            definition = self.library[metric_name]
        except KeyError:
            raise KeyError(f"unknown metric {metric_name!r}") from None
        predicate = self._focus_predicate(focus)
        compiled = compile_metric(
            definition,
            self.instrumentation,
            focus_predicate=predicate,
            name_suffix=focus.describe() if predicate is not None else "",
        )
        compiled.insert()
        instance = MetricInstance(compiled, focus, definition.units)
        self.instances.append(instance)
        if self.lazy_sites and self.notifier is not None and focus.array is not None:
            self._acquire_site(f"array.{focus.array}")
        return instance

    def disable(self, instance: MetricInstance) -> None:
        """Remove the instance's instrumentation; its value freezes.

        Under lazy sites, notification sites this instance required are
        reference-counted back off.
        """
        instance.compiled.remove()
        instance.flush_histogram()
        if self.lazy_sites and self.notifier is not None and instance.focus.array is not None:
            self._release_site(f"array.{instance.focus.array}")

    def _acquire_site(self, site: str) -> None:
        self._site_uses[site] = self._site_uses.get(site, 0) + 1
        if self._site_uses[site] == 1:
            self.notifier.enable_site(site)

    def _release_site(self, site: str) -> None:
        count = self._site_uses.get(site, 0) - 1
        self._site_uses[site] = max(0, count)
        if count <= 0:
            self.notifier.disable_site(site)

    # ------------------------------------------------------------------
    def _focus_predicate(self, focus: Focus):
        preds = []
        if focus.array is not None:
            preds.append(self._array_gate(focus.array))
        if focus.line is not None:
            preds.append(ContextContains("lines", focus.line))
        if focus.node is not None:
            want = focus.node
            preds.append(FnPredicate(lambda nid, ctx: nid == want, f"node=={want}"))
        if not preds:
            return None
        return preds[0] if len(preds) == 1 else AndPredicate(*preds)

    def _array_gate(self, array: str):
        """Per-array constraint: SAS boolean when available (Section 6.1)."""
        if self.notifier is not None:
            question = PerformanceQuestion(
                f"{array} active",
                (SentencePattern("?", (array,), level="CM Fortran"),),
                description=f"any CM Fortran sentence naming {array} is active",
            )
            watchers = [sas.attach_question(question) for sas in self.notifier.sas_by_node]
            return SASGate(watchers)
        return ContextContains("arrays", array)

    # ------------------------------------------------------------------
    # sampling (the "stream of performance measurements")
    # ------------------------------------------------------------------
    def start_sampling(self, interval: float) -> None:
        """Spawn the sampler process; call before ``runtime.run()``."""
        self.sample_interval = interval
        self.runtime.machine.sim.spawn(self._sampler(interval), "paradyn-sampler")

    #: buffered histogram deltas flush every this many samples per instance
    FLUSH_BATCH = 64

    def attach_recorder(self, recorder) -> None:
        """Persist every future sample through ``recorder.metric_sample``."""
        self.recorders.append(recorder)

    def detach_recorder(self, recorder) -> None:
        self.recorders.remove(recorder)

    def _sampler(self, interval: float):
        sim = self.runtime.machine.sim
        flush_batch = self.FLUSH_BATCH

        def take(now: float) -> None:
            recorders = self.recorders
            for inst in self.instances:
                if not inst.enabled:
                    continue
                value = inst.value()
                inst.samples.append((now, value))
                for rec in recorders:
                    rec.metric_sample(now, inst.name, inst.focus.describe(), value, inst.units)
                last_t, last_v = inst._last_sample
                if value > last_v:  # buffer the delta for batched ingest
                    inst._pending.append((last_t, now, value - last_v))
                    if len(inst._pending) >= flush_batch:
                        inst.flush_histogram()
                inst._last_sample = (now, value)

        while not self.runtime.done:
            yield interval
            take(sim.now)
        take(sim.now)
        for inst in self.instances:
            inst.flush_histogram()

    # ------------------------------------------------------------------
    def table(self) -> list[tuple[str, str, float, str]]:
        """(metric, focus, value, units) rows for every instance."""
        return [
            (inst.name, inst.focus.describe(), inst.value(), inst.units)
            for inst in self.instances
        ]
