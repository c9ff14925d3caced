"""Probe callouts at points with nothing inserted cost nothing.

The dispatcher asks the probe whether anything is inserted at a (point,
phase) before it builds the callout's context, so ``fire`` runs only at
armed points; an armed point still receives the full context.
"""

from repro.cmfortran import compile_source
from repro.cmrts import CMRTSRuntime, POINTS
from repro.instrument import (
    Counter,
    IncrementCounter,
    InstrumentationManager,
    InstrumentationRequest,
    NullProbe,
)

NODES = 4
SRC = """PROGRAM APP
REAL A(64), B(64)
A = 1.0
B = A * 2.0 + 1.0
S = SUM(B)
A = CSHIFT(B, 3)
END
"""


class RecordingManager(InstrumentationManager):
    """An instrumentation manager that keeps every ``fire`` call."""

    def __init__(self, machine):
        super().__init__(machine)
        self.fired: list = []

    def fire(self, point, phase, node_id, ctx):
        self.fired.append((point, phase, node_id, dict(ctx)))
        return super().fire(point, phase, node_id, ctx)


def build():
    prog = compile_source(SRC, "app.cmf")
    rt = CMRTSRuntime(prog, num_nodes=NODES)
    mgr = RecordingManager(rt.machine)
    mgr.register_points(POINTS)
    rt.probe = mgr
    return prog, rt, mgr


def count_at(mgr, point, phase):
    return mgr.insert(InstrumentationRequest(point, phase, IncrementCounter(Counter(point))))


def test_null_probe_is_never_armed():
    assert CMRTSRuntime(compile_source(SRC, "app.cmf")).probe.armed("cmrts.block", "entry") is False
    assert NullProbe().armed("cmrts.p2p", "exit") is False


def test_uninstrumented_points_never_fire():
    _, rt, mgr = build()
    rt.run()
    assert mgr.fired == []
    assert rt.machine.total_accounts()["instrumentation"] == 0.0


def test_removed_instrumentation_never_fires():
    _, rt, mgr = build()
    handle = count_at(mgr, "cmrts.block", "entry")
    assert mgr.armed("cmrts.block", "entry")
    mgr.remove(handle)
    assert not mgr.armed("cmrts.block", "entry")
    rt.run()
    assert mgr.fired == []


def test_removal_mid_run_stops_the_callouts():
    _, rt, mgr = build()
    handle = count_at(mgr, "cmrts.block", "entry")
    fire = mgr.fire

    def fire_once(point, phase, node_id, ctx):
        cost = fire(point, phase, node_id, ctx)
        mgr.remove(handle)  # dynamic deletion from inside the running program
        return cost

    mgr.fire = fire_once
    rt.run()
    assert [(p, ph) for p, ph, _, _ in mgr.fired] == [("cmrts.block", "entry")]
    assert handle.executions == 1


def test_armed_points_receive_the_full_context():
    prog, rt, mgr = build()
    armed = [
        ("cmrts.idle", "exit"), ("cmrts.broadcast", "entry"),
        ("cmrts.node_activation", "entry"), ("cmrts.block", "entry"),
        ("cmrts.argument_processing", "exit"), ("cmrts.cleanup", "entry"),
        ("cmrts.compute", "exit"), ("cmrts.reduce", "entry"), ("cmrts.shift", "exit"),
        ("cmrts.p2p", "entry"),
    ]
    handles = [count_at(mgr, point, phase) for point, phase in armed]
    rt.run()
    assert {(p, ph) for p, ph, _, _ in mgr.fired} == set(armed)
    assert mgr.total_executions == len(mgr.fired) == sum(h.executions for h in handles)
    blocks = {b.name: b for b in prog.plan.blocks}

    def block_ctx(name):
        b = blocks[name]
        return {"block": b.name, "kind": b.kind, "arrays": b.arrays_used, "lines": b.lines}

    for point, _phase, node, ctx in mgr.fired:
        assert 0 <= node < NODES
        if point == "cmrts.idle":
            assert ctx == {}
        elif point == "cmrts.broadcast":
            assert set(ctx) == {"bytes"} and ctx["bytes"] > 0
        elif point == "cmrts.node_activation":
            assert set(ctx) == {"block"} and ctx["block"] in blocks
        elif point in ("cmrts.block", "cmrts.cleanup"):
            assert ctx == block_ctx(ctx["block"])
        elif point == "cmrts.argument_processing":
            assert ctx == {**block_ctx(ctx["block"]), "bytes": ctx["bytes"]}
            assert ctx["bytes"] > 0
        elif point == "cmrts.p2p":
            assert set(ctx) == {"dst", "tag", "bytes"} and ctx["bytes"] > 0
            assert ctx["tag"].split(".")[0].split(":")[0] in {"ack", "reduce", "reduce_result",
                                                               "shift"}
        else:
            b = blocks[ctx["block"]]
            want = {"block": b.name, "lines": ctx["lines"]}
            if point == "cmrts.compute":
                want.update(verb="Compute", arrays=b.arrays_used, elements=64 // NODES)
            elif point == "cmrts.reduce":
                want.update(verb="Sum", arrays=("B",), elements=64 // NODES)
            else:
                want.update(verb="Rotate", arrays=("B", "A"))
            assert ctx == want
            assert len(ctx["lines"]) == 1 and ctx["lines"][0] in b.lines
