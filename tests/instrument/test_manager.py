"""Unit tests for the dynamic instrumentation manager and predicates."""

import pytest

from repro.core import ActiveSentenceSet, Noun, PerformanceQuestion, SentencePattern, Verb, sentence
from repro.instrument import (
    TRUE,
    AndPredicate,
    ContextContains,
    ContextEquals,
    Counter,
    FnPredicate,
    IncrementCounter,
    InstrumentationManager,
    InstrumentationRequest,
    NotPredicate,
    OrPredicate,
    SASGate,
    StartTimer,
    StopTimer,
    Timer,
    WALL,
)
from repro.machine import Machine, MachineConfig


@pytest.fixture
def machine():
    return Machine(MachineConfig(num_nodes=2))


@pytest.fixture
def mgr(machine):
    return InstrumentationManager(machine, guard_cost=1e-7, action_cost=2e-7)


def test_uninstrumented_point_costs_zero(mgr):
    assert mgr.fire("cmrts.compute", "entry", 0, {}) == 0.0
    assert mgr.total_executions == 0


def test_counter_insert_fire_remove(mgr):
    c = Counter("events")
    handle = mgr.insert(InstrumentationRequest("p", "entry", IncrementCounter(c)))
    cost = mgr.fire("p", "entry", 0, {})
    assert cost == pytest.approx(3e-7)  # guard + action
    assert c.value(0) == 1.0
    assert handle.executions == 1 and handle.fires == 1

    mgr.remove(handle)
    assert mgr.fire("p", "entry", 0, {}) == 0.0
    assert c.value(0) == 1.0
    assert mgr.inserted_count() == 0


def test_remove_unknown_handle(mgr):
    c = Counter("x")
    handle = mgr.insert(InstrumentationRequest("p", "entry", IncrementCounter(c)))
    mgr.remove(handle)
    with pytest.raises(KeyError):
        mgr.remove(handle)


def test_phase_validation():
    with pytest.raises(ValueError):
        InstrumentationRequest("p", "middle", IncrementCounter(Counter("x")))


def test_point_registry_validation(mgr):
    mgr.register_points(["cmrts.compute"])
    with pytest.raises(KeyError):
        mgr.insert(InstrumentationRequest("bogus", "entry", IncrementCounter(Counter("x"))))
    mgr.insert(InstrumentationRequest("cmrts.compute", "entry", IncrementCounter(Counter("x"))))


def test_failed_predicate_still_costs_guard(mgr):
    c = Counter("events")
    mgr.insert(
        InstrumentationRequest(
            "p", "entry", IncrementCounter(c), predicate=ContextEquals("verb", "Sum")
        )
    )
    cost = mgr.fire("p", "entry", 0, {"verb": "MaxVal"})
    assert cost == pytest.approx(1e-7)  # guard only
    assert c.value() == 0.0
    cost = mgr.fire("p", "entry", 0, {"verb": "Sum"})
    assert cost == pytest.approx(3e-7)
    assert c.value() == 1.0


def test_counter_amount_from_context_field(mgr):
    c = Counter("elements")
    mgr.insert(InstrumentationRequest("p", "entry", IncrementCounter(c, "elements")))
    mgr.fire("p", "entry", 1, {"elements": 250})
    mgr.fire("p", "entry", 1, {})  # missing field counts 0
    assert c.value(1) == 250.0


def test_wall_timer_reads_sim_clock(mgr, machine):
    t = Timer("t", WALL)
    mgr.insert(InstrumentationRequest("p", "entry", StartTimer(t)))
    mgr.insert(InstrumentationRequest("p", "exit", StopTimer(t)))

    def proc():
        mgr.fire("p", "entry", 0, {})
        yield 2.5
        mgr.fire("p", "exit", 0, {})

    machine.sim.spawn(proc(), "x")
    machine.sim.run()
    assert t.value(0) == pytest.approx(2.5)


def test_process_timer_excludes_idle(mgr, machine):
    t = Timer("t", "process")
    mgr.insert(InstrumentationRequest("p", "entry", StartTimer(t)))
    mgr.insert(InstrumentationRequest("p", "exit", StopTimer(t)))
    node = machine.nodes[0]

    def proc():
        mgr.fire("p", "entry", 0, {})
        yield from node.compute(1000)  # busy
        node.accounts.charge("idle", 5.0)  # simulated idle wait
        mgr.fire("p", "exit", 0, {})

    machine.sim.spawn(proc(), "x")
    machine.sim.run()
    assert t.value(0) == pytest.approx(1000 * machine.config.flop_time)


def test_multiple_requests_at_one_point(mgr):
    c1, c2 = Counter("a"), Counter("b")
    mgr.insert(InstrumentationRequest("p", "entry", IncrementCounter(c1)))
    mgr.insert(InstrumentationRequest("p", "entry", IncrementCounter(c2, 10)))
    cost = mgr.fire("p", "entry", 0, {})
    assert cost == pytest.approx(2 * 3e-7)
    assert c1.value() == 1.0 and c2.value() == 10.0


class TestPredicates:
    def test_context_contains(self):
        p = ContextContains("arrays", "A")
        assert p(0, {"arrays": ("A", "B")})
        assert not p(0, {"arrays": ("B",)})
        assert not p(0, {})
        assert not p(0, {"arrays": 5})  # non-container

    def test_boolean_combinators(self):
        a = ContextEquals("x", 1)
        b = ContextEquals("y", 2)
        assert AndPredicate(a, b)(0, {"x": 1, "y": 2})
        assert not AndPredicate(a, b)(0, {"x": 1})
        assert OrPredicate(a, b)(0, {"y": 2})
        assert NotPredicate(a)(0, {})
        with pytest.raises(ValueError):
            AndPredicate()
        with pytest.raises(ValueError):
            OrPredicate()

    def test_fn_predicate(self):
        p = FnPredicate(lambda nid, ctx: nid == 1)
        assert p(1, {}) and not p(0, {})

    def test_true(self):
        assert TRUE(0, {})

    def test_sas_gate_reads_per_node_watcher(self):
        sum_verb = Verb("Sum", "HPF")
        a_sum = sentence(sum_verb, Noun("A", "HPF"))
        q = PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),))
        sases = [ActiveSentenceSet() for _ in range(2)]
        watchers = [s.attach_question(q) for s in sases]
        gate = SASGate(watchers)
        assert not gate(0, {}) and not gate(1, {})
        sases[1].activate(a_sum)
        assert not gate(0, {})
        assert gate(1, {})
        sases[1].deactivate(a_sum)
        assert not gate(1, {})

    def test_sas_gated_request_repr_names_the_question(self):
        # SASGate's repr reads watcher.question, and the request's dataclass
        # repr embeds the gate: a Paradyn array focus renders its question
        from repro.cmfortran import compile_source
        from repro.paradyn import Paradyn

        src = "PROGRAM DEMO\n  REAL A(1024)\n  A = 1.0\n  ASUM = SUM(A)\nEND\n"
        tool = Paradyn.for_program(compile_source(src, "demo.cmf"), num_nodes=2)
        instance = tool.request_metric("summation_time", focus={"array": "A"})
        entry, exit_ = instance.compiled.requests
        assert repr(entry) == (
            "InstrumentationRequest(point='cmrts.reduce', phase='entry', "
            "action=StartTimer(timer=<Timer summation_time<array=A> [process] 0s>), "
            "predicate=((ctx.verb == 'Sum') AND SASGate({A ?})), "
            "label='summation_time<array=A>')"
        )
        assert "SASGate({A ?})" in repr(exit_)
