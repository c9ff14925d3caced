"""Unit tests for node time accounting and vector-unit state."""

import pytest

from repro.machine import Machine, MachineConfig, Node, ProcessCrashed, Simulator, TimeAccounts


def run_on_node(node, gen_factory):
    node.sim.spawn(gen_factory(), "test")
    return node.sim.run()


def test_compute_charges_time_and_dirties_vu():
    sim = Simulator()
    node = Node(sim, 0, flop_time=1e-6)

    def work():
        yield from node.compute(1000)

    sim.spawn(work(), "w")
    end = sim.run()
    assert end == pytest.approx(1e-3)
    assert node.accounts.compute == pytest.approx(1e-3)
    assert node.vu_dirty


def test_negative_work_rejected():
    sim = Simulator()
    node = Node(sim, 0)

    def work():
        yield from node.compute(-1)

    sim.spawn(work(), "w")
    with pytest.raises(ProcessCrashed, match="negative work"):
        sim.run()


def test_cleanup_only_when_dirty():
    sim = Simulator()
    node = Node(sim, 0)

    def work():
        yield from node.cleanup_vector_units(1e-5)  # clean: no-op
        yield from node.compute(10)
        yield from node.cleanup_vector_units(1e-5)
        yield from node.cleanup_vector_units(1e-5)  # clean again: no-op

    sim.spawn(work(), "w")
    sim.run()
    assert node.cleanups == 1
    assert node.accounts.cleanup == pytest.approx(1e-5)
    assert not node.vu_dirty


def test_idle_receive_charges_wait_to_idle():
    sim = Simulator()
    node = Node(sim, 0)

    def waiter():
        msg = yield from node.idle_receive()
        return msg

    def sender():
        yield 2.0
        node.inbox.put("work")

    p = sim.spawn(waiter(), "w")
    sim.spawn(sender(), "s")
    sim.run()
    assert p.result == "work"
    assert node.accounts.idle == pytest.approx(2.0)


def test_busy_custom_category():
    sim = Simulator()
    node = Node(sim, 0)

    def work():
        yield from node.busy(0.5, "argument_processing")

    sim.spawn(work(), "w")
    sim.run()
    assert node.accounts.argument_processing == pytest.approx(0.5)


def test_accounts_reject_unknown_category_and_negative():
    acc = TimeAccounts()
    with pytest.raises(KeyError):
        acc.charge("nonsense", 1.0)
    with pytest.raises(ValueError):
        acc.charge("compute", -1.0)


def test_accounts_total_and_dict():
    acc = TimeAccounts()
    acc.charge("compute", 1.0)
    acc.charge("idle", 2.0)
    acc.charge("instrumentation", 0.25)
    assert acc.total() == pytest.approx(3.25)
    assert acc.as_dict()["idle"] == 2.0


def test_machine_total_accounts():
    machine = Machine(MachineConfig(num_nodes=3))

    def work(node):
        yield from node.compute(100)

    for node in machine.nodes:
        machine.sim.spawn(work(node), f"n{node.node_id}")
    machine.sim.run()
    totals = machine.total_accounts()
    assert totals["compute"] == pytest.approx(3 * 100 * machine.config.flop_time)


def test_machine_config_validation():
    with pytest.raises(ValueError):
        MachineConfig(num_nodes=0)
    with pytest.raises(ValueError):
        MachineConfig(flop_time=-1.0)


@pytest.mark.parametrize("name", ["total", "as_dict", "charge", "__class__"])
def test_accounts_reject_attributes_that_are_not_accounts(name):
    """Only the dataclass's fields are accounts: a method name raises the
    documented KeyError instead of a TypeError from adding to a method."""
    acc = TimeAccounts()
    with pytest.raises(KeyError, match="unknown time account"):
        acc.charge(name, 1.0)
    assert acc.as_dict() == TimeAccounts().as_dict()
    assert callable(acc.total) and callable(acc.as_dict)


def test_accounts_check_the_charge_before_the_name():
    with pytest.raises(ValueError, match="negative charge"):
        TimeAccounts().charge("total", -1.0)
