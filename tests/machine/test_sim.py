"""Unit tests for the discrete-event kernel."""

import pytest

from repro.machine import ProcessCrashed, SimulationError, Simulator, Timeout


def test_timeouts_advance_virtual_time():
    sim = Simulator()
    log = []

    def proc():
        yield Timeout(1.5)
        log.append(sim.now)
        yield Timeout(2.5)
        log.append(sim.now)

    sim.spawn(proc(), "p")
    end = sim.run()
    assert log == [1.5, 4.0]
    assert end == 4.0


def test_negative_timeout_rejected():
    with pytest.raises(SimulationError):
        Timeout(-1.0)


def test_bare_number_yield_means_timeout():
    sim = Simulator()

    def proc():
        yield 2.0
        yield 1

    sim.spawn(proc(), "p")
    assert sim.run() == 3.0


def test_equal_time_events_fire_in_spawn_order():
    sim = Simulator()
    order = []

    def proc(tag):
        yield Timeout(1.0)
        order.append(tag)

    for tag in "abc":
        sim.spawn(proc(tag), tag)
    sim.run()
    assert order == ["a", "b", "c"]


def test_determinism_across_runs():
    def build():
        sim = Simulator()
        log = []

        def worker(i):
            yield Timeout(0.1 * (i % 3))
            log.append((sim.now, i))
            yield Timeout(1.0)
            log.append((sim.now, i))

        for i in range(10):
            sim.spawn(worker(i), f"w{i}")
        sim.run()
        return log

    assert build() == build()


def test_signal_wakes_all_waiters_with_value():
    sim = Simulator()
    sig = sim.signal()
    got = []

    def waiter(tag):
        value = yield sig
        got.append((tag, value, sim.now))

    def firer():
        yield Timeout(3.0)
        sig.succeed(42)

    sim.spawn(waiter("a"), "a")
    sim.spawn(waiter("b"), "b")
    sim.spawn(firer(), "f")
    sim.run()
    assert got == [("a", 42, 3.0), ("b", 42, 3.0)]
    assert sig.fired


def test_waiting_on_already_fired_signal_resumes_immediately():
    sim = Simulator()
    sig = sim.signal()
    sig.succeed("early")
    got = []

    def waiter():
        value = yield sig
        got.append(value)

    sim.spawn(waiter(), "w")
    sim.run()
    assert got == ["early"]


def test_signal_double_succeed_raises():
    sim = Simulator()
    sig = sim.signal()
    sig.succeed()
    with pytest.raises(SimulationError):
        sig.succeed()


def test_channel_fifo_order():
    sim = Simulator()
    chan = sim.channel("c")
    got = []

    def producer():
        for i in range(3):
            yield Timeout(1.0)
            chan.put(i)

    def consumer():
        for _ in range(3):
            item = yield chan.get()
            got.append((sim.now, item))

    sim.spawn(producer(), "prod")
    sim.spawn(consumer(), "cons")
    sim.run()
    assert [item for _, item in got] == [0, 1, 2]
    assert chan.puts == 3 and chan.gets == 3


def test_channel_buffers_when_no_getter():
    sim = Simulator()
    chan = sim.channel()
    chan.put("x")
    chan.put("y")
    assert len(chan) == 2
    got = []

    def consumer():
        got.append((yield chan.get()))
        got.append((yield chan.get()))

    sim.spawn(consumer(), "c")
    sim.run()
    assert got == ["x", "y"]


def test_competing_getters_served_in_order():
    sim = Simulator()
    chan = sim.channel()
    got = []

    def getter(tag):
        item = yield chan.get()
        got.append((tag, item))

    sim.spawn(getter("first"), "g1")
    sim.spawn(getter("second"), "g2")

    def producer():
        yield Timeout(1.0)
        chan.put("a")
        chan.put("b")

    sim.spawn(producer(), "p")
    sim.run()
    assert got == [("first", "a"), ("second", "b")]


def test_process_result_and_completion_join():
    sim = Simulator()

    def child():
        yield Timeout(2.0)
        return "done"

    def parent():
        proc = sim.spawn(child(), "child")
        result = yield proc
        return (sim.now, result)

    p = sim.spawn(parent(), "parent")
    sim.run()
    assert p.result == (2.0, "done")


def test_join_already_finished_process():
    sim = Simulator()

    def child():
        return "fast"
        yield  # pragma: no cover

    def parent():
        proc = sim.spawn(child(), "child")
        yield Timeout(5.0)
        result = yield proc
        return result

    p = sim.spawn(parent(), "parent")
    sim.run()
    assert p.result == "fast"


def test_crash_propagates_from_run():
    sim = Simulator()

    def bad():
        yield Timeout(1.0)
        raise RuntimeError("boom")

    sim.spawn(bad(), "bad")
    with pytest.raises(ProcessCrashed) as exc:
        sim.run()
    assert isinstance(exc.value.original, RuntimeError)


def test_bad_yield_type_crashes():
    sim = Simulator()

    def bad():
        yield "not a timeout"

    sim.spawn(bad(), "bad")
    with pytest.raises(ProcessCrashed):
        sim.run()


def test_subclassed_kernel_yield_is_refused():
    """The kernel dispatches on exact types, so a subclass of a kernel
    class is an unsupported yield, not a silently different wait."""

    class MyTimeout(Timeout):
        pass

    sim = Simulator()

    def proc():
        yield MyTimeout(1.0)

    sim.spawn(proc(), "sub")
    with pytest.raises(ProcessCrashed, match="unsupported"):
        sim.run()


def test_run_until_stops_clock():
    sim = Simulator()

    def proc():
        yield Timeout(10.0)

    sim.spawn(proc(), "p")
    assert sim.run(until=4.0) == 4.0
    assert sim.run() == 10.0


def test_call_at_schedules_callback():
    sim = Simulator()
    fired = []
    sim.call_at(2.0, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [2.0]
    with pytest.raises(SimulationError):
        sim.call_at(1.0, lambda: None)  # in the past now


def test_equal_time_callbacks_fire_in_schedule_order():
    """`_seq` FIFO tie-breaking: callbacks at the same instant run in the
    order they were scheduled, which is what keeps a forwarded same-instant
    activate -> deactivate pair in order (see tests/dbsim)."""
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.call_at(1.0, lambda i=i: fired.append(i))
    sim.call_at(0.5, lambda: fired.append("early"))
    sim.run()
    assert fired == ["early", 0, 1, 2, 3, 4]


def test_run_all_helper():
    sim = Simulator()
    log = []

    def proc(i):
        yield Timeout(float(i))
        log.append(i)

    sim.run_all([proc(i) for i in (3, 1, 2)])
    assert log == [1, 2, 3]
