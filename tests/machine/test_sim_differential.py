"""Differential oracle: the tuple kernel vs the preserved seed kernel.

The seed scheduler (`tests/machine/sim_legacy.py`'s `LegacySimulator`) is the
executable specification of event ordering.  These tests generate seeded
random workloads -- timers, channel producer/consumer meshes, signal
broadcasts, process joins -- build the identical plan twice, and run it on
both kernels.  Everything observable must match exactly: the interleaved
event log, final virtual time, channel counters, and process results.
"""

import random

import pytest

from repro.machine.sim import Simulator, Timeout

from .sim_legacy import LegacySimulator

N_CHANNELS = 3
N_SIGNALS = 2


def _build_plan(seed: int) -> dict:
    """A random but fully-determined workload description (kernel-agnostic)."""
    rng = random.Random(seed)
    plan = {
        "producers": [],  # (channel, [(delay, value), ...])
        "consumers": [],  # (channel, count, think_delay)
        "firers": [],  # (signal, delay, value)
        "waiters": [],  # (signal,)
        "timers": [],  # [delays]
    }
    puts = [0] * N_CHANNELS
    for _ in range(rng.randint(2, 4)):
        ch = rng.randrange(N_CHANNELS)
        items = [(rng.choice([0.0, 0.25, 0.5, 1.0]), rng.randint(0, 99))
                 for _ in range(rng.randint(1, 5))]
        puts[ch] += len(items)
        plan["producers"].append((ch, items))
    for ch in range(N_CHANNELS):
        remaining = puts[ch]
        while remaining > 0:
            take = rng.randint(1, remaining)
            plan["consumers"].append((ch, take, rng.choice([0.0, 0.5])))
            remaining -= take
    for sig in range(N_SIGNALS):
        plan["firers"].append((sig, rng.choice([0.25, 0.75, 1.5]), rng.randint(0, 9)))
        for _ in range(rng.randint(0, 3)):
            plan["waiters"].append((sig,))
    for _ in range(rng.randint(1, 6)):
        plan["timers"].append(
            [rng.choice([0.0, 0.1, 0.5, 1.0]) for _ in range(rng.randint(1, 4))]
        )
    return plan


def _run_plan(sim, plan) -> dict:
    log = []
    channels = [sim.channel(f"ch{i}") for i in range(N_CHANNELS)]
    signals = [sim.signal() for _ in range(N_SIGNALS)]

    def producer(tag, ch, items):
        for delay, value in items:
            yield Timeout(delay)
            channels[ch].put(value)
            log.append((sim.now, tag, "put", value))

    def consumer(tag, ch, count, think):
        for _ in range(count):
            value = yield channels[ch].get()
            log.append((sim.now, tag, "got", value))
            yield Timeout(think)

    def firer(tag, sig, delay, value):
        yield Timeout(delay)
        signals[sig].succeed(value)
        log.append((sim.now, tag, "fired", value))

    def waiter(tag, sig):
        value = yield signals[sig]
        log.append((sim.now, tag, "woke", value))

    def timer(tag, delays):
        for d in delays:
            yield Timeout(d)
            log.append((sim.now, tag, "tick", d))
        return tag

    procs = []
    for i, (ch, items) in enumerate(plan["producers"]):
        procs.append(sim.spawn(producer(f"prod{i}", ch, items), f"prod{i}"))
    for i, (ch, count, think) in enumerate(plan["consumers"]):
        procs.append(sim.spawn(consumer(f"cons{i}", ch, count, think), f"cons{i}"))
    for i, (sig, delay, value) in enumerate(plan["firers"]):
        procs.append(sim.spawn(firer(f"fire{i}", sig, delay, value), f"fire{i}"))
    for i, (sig,) in enumerate(plan["waiters"]):
        procs.append(sim.spawn(waiter(f"wait{i}", sig), f"wait{i}"))
    for i, delays in enumerate(plan["timers"]):
        procs.append(sim.spawn(timer(f"tim{i}", delays), f"tim{i}"))

    # one joiner watching the first timer completes the join/completion path
    def joiner():
        result = yield procs[-1]
        log.append((sim.now, "join", "done", result))

    sim.spawn(joiner(), "joiner")
    final = sim.run()
    return {
        "log": log,
        "final": final,
        "chan_counts": [(c.puts, c.gets, len(c)) for c in channels],
        "results": [p.result for p in procs if p.done],
        "all_done": all(p.done for p in procs),
    }


@pytest.mark.parametrize("seed", range(15))
def test_tuple_kernel_matches_seed_kernel(seed):
    plan = _build_plan(seed)
    new = _run_plan(Simulator(), plan)
    old = _run_plan(LegacySimulator(), plan)
    assert new["log"] == old["log"]
    assert new["final"] == old["final"]
    assert new["chan_counts"] == old["chan_counts"]
    assert new["results"] == old["results"]
    assert new["all_done"] == old["all_done"]


def test_kernels_share_process_classes():
    """The legacy kernel reuses the semantics classes, so one workload
    definition runs unmodified on either scheduler (what the abl8 bench
    relies on)."""
    from repro.machine import sim as sim_mod

    from . import sim_legacy

    assert sim_legacy.Timeout is sim_mod.Timeout
    assert sim_legacy.Channel is sim_mod.Channel
    assert sim_legacy.Signal is sim_mod.Signal
    assert sim_legacy.Process is sim_mod.Process
