"""Transfer plans are computed once per run and shared by its nodes.

A plan is a pure function of partition metadata, so every node of an SPMD
step needs the same one.  ``CMRTSRuntime.transfer_plan`` computes each
distinct plan once per run: the cached tuple equals the uncached planner's
list, every node of the run gets the same object, and two runs share none.
"""

from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cmfortran import compile_source
from repro.cmrts import (
    CMRTSRuntime,
    dispatch,
    plan_redistribution,
    plan_shift_transfers,
    plan_transpose_transfers,
)

TINY = compile_source("PROGRAM T\nREAL A(8)\nA = 1.0\nEND", "t.cmf")
NODES = 4
PROGRAM = """PROGRAM T
REAL A(40), B(40)
REAL C(8, 12)
REAL D(12, 8)
DO K = 1, 3
B = CSHIFT(A, 3)
A = EOSHIFT(B, -5)
FORALL (I = 2:39) B(I) = A(I-1) + A(I+1)
ENDDO
D = TRANSPOSE(C)
CALL SORT(B)
END
"""


@st.composite
def partitions(draw, n):
    """Half-open ranges covering ``range(n)`` in order, some maybe empty."""
    parts = draw(st.integers(1, 6))
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=parts - 1, max_size=parts - 1)))
    bounds = [0, *cuts, n]
    return list(zip(bounds, bounds[1:]))


def _copy(args):
    """Equal arguments in fresh lists, as another node would pass them."""
    return [list(a) if isinstance(a, list) else a for a in args]


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cached_plans_equal_the_planners(data):
    n = data.draw(st.integers(1, 40), label="n")
    src = data.draw(partitions(n), label="src")
    dst = data.draw(partitions(n), label="dst")
    amount = data.draw(st.integers(-2 * n, 2 * n), label="amount")
    circular = data.draw(st.booleans(), label="circular")
    counts = [hi - lo for lo, hi in data.draw(partitions(n), label="counts")]
    one = CMRTSRuntime(TINY, num_nodes=NODES)
    two = CMRTSRuntime(TINY, num_nodes=NODES)
    for planner, *args in [
        (plan_shift_transfers, n, src, amount, circular),
        (plan_shift_transfers, n, src, amount, circular, dst),
        (plan_transpose_transfers, src, dst),
        (plan_redistribution, counts, dst),
    ]:
        want = planner(*args)
        plan = one.transfer_plan(planner, *args)
        assert isinstance(plan, tuple)
        assert list(plan) == want
        assert one.transfer_plan(planner, *_copy(args)) is plan
        other = two.transfer_plan(planner, *args)
        assert other == plan
        assert other is not plan or plan == ()


def test_nodes_of_a_run_share_one_plan_per_step(monkeypatch):
    """Each distinct plan is planned once per run, and every node of every
    step that needs it is served the same object."""
    planned = Counter()
    names = {}
    for name in ("plan_shift_transfers", "plan_transpose_transfers", "plan_redistribution"):
        real = getattr(dispatch, name)

        def counting(*args, _real=real, _name=name):
            planned[_name] += 1
            return _real(*args)

        names[counting] = name
        monkeypatch.setattr(dispatch, name, counting)
    served: list = []  # (runtime, planner name, plan) per request
    real_plan = CMRTSRuntime.transfer_plan

    def recording(self, planner, *args):
        plan = real_plan(self, planner, *args)
        served.append((self, names[planner], plan))
        return plan

    monkeypatch.setattr(CMRTSRuntime, "transfer_plan", recording)
    rng = np.random.default_rng(3)
    init = {"A": rng.permutation(np.arange(40.0)), "C": np.arange(96.0).reshape(8, 12)}

    def run():
        rt = CMRTSRuntime(compile_source(PROGRAM, "t.cmf"), num_nodes=NODES,
                          initial_arrays=init)
        return rt.run()

    first = run()
    calls = Counter(name for _, name, _ in served)
    # per node: 3 iterations of CSHIFT, EOSHIFT and two halo exchanges
    # (A(I-1), A(I+1)), then one transpose and one sort
    assert calls == {"plan_shift_transfers": 12 * NODES,
                     "plan_transpose_transfers": NODES,
                     "plan_redistribution": NODES}
    # each of the four shifts plans once, for every node and iteration
    assert planned == {"plan_shift_transfers": 4, "plan_transpose_transfers": 1,
                       "plan_redistribution": 1}
    objects = Counter(id(plan) for _, _, plan in served)
    assert sorted(objects.values()) == [NODES, NODES] + [3 * NODES] * 4
    assert np.allclose(first.array("D"), init["C"].T)

    served_first = {id(plan) for _, _, plan in served if plan}
    served.clear()
    second = run()
    assert second is not first
    assert all(rt is second for rt, _, _ in served)
    assert served_first.isdisjoint(id(plan) for _, _, plan in served if plan)
    assert planned == {"plan_shift_transfers": 8, "plan_transpose_transfers": 2,
                       "plan_redistribution": 2}
    assert np.array_equal(second.array("B"), first.array("B"))
