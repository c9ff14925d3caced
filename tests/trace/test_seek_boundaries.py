"""Property suite: ``seek()`` boundary semantics.

``seek(t)`` answers "what was active at time ``t``" -- inclusive of
events stamped exactly ``t``.  The reader reconstructs from the enclosing
segment's embedded snapshot plus a bisected column prefix, which must
agree with the linear reference replay (:meth:`SASState.from_events`) at
every boundary the format cares about:

* a probe exactly on an event time (inclusive semantics);
* a probe exactly on a segment boundary;
* probes before the first and after the last event;
* same-instant batches that *straddle* a segment boundary (tiny
  ``segment_records`` force the straddle: the later segment's snapshot
  already contains the earlier same-time events, and replay of the
  remainder must not double-apply them).
"""

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import EventKind, Noun, Verb, sentence
from repro.trace import ColumnarTraceReader, ColumnarTraceWriter, SASState
from repro.workloads import random_trace

SUM = Verb("Sum", "HPF")
A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
C_SUM = sentence(SUM, Noun("C", "HPF"))


def write_columnar(d, trace, segment_records):
    col = os.path.join(d, "t.rtrcx")
    with ColumnarTraceWriter(col, segment_records=segment_records) as w:
        w.record_trace(trace)
    return ColumnarTraceReader(col)


def boundary_probes(events, seed):
    """Every event time, plus midpoints, out-of-range, and jittered copies."""
    times = sorted({e.time for e in events})
    probes = list(times)
    probes += [(a + b) / 2 for a, b in zip(times, times[1:])]
    probes += [times[0] - 1.0, times[-1] + 1.0, -1e9, 1e9]
    rng = random.Random(seed)
    probes += [rng.uniform(times[0], times[-1]) for _ in range(20)]
    return probes


@settings(max_examples=20, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=10_000),
    segment_records=st.integers(min_value=1, max_value=24),
    tie_bias=st.floats(min_value=0.0, max_value=0.8),
)
def test_seek_identical_across_layouts_and_reference(seed, segment_records, tie_bias):
    trace = random_trace(seed, events=160, nodes=3, tie_bias=tie_bias)
    events = trace.events()
    with tempfile.TemporaryDirectory() as d:
        col = write_columnar(d, trace, segment_records)
        for t in boundary_probes(events, seed):
            assert col.seek(t) == SASState.from_events(events, t), (t, segment_records)


def test_same_instant_batch_straddling_every_boundary():
    # five events on one instant; with cadence 2 a segment roll lands
    # mid-batch, so the snapshot already holds the first of the tied events
    # and replay must pick up exactly the remainder
    rows = [
        (1.0, EventKind.ACTIVATE, A_SUM, 0),
        (2.0, EventKind.ACTIVATE, B_SUM, 1),
        (2.0, EventKind.ACTIVATE, A_SUM, 1),
        (2.0, EventKind.DEACTIVATE, B_SUM, 1),
        (2.0, EventKind.ACTIVATE, C_SUM, 2),
        (2.0, EventKind.ACTIVATE, B_SUM, 0),
        (3.0, EventKind.DEACTIVATE, A_SUM, 0),
    ]
    from repro.core import Trace

    trace = Trace()
    for t, kind, sent, node in rows:
        trace.record(t, kind, sent, node_id=node)
    events = trace.events()
    with tempfile.TemporaryDirectory() as d:
        for cadence in (1, 2, 3):
            col = write_columnar(d, trace, cadence)
            for t in (0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.0):
                assert col.seek(t) == SASState.from_events(events, t), (cadence, t)
            # at t=2.0 every tied event is applied, none twice
            state = col.seek(2.0)
            assert state.nodes[1][A_SUM] == [2.0]
            assert state.nodes[0][B_SUM] == [2.0]
            assert B_SUM not in state.nodes.get(1, {})


def test_probe_before_first_event_is_empty_state():
    trace = random_trace(3, events=60, nodes=2)
    t0 = trace.events()[0].time
    with tempfile.TemporaryDirectory() as d:
        col = write_columnar(d, trace, 8)
        assert col.seek(t0 - 1e-9) == SASState()


def test_probe_after_last_event_matches_final_state():
    trace = random_trace(4, events=60, nodes=2)
    events = trace.events()
    t1 = events[-1].time
    with tempfile.TemporaryDirectory() as d:
        col = write_columnar(d, trace, 8)
        want = SASState.from_events(events, t1 + 100.0)
        assert col.seek(t1 + 100.0) == want
        assert col.seek(t1) == want  # nothing opens after t1
