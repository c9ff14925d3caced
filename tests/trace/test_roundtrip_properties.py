"""Property-based tests: encode/decode identity and indexed-seek correctness.

Random multi-node timed traces (from :func:`repro.workloads.random_trace`)
are pushed through the full writer -> file -> reader path.  Two properties
are asserted:

* **round-trip identity** -- decoded events equal the recorded ones, event
  for event (times bit-exact, sentences equal, node ids preserved);
* **seek == linear replay** -- for any probe time, the state reconstructed
  from the enclosing segment's snapshot plus a prefix replay equals the
  linear reference replay from the start of the file.

Files go through ``tempfile.TemporaryDirectory`` rather than the
function-scoped ``tmp_path`` fixture, which hypothesis rejects.
"""

import os
import random
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import ColumnarTraceReader, ColumnarTraceWriter, SASState
from repro.workloads import random_trace

trace_params = st.tuples(
    st.integers(min_value=0, max_value=10_000),  # seed
    st.integers(min_value=1, max_value=250),  # events
    st.integers(min_value=1, max_value=4),  # nodes
)


@settings(max_examples=25, deadline=None)
@given(trace_params)
def test_encode_decode_round_trip_identity(params):
    seed, events, nodes = params
    trace = random_trace(seed, events=events, nodes=nodes)
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.rtrcx")
        with ColumnarTraceWriter(path, metadata={"seed": seed}) as w:
            w.record_trace(trace)
        reader = ColumnarTraceReader(path)
        decoded = list(reader)
        original = trace.events()
        assert len(decoded) == len(original) == reader.transitions
        for got, want in zip(decoded, original, strict=True):
            assert got.time == want.time  # bit-exact, not approx
            assert got.kind is want.kind
            assert got.sentence == want.sentence
            assert got.node_id == want.node_id
        if original:
            assert reader.time_bounds() == (original[0].time, original[-1].time)


@settings(max_examples=15, deadline=None)
@given(
    st.integers(min_value=0, max_value=10_000),
    st.integers(min_value=1, max_value=32),  # segment records incl. degenerate 1
)
def test_seek_equals_linear_replay_at_random_times(seed, segment_records):
    trace = random_trace(seed, events=200, nodes=3)
    events = trace.events()
    with tempfile.TemporaryDirectory() as d:
        path = os.path.join(d, "t.rtrcx")
        with ColumnarTraceWriter(path, segment_records=segment_records) as w:
            w.record_trace(trace)
        reader = ColumnarTraceReader(path)
        t0, t1 = reader.time_bounds()
        rng = random.Random(seed)
        probes = [rng.uniform(t0 - 1e-4, t1 + 1e-4) for _ in range(50)]
        probes += [t0, t1, events[len(events) // 2].time]
        for t in probes:
            assert reader.seek(t) == SASState.from_events(events, t), (t, segment_records)
