"""Tests for the CSV / Chrome-trace exporters."""

import json

from repro.cmfortran import compile_source
from repro.paradyn import Paradyn, samples_to_csv, trace_to_chrome, trace_to_csv
from repro.workloads import HPF_FRAGMENT


def make_tool():
    tool = Paradyn.for_program(
        compile_source(HPF_FRAGMENT, "f.cmf"),
        num_nodes=2,
        trace_sentences=True,
        sample_interval=1e-5,
    )
    tool.request_metric("computation_time")
    tool.request_metric("summations", focus={"array": "A"})
    tool.run()
    return tool


def test_samples_to_csv():
    tool = make_tool()
    text = samples_to_csv(tool.metrics.instances)
    lines = text.strip().splitlines()
    assert lines[0] == "metric,focus,time,value,units"
    assert len(lines) > 2
    assert any("computation_time" in ln for ln in lines)
    assert any("<array=A>" in ln for ln in lines)
    # times parse as floats and are monotone per metric
    times = [float(ln.split(",")[2]) for ln in lines[1:] if ln.startswith("computation_time")]
    assert times == sorted(times)


def test_trace_to_csv():
    tool = make_tool()
    text = trace_to_csv(tool.trace)
    lines = text.strip().splitlines()
    assert lines[0] == "time,event,level,sentence,node"
    assert any("activate" in ln for ln in lines)
    assert any("CM Fortran" in ln for ln in lines)
    # balanced: same number of activates and deactivates
    acts = sum(1 for ln in lines if ",activate," in ln)
    deacts = sum(1 for ln in lines if ",deactivate," in ln)
    assert acts == deacts


def test_trace_to_chrome():
    tool = make_tool()
    doc = json.loads(trace_to_chrome(tool.trace))
    events = doc["traceEvents"]
    rows = [e for e in events if e.get("ph") == "M"]
    assert {r["args"]["name"] for r in rows} >= {"CM Fortran"}
    begins = [e for e in events if e.get("ph") == "B"]
    ends = [e for e in events if e.get("ph") == "E"]
    assert len(begins) == len(ends) > 0
    ts = [e["ts"] for e in events if e.get("ph") in "BE"]
    assert ts == sorted(ts)


def test_exports_stream_to_file_objects(tmp_path):
    import io

    tool = make_tool()
    buf = io.StringIO()
    assert trace_to_csv(tool.trace, out=buf) is None  # streamed, not returned
    assert buf.getvalue() == trace_to_csv(tool.trace)

    buf = io.StringIO()
    assert samples_to_csv(tool.metrics.instances, out=buf) is None
    assert buf.getvalue() == samples_to_csv(tool.metrics.instances)

    path = tmp_path / "trace.json"
    with open(path, "w", encoding="utf-8") as fh:
        assert trace_to_chrome(tool.trace, out=fh) is None
    assert json.loads(path.read_text()) == json.loads(trace_to_chrome(tool.trace))


def test_exports_accept_a_trace_reader(tmp_path):
    from repro.trace import ColumnarTraceWriter, open_trace

    tool = make_tool()
    path = tmp_path / "run.rtrcx"
    with ColumnarTraceWriter(path) as w:
        w.record_trace(tool.trace)
    reader = open_trace(path)
    # a recorded file exports identically to the in-memory trace
    assert trace_to_csv(reader) == trace_to_csv(tool.trace)
    assert trace_to_chrome(reader) == trace_to_chrome(tool.trace)
