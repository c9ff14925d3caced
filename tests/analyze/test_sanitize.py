"""The trace sanitizer: attribution leaks, orphans, dead declarations.

Covers the acceptance pair from the issue: a recorded run with a seeded
attribution leak (deferred non-causal disk writes) must produce NV013,
and the shipped fig6 sample trace linted together with its program's
static mapping information must produce zero errors.
"""

from pathlib import Path

import pytest

from repro.analyze import Severity, lint_paths, sanitize_trace
from repro.core import EventKind, Sentence, SentenceEvent, Noun, Verb
from repro.pif import generate_pif, loads
from repro.cmfortran import compile_source
from repro.trace import ColumnarTraceWriter, open_trace
from repro.unixsim import FunctionSpec, run_figure7_study
from repro.workloads import HPF_FRAGMENT

REPO = Path(__file__).resolve().parents[2]
FIG6 = REPO / "benchmarks" / "out" / "sample_fig6.rtrcx"


def record_unix(path: Path, causal: bool, idle_tail: bool, segment_records: int = 4096) -> None:
    script = [
        FunctionSpec(f"f{i}", writes=n, compute_time=4e-4) for i, n in enumerate([2, 1, 1])
    ]
    if idle_tail:
        script.append(FunctionSpec("idle_tail", writes=0, compute_time=2e-2))
    meta = {"study": "unix", "causal": causal}
    with ColumnarTraceWriter(str(path), segment_records=segment_records, metadata=meta) as w:
        run_figure7_study(script, causal=causal, recorder=w)


def test_seeded_leak_is_nv013(tmp_path):
    path = tmp_path / "leak.rtrcx"
    record_unix(path, causal=False, idle_tail=False)
    diags = sanitize_trace(open_trace(str(path)), None, "leak.rtrcx")
    assert [d.code for d in diags] == ["NV013"]
    assert diags[0].severity is Severity.ERROR
    assert "UNIX Kernel" in diags[0].message


def test_causal_run_is_clean(tmp_path):
    path = tmp_path / "ok.rtrcx"
    record_unix(path, causal=True, idle_tail=True)
    assert sanitize_trace(open_trace(str(path)), None, "ok.rtrcx") == []


def test_fig6_sample_trace_has_zero_errors():
    program = compile_source(HPF_FRAGMENT, "fragment.cmf")
    doc = generate_pif(program.listing)
    diags = sanitize_trace(open_trace(str(FIG6)), doc, "sample_fig6.rtrcx")
    assert all(d.severity < Severity.ERROR for d in diags)


def test_lone_orphan_in_attributed_level_is_nv014():
    # one Base sentence overlaps user activity, its sibling runs after
    # everything else: the level as a whole attributes, the sibling warns
    top = Sentence(Verb("Compute", "CM Fortran"), (Noun("A", "CM Fortran"),))
    good = Sentence(Verb("Send", "Base"), (Noun("node0", "Base"),))
    orphan = Sentence(Verb("Send", "Base"), (Noun("node1", "Base"),))
    events = [
        SentenceEvent(0.0, EventKind.ACTIVATE, top),
        SentenceEvent(1.0, EventKind.ACTIVATE, good),
        SentenceEvent(2.0, EventKind.DEACTIVATE, good),
        SentenceEvent(10.0, EventKind.DEACTIVATE, top),
        SentenceEvent(20.0, EventKind.ACTIVATE, orphan),
        SentenceEvent(21.0, EventKind.DEACTIVATE, orphan),
    ]
    diags = sanitize_trace(events, None, "t.rtrcx")
    assert [d.code for d in diags] == ["NV014"]
    assert diags[0].severity is Severity.WARNING
    assert "{node1 Send}" in diags[0].message


def test_dead_declaration_is_nv015():
    doc = loads(
        "LEVEL\nname = App\nrank = 1\n\nLEVEL\nname = Base\nrank = 0\n\n"
        "NOUN\nname = worker\nabstraction = Base\n\n"
        "NOUN\nname = request\nabstraction = App\n\n"
        "VERB\nname = Runs\nabstraction = Base\n\n"
        "VERB\nname = Acts\nabstraction = App\n\n"
        "MAPPING\nsource = {worker, Runs}\ndestination = {request, Acts}\n"
    )
    request_acts = Sentence(Verb("Acts", "App"), (Noun("request", "App"),))
    events = [
        SentenceEvent(0.0, EventKind.ACTIVATE, request_acts),
        SentenceEvent(1.0, EventKind.DEACTIVATE, request_acts),
    ]
    diags = sanitize_trace(events, doc, "t.rtrcx")
    assert [d.code for d in diags] == ["NV015"]
    assert "{worker Runs}" in diags[0].message


def test_exercised_declaration_is_not_dead():
    doc = loads(
        "LEVEL\nname = App\nrank = 1\n\nLEVEL\nname = Base\nrank = 0\n\n"
        "NOUN\nname = worker\nabstraction = Base\n\n"
        "NOUN\nname = request\nabstraction = App\n\n"
        "VERB\nname = Runs\nabstraction = Base\n\n"
        "VERB\nname = Acts\nabstraction = App\n\n"
        "MAPPING\nsource = {worker, Runs}\ndestination = {request, Acts}\n"
    )
    worker_runs = Sentence(Verb("Runs", "Base"), (Noun("worker", "Base"),))
    request_acts = Sentence(Verb("Acts", "App"), (Noun("request", "App"),))
    events = [
        SentenceEvent(0.0, EventKind.ACTIVATE, request_acts),
        SentenceEvent(0.2, EventKind.ACTIVATE, worker_runs),
        SentenceEvent(0.8, EventKind.DEACTIVATE, worker_runs),
        SentenceEvent(1.0, EventKind.DEACTIVATE, request_acts),
    ]
    assert sanitize_trace(events, doc, "t.rtrcx") == []


def test_unknown_level_is_nv016_and_not_leak_checked():
    mystery = Sentence(Verb("Hums", "Mystery"), (Noun("box", "Mystery"),))
    events = [
        SentenceEvent(0.0, EventKind.ACTIVATE, mystery),
        SentenceEvent(1.0, EventKind.DEACTIVATE, mystery),
    ]
    diags = sanitize_trace(events, None, "t.rtrcx")
    assert [d.code for d in diags] == ["NV016"]
    assert diags[0].severity is Severity.INFO


def test_static_path_rescues_non_coactive_sentence():
    # worker active strictly after request: no co-activity, but the
    # static mapping still ties it to the top level
    doc = loads(
        "LEVEL\nname = App\nrank = 1\n\nLEVEL\nname = Base\nrank = 0\n\n"
        "NOUN\nname = worker\nabstraction = Base\n\n"
        "NOUN\nname = request\nabstraction = App\n\n"
        "VERB\nname = Runs\nabstraction = Base\n\n"
        "VERB\nname = Acts\nabstraction = App\n\n"
        "MAPPING\nsource = {worker, Runs}\ndestination = {request, Acts}\n"
    )
    worker_runs = Sentence(Verb("Runs", "Base"), (Noun("worker", "Base"),))
    request_acts = Sentence(Verb("Acts", "App"), (Noun("request", "App"),))
    events = [
        SentenceEvent(0.0, EventKind.ACTIVATE, request_acts),
        SentenceEvent(1.0, EventKind.DEACTIVATE, request_acts),
        SentenceEvent(2.0, EventKind.ACTIVATE, worker_runs),
        SentenceEvent(3.0, EventKind.DEACTIVATE, worker_runs),
    ]
    diags = sanitize_trace(events, doc, "t.rtrcx")
    assert [d.code for d in diags] == []


@pytest.mark.skipif(not FIG6.exists(), reason="sample trace not present")
def test_lint_paths_fig6_acceptance(tmp_path):
    # the full driver path: fragment source + generated PIF + sample trace
    cmf = tmp_path / "fragment.cmf"
    cmf.write_text(HPF_FRAGMENT, encoding="utf-8")
    result = lint_paths([str(cmf), str(FIG6)])
    assert not result.fails(Severity.ERROR)


# ----------------------------------------------------------------------
# segment parity: a trace sanitizes byte-identically however it is split,
# scanned in parallel, or replayed event by event from memory
# ----------------------------------------------------------------------
def _normalized_lint_json(path: Path, jobs=None) -> str:
    from repro.analyze import format_json

    text = format_json(lint_paths([str(path)], jobs=jobs))
    # the path is the only legitimate difference between the recordings
    return text.replace(str(path), "<trace>")


@pytest.mark.parametrize("causal", [False, True])
def test_columnar_trace_sanitizes_byte_identically(tmp_path, causal):
    # causal=False without an idle tail seeds an NV013 leak, so one of the
    # two parametrizations compares a non-empty finding list
    whole = tmp_path / "run.rtrcx"
    record_unix(whole, causal=causal, idle_tail=causal)
    split = tmp_path / "run8.rtrcx"
    record_unix(split, causal=causal, idle_tail=causal, segment_records=8)
    want = _normalized_lint_json(whole)
    assert _normalized_lint_json(split) == want
    # the parallel segment scan must not change a single finding either
    assert _normalized_lint_json(split, jobs=2) == want


def test_columnar_leak_findings_match_row_exactly(tmp_path):
    # the reference is the in-memory event replay of the same recording
    from repro.analyze import sort_diagnostics

    path = tmp_path / "leak.rtrcx"
    record_unix(path, causal=False, idle_tail=False, segment_records=8)
    with open_trace(str(path)) as reader:
        event_diags = sanitize_trace(reader.to_trace(), None, "t")
        col_diags = sanitize_trace(reader, None, "t", jobs=2)
    assert [str(d) for d in sort_diagnostics(event_diags)] == [
        str(d) for d in sort_diagnostics(col_diags)
    ]
    assert any(d.code == "NV013" for d in col_diags)
