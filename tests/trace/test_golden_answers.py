"""Golden answers: ``trace query --json`` and ``lint`` output, byte for byte.

The files under ``golden/`` are what these commands printed for the
shipped studies; a change to the trace format, the replay or the answer
formatting that moves a single byte of an answer shows up here.  CI runs
the same commands over ``--jobs 2`` and ``repro serve`` against the same
files.

The db questions filter to node 5, the server of a 5-client study, and
run over the default segmentation and over 64-record segments, so a
question's replay crosses segment boundaries.  The fig7 study fits in one
segment, so it is recorded a second time in 4-record segments (5 of
them), where ``--jobs 2`` scans in the worker pool.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.dbsim import Query, run_db_study
from repro.sweep import SweepRunner
from repro.trace import ColumnarTraceReader, ColumnarTraceWriter
from repro.unixsim import FunctionSpec, run_figure7_study

GOLDEN = Path(__file__).parent / "golden"

FIG7_QUERIES = {
    "fig7_mappings.json": [
        "--pattern", "{? WriteCall}@UNIX Process", "--mappings", "--window", "0.01",
    ],
    "fig7_diskwrite_stats.json": ["--pattern", "{? DiskWrite}@UNIX Kernel", "--stats"],
}

DB_QUERIES = {
    "db_node5_ordered.json": [
        "--pattern", "{Q3 QueryActive}@Database",
        "--pattern", "{server0 DiskRead}@DB Server", "--ordered", "--node", "5",
    ],
    "db_node5_conjunction.json": [
        "--pattern", "{? QueryActive}@Database",
        "--pattern", "{server0 DiskRead}@DB Server", "--node", "5",
    ],
    "db_node5_query_active.json": ["--pattern", "{? QueryActive}@Database", "--node", "5"],
}


def _run(capsys, argv) -> str:
    capsys.readouterr()
    main(argv)
    return capsys.readouterr().out


@pytest.fixture(scope="module")
def recordings(tmp_path_factory):
    root = tmp_path_factory.mktemp("golden")
    fig7 = root / "fig7.rtrcx"
    db = root / "db.rtrcx"
    assert main(["trace", "record", "unix", "--no-causal", "--out", str(fig7)]) == 0
    assert main(["trace", "record", "db", "--out", str(db), "--clients", "5",
                 "--queries", "60"]) == 0
    db64 = root / "db64.rtrcx"
    queries = [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(60)]
    with ColumnarTraceWriter(db64, segment_records=64) as w:
        run_db_study(queries, num_clients=5, recorder=w)
    # what `trace record unix --no-causal` runs, in 4-record segments
    fig7s4 = root / "fig7s4.rtrcx"
    script = [FunctionSpec(f"f{i}", writes=n, compute_time=4e-4) for i, n in enumerate((2, 1, 0))]
    script.append(FunctionSpec("idle_tail", writes=0, compute_time=2e-2))
    meta = {"study": "unix", "writes": [2, 1, 0], "causal": False}
    with ColumnarTraceWriter(fig7s4, segment_records=4, metadata=meta) as w:
        run_figure7_study(script, causal=False, recorder=w)
    with ColumnarTraceReader(fig7s4) as reader:
        assert reader.info()["segments"] == 5
    return {"fig7": fig7, "db": db, "db64": db64, "fig7s4": fig7s4}


@pytest.fixture()
def pool_tasks(monkeypatch) -> list[int]:
    """The task count of every sweep that reaches the worker pool."""
    counts: list[int] = []
    run_pool = SweepRunner._run_pool

    def counting(self, tasks):
        counts.append(len(tasks))
        return run_pool(self, tasks)

    monkeypatch.setattr(SweepRunner, "_run_pool", counting)
    return counts


@pytest.mark.parametrize("name", sorted(FIG7_QUERIES))
def test_fig7_query_matches_golden(recordings, capsys, name):
    out = _run(capsys, ["trace", "query", str(recordings["fig7"]), *FIG7_QUERIES[name], "--json"])
    assert out == (GOLDEN / name).read_text()


@pytest.mark.parametrize("name", sorted(DB_QUERIES))
@pytest.mark.parametrize("trace", ["db", "db64"])
def test_db_query_matches_golden(recordings, capsys, name, trace):
    out = _run(capsys, ["trace", "query", str(recordings[trace]), *DB_QUERIES[name], "--json"])
    assert out == (GOLDEN / name).read_text()


def test_fig7_lint_matches_golden(recordings, capsys):
    path = str(recordings["fig7"])
    out = _run(capsys, ["lint", "--format", "json", path])
    assert out.replace(path, "TRACE") == (GOLDEN / "fig7_lint.json").read_text()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("name", [*sorted(FIG7_QUERIES), "fig7_lint.json"])
def test_fig7_in_5_segments_matches_golden(recordings, capsys, pool_tasks, name, jobs):
    path = str(recordings["fig7s4"])
    if name == "fig7_lint.json":
        argv = ["lint", "--format", "json", "--jobs", jobs, path]
    else:
        argv = ["trace", "query", path, *FIG7_QUERIES[name], "--json", "--jobs", jobs]
    out = _run(capsys, argv)
    assert out.replace(path, "TRACE") == (GOLDEN / name).read_text()
    assert pool_tasks == ([4] if jobs == "2" else [])
