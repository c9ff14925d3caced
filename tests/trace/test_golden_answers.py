"""Golden answers: ``trace query --json`` and ``lint`` output, byte for byte.

The files under ``golden/`` are what these commands printed for the
shipped studies; a change to the trace format, the replay or the answer
formatting that moves a single byte of an answer shows up here.  CI runs
the same commands over ``--jobs 2`` and ``repro serve`` against the same
files.

The db questions filter to node 5, the server of a 5-client study, and
run over the default segmentation and over 64-record segments, so a
question's replay crosses segment boundaries.
"""

from pathlib import Path

import pytest

from repro.cli import main
from repro.dbsim import Query, run_db_study
from repro.trace import ColumnarTraceWriter

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
    return {"fig7": fig7, "db": db, "db64": db64}


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
