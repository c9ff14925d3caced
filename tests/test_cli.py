"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def heat_file(tmp_path):
    from repro.workloads import stencil

    path = tmp_path / "heat.cmf"
    path.write_text(stencil(size=64, iterations=2))
    return str(path)


def test_compile_prints_blocks(heat_file, capsys):
    assert main(["compile", heat_file]) == 0
    out = capsys.readouterr().out
    assert "node code blocks" in out
    assert "cmpe_heat_1_" in out


def test_compile_writes_listing_and_pif(heat_file, tmp_path, capsys):
    listing = tmp_path / "out.lst"
    pif = tmp_path / "out.pif"
    main(["compile", heat_file, "--listing", str(listing), "--pif", str(pif)])
    assert "CM Fortran Compiler Listing" in listing.read_text()
    text = pif.read_text()
    assert "MAPPING" in text and "Executes" in text
    # the generated PIF parses back
    from repro.pif import loads

    assert len(loads(text)) > 0


def test_compile_no_optimize(heat_file, capsys):
    main(["compile", heat_file, "--no-optimize"])
    out = capsys.readouterr().out
    assert "merged statement groups" not in out


def test_run_prints_scalars(heat_file, capsys):
    assert main(["run", heat_file, "--nodes", "3", "--scalars", "TOTAL"]) == 0
    out = capsys.readouterr().out
    assert "virtual ms on 3 nodes" in out
    assert "TOTAL =" in out


def test_measure_with_metrics_and_attribution(heat_file, capsys):
    code = main(
        [
            "measure",
            heat_file,
            "--metric",
            "computation_time",
            "--metric",
            "summations@array=U",
            "--attribute",
            "merge",
            "--where-axis",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "computation_time" in out
    assert "<array=U>" in out
    assert "attribution (merge policy):" in out
    assert "CMFarrays" in out


def test_measure_block_times(heat_file, capsys):
    main(["measure", heat_file, "--block-times"])
    out = capsys.readouterr().out
    assert "node code block" in out and "cmpe_heat_1_" in out


def test_bad_focus_spec(heat_file):
    with pytest.raises(SystemExit):
        main(["measure", heat_file, "--metric", "summations@rack=9"])


def test_consultant(heat_file, capsys):
    assert main(["consultant", heat_file, "--threshold", "0.05"]) == 0
    out = capsys.readouterr().out
    assert "Performance Consultant" in out


def test_metrics_listing(capsys):
    assert main(["metrics"]) == 0
    out = capsys.readouterr().out
    assert "summation_time" in out
    assert "point_to_point_operations" in out
    assert out.count("\n") > 30


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


@pytest.mark.parametrize(
    "argv",
    [
        ["trace", "record", "db", "--out", "unused.rtrcx", "--transport", "bus"],
        ["serve", "--live", "db", "--transport", "bus"],
        ["sweep", "db", "--transports", "bus"],
    ],
    ids=["trace-record", "serve", "sweep"],
)
def test_no_command_selects_a_forwarding_transport(argv):
    """The forwarding bus is the only transport: the options are usage errors."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_fuzz_command(capsys):
    assert main(["fuzz", "--count", "3", "--seed", "7", "--nodes", "3"]) == 0
    out = capsys.readouterr().out
    assert "3/3 programs matched the oracle" in out


def test_fuzz_command_with_layouts(capsys):
    assert main(["fuzz", "--count", "2", "--seed", "11", "--layouts"]) == 0
    assert "2/2 programs matched the oracle" in capsys.readouterr().out


def test_module_entry_point_subprocess():
    """``python -m repro`` works as an installed console entry."""
    import subprocess
    import sys

    proc = subprocess.run(
        [sys.executable, "-m", "repro", "metrics"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "summation_time" in proc.stdout


def test_sweep_db_with_verify(capsys):
    rc = main(
        [
            "sweep", "db",
            "--clients", "1,2",
            "--queries", "1,3",
            "--workers", "2",
            "--verify",
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "4 configurations" in out
    assert "db/c1q1" in out
    assert "byte-identical" in out


def test_sweep_kernel_json_output(tmp_path, capsys):
    dest = tmp_path / "sweep.json"
    rc = main(
        [
            "sweep", "kernel",
            "--scales", "16:4",
            "--seeds", "0,1",
            "--serial",
            "--json", str(dest),
        ]
    )
    assert rc == 0
    assert "serial" in capsys.readouterr().out
    import json

    rows = json.loads(dest.read_text())
    assert [r["key"] for r in rows] == ["kernel/c16s4q6-seed0", "kernel/c16s4q6-seed1"]
    assert all(r["value"]["served"] == 16 * 6 for r in rows)


@pytest.fixture
def db_rtrc(tmp_path):
    path = tmp_path / "db.rtrcx"
    assert (
        main(["trace", "record", "db", "--out", str(path), "--clients", "2", "--queries", "3"])
        == 0
    )
    return str(path)


def test_trace_record_reports_transitions(tmp_path, capsys):
    dest = tmp_path / "db.rtrcx"
    assert main(["trace", "record", "db", "--out", str(dest)]) == 0
    out = capsys.readouterr().out
    assert "recorded 24 transitions" in out
    assert "virtual ms" in out and str(dest) in out


def test_trace_record_unix(tmp_path, capsys):
    dest = tmp_path / "u.rtrcx"
    assert main(["trace", "record", "unix", "--out", str(dest), "--writes", "2,1"]) == 0
    assert "recorded 30 transitions" in capsys.readouterr().out
    assert dest.stat().st_size > 0


def test_trace_info(db_rtrc, capsys):
    capsys.readouterr()
    assert main(["trace", "info", db_rtrc]) == 0
    out = capsys.readouterr().out
    assert "transitions: 24" in out
    assert "level 'Database': 3 sentences" in out
    assert '"study": "db"' in out  # metadata echoed back


def test_trace_info_json(db_rtrc, capsys):
    import json

    capsys.readouterr()
    assert main(["trace", "info", db_rtrc, "--json"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["transitions"] == 24
    assert info["meta"]["clients"] == 2


def test_trace_query_defaults_to_stats(db_rtrc, capsys):
    capsys.readouterr()
    assert main(["trace", "query", db_rtrc]) == 0
    out = capsys.readouterr().out
    assert "{server0 DiskRead}: 6 activations" in out


def test_trace_query_question_json(db_rtrc, capsys):
    import json

    capsys.readouterr()
    rc = main(["trace", "query", db_rtrc, "--pattern", "{server0 DiskRead}", "--json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    answer = payload["questions"]["{server0 DiskRead}"]
    assert answer["transitions"] == 12
    assert answer["satisfied_time"] == pytest.approx(0.0018)


def test_trace_query_windowed_mappings(tmp_path, capsys):
    # async flushes (--no-causal): the live co-activity rule (window 0) sees
    # no WriteCall -> DiskWrite mapping; a lag window recovers it (fig 7)
    dest = tmp_path / "u.rtrcx"
    main(["trace", "record", "unix", "--out", str(dest), "--writes", "2,1", "--no-causal"])
    capsys.readouterr()
    assert main(["trace", "query", str(dest), "--mappings", "--window", "0.01"]) == 0
    with_window = capsys.readouterr().out
    assert "mapping {f0() WriteCall} -> {disk0 DiskWrite} (lag 5.6933 ms" in with_window
    assert main(["trace", "query", str(dest), "--mappings"]) == 0
    without = capsys.readouterr().out
    assert "WriteCall} -> {disk0 DiskWrite}" not in without


def test_trace_diff_identical_exits_zero(db_rtrc, capsys):
    capsys.readouterr()
    assert main(["trace", "diff", db_rtrc, db_rtrc]) == 0
    assert "identical per sentence" in capsys.readouterr().out


def test_trace_diff_reports_changes_and_exits_one(db_rtrc, tmp_path, capsys):
    other = tmp_path / "other.rtrcx"
    main(["trace", "record", "db", "--out", str(other), "--clients", "2", "--queries", "4"])
    capsys.readouterr()
    assert main(["trace", "diff", db_rtrc, str(other)]) == 1
    out = capsys.readouterr().out
    assert "only in B: {Q3 client1 QueryActive}" in out
    assert "changed {server0 DiskRead}: activations 6 -> 10" in out
    assert "level 'DB Server': +4 activations" in out


def test_trace_diff_json(db_rtrc, tmp_path, capsys):
    import json

    other = tmp_path / "other.rtrcx"
    main(["trace", "record", "db", "--out", str(other), "--clients", "2", "--queries", "4"])
    capsys.readouterr()
    assert main(["trace", "diff", db_rtrc, str(other), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["identical"] is False
    assert payload["only_b"] == ["{Q3 client1 QueryActive}"]
    assert payload["changed"]["{server0 DiskRead}"]["activations"] == [6, 10]


def test_sweep_capture_writes_rtrc_and_fingerprints(tmp_path, capsys):
    from repro.trace import open_trace

    cap = tmp_path / "caps"
    rc = main(
        [
            "sweep", "db",
            "--clients", "1,2",
            "--queries", "1",
            "--workers", "2",
            "--verify",
            "--capture", str(cap),
        ]
    )
    assert rc == 0
    assert "byte-identical" in capsys.readouterr().out
    files = sorted(p.name for p in cap.iterdir())
    assert files == ["db_c1q1.rtrcx", "db_c2q1.rtrcx"]
    assert open_trace(cap / files[0]).transitions > 0


def test_sweep_capture_rejects_kernel_study(tmp_path):
    with pytest.raises(SystemExit, match="SAS-bearing"):
        main(["sweep", "kernel", "--scales", "16:4", "--capture", str(tmp_path)])
