"""The ``repro lint`` subcommand: formats, thresholds, exit codes."""

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.trace import ColumnarTraceReader, ColumnarTraceWriter
from repro.trace.columnar import COL_KIND, COL_SID
from repro.workloads.fuzz import random_trace

CORPUS = Path(__file__).parent / "corpus"
REPO = Path(__file__).resolve().parents[2]


def test_clean_input_exits_zero(capsys):
    rc = main(["lint", str(REPO / "examples" / "fragment.pif")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 error(s)" in out


def test_errors_exit_one_and_render_locations(capsys):
    rc = main(["lint", str(CORPUS / "unresolved_mapping.pif")])
    out = capsys.readouterr().out
    assert rc == 1
    assert "error NV005" in out
    assert "unresolved_mapping.pif:rec" in out


def test_fail_on_threshold_distinguishes_warnings(capsys):
    warn_only = str(CORPUS / "duplicate_records.pif")
    assert main(["lint", warn_only]) == 0  # default gate: error
    assert "warn NV004" in capsys.readouterr().out
    assert main(["lint", "--fail-on", "warn", warn_only]) == 1


def test_json_format_is_machine_readable(capsys):
    rc = main(["lint", "--format", "json", str(CORPUS / "bad_point.mdl")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    assert payload["counts"]["error"] == 1
    (entry,) = payload["diagnostics"]
    assert entry["code"] == "NV009"
    assert entry["severity"] == "error"
    assert entry["path"].endswith("bad_point.mdl")


def test_missing_file_is_nv000(capsys, tmp_path):
    rc = main(["lint", str(tmp_path / "ghost.pif")])
    assert rc == 1
    assert "NV000" in capsys.readouterr().out


def test_unknown_extension_is_nv000(capsys, tmp_path):
    path = tmp_path / "notes.txt"
    path.write_text("hello\n", encoding="utf-8")
    rc = main(["lint", str(path)])
    assert rc == 1
    assert "NV000" in capsys.readouterr().out


def test_a_trace_is_recognised_by_its_magic_whatever_its_name(capsys, tmp_path):
    # `trace record --out run.rtrc` writes .rtrcx bytes under that name; lint
    # reads them as every `repro trace` command does
    for name in ("run.rtrc", "run"):
        path = tmp_path / name
        path.write_bytes((CORPUS / "leak.rtrcx").read_bytes())
        rc = main(["lint", "--format", "json", str(path)])
        codes = [d["code"] for d in json.loads(capsys.readouterr().out)["diagnostics"]]
        assert (rc, codes) == (1, ["NV013"])


def _set_first_byte(src: Path, column: int, segment: int, value: int, dest: Path) -> None:
    """Copy ``src`` to ``dest`` with one column's first byte in a segment set."""
    with ColumnarTraceReader(src) as reader:
        pos, _nbytes = reader._columns(segment)[column]
    blob = bytearray(src.read_bytes())
    blob[pos] = value
    dest.write_bytes(bytes(blob))


def test_a_trace_that_fails_to_decode_is_nv000_and_lint_goes_on(capsys, tmp_path):
    # the file opens, but its first SID byte names sentence 200 of 7, so
    # sanitizing it fails; the clean trace beside it is still linted
    corrupt = tmp_path / "corrupt.rtrcx"
    _set_first_byte(CORPUS / "leak.rtrcx", COL_SID, 0, 200, corrupt)
    rc = main(["lint", "--format", "json", str(corrupt), str(CORPUS / "leak.rtrcx")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    found = [(Path(d["path"]).name, d["code"]) for d in payload["diagnostics"]]
    assert sorted(found) == [("corrupt.rtrcx", "NV000"), ("leak.rtrcx", "NV013")]
    (nv000,) = [d for d in payload["diagnostics"] if d["code"] == "NV000"]
    assert nv000["message"].startswith("cannot read trace: ")


def test_a_trace_whose_transitions_do_not_nest_is_nv000_and_lint_goes_on(capsys, tmp_path):
    # the file decodes, but its first activation now reads as a
    # deactivation, so its intervals cannot be paired
    inconsistent = tmp_path / "inconsistent.rtrcx"
    _set_first_byte(CORPUS / "leak.rtrcx", COL_KIND, 0, 0, inconsistent)
    rc = main(["lint", "--format", "json", str(inconsistent), str(CORPUS / "leak.rtrcx")])
    payload = json.loads(capsys.readouterr().out)
    assert rc == 1
    found = [(Path(d["path"]).name, d["code"]) for d in payload["diagnostics"]]
    assert sorted(found) == [("inconsistent.rtrcx", "NV000"), ("leak.rtrcx", "NV013")]
    (nv000,) = [d for d in payload["diagnostics"] if d["code"] == "NV000"]
    assert nv000["message"] == (
        "cannot read trace: deactivate without activate for {f0() Executes}"
    )


@pytest.mark.parametrize(
    "column, segment, value",
    [(COL_SID, 5, 200), (COL_KIND, 0, 0)],
    ids=["sentence-id-out-of-range", "transitions-do-not-nest"],
)
def test_jobs_2_reports_a_bad_trace_as_jobs_1_does(capsys, tmp_path, column, segment, value):
    # 13 segments of 32 records, so --jobs 2 scans both files in the pool
    trace = random_trace(3, events=400, nodes=2, sentences=14)
    good, bad = tmp_path / "good.rtrcx", tmp_path / "bad.rtrcx"
    with ColumnarTraceWriter(good, segment_records=32) as w:
        w.record_trace(trace)
    _set_first_byte(good, column, segment, value, bad)
    runs = []
    for jobs in ("1", "2"):
        rc = main(["lint", "--format", "json", "--jobs", jobs, str(bad), str(good)])
        runs.append((rc, capsys.readouterr().out))
    assert runs[1] == runs[0]
    rc, out = runs[0]
    assert rc == 1
    bad_codes = [d["code"] for d in json.loads(out)["diagnostics"] if d["path"] == str(bad)]
    assert bad_codes == ["NV000"]


def test_mdl_library_gate_is_clean(capsys):
    rc = main(["lint", "--mdl-library", str(REPO / "examples" / "fragment.pif")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "2 input(s)" in out  # the library counts as an input


def test_shipped_examples_pass_the_error_gate(capsys):
    files = sorted(
        str(p) for p in (REPO / "examples").iterdir() if p.suffix in {".cmf", ".pif"}
    )
    assert files
    rc = main(["lint", "--fail-on", "error", *files])
    assert rc == 0, capsys.readouterr().out


def test_runtime_errors_in_any_subcommand_exit_two(capsys, monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)
    rc = main(["trace", "info", "/nonexistent/ghost.rtrcx"])
    assert rc == 2
    assert "repro: error:" in capsys.readouterr().err
