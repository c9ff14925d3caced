"""Retired trace layouts fail loudly everywhere.

Two retired layouts: a row ``.rtrc`` file (the row header magic, version
byte, empty metadata and trailer magic) and a version-1 ``.rtrcx`` file
(``golden/leak_v1.rtrcx``, the lint corpus trace as shipped before the
version-2 layout).  Every entry point must refuse them with a clean
error: a :class:`~repro.trace.CodecError` from the library, exit code 2
and a one-line ``repro: error:`` message from the CLI (no traceback), and
an NV000 finding from ``repro lint``.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.trace import CodecError, open_trace

SRC = str(Path(__file__).resolve().parents[2] / "src")
V1_FILE = Path(__file__).parent / "golden" / "leak_v1.rtrcx"

#: retired layout -> (its bytes, what open_trace says about them)
RETIRED = {
    "row": (b"RTRC" + bytes([1, 0]) + bytes(40) + b"CRTR", "not an .rtrcx"),
    "v1": (V1_FILE.read_bytes(), r"unsupported version 1 \(want 2"),
}


@pytest.fixture(
    params=[("row", "run.rtrc"), ("row", "run.rtrcx"), ("v1", "run.rtrc"), ("v1", "run.rtrcx")],
    ids=["rtrc-name", "rtrcx-name", "v1-rtrc-name", "v1-rtrcx-name"],
)
def row_file(request, tmp_path):
    layout, name = request.param
    path = tmp_path / name
    path.write_bytes(RETIRED[layout][0])
    return path


@pytest.fixture
def no_debug(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)


def test_open_trace_raises_codecerror(row_file):
    refusal = dict(RETIRED.values())[row_file.read_bytes()]
    with pytest.raises(CodecError, match=refusal):
        open_trace(row_file)


def test_trace_info_exits_2_without_a_traceback(row_file):
    env = {k: v for k, v in os.environ.items() if k != "REPRO_DEBUG"}
    env["PYTHONPATH"] = SRC
    out = subprocess.run(
        [sys.executable, "-m", "repro", "trace", "info", str(row_file)],
        capture_output=True, text=True, env=env,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("repro: error:")
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_trace_query_exits_2(row_file, no_debug, capsys):
    assert main(["trace", "query", str(row_file), "--pattern", "{? Run}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("repro: error:")
    assert "Traceback" not in captured.err


def test_serve_exits_2_before_binding_a_port(row_file, no_debug, tmp_path, capsys):
    port_file = tmp_path / "port"
    rc = main(["serve", "--trace", str(row_file), "--once", "--port", "0",
               "--port-file", str(port_file)])
    assert rc == 2
    assert not port_file.exists()
    assert capsys.readouterr().err.startswith("repro: error:")


def test_lint_reports_nv000(row_file, no_debug, capsys):
    rc = main(["lint", "--format", "json", str(row_file)])
    assert rc == 1
    diags = json.loads(capsys.readouterr().out)["diagnostics"]
    assert [d["code"] for d in diags] == ["NV000"]
    assert diags[0]["path"] == str(row_file)
