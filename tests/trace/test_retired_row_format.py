"""A row ``.rtrc`` file, a layout no longer read, fails loudly everywhere.

The bytes carry the row layout's header magic, version byte, empty
metadata and trailer magic; every entry point must refuse them with a
clean error: a :class:`~repro.trace.CodecError` from the library, exit
code 2 and a one-line ``repro: error:`` message from the CLI (no
traceback), and an NV000 finding from ``repro lint``.
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


@pytest.fixture(params=["run.rtrc", "run.rtrcx"], ids=["rtrc-name", "rtrcx-name"])
def row_file(request, tmp_path):
    path = tmp_path / request.param
    path.write_bytes(b"RTRC" + bytes([1, 0]) + bytes(40) + b"CRTR")
    return path


@pytest.fixture
def no_debug(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)


def test_open_trace_raises_codecerror(row_file):
    with pytest.raises(CodecError, match="not an .rtrcx"):
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
