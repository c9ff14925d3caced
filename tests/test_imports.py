"""The import diet: each ``repro`` command loads only what its own path runs.

Package barrels resolve their public names on first use, ``repro.cli``
imports every subsystem inside the handler that needs it, and numpy is
imported at module level only by the five array modules.  Every check that
inspects ``sys.modules`` runs in a fresh interpreter, since the test process
itself has imported half the package by the time it gets here.
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CORPUS = ROOT / "tests" / "analyze" / "corpus"
EXAMPLES = ROOT / "examples"

#: the only modules that may ``import numpy`` at module level
ARRAY_MODULES = {
    "cmrts/arrays.py",
    "cmrts/dispatch.py",
    "cmrts/runtime.py",
    "cmfortran/interp.py",
    "cmfortran/intrinsics.py",
}
PACKAGES = sorted(p.parent.name for p in (SRC / "repro").glob("*/__init__.py"))


def _fresh(code: str, *args: str) -> dict:
    """Run *code* in a new interpreter; it prints one JSON object last."""
    proc = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        cwd=ROOT,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


_RUN_COMMAND = """
import contextlib, io, json, sys
import repro.cli
with contextlib.redirect_stdout(io.StringIO()):
    try:
        rc = repro.cli.main(json.loads(sys.argv[1]))
    except SystemExit as exc:
        rc = exc.code
print(json.dumps({"rc": rc, "modules": sorted(sys.modules)}))
"""


@pytest.fixture(scope="module")
def trace_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("imports") / "db.rtrcx"
    assert main(["trace", "record", "db", "--out", str(path), "--queries", "4"]) == 0
    return path


def _light_commands(trace: Path, out: Path) -> dict[str, list[str]]:
    return {
        "help": ["--help"],
        "trace record": ["trace", "record", "db", "--out", str(out), "--queries", "2"],
        "trace info": ["trace", "info", str(trace)],
        "trace query": ["trace", "query", str(trace), "--pattern", "{server0 DiskRead}", "--json"],
        # only --mappings pairs intervals with numpy
        "trace query --stats": ["trace", "query", str(trace), "--stats", "--json"],
        "lint": ["lint", "--deep", str(CORPUS / "flow_leak.pif")],
        "mapc check": ["mapc", "check", "--deep", *map(str, sorted(EXAMPLES.glob("*.map")))],
        "sweep": ["sweep", "db", "--serial", "--clients", "1,2", "--queries", "2"],
        "metrics": ["metrics"],
    }


def test_import_cli_loads_no_subpackage():
    loaded = _fresh(
        "import json, sys; import repro.cli; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('repro'))))"
    )
    assert loaded == ["repro", "repro.cli"]


@pytest.mark.parametrize(
    "name",
    [
        "help", "trace record", "trace info", "trace query", "trace query --stats", "lint",
        "mapc check", "sweep", "metrics",
    ],
)
def test_light_commands_skip_numpy_and_the_runtime(name, trace_file, tmp_path):
    argv = _light_commands(trace_file, tmp_path / "out.rtrcx")[name]
    result = _fresh(_RUN_COMMAND, json.dumps(argv))
    assert result["rc"] == (1 if name == "lint" else 0)  # the corpus file has an NV018 error
    loaded = set(result["modules"])
    assert "numpy" not in loaded
    assert "repro.cmrts.runtime" not in loaded


def test_measure_loads_numpy_and_the_runtime():
    argv = ["measure", str(EXAMPLES / "fragment.cmf"), "--nodes", "2"]
    result = _fresh(_RUN_COMMAND, json.dumps(argv))
    assert result["rc"] == 0
    assert {"numpy", "repro.cmrts.runtime"} <= set(result["modules"])


def _module_level(tree: ast.Module):
    """Top-level statements, descending into ``if``/``try`` but not into
    ``if TYPE_CHECKING:`` blocks."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.If):
            if "TYPE_CHECKING" not in ast.unparse(node.test):
                stack += node.body + node.orelse
        elif isinstance(node, ast.Try):
            stack += node.body + node.orelse + node.finalbody
            for handler in node.handlers:
                stack += handler.body
        else:
            yield node


def _scan() -> tuple[set[str], set[str]]:
    numpy_users, points_owners = set(), set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        rel = path.relative_to(SRC / "repro").as_posix()
        for node in _module_level(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                if any(a.name.split(".")[0] == "numpy" for a in node.names):
                    numpy_users.add(rel)
            elif isinstance(node, ast.ImportFrom):
                if node.level == 0 and (node.module or "").split(".")[0] == "numpy":
                    numpy_users.add(rel)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(isinstance(t, ast.Name) and t.id == "POINTS" for t in targets):
                    points_owners.add(rel)
    return numpy_users, points_owners


def test_numpy_and_points_live_where_documented():
    numpy_users, points_owners = _scan()
    assert numpy_users == ARRAY_MODULES
    assert points_owners == {"cmrts/nv.py"}


def test_every_public_spelling_resolves():
    result = _fresh(
        """
import json, sys
missing, star = [], []
for pkg in sys.argv[1:]:
    namespace = {}
    exec(f"from repro.{pkg} import *", namespace)
    module = sys.modules[f"repro.{pkg}"]
    star += [f"{pkg}.{n}" for n in module.__all__ if n not in namespace]
    missing += [f"{pkg}.{n}" for n in module.__all__ if not hasattr(module, n)]
print(json.dumps({"missing": missing, "star": star}))
""",
        *PACKAGES,
    )
    assert result == {"missing": [], "star": []}


def test_names_matching_their_submodule_stay_callable():
    result = _fresh(
        """
import json
import repro.mapdsl.decompile, repro.mapdsl.elaborate, repro.workloads.corpus
from repro.mapdsl import decompile, elaborate
from repro.workloads import corpus
print(json.dumps([callable(f) for f in (decompile, elaborate, corpus)]))
"""
    )
    assert result == [True, True, True]
