"""Shared helpers for the benchmark harness.

Every bench regenerates one paper artifact (figure or table) and saves the
rendered text under ``benchmarks/out/`` so the reproduction's outputs can be
diffed against the paper without re-running.  Run with::

    pytest benchmarks/ --benchmark-only -q

Shape assertions (who wins, by what factor, where crossovers fall) live in
the bench bodies; absolute numbers are simulator-dependent by design.
"""

from __future__ import annotations

import json
import pathlib
import sys
import warnings

import pytest

OUT_DIR = pathlib.Path(__file__).parent / "out"

# benches compare against the test oracles (``tests.core.oracle``), so the
# repository root must be importable however pytest was launched
ROOT = str(pathlib.Path(__file__).resolve().parent.parent)
if ROOT not in sys.path:
    sys.path.append(ROOT)

#: --baseline warns when throughput drops more than this vs the committed artifact.
BASELINE_DROP_TOLERANCE = 0.20


def pytest_addoption(parser):
    parser.addoption(
        "--baseline",
        action="store_true",
        default=False,
        help=(
            "compare perf-bench throughput against the committed artifacts in "
            "benchmarks/out/ and warn on a >20%% regression"
        ),
    )


@pytest.fixture(scope="session")
def artifact_dir() -> pathlib.Path:
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR


@pytest.fixture
def save_artifact(artifact_dir):
    """``save_artifact(name, text)`` -> writes benchmarks/out/<name>.txt."""

    def save(name: str, text: str) -> pathlib.Path:
        path = artifact_dir / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        print(f"\n[artifact saved: {path}]")
        return path

    return save


@pytest.fixture
def merge_bench(artifact_dir):
    """``merge_bench(updates)`` -> merge keys into a shared JSON artifact.

    Several benches report into one machine-readable file (abl9/abl10/abl11
    all land in ``BENCH_trace.json``); merging instead of overwriting lets
    any subset of them run in any order without losing the others' numbers.
    Each bench reports under its own top-level key, so a rerun replaces its
    whole section and a key it no longer writes does not linger.
    """

    def merge(updates: dict, name: str = "BENCH_trace.json") -> pathlib.Path:
        path = artifact_dir / name
        merged = json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}
        merged.update(updates)
        path.write_text(json.dumps(merged, indent=2) + "\n", encoding="utf-8")
        return path

    return merge


@pytest.fixture
def baseline_guard(request):
    """``baseline_guard(name, ops_per_sec)`` -> warn on throughput regression.

    Only active under ``--baseline``.  Reads the committed
    ``benchmarks/out/<name>.txt`` artifact's ``indexed_ops_per_sec:`` line
    and warns when the fresh measurement is more than
    ``BASELINE_DROP_TOLERANCE`` below it.  Call it *before* ``save_artifact``
    overwrites the committed file.
    """
    enabled = request.config.getoption("--baseline")

    def check(name: str, ops_per_sec: float) -> None:
        if not enabled:
            return
        path = OUT_DIR / f"{name}.txt"
        if not path.exists():
            warnings.warn(f"--baseline: no committed artifact at {path}", stacklevel=2)
            return
        baseline = None
        for line in path.read_text(encoding="utf-8").splitlines():
            if line.startswith("indexed_ops_per_sec:"):
                baseline = float(line.split(":", 1)[1])
                break
        if baseline is None:
            warnings.warn(f"--baseline: no indexed_ops_per_sec line in {path}", stacklevel=2)
            return
        floor = baseline * (1.0 - BASELINE_DROP_TOLERANCE)
        if ops_per_sec < floor:
            warnings.warn(
                f"{name} throughput regression: {ops_per_sec:,.0f} ops/s is "
                f">{BASELINE_DROP_TOLERANCE:.0%} below the committed baseline "
                f"{baseline:,.0f} ops/s",
                stacklevel=2,
            )

    return check
