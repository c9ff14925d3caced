"""Machinery shared by the workloads: paths, op accounting, time limits,
spans, child processes, statistics and the run fingerprint.

Standard library only.  Importing this module touches nothing; the entry
point (``run.py``) calls :func:`use_checkout_src` before importing any
workload, because every workload imports ``repro`` from the checkout.
"""

from __future__ import annotations

import contextlib
import heapq
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
#: scratch space and span dumps live inside the checkout (and .gitignore)
TMP_ROOT = ROOT / ".perfbench_tmp"
OUT_DIR = ROOT / ".perfbench_out"
#: closed-loop concurrency: never more workers or connections than this
MAX_PARALLEL = 2


def use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, here and in children.

    ``repro`` is not installed: the path goes on ``sys.path`` and on the
    ``PYTHONPATH`` every child inherits (``python -m repro``, ``repro
    serve``, sweep workers).  A checkout without ``src/repro`` is an error.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no repro package under {SRC}")
    sys.path.insert(0, str(SRC))
    parts = [str(SRC), str(BENCH_DIR)]
    if os.environ.get("PYTHONPATH"):
        parts.append(os.environ["PYTHONPATH"])
    os.environ["PYTHONPATH"] = os.pathsep.join(parts)


def parallelism() -> int:
    return max(1, min(MAX_PARALLEL, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# failures and time limits
# ----------------------------------------------------------------------
class CheckFailed(Exception):
    """An op produced output that differs from its reference."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


class OpTimeout(Exception):
    """An op overran its time limit."""


@contextlib.contextmanager
def time_limit(seconds: float, on_expire=None):
    """Raise :class:`OpTimeout` in the main thread after ``seconds``,
    calling ``on_expire`` first (to kill what the op is waiting on)."""

    def expire(_signum, _frame):
        if on_expire is not None:
            on_expire()
        raise OpTimeout(f"over its {seconds:g} s limit")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def descendants(pid: int | None = None) -> list[int]:
    """Every live descendant of ``pid`` (default: this process)."""
    pid = os.getpid() if pid is None else pid
    out: list[int] = []
    for task in Path(f"/proc/{pid}/task").glob("*/children"):
        try:
            kids = [int(k) for k in task.read_text().split()]
        except OSError:
            continue
        for kid in kids:
            out.append(kid)
            out.extend(descendants(kid))
    return out


def kill_descendants(keep: set[int] = frozenset()) -> None:
    """SIGKILL every descendant not in ``keep`` (a hung sweep's workers)."""
    for pid in descendants():
        if pid not in keep:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)


def run_child(argv: list[str], limit: float, cwd: Path) -> subprocess.CompletedProcess:
    """Run a child to completion; on overrun it is killed and reaped."""
    try:
        return subprocess.run(
            argv, cwd=cwd, capture_output=True, text=True, timeout=limit, check=False
        )
    except subprocess.TimeoutExpired as exc:
        raise OpTimeout(f"{' '.join(argv[:4])} over its {limit:g} s limit") from exc


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class Tracer:
    """In-memory spans around calls into the program's layers.

    A span is ``[name, start, end, parent index, op id]``; nothing is
    written until :meth:`dump`.  Disabled, :meth:`span` costs one branch.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield
            return
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), 0.0, parent, self.op]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, list[float]]:
        """Per span name, each span's duration minus what its children cover."""
        children: dict[int, list[tuple[float, float]]] = defaultdict(list)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                children[parent].append((start, end))
        out: dict[str, list[float]] = defaultdict(list)
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children[i]):
                c_start = max(c_start, reach)
                if c_end > c_start:
                    covered += c_end - c_start
                    reach = c_end
            out[name].append(end - start - covered)
        return out

    def by_op(self, name: str) -> dict[int, float]:
        """Total duration of ``name`` spans per op id."""
        out: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s[0] == name:
                out[s[4]] += s[2] - s[1]
        return out

    def dump(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        names = ("name", "start", "end", "parent", "op")
        path.write_text(
            json.dumps([dict(zip(names, s)) for s in self.spans]), encoding="utf-8"
        )


# ----------------------------------------------------------------------
# machine speed
# ----------------------------------------------------------------------
#: median time of the reference work on the host the bounds were set on
#: (a 2-vCPU Intel Xeon VM); end-to-end times are scaled to that speed
REFERENCE_S = 0.0273


def _reference_work() -> int:
    """Fixed pure-Python work shaped like the program's (keyed records
    built, hashed and drained through a heap) that runs no repro code."""
    records = [(i * 2654435761 % 100_003, f"k{i}") for i in range(20_000)]
    index = {key: n for n, key in records}
    heap = list(index.values())
    heapq.heapify(heap)
    total = 0
    while heap:
        total += heapq.heappop(heap) & 7
    return total


class SpeedProbe:
    """Times the reference work around set-ups and between ops.

    The host's speed drifts by a third over minutes; the median of these
    samples says how fast the machine ran while they were taken.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        t0 = time.perf_counter()
        _reference_work()
        self.samples.append(time.perf_counter() - t0)
        self._last = time.monotonic()

    def tick(self) -> None:
        """:meth:`sample`, at most once a second."""
        if time.monotonic() - self._last >= 1.0:
            self.sample()

    def factor(self) -> float:
        """Multiply a time measured alongside the samples by this to get
        the time at the reference host's speed."""
        return REFERENCE_S / median(self.samples)


# ----------------------------------------------------------------------
# op accounting
# ----------------------------------------------------------------------
class Ops:
    """Attempted/failed ops and latency samples for one measuring pass.

    An op is a callable that returns the seconds its measured region took
    and raises on a failed check; it runs under a time limit, and any
    exception counts it as failed without stopping the run.
    """

    def __init__(self, tracer: Tracer, speed: SpeedProbe, on_timeout=None) -> None:
        self.tracer = tracer
        self.speed = speed
        self.on_timeout = on_timeout
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.sessions: list[float] = []

    def attempt(self, kind: str, fn, limit: float) -> float | None:
        self.speed.tick()
        self.attempted += 1
        self.tracer.op += 1
        try:
            with time_limit(limit, self.on_timeout), self.tracer.span(f"op.{kind}"):
                elapsed = fn()
        except Exception as exc:  # noqa: BLE001 - a failed op must not stop the run
            self.fail(f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.samples[kind].append(elapsed)
        return elapsed

    def sub(self, ok: bool, what: str) -> None:
        """Account one checked sub-op (a study inside a sweep)."""
        self.attempted += 1
        if not ok:
            self.fail(what)

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(message)

    def run_sessions(self, sessions, deadline: float, once: bool = False) -> None:
        """Run sessions (lists of ``(kind, fn, limit)``) until ``deadline``.

        The first session always runs to its end; a later one stops at the
        deadline, though an op already started finishes.  A session counts
        toward ``sessions`` only when every op in it ran and none failed;
        its time is the sum of its ops' measured regions.
        """
        for n, ops in enumerate(sessions):
            if n and (once or time.monotonic() >= deadline):
                return
            total, complete = 0.0, True
            for kind, fn, limit in ops:
                if n and time.monotonic() >= deadline:
                    return
                elapsed = self.attempt(kind, fn, limit)
                if elapsed is None:
                    complete = False
                else:
                    total += elapsed
            if complete:
                self.sessions.append(total)


# ----------------------------------------------------------------------
# the answer format of ``repro trace query --json`` and ``repro serve``
# ----------------------------------------------------------------------
def answer_fields(answers) -> dict:
    """Retro answers keyed by name, in the fields both commands print."""
    return {
        name: {
            "satisfied_time": a.satisfied_time,
            "transitions": a.transitions,
            "satisfied_at_end": a.satisfied_at_end,
        }
        for name, a in answers.items()
    }


def answer_json(answers) -> str:
    """The payload exactly as ``repro trace query --json`` prints it."""
    return json.dumps({"questions": answer_fields(answers)}, indent=2, sort_keys=True)


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def median(values) -> float:
    return statistics.median(values) if values else float("nan")


def tail(values) -> tuple[float, float, int]:
    """``(value, percentile, n)``: the highest percentile with at least ten
    samples beyond it (the maximum, when there are fewer than eleven)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return float("nan"), 0.0, 0
    k = n - 11 if n > 10 else n - 1
    return ordered[k], 100.0 * (k + 1) / n, n


def latency_names(prefix: str, seconds) -> list[tuple[str, float, str, str]]:
    """``<prefix>_p50_ms`` and ``<prefix>_tail_ms`` rows, with sample counts."""
    ms = [1e3 * v for v in seconds]
    value, pct, n = tail(ms)
    return [
        (f"{prefix}_p50_ms", median(ms), "ms", f"n={n}"),
        (f"{prefix}_tail_ms", value, "ms", f"p{pct:.0f} of n={n}, 10 beyond"),
    ]


def peak_rss_mb() -> float:
    """Peak RSS of this process or any reaped child, whichever is larger."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0  # Linux reports KiB


# ----------------------------------------------------------------------
# fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def fingerprint(workers: int, connections: int, load_before) -> dict:
    import numpy
    import repro

    return {
        "repro": repro.__file__,
        "commit": _git_commit(),
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "load_before": list(load_before),
        "load_after": list(os.getloadavg()),
        "workers": workers,
        "connections": connections,
    }
