"""Ablation 5b: SAS question throughput vs the full-rescan oracle.

abl5 measures how notification cost scales; this bench measures how much
the SAS's question engine buys at a scale the naive reference visibly
cannot sustain: 10,000 concurrently-active sentences with 100 attached
questions.  The probe sentence toggles one question's satisfaction every
cycle, so both sides do real transition work (callback bookkeeping
included) -- the difference is purely the notification path: one routed,
memoized match plus the dirty question's re-evaluation for the SAS's
:class:`~repro.core.multiq.MultiQuestionEngine`, vs O(questions x active
set) full rescans for the ``tests/core/oracle.py`` reference the
differential suites pin the SAS to.

Acceptance bar: the SAS sustains >= 5x the oracle's throughput.
(Measured: several orders of magnitude.)
"""

import time

from repro.core import (
    ActiveSentenceSet,
    Noun,
    PerformanceQuestion,
    SentencePattern,
    Verb,
    sentence,
)
from repro.paradyn import text_table
from tests.core.oracle import NaiveSAS

SUM = Verb("Sum", "HPF")
ACTIVE = 10_000
QUESTIONS = 100

BACKGROUND = [sentence(SUM, Noun(f"B{i}", "HPF")) for i in range(ACTIVE)]
#: Matches question q0, so every probe cycle flips a watcher both ways.
PROBE = sentence(SUM, Noun("N0", "HPF"))

SAS_CYCLES = 2000
ORACLE_CYCLES = 2


def _build(engine):
    sas = engine()
    for s in BACKGROUND:
        sas.activate(s)
    for q in range(QUESTIONS):
        sas.attach_question(
            PerformanceQuestion(f"q{q}", (SentencePattern("Sum", (f"N{q}",)),))
        )
    return sas


def _throughput(engine, cycles: int) -> float:
    """Notifications per second for activate+deactivate probe cycles."""
    sas = _build(engine)
    t0 = time.perf_counter()
    for _ in range(cycles):
        sas.activate(PROBE)
        sas.deactivate(PROBE)
    dt = time.perf_counter() - t0
    return (2 * cycles) / dt


def run_experiment():
    live = _throughput(ActiveSentenceSet, SAS_CYCLES)
    oracle = _throughput(NaiveSAS, ORACLE_CYCLES)
    return live, oracle


def test_abl5b_sas_vs_oracle(benchmark, save_artifact, baseline_guard):
    live, oracle = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    speedup = live / oracle

    # -- shape claims ---------------------------------------------------------
    # the SAS's question engine: >= 5x the full-rescan oracle at 10k x 100
    assert speedup >= 5.0

    # warn (under --baseline) if throughput fell >20% vs the committed artifact;
    # must run before save_artifact overwrites that file
    baseline_guard("abl5b_sas_vs_oracle", live)

    rows = [
        ("SAS (question engine)", f"{live:,.0f}", "1.0x"),
        ("full-rescan oracle", f"{oracle:,.0f}", f"{oracle / live:.2e}x"),
    ]
    text = (
        "Ablation 5b -- SAS question throughput vs the full-rescan oracle\n"
        "(10,000 active sentences, 100 attached questions, probe toggles q0)\n\n"
        + text_table(rows, headers=("engine", "notifications/s", "relative"))
        + "\n\n"
        # the --baseline guard's key (shared with abl8)
        f"indexed_ops_per_sec: {live:.1f}\n"
        f"oracle_ops_per_sec: {oracle:.1f}\n"
        f"speedup: {speedup:.1f}\n"
        "\nshape: SAS >= 5x the oracle (measured: orders of magnitude);\n"
        "see abl5 for how SAS cost scales with set size and question count."
    )
    save_artifact("abl5b_sas_vs_oracle", text)
