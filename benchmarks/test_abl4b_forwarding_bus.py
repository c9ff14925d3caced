"""Ablation 4b: naive per-transition forwarding vs the batched forwarding bus.

Two claims about the Section 4.2.3 transport, on the same dbsim workload:

* **cost** -- with back-to-back queries (zero think time), the bus coalesces
  each deactivate(Q_i) + activate(Q_{i+1}) pair into one wire message, so it
  sends *strictly fewer* network messages than the naive one-message-per-
  transition forwarder, while the distributed question stays exact;
* **robustness** -- under a seeded fault plan (drop + duplicate + reorder),
  the bus still applies every transition exactly once (measurements keep
  their meaning), while the naive forwarder silently loses or re-applies
  transitions and the distributed question's numbers degrade.

The naive forwarder is the test-side baseline in
``tests/dbsim/naive_forwarding.py``; the study runs on it through
``run_db_study(bus_type=NaiveBus)``.
"""

from repro.dbsim import FaultPlan, Query, run_db_study
from repro.paradyn import text_table
from tests.dbsim.naive_forwarding import NaiveBus

WORKLOAD = [Query(f"Q{i}", disk_reads=2 + i % 3) for i in range(8)]

FAULTS = dict(drop=0.05, duplicate=0.05, reorder=True)


def run_experiment():
    results = {}
    results["bus"] = run_db_study(WORKLOAD, think_time=0.0)
    results["naive"] = run_db_study(WORKLOAD, think_time=0.0, bus_type=NaiveBus)
    results["bus+faults"] = run_db_study(
        WORKLOAD, think_time=0.0, fault_plan=FaultPlan(**FAULTS, seed=5)
    )
    results["naive+faults"] = run_db_study(
        WORKLOAD, think_time=0.0, bus_type=NaiveBus, fault_plan=FaultPlan(**FAULTS, seed=5)
    )
    return results


def test_abl4b_forwarding_bus(benchmark, save_artifact):
    results = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    bus, naive = results["bus"], results["naive"]
    bus_f, naive_f = results["bus+faults"], results["naive+faults"]
    transitions = 2 * len(WORKLOAD)

    # -- shape claims ----------------------------------------------------
    # both transports forward the same transitions and answer exactly
    assert bus.forwarded_messages == naive.forwarded_messages == transitions
    assert bus.measured == bus.ground_truth
    assert naive.measured == naive.ground_truth
    # the ISSUE acceptance criterion: batching sends strictly fewer
    # network messages than one-per-transition
    assert bus.network_messages < naive.network_messages
    assert bus.bus_stats["fwd_batches_sent"] < transitions
    # under faults the bus still delivers every transition exactly once...
    assert bus_f.bus_stats["fwd_transitions_applied"] == transitions
    assert bus_f.server_sas_notifications == bus.server_sas_notifications
    # ...while the naive forwarder corrupts the remote replica's history
    # (lost or double-applied transitions change the notification count)
    assert naive_f.server_sas_notifications != naive.server_sas_notifications
    # no run leaves watchers behind
    assert all(r.stray_watchers == 0 for r in results.values())

    clean_notifications = {"bus": bus, "naive": naive}
    rows = []
    for label, out in results.items():
        clean = clean_notifications[label.split("+")[0]]
        state = (
            "intact"
            if out.server_sas_notifications == clean.server_sas_notifications
            else "corrupted"
        )
        if out.measured == out.ground_truth:
            question = "exact"
        elif state == "intact":
            question = "late reads"  # retransmit delay, not lost state
        else:
            question = "corrupted"
        rows.append(
            (
                label,
                out.forwarded_messages,
                out.network_messages,
                int(out.bus_stats.get("fwd_retries", 0)),
                int(out.bus_stats.get("fwd_duplicates_suppressed", 0)),
                state,
                question,
            )
        )

    table = text_table(
        rows,
        headers=(
            "transport",
            "transitions",
            "wire msgs",
            "retries",
            "dups dropped",
            "replica state",
            "distributed Q",
        ),
    )
    note = (
        f"workload: {len(WORKLOAD)} back-to-back queries (think_time=0), one\n"
        "client + one server node; faults = 5% drop + 5% duplicate + reorder,\n"
        "seeded.  The bus coalesces same-window transitions into batches\n"
        "(strictly fewer wire messages) and retransmits losses: under faults\n"
        "the remote replica's transition history stays intact (every\n"
        "transition applied exactly once; at worst a retransmitted activation\n"
        "arrives after some reads it should have covered).  The naive\n"
        "forwarder's replica silently corrupts under the same fault plan --\n"
        "lost and double-applied transitions change its history for good."
    )
    save_artifact(
        "abl4b_forwarding_bus",
        "Ablation 4b -- SAS forwarding transports: naive per-transition vs\n"
        "batched, sequenced, retransmitted bus (Section 4.2.3)\n\n"
        + table
        + "\n\n"
        + note,
    )
