"""Tests for the distributed database SAS study (Section 4.2.3)."""

import pytest

from repro.core import ActiveSentenceSet, Noun, Sentence, Verb
from repro.dbsim import FaultPlan, ForwardingBus, Query, db_vocabulary, run_db_study
from repro.machine import Simulator

from .naive_forwarding import NaiveBus, SASForwarder


def test_query_validation():
    with pytest.raises(ValueError):
        Query("bad", disk_reads=-1)


def test_vocabulary():
    vocab = db_vocabulary()
    assert vocab.verb("Database", "QueryActive") is not None
    assert vocab.verb("DB Server", "DiskRead") is not None


class TestForwarder:
    def make(self):
        sim = Simulator()
        src = ActiveSentenceSet(clock=lambda: sim.now)
        dst = ActiveSentenceSet(clock=lambda: sim.now)
        verb = Verb("QueryActive", "Database")
        sent = Sentence(verb, (Noun("Q1", "Database"),))
        other = Sentence(Verb("Other", "Database"), (Noun("X", "Database"),))
        fwd = SASForwarder(sim, src, dst, lambda s: s.verb.name == "QueryActive", latency=1e-3)
        return sim, src, dst, fwd, sent, other

    def test_matching_sentence_forwarded_after_latency(self):
        sim, src, dst, fwd, sent, _ = self.make()
        src.activate(sent)
        assert not dst.is_active(sent)  # not yet: latency
        sim.run()
        assert dst.is_active(sent)
        assert fwd.messages_sent == 1

    def test_deactivation_forwarded(self):
        sim, src, dst, fwd, sent, _ = self.make()
        src.activate(sent)
        src.deactivate(sent)
        sim.run()
        assert not dst.is_active(sent)
        assert fwd.messages_sent == 2

    def test_uninteresting_sentences_not_forwarded(self):
        sim, src, dst, fwd, _, other = self.make()
        src.activate(other)
        sim.run()
        assert not dst.is_active(other)
        assert fwd.messages_sent == 0

    def test_close_detaches_and_is_idempotent(self):
        sim, src, dst, fwd, sent, _ = self.make()
        before = len(src.on_transition)
        fwd.close()
        fwd.close()
        assert len(src.on_transition) == before - 1
        src.activate(sent)
        sim.run()
        assert not dst.is_active(sent)
        assert fwd.messages_sent == 0

    def test_same_instant_pair_arrives_in_order(self):
        """Both transitions are scheduled for the same remote instant; only
        the simulator's `_seq` FIFO tie-break keeps activate before
        deactivate, so the remote SAS ends empty instead of crashing on a
        deactivate-before-activate."""
        sim, src, dst, fwd, sent, _ = self.make()
        src.activate(sent)
        src.deactivate(sent)  # same virtual time as the activate
        sim.run()
        assert not dst.is_active(sent)
        assert len(dst) == 0
        assert dst.notifications == 2  # both arrived, in order
        assert fwd.messages_sent == 2


def test_distributed_question_measures_ground_truth():
    out = run_db_study(forwarding=True)
    assert out.measured == out.ground_truth
    assert out.total_reads_local_question == sum(out.ground_truth.values())


def test_forward_count_is_two_per_query():
    """One message per activation-state change: activate + deactivate."""
    queries = [Query("A", 2), Query("B", 4)]
    out = run_db_study(queries, forwarding=True)
    assert out.forwarded_messages == 2 * len(queries)


def test_local_question_needs_no_forwarding():
    """Figure-6-style single-SAS questions cost zero cross-node messages."""
    out = run_db_study(forwarding=False)
    assert out.forwarded_messages == 0
    assert out.total_reads_local_question == sum(out.ground_truth.values())


def test_without_forwarding_distributed_question_reads_zero():
    out = run_db_study(forwarding=False)
    assert all(v == 0 for v in out.measured.values())


def test_watcher_satisfied_time_positive_only_with_forwarding():
    with_fwd = run_db_study(forwarding=True)
    without = run_db_study(forwarding=False)
    assert all(t > 0 for t in with_fwd.per_query_watcher_time.values())
    assert all(t == 0 for t in without.per_query_watcher_time.values())


def test_notification_counts():
    queries = [Query("A", 3)]
    out = run_db_study(queries, forwarding=True)
    # client: activate+deactivate for one query
    assert out.client_sas_notifications == 2
    # server: 2 per read + 2 forwarded
    assert out.server_sas_notifications == 3 * 2 + 2


class TestTransports:
    """The study runs on the bus or on the test-side naive forwarder; results
    agree, wiring is clean."""

    def test_bus_and_naive_agree_on_measurements(self):
        bus = run_db_study()
        naive = run_db_study(bus_type=NaiveBus)
        assert bus.measured == naive.measured == bus.ground_truth
        assert bus.forwarded_messages == naive.forwarded_messages
        assert bus.per_client_measured == naive.per_client_measured

    def test_bus_stats_exported(self):
        out = run_db_study()
        assert out.bus_stats["fwd_transitions_applied"] == out.forwarded_messages
        assert out.network_messages == out.bus_stats["fwd_messages_sent"]
        assert out.bus_stats["fwd_latency_mean"] > 0

    def test_naive_has_no_bus_stats(self):
        out = run_db_study(bus_type=NaiveBus)
        assert out.bus_stats == {}
        assert out.network_messages == out.forwarded_messages

    @pytest.mark.parametrize("bus_type", [ForwardingBus, NaiveBus], ids=["bus", "naive"])
    def test_no_stray_watchers_after_repeated_runs(self, bus_type):
        """Regression: forwarders used to append to source.on_transition
        with no way to detach, leaking watchers across repeated studies."""
        first = run_db_study(bus_type=bus_type)
        second = run_db_study(bus_type=bus_type)
        assert first.stray_watchers == 0
        assert second.stray_watchers == 0
        assert second.measured == second.ground_truth

    def test_bus_survives_seeded_faults(self):
        out = run_db_study(
            fault_plan=FaultPlan(drop=0.05, duplicate=0.05, reorder=True, seed=11)
        )
        clean = run_db_study()
        # every transition still applied exactly once, so the server's SAS
        # saw the same notifications and ends in the same (empty) state
        assert out.bus_stats["fwd_transitions_applied"] == 2 * len(out.ground_truth)
        assert out.server_sas_notifications == clean.server_sas_notifications
        assert out.total_reads_local_question == clean.total_reads_local_question

    def test_faults_corrupt_only_the_naive_replica(self):
        """abl4b's robustness claim on its own workload and fault plan: the
        bus's server SAS sees its clean run's transitions, the naive
        forwarder's loses or re-applies some."""
        queries = [Query(f"Q{i}", disk_reads=2 + i % 3) for i in range(8)]

        def notifications(bus_type, faults):
            plan = FaultPlan(drop=0.05, duplicate=0.05, reorder=True, seed=5) if faults else None
            out = run_db_study(queries, think_time=0.0, bus_type=bus_type, fault_plan=plan)
            return out.server_sas_notifications

        bus_clean = notifications(ForwardingBus, faults=False)
        naive_clean = notifications(NaiveBus, faults=False)
        assert bus_clean == naive_clean
        assert notifications(ForwardingBus, faults=True) == bus_clean
        assert notifications(NaiveBus, faults=True) != naive_clean


class TestMultipleClients:
    """'server disk reads that correspond to a particular client' (plural
    clients, Section 4.2.3)."""

    def queries(self):
        return [Query(f"Q{i}", disk_reads=2 + i % 3) for i in range(6)]

    def test_per_client_exact_when_serial(self):
        # a single client serializes queries: per-client == ground truth
        out = run_db_study(self.queries(), forwarding=True, num_clients=1)
        assert out.per_client_measured == out.per_client_truth

    def test_per_client_counts_with_concurrency(self):
        out = run_db_study(self.queries(), forwarding=True, num_clients=3)
        assert sum(out.per_client_truth.values()) == sum(out.ground_truth.values())
        # with concurrent outstanding queries the SAS cannot tell *which*
        # active query a read serves, so counts may over-credit -- the SAS's
        # honest granularity limit -- but never under-credit
        for c, truth in out.per_client_truth.items():
            assert out.per_client_measured[c] >= truth

    def test_forwarding_scales_with_clients(self):
        queries = self.queries()
        out = run_db_study(queries, forwarding=True, num_clients=3)
        assert out.forwarded_messages == 2 * len(queries)

    def test_no_forwarding_blind_per_client(self):
        out = run_db_study(self.queries(), forwarding=False, num_clients=2)
        assert all(v == 0 for v in out.per_client_measured.values())
        assert out.total_reads_local_question == sum(out.ground_truth.values())

    def test_validation(self):
        with pytest.raises(ValueError):
            run_db_study(self.queries(), num_clients=0)


def test_multiq_engine_sees_fused_server_stream():
    """A shared MultiQuestionEngine attached via ``multiq=`` answers the
    distributed questions byte-identically to the dedicated per-question
    watchers (same forwarded-bus transition stream, same clock)."""
    from repro.core import MultiQuestionEngine, PerformanceQuestion, SentencePattern

    queries = [Query("Q_orders", disk_reads=3), Query("Q_report", disk_reads=2)]
    engine = MultiQuestionEngine(shards=2)
    for q in queries:
        engine.subscribe(
            PerformanceQuestion(
                f"reads for {q.name}",
                (
                    SentencePattern("QueryActive", (q.name,)),
                    SentencePattern("DiskRead", ("server0",)),
                ),
            )
        )
    out = run_db_study(queries, num_clients=2, multiq=engine)
    answers = engine.answers(out.elapsed)
    for q in queries:
        assert answers[f"reads for {q.name}"][0] == out.per_query_watcher_time[q.name]
    assert engine.membership_changes > 0
