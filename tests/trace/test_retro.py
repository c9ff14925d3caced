"""Unit tests for retrospective analysis (questions, mappings, diffs)."""

import pytest

from repro.core import (
    ActiveSentenceSet,
    EventKind,
    Noun,
    OrderedQuestion,
    PerformanceQuestion,
    SentencePattern,
    Trace,
    Verb,
    sentence,
)
from repro.trace import (
    ColumnarTraceWriter,
    diff_traces,
    evaluate_questions,
    open_trace,
    parse_pattern,
    sentence_intervals,
    trace_stats,
    windowed_attribution,
    windowed_mappings,
)

SUM = Verb("Sum", "HPF")
SEND = Verb("Send", "CMRTS")
A_SUM = sentence(SUM, Noun("A", "HPF"))
B_SUM = sentence(SUM, Noun("B", "HPF"))
N0_SEND = sentence(SEND, Noun("node0", "CMRTS"))


def make_trace(rows):
    t = Trace()
    for time, kind, sent in rows:
        t.record(time, kind, sent)
    return t


class TestParsePattern:
    def test_nouns_and_verb(self):
        p = parse_pattern("{A Sum}")
        assert p == SentencePattern("Sum", ("A",))

    def test_verb_only_and_wildcards(self):
        assert parse_pattern("{Send}") == SentencePattern("Send", ())
        assert parse_pattern("{? Sum}") == SentencePattern("Sum", ("?",))

    def test_level_suffix(self):
        p = parse_pattern("{disk0 DiskWrite}@UNIX Kernel")
        assert p == SentencePattern("DiskWrite", ("disk0",), "UNIX Kernel")

    def test_round_trips_pattern_str(self):
        p = SentencePattern("Sum", ("A", "B"))
        assert parse_pattern(str(p)) == p

    def test_errors(self):
        with pytest.raises(ValueError):
            parse_pattern("{}")
        with pytest.raises(ValueError):
            parse_pattern("{A Sum} trailing")


class TestEvaluateQuestions:
    def questions(self):
        return [
            PerformanceQuestion("{A Sum}", (SentencePattern("Sum", ("A",)),)),
            PerformanceQuestion(
                "{A Sum}, {node0 Send}",
                (SentencePattern("Sum", ("A",)), SentencePattern("Send", ("node0",))),
            ),
            OrderedQuestion(
                "ordered", (SentencePattern("Sum", ("A",)), SentencePattern("Send", ("node0",)))
            ),
        ]

    def drive(self, sas, rows, clock):
        for time, kind, sent in rows:
            clock["t"] = time
            if kind is EventKind.ACTIVATE:
                sas.activate(sent)
            else:
                sas.deactivate(sent)

    ROWS = [
        (1.0, EventKind.ACTIVATE, A_SUM),
        (2.0, EventKind.ACTIVATE, N0_SEND),
        (3.0, EventKind.DEACTIVATE, N0_SEND),
        (4.0, EventKind.DEACTIVATE, A_SUM),
        (5.0, EventKind.ACTIVATE, N0_SEND),  # send with no sum: conj unsatisfied
        (6.0, EventKind.DEACTIVATE, N0_SEND),
        (7.0, EventKind.ACTIVATE, A_SUM),  # still open at the end
    ]

    def test_matches_live_watchers_exactly(self):
        clock = {"t": 0.0}
        sas = ActiveSentenceSet(clock=lambda: clock["t"])
        watchers = [sas.attach_question(q) for q in self.questions()]
        self.drive(sas, self.ROWS, clock)
        end = 8.0
        live = [(w.total_satisfied_time(end), w.transitions, w.satisfied) for w in watchers]

        answers = evaluate_questions(make_trace(self.ROWS), self.questions(), end_time=end)
        retro = [
            (a.satisfied_time, a.transitions, a.satisfied_at_end)
            for a in (answers[q.name] for q in self.questions())
        ]
        assert retro == live
        assert live[0] == (4.0, 3, True)  # sanity: open interval counts to end
        assert live[1][0] == 1.0

    def test_node_filter(self):
        trace = Trace()
        trace.record(1.0, EventKind.ACTIVATE, A_SUM, node_id=0)
        trace.record(2.0, EventKind.ACTIVATE, A_SUM, node_id=1)
        trace.record(3.0, EventKind.DEACTIVATE, A_SUM, node_id=0)
        trace.record(6.0, EventKind.DEACTIVATE, A_SUM, node_id=1)
        q = [PerformanceQuestion("q", (SentencePattern("Sum", ("A",)),))]
        assert evaluate_questions(trace, q, node=0)["q"].satisfied_time == 2.0
        assert evaluate_questions(trace, q, node=1)["q"].satisfied_time == 4.0
        assert evaluate_questions(trace, q)["q"].satisfied_time == 5.0

    def test_works_from_a_trace_reader(self, tmp_path):
        path = tmp_path / "t.rtrcx"
        with ColumnarTraceWriter(path) as w:
            w.record_trace(make_trace(self.ROWS))
        a = evaluate_questions(open_trace(path), self.questions(), end_time=8.0)
        b = evaluate_questions(make_trace(self.ROWS), self.questions(), end_time=8.0)
        assert {k: vars(v) for k, v in a.items()} == {k: vars(v) for k, v in b.items()}


class TestIntervals:
    def test_flattens_and_closes_open(self):
        rows = [
            (1.0, EventKind.ACTIVATE, A_SUM),
            (2.0, EventKind.ACTIVATE, A_SUM),
            (3.0, EventKind.DEACTIVATE, A_SUM),
            (4.0, EventKind.DEACTIVATE, A_SUM),
            (5.0, EventKind.ACTIVATE, B_SUM),
        ]
        ivs = sentence_intervals(make_trace(rows), end_time=9.0)
        assert ivs[A_SUM] == [(1.0, 4.0)]
        assert ivs[B_SUM] == [(5.0, 9.0)]

    def test_unbalanced_raises(self):
        trace = Trace()
        trace.record(1.0, EventKind.DEACTIVATE, A_SUM)
        with pytest.raises(ValueError, match="deactivate without activate"):
            sentence_intervals(trace)


class TestWindowedMappings:
    ROWS = [
        (1.0, EventKind.ACTIVATE, A_SUM),
        (2.0, EventKind.DEACTIVATE, A_SUM),
        (2.5, EventKind.ACTIVATE, N0_SEND),  # 0.5 after A deactivated
        (3.0, EventKind.DEACTIVATE, N0_SEND),
    ]

    def test_window_zero_is_the_live_rule(self):
        found = windowed_mappings(make_trace(self.ROWS), window=0.0)
        assert found == []  # never co-active: the live SAS records nothing

    def test_positive_window_recovers_the_deferred_mapping(self):
        found = windowed_mappings(
            make_trace(self.ROWS),
            window=1.0,
            src_filter=SentencePattern("Sum", ("A",)),
            dst_filter=SentencePattern("Send", ("node0",)),
        )
        assert len(found) == 1
        m = found[0]
        assert (m.source, m.destination) == (A_SUM, N0_SEND)
        assert m.lag == pytest.approx(0.5)
        assert m.overlaps == 1

    def test_concurrent_overlap_has_zero_lag(self):
        rows = [
            (1.0, EventKind.ACTIVATE, A_SUM),
            (1.5, EventKind.ACTIVATE, N0_SEND),
            (2.0, EventKind.DEACTIVATE, N0_SEND),
            (3.0, EventKind.DEACTIVATE, A_SUM),
        ]
        found = windowed_mappings(make_trace(rows), window=0.0)
        by_pair = {(m.source, m.destination): m for m in found}
        assert by_pair[(A_SUM, N0_SEND)].lag == 0.0
        assert (A_SUM, A_SUM) not in by_pair  # no self-mappings


class TestWindowOverlapsEquivalence:
    """The vectorized pairing kernel must match the quadratic reference."""

    @staticmethod
    def reference(src_ivs, dst_ivs, window):
        # the seed's O(I^2) cross product, kept as the oracle
        count = 0
        min_lag = float("inf")
        for s0, s1 in src_ivs:
            for d0, d1 in dst_ivs:
                if d1 >= s0 and d0 <= s1 + window:
                    count += 1
                    lag = d0 - s1
                    min_lag = min(min_lag, lag if lag > 0.0 else 0.0)
        return count, min_lag

    @staticmethod
    def random_intervals(rng, n, disjoint):
        out = []
        t = 0.0
        for _ in range(n):
            if disjoint:
                t += rng.uniform(0.01, 1.0)
                s = t
                t += rng.uniform(0.01, 1.0)
                out.append((s, t))
            else:
                s = rng.uniform(0.0, 10.0)
                out.append((s, s + rng.uniform(0.0, 3.0)))
        rng.shuffle(out)
        return out

    def test_matches_quadratic_reference(self):
        import random

        from repro.trace.retro import _window_pairs

        rng = random.Random(1234)
        for trial in range(200):
            disjoint = trial % 2 == 0  # flattened (non-overlapping) and not
            srcs = [
                self.random_intervals(rng, rng.randrange(0, 12), disjoint)
                for _ in range(rng.randrange(1, 4))
            ]
            dsts = [
                self.random_intervals(rng, rng.randrange(0, 12), disjoint)
                for _ in range(rng.randrange(1, 4))
            ]
            # a negative window is exact on non-overlapping destinations
            windows = [0.0, 0.05, 0.5, 5.0] + ([-0.3] if disjoint else [])
            window = rng.choice(windows)
            counts, lags = _window_pairs(srcs, dsts, window)
            for j, dst in enumerate(dsts):
                for i, src in enumerate(srcs):
                    got = (counts[j][i], lags[j][i])
                    want = self.reference(src, dst, window)
                    assert got == want, (trial, src, dst, window)
                    assert type(got[0]) is int and type(got[1]) is float

    def test_empty_sides(self):
        from repro.trace.retro import _window_pairs

        inf = float("inf")
        assert _window_pairs([[]], [[(1.0, 2.0)]], 1.0) == ([[0]], [[inf]])
        assert _window_pairs([[(1.0, 2.0)]], [[]], 1.0) == ([[0]], [[inf]])
        assert _window_pairs([], [[(1.0, 2.0)]], 1.0) == ([[]], [[]])
        assert _window_pairs([[(1.0, 2.0)]], [], 1.0) == ([], [])
        # an empty source between two others reads nobody's sums
        counts, lags = _window_pairs(
            [[(0.0, 1.0)], [], [(5.0, 6.0)]], [[(0.5, 0.75), (5.5, 7.0)]], 0.0
        )
        assert counts == [[1, 0, 1]] and lags == [[0.0, inf, 0.0]]


class TestWindowedAttribution:
    # two producers, their consumers fire after a flush delay, FIFO order
    ROWS = [
        (1.0, EventKind.ACTIVATE, A_SUM),
        (1.1, EventKind.DEACTIVATE, A_SUM),
        (1.2, EventKind.ACTIVATE, B_SUM),
        (1.3, EventKind.DEACTIVATE, B_SUM),
        (2.0, EventKind.ACTIVATE, N0_SEND),  # belongs to A (FIFO)
        (2.1, EventKind.DEACTIVATE, N0_SEND),
        (2.2, EventKind.ACTIVATE, N0_SEND),  # belongs to B
        (2.3, EventKind.DEACTIVATE, N0_SEND),
    ]

    def test_fifo_matches_one_to_one(self):
        res = windowed_attribution(
            make_trace(self.ROWS),
            producer=SentencePattern("Sum", ("?",)),
            consumer=SentencePattern("Send", ("node0",)),
            window=2.0,
            key=lambda s: s.nouns[0].name,
        )
        assert res.counts == {"A": 1, "B": 1}
        assert res.unattributed == 0
        assert [(str(p), round(lag, 6)) for p, _c, lag in res.pairs] == [
            ("{A Sum}", 0.9),
            ("{B Sum}", 0.9),
        ]

    def test_all_policy_overcredits(self):
        res = windowed_attribution(
            make_trace(self.ROWS),
            producer=SentencePattern("Sum", ("?",)),
            consumer=SentencePattern("Send", ("node0",)),
            window=2.0,
            policy="all",
            key=lambda s: s.nouns[0].name,
        )
        # every producer's window covers both consumers
        assert res.counts == {"A": 2, "B": 2}

    def test_narrow_window_leaves_unattributed(self):
        res = windowed_attribution(
            make_trace(self.ROWS),
            producer=SentencePattern("Sum", ("?",)),
            consumer=SentencePattern("Send", ("node0",)),
            window=0.1,
        )
        assert res.counts == {}
        assert res.unattributed == 2

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError, match="unknown attribution policy"):
            windowed_attribution(make_trace(self.ROWS), lambda s: True, lambda s: True, 1.0, policy="lifo")


def reference_attribution(intervals, prod_ok, cons_ok, window, policy):
    """The quadratic producer scan windowed_attribution used to run."""
    prods = sorted(
        ((s0, s1, sent) for sent, ivs in intervals.items() if prod_ok(sent) for s0, s1 in ivs),
        key=lambda p: (p[1], p[0]),
    )
    cons = sorted(
        ((c0, c1, sent) for sent, ivs in intervals.items() if cons_ok(sent) for c0, c1 in ivs),
        key=lambda c: (c[0], c[1]),
    )
    counts, pairs, unattributed = {}, [], 0
    consumed = [False] * len(prods)
    for c0, _c1, csent in cons:
        matched = False
        for i, (p0, p1, psent) in enumerate(prods):
            if policy == "fifo" and consumed[i]:
                continue
            if p0 <= c0 <= p1 + window:
                counts[str(psent)] = counts.get(str(psent), 0) + 1
                pairs.append((psent, csent, max(0.0, c0 - p1)))
                matched = True
                if policy == "fifo":
                    consumed[i] = True
                    break
        if not matched:
            unattributed += 1
    return counts, pairs, unattributed


class TestAttributionReference:
    """The heap sweep answers exactly what the quadratic scan answered."""

    @staticmethod
    def random_trace(rng):
        # times on a coarse grid, so starts and ends tie across sentences
        per_sentence = []
        for role, verb in (("p", "Prod"), ("c", "Cons")):
            for k in range(rng.randrange(1, 4)):
                sent = sentence(Verb(verb, "L"), Noun(f"{role}{k}", "L"))
                t = rng.randrange(0, 4) * 0.5
                rows = []
                for _ in range(rng.randrange(0, 6)):
                    end = t + rng.randrange(0, 4) * 0.5
                    rows += [(t, EventKind.ACTIVATE, sent), (end, EventKind.DEACTIVATE, sent)]
                    t = end + rng.randrange(1, 4) * 0.5
                per_sentence.append(rows)
        rows = sorted((r for rs in per_sentence for r in rs), key=lambda r: r[0])
        return make_trace(rows)

    @pytest.mark.parametrize("policy", ["fifo", "all"])
    def test_matches_quadratic_reference(self, policy):
        import random

        prod = SentencePattern("Prod", ("?",))
        cons = SentencePattern("Cons", ("?",))
        rng = random.Random(77)
        for trial in range(150):
            trace = self.random_trace(rng)
            window = rng.choice([0.0, 0.0, 0.5, 1.0, 3.0])
            got = windowed_attribution(trace, prod, cons, window, policy=policy)
            want = reference_attribution(
                sentence_intervals(trace), prod.matches, cons.matches, window, policy
            )
            assert (got.counts, got.pairs, got.unattributed) == want, (trial, window)


class TestStatsAndDiff:
    def test_trace_stats(self):
        rows = [
            (1.0, EventKind.ACTIVATE, A_SUM),
            (2.0, EventKind.DEACTIVATE, A_SUM),
            (3.0, EventKind.ACTIVATE, A_SUM),
            (5.0, EventKind.DEACTIVATE, A_SUM),
        ]
        stats = trace_stats(make_trace(rows))
        st = stats[A_SUM]
        assert (st.activations, st.active_time, st.first, st.last) == (2, 3.0, 1.0, 5.0)

    def test_diff_identical(self):
        rows = [(1.0, EventKind.ACTIVATE, A_SUM), (2.0, EventKind.DEACTIVATE, A_SUM)]
        diff = diff_traces(make_trace(rows), make_trace(rows))
        assert diff.is_identical()
        assert diff.unchanged == 1
        assert diff.level_deltas["HPF"] == (0, 0.0)

    def test_diff_reports_changes_and_exclusives(self):
        a = make_trace(
            [
                (1.0, EventKind.ACTIVATE, A_SUM),
                (2.0, EventKind.DEACTIVATE, A_SUM),
                (3.0, EventKind.ACTIVATE, B_SUM),
                (4.0, EventKind.DEACTIVATE, B_SUM),
            ]
        )
        b = make_trace(
            [
                (1.0, EventKind.ACTIVATE, A_SUM),
                (5.0, EventKind.DEACTIVATE, A_SUM),  # longer active time
                (6.0, EventKind.ACTIVATE, N0_SEND),
                (7.0, EventKind.DEACTIVATE, N0_SEND),
            ]
        )
        diff = diff_traces(a, b)
        assert not diff.is_identical()
        assert diff.only_a == [B_SUM]
        assert diff.only_b == [N0_SEND]
        assert [s for s, _a, _b in diff.changed] == [A_SUM]
        d_act, d_time = diff.level_deltas["HPF"]
        assert d_act == -1  # B_SUM's activation disappeared
        assert d_time == pytest.approx(3.0 - 1.0)  # A grew 3s, B lost its 1s
        assert diff.level_deltas["CMRTS"] == (1, pytest.approx(1.0))

    def test_time_tolerance_suppresses_jitter(self):
        a = make_trace([(1.0, EventKind.ACTIVATE, A_SUM), (2.0, EventKind.DEACTIVATE, A_SUM)])
        b = make_trace(
            [(1.0, EventKind.ACTIVATE, A_SUM), (2.0000001, EventKind.DEACTIVATE, A_SUM)]
        )
        assert not diff_traces(a, b).is_identical()
        assert diff_traces(a, b, time_tolerance=1e-6).is_identical()
