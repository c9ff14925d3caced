"""Retrospective analysis over recorded traces.

The live SAS answers performance questions *as the run happens*; this module
answers them *after* the run, from a recorded history (a
:class:`~repro.trace.columnar.ColumnarTraceReader`, or an in-memory
:class:`~repro.core.events.Trace` or any event iterable, which is encoded
into an in-memory ``.rtrcx`` first: every answer comes from one columnar
replay):

* :func:`evaluate_question_batch` (also exported as
  :func:`evaluate_questions`) replays the recorded transitions, stamped
  with their recorded times, through the same
  :class:`~repro.core.multiq.MultiQuestionEngine` a live SAS evaluates its
  questions with, so every Figure-6 question's satisfied-time comes out
  *identical* to what its live :class:`~repro.core.multiq.QuestionWatcher`
  accumulated on the same run -- equality by construction, not
  approximation (asserted in abl9);
* :func:`windowed_mappings` and :func:`windowed_attribution` extend the
  paper's co-activity rule with a configurable **lag window**: sentence B
  maps to sentence A if B becomes active within ``window`` seconds of A's
  activation interval.  ``window=0`` degenerates to the live SAS's
  concurrent-containment rule; a positive window recovers Figure 7's
  asynchronous activations (the deferred disk write that the live SAS can
  no longer attribute because func() already returned);
* :func:`trace_stats` / :func:`diff_traces` summarize and compare runs per
  sentence and per level of abstraction (the ``repro trace diff`` tool).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from itertools import chain
from typing import Callable, Sequence

from ..core.multiq import MultiQuestionEngine
from ..core.nouns import Sentence, SentenceTable
from ..core.questions import OrderedQuestion, PerformanceQuestion, QExpr, SentencePattern
from .columnar import ALL_NODES
from .scan import (
    Matcher,
    _as_predicate,
    _columnar,
    feed_membership_changes,
    filtered_intervals,
    membership_changes,
    parallel_intervals,
    question_sids,
)

__all__ = [
    "RetroAnswer",
    "WindowedMapping",
    "AttributionResult",
    "SentenceStats",
    "TraceDiff",
    "parse_pattern",
    "question_name",
    "evaluate_questions",
    "evaluate_question_batch",
    "replay_batch",
    "sentence_intervals",
    "windowed_mappings",
    "windowed_attribution",
    "trace_stats",
    "diff_traces",
]

def parse_pattern(text: str) -> SentencePattern:
    """Parse the Figure-6 rendering back into a pattern.

    ``"{A Sum}"`` -> nouns ``("A",)``, verb ``Sum``; an optional
    ``"@Level"`` suffix outside the braces constrains the level:
    ``"{disk0 DiskWrite}@UNIX Kernel"``.  The last token inside the braces
    is the verb (matching ``SentencePattern.__str__``), everything before
    it is a noun; ``?`` wildcards pass through.
    """
    text = text.strip()
    level: str | None = None
    if "}" in text:
        body, _, suffix = text.partition("}")
        body = body.lstrip("{").strip()
        suffix = suffix.strip()
        if suffix.startswith("@"):
            level = suffix[1:].strip() or None
        elif suffix:
            raise ValueError(f"bad pattern suffix {suffix!r} (use @Level)")
    else:
        body = text.strip("{} ")
    tokens = body.split()
    if not tokens:
        raise ValueError(f"empty sentence pattern {text!r}")
    return SentencePattern(tokens[-1], tuple(tokens[:-1]), level)


def question_name(question: PerformanceQuestion | QExpr | OrderedQuestion) -> str:
    """The stable key a question's retro answer is reported under."""
    return getattr(question, "name", None) or str(question)


@dataclass
class RetroAnswer:
    """Post-mortem answer to one performance question."""

    name: str
    satisfied_time: float
    transitions: int
    satisfied_at_end: bool
    end_time: float


def _sid_plan(reader, questions, end_time, node):
    """``(sids, node, end)`` of a columnar replay: the union sentence-id
    set of the questions, the node filter (``ALL_NODES``: none) and the
    resolved end time."""
    # static reachability shrinks the union scan set: a table-dead
    # conjunction can never flip, so its patterns' events need not be
    # replayed at all (answers stay byte-identical; pinned by
    # tests/trace/test_retro_batch.py)
    sids = question_sids(reader.sentences, questions, prune_dead=True)
    want = ALL_NODES if node is None else node
    if end_time is None:
        last_t = reader.last_transition_time(node=want)
        end_time = last_t if last_t is not None else 0.0
    return sids, want, end_time


def batch_event_plan(
    source,
    questions: Sequence[PerformanceQuestion | QExpr | OrderedQuestion],
    end_time: float | None = None,
    node: int | None = None,
):
    """Pick the replay of a whole question batch at once.

    The replay goes by sentence id: only the sentences the questions'
    patterns can observe matter (satisfaction cannot depend on any other
    sentence), as one union sentence-id set for *all* questions, so the
    entire batch is answered in one zone-map-pruned pass that reads only
    the rows holding those ids, node filter included, and yields their
    membership changes (:func:`~repro.trace.scan.membership_changes`); no
    event is built.  A source that is not a columnar reader is encoded
    into an in-memory one first.  When the caller leaves ``end_time``
    defaulted, the default is the last *replayed* transition's time, which
    a filtered replay would change -- so it comes from the reader's
    transitions-only bound instead (for a node filter, that node's last
    transition, found by walking the segments backwards; 0.0 when the node
    has none).

    Returns ``(changes, node_filtered, end)``: the membership changes
    ``(sid, joined, time)``, ``node`` filter applied; ``node_filtered``,
    which is always ``True`` (every replay is pushed down); and the
    resolved end time.
    """
    reader = _columnar(source)
    sids, want, end = _sid_plan(reader, questions, end_time, node)
    return membership_changes(reader, sids, want), True, end


def replay_batch(
    engine: MultiQuestionEngine,
    source,
    questions: Sequence[PerformanceQuestion | QExpr | OrderedQuestion],
    end_time: float | None = None,
    node: int | None = None,
    chunk: int = 0,
):
    """Replay the :func:`batch_event_plan` of ``questions`` into ``engine``.

    A generator: it yields after every ``chunk`` membership changes it
    fed, never when ``chunk`` is 0, so an asynchronous caller (``repro
    serve``) can flush streamed intervals between chunks; it returns the
    end time answers close at.  The engine, which must be fresh, is bound
    to the reader's sentence table, and the membership changes go by
    sentence id straight to
    :meth:`~repro.core.multiq.MultiQuestionEngine.membership_change_sid`,
    which a live SAS feeds too
    (:func:`~repro.trace.scan.feed_membership_changes`).
    """
    reader = _columnar(source)
    sids, want, end = _sid_plan(reader, questions, end_time, node)
    engine.table = SentenceTable(reader.sentences)
    yield from feed_membership_changes(
        reader, sids, want, engine.membership_change_sid, chunk
    )
    return end


def evaluate_question_batch(
    source,
    questions: Sequence[PerformanceQuestion | QExpr | OrderedQuestion],
    end_time: float | None = None,
    node: int | None = None,
    shards: int = 1,
    engine: MultiQuestionEngine | None = None,
) -> dict[str, RetroAnswer]:
    """Evaluate questions over recorded history, as if they had been live.

    All questions compile into one shared
    :class:`~repro.core.multiq.MultiQuestionEngine` plan (interned patterns,
    subsumption-pruned matching, per-question dirty bits), and the recorded
    history, stamped with its recorded times, is replayed through it once
    (:func:`replay_batch`: by sentence id), so watcher
    satisfied-times accumulate exactly as they did live.  ``node`` filters
    to one recording node's transitions (a multi-node file replayed whole
    feeds every node's transitions into one membership set, which is only
    meaningful if that is also how the live run was wired).  Open
    satisfied intervals are closed at ``end_time`` (default: the last
    replayed transition's time).

    Pass ``shards`` to partition pattern nodes across consistent-hash
    shards, or a pre-built ``engine`` with subscriptions already attached.
    That engine must be :attr:`~repro.core.multiq.MultiQuestionEngine.fresh`:
    one with members (seeded, attached or replayed) or with a membership
    change behind it would nest this replay into that state, so it is
    rejected with ``ValueError``.

    Answers are keyed by :func:`question_name`, so one name may denote
    only one question: structurally equal duplicates share an answer, and
    a name shared by two different questions raises ``ValueError``.
    """
    if engine is not None and not engine.fresh:
        raise ValueError(
            "engine already has members or membership changes; pass a fresh one"
        )
    eng = engine if engine is not None else MultiQuestionEngine(shards=shards)
    subs = [(question_name(q), eng.subscribe(q)) for q in questions]
    keys: dict[str, tuple] = {}
    for name, sub in subs:
        if keys.setdefault(name, sub.key) != sub.key:
            raise ValueError(f'question name "{name}" is used for two different questions')
    try:
        next(replay_batch(eng, source, questions, end_time, node))
    except StopIteration as done:  # chunk 0: the replay runs to its end
        end = done.value
    return {
        name: RetroAnswer(
            name=name,
            satisfied_time=sub.watcher.total_satisfied_time(end),
            transitions=sub.watcher.transitions,
            satisfied_at_end=sub.watcher.satisfied,
            end_time=end,
        )
        for name, sub in subs
    }


#: The single-question spelling of :func:`evaluate_question_batch` (the
#: same function: one question is a batch of one).
evaluate_questions = evaluate_question_batch


def sentence_intervals(
    source,
    end_time: float | None = None,
    matchers: Sequence[Matcher] | None = None,
    jobs: int | None = None,
) -> dict[Sentence, list[tuple[float, float]]]:
    """Flattened activation intervals, via the common scan API.

    Re-entrant activations flatten to the outermost interval (the
    :meth:`~repro.core.events.Trace.intervals` semantics, applied to all
    sentences at once); multi-node records merge into one timeline per
    sentence with per-sentence depth counting across nodes.  Still-open
    activations close at ``end_time`` (default: the last event's time).

    ``matchers`` restricts the output to matching sentences -- the scan
    then *reads* only those sentences' rows (zone-map segment pruning +
    sentence-id pushdown); ``jobs > 1`` additionally fans the segment
    ranges of a trace file across the sweep worker pool.
    """
    if jobs is not None and jobs > 1:
        return parallel_intervals(source, matchers, end_time, jobs=jobs)
    return filtered_intervals(source, matchers, end_time)


@dataclass(frozen=True)
class WindowedMapping:
    """A retrospective dynamic mapping between two sentences.

    ``lag`` is the smallest gap observed between a source interval's end and
    a destination interval's start among the matched pairs -- 0.0 means the
    two were concurrently active at least once (what the live SAS sees);
    positive lag means the mapping only exists because of the window.
    """

    source: Sentence
    destination: Sentence
    lag: float
    overlaps: int


def _window_pairs(
    sources: Sequence[Sequence[tuple[float, float]]],
    dests: Sequence[Sequence[tuple[float, float]]],
    window: float,
) -> tuple[list[list[int]], list[list[float]]]:
    """Windowed pairing of every source with every destination.

    ``counts[j][i]`` counts the (source-``i`` interval ``[s0, s1]``,
    destination-``j`` interval ``[d0, d1]``) pairs with ``d1 >= s0`` and
    ``d0 <= s1 + window``; ``lags[j][i]`` is their smallest ``d0 - s1``,
    clamped at 0.0 (``inf`` when there are none).  Per destination, two
    ``searchsorted`` calls over all source intervals give the count,
    ``#(d0 <= s1 + window) - #(d1 < s0)`` (exact when ``window >= 0`` or
    the destinations do not overlap), and, through a suffix minimum of the
    end-sorted starts, the smallest matched start; ``reduceat`` folds each
    source's intervals.  DESIGN §8 derives both identities; monotone float
    arithmetic makes each lag bit-equal to the pair-by-pair minimum.
    """
    import numpy as np

    sizes = np.array([len(ivs) for ivs in sources], dtype=np.int64)
    flat = np.fromiter(
        chain.from_iterable(chain.from_iterable(sources)),
        dtype=np.float64,
        count=2 * int(sizes.sum()),
    ).reshape(-1, 2)
    s0, s1 = flat[:, 0], flat[:, 1]
    hi = s1 + window
    # reduceat folds from one offset to the next, so fold the sources that
    # have intervals; the others keep 0 and inf
    live = sizes > 0
    offsets = (np.cumsum(sizes) - sizes)[live]
    counts: list[list[int]] = []
    lags: list[list[float]] = []
    for ivs in dests:
        d = np.array(ivs, dtype=np.float64).reshape(-1, 2)
        by_end = np.argsort(d[:, 1], kind="stable")
        ended = np.searchsorted(d[by_end, 1], s0, side="left")  # #(d1 < s0)
        cnt = np.searchsorted(np.sort(d[:, 0]), hi, side="right")
        cnt -= ended
        np.maximum(cnt, 0, out=cnt)
        # suffix minimum of the end-sorted starts, then inf past the last
        first = np.append(np.minimum.accumulate(d[by_end, 0][::-1])[::-1], np.inf)
        lag = first[ended]
        lag -= s1
        lag[cnt == 0] = np.inf
        per_count = np.zeros(len(sizes), dtype=np.int64)
        per_lag = np.full(len(sizes), np.inf)
        per_count[live] = np.add.reduceat(cnt, offsets)
        per_lag[live] = np.minimum.reduceat(lag, offsets)
        counts.append(per_count.tolist())
        lags.append([x if x > 0.0 else 0.0 for x in per_lag.tolist()])
    return counts, lags


def windowed_mappings(
    source,
    window: float = 0.0,
    src_filter: Matcher | None = None,
    dst_filter: Matcher | None = None,
    end_time: float | None = None,
    jobs: int | None = None,
) -> list[WindowedMapping]:
    """Dynamic mappings over recorded history, with a lag window.

    The paper's rule ("any two sentences contained in the SAS concurrently
    are considered to dynamically map to one another") is the ``window=0``
    case: source and destination intervals overlap.  A positive ``window``
    additionally maps destinations that activate within ``window`` seconds
    *after* the source deactivated -- the retrospective fix for Figure 7's
    asynchronous-activation limitation, impossible for the live SAS because
    by the time the destination activates the source is gone.

    ``src_filter`` / ``dst_filter`` are :class:`SentencePattern`\\ s or
    predicates restricting which sentences play each role (identical
    sentences never map to themselves).  Mappings come source by source,
    each source's destinations in first-activation order.

    ``jobs > 1`` computes the intervals with the parallel segment scan
    (trace files only; everything downstream is unchanged).
    """
    matchers = (
        [src_filter, dst_filter]
        if src_filter is not None and dst_filter is not None
        else None  # either role unfiltered: every sentence participates
    )
    intervals = sentence_intervals(source, end_time, matchers=matchers, jobs=jobs)
    src_ok = _as_predicate(src_filter) if src_filter is not None else lambda s: True
    dst_ok = _as_predicate(dst_filter) if dst_filter is not None else lambda s: True
    sources = [s for s in intervals if src_ok(s)]
    dests = [s for s in intervals if dst_ok(s)]
    counts, lags = _window_pairs(
        [intervals[s] for s in sources], [intervals[d] for d in dests], window
    )
    return [
        WindowedMapping(src, dst, lags[j][i], counts[j][i])
        for i, src in enumerate(sources)
        for j, dst in enumerate(dests)
        if counts[j][i] and src != dst
    ]


@dataclass
class AttributionResult:
    """Outcome of a windowed producer->consumer attribution."""

    counts: dict[str, int]
    unattributed: int
    pairs: list[tuple[Sentence, Sentence, float]] = field(default_factory=list)


def windowed_attribution(
    source,
    producer: Matcher,
    consumer: Matcher,
    window: float,
    policy: str = "fifo",
    key: Callable[[Sentence], str] | None = None,
    end_time: float | None = None,
    jobs: int | None = None,
) -> AttributionResult:
    """Attribute consumer occurrences to producer occurrences within a window.

    Producer intervals (e.g. outstanding ``WriteCall`` syscalls) are matched
    to consumer intervals (e.g. kernel ``DiskWrite``\\ s) whose start falls
    inside the producer interval or within ``window`` seconds after its end.

    ``policy="fifo"`` matches each consumer occurrence (in start order) to
    the *earliest-ending unconsumed* producer occurrence, one-to-one --
    correct whenever the deferred mechanism drains in creation order, as
    write-behind buffer flushing does, and exactly recovers Figure 7's
    ground truth.  ``policy="all"`` credits every producer whose window
    covers the consumer's start (the over-crediting upper bound, reported
    for contrast).

    ``key`` maps a producer sentence to its attribution bucket (default:
    the sentence's rendering).  Consumers matching no producer are counted
    in ``unattributed``.

    Consumers are swept in start order; fifo keeps the started, unconsumed
    producers on a heap ordered by (end, start) rank, so matching costs
    O((P + C) log P) for P producer and C consumer occurrences.
    """
    if policy not in ("fifo", "all"):
        raise ValueError(f"unknown attribution policy {policy!r}")
    # both roles are mandatory filters, so the scan decodes only their
    # sentences' events (and prunes segments touching neither)
    intervals = sentence_intervals(
        source, end_time, matchers=[producer, consumer], jobs=jobs
    )
    prod_ok = _as_predicate(producer)
    cons_ok = _as_predicate(consumer)
    keyfn = key if key is not None else str
    # one entry per occurrence (interval), not per sentence
    prods = sorted(
        ((s0, s1, sent) for sent, ivs in intervals.items() if prod_ok(sent) for s0, s1 in ivs),
        key=lambda p: (p[1], p[0]),
    )
    cons = sorted(
        ((c0, c1, sent) for sent, ivs in intervals.items() if cons_ok(sent) for c0, c1 in ivs),
        key=lambda c: (c[0], c[1]),
    )
    counts: dict[str, int] = {}
    pairs: list[tuple[Sentence, Sentence, float]] = []
    unattributed = 0
    # consumers come in start order, so a producer that has started stays
    # started, and one whose window has closed (p1 + window < c0) stays
    # closed; in rank order the closed producers are a prefix
    by_start = sorted(range(len(prods)), key=lambda i: prods[i][0])
    started = 0
    heap: list[int] = []  # fifo: started, unconsumed producers by rank
    closed = 0  # all: the closed rank prefix
    for c0, _c1, csent in cons:
        if policy == "fifo":
            while started < len(by_start) and prods[by_start[started]][0] <= c0:
                heappush(heap, by_start[started])
                started += 1
            while heap and prods[heap[0]][1] + window < c0:
                heappop(heap)
            hits = [prods[heappop(heap)]] if heap else []
        else:
            while closed < len(prods) and prods[closed][1] + window < c0:
                closed += 1
            hits = [p for p in prods[closed:] if p[0] <= c0]
        if not hits:
            unattributed += 1
        for _p0, p1, psent in hits:
            bucket = keyfn(psent)
            counts[bucket] = counts.get(bucket, 0) + 1
            pairs.append((psent, csent, max(0.0, c0 - p1)))
    return AttributionResult(counts=counts, unattributed=unattributed, pairs=pairs)


# ----------------------------------------------------------------------
# run stats and diffing
# ----------------------------------------------------------------------
@dataclass
class SentenceStats:
    """Per-sentence activity summary of one recorded run."""

    activations: int = 0
    active_time: float = 0.0
    first: float = 0.0
    last: float = 0.0


def trace_stats(
    source, end_time: float | None = None, jobs: int | None = None
) -> dict[Sentence, SentenceStats]:
    """Per-sentence activation counts and flattened active time."""
    stats: dict[Sentence, SentenceStats] = {}
    for sent, ivs in sentence_intervals(source, end_time, jobs=jobs).items():
        if not ivs:
            continue
        stats[sent] = SentenceStats(
            activations=len(ivs),
            active_time=sum(e - s for s, e in ivs),
            first=ivs[0][0],
            last=ivs[-1][1],
        )
    return stats


@dataclass
class TraceDiff:
    """Per-sentence and per-level comparison of two recorded runs."""

    only_a: list[Sentence]
    only_b: list[Sentence]
    changed: list[tuple[Sentence, SentenceStats, SentenceStats]]
    unchanged: int
    level_deltas: dict[str, tuple[int, float]]  # level -> (d activations, d time)

    def is_identical(self) -> bool:
        return not (self.only_a or self.only_b or self.changed)


def diff_traces(a, b, time_tolerance: float = 0.0) -> TraceDiff:
    """Compare two recorded runs sentence by sentence.

    A sentence counts as *changed* when its activation count differs or its
    total active time differs by more than ``time_tolerance``.  Level deltas
    aggregate ``b - a`` per level of abstraction over all sentences.
    """
    sa = trace_stats(a)
    sb = trace_stats(b)
    only_a = [s for s in sa if s not in sb]
    only_b = [s for s in sb if s not in sa]
    changed: list[tuple[Sentence, SentenceStats, SentenceStats]] = []
    unchanged = 0
    for sent, stat_a in sa.items():
        stat_b = sb.get(sent)
        if stat_b is None:
            continue
        if (
            stat_a.activations != stat_b.activations
            or abs(stat_a.active_time - stat_b.active_time) > time_tolerance
        ):
            changed.append((sent, stat_a, stat_b))
        else:
            unchanged += 1
    level_deltas: dict[str, tuple[int, float]] = {}
    for stats, sign in ((sa, -1), (sb, 1)):
        for sent, stat in stats.items():
            d_act, d_time = level_deltas.get(sent.abstraction, (0, 0.0))
            level_deltas[sent.abstraction] = (
                d_act + sign * stat.activations,
                d_time + sign * stat.active_time,
            )
    return TraceDiff(
        only_a=only_a,
        only_b=only_b,
        changed=changed,
        unchanged=unchanged,
        level_deltas=level_deltas,
    )
