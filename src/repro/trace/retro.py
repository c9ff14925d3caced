"""Retrospective analysis over recorded traces.

The live SAS answers performance questions *as the run happens*; this module
answers them *after* the run, from a recorded history (a
:class:`~repro.trace.store.TraceReader`, an in-memory
:class:`~repro.core.events.Trace`, or any event iterable):

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

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from ..core.events import EventKind, SentenceEvent
from ..core.multiq import MultiQuestionEngine
from ..core.nouns import Sentence
from ..core.questions import OrderedQuestion, PerformanceQuestion, QExpr, SentencePattern
from .scan import filtered_intervals, parallel_intervals, question_sids
from .store import ALL_NODES

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
    "sentence_intervals",
    "windowed_mappings",
    "windowed_attribution",
    "trace_stats",
    "diff_traces",
]

Matcher = Callable[[Sentence], bool] | SentencePattern


def _as_matcher(matcher: Matcher) -> Callable[[Sentence], bool]:
    if isinstance(matcher, SentencePattern):
        return matcher.matches
    return matcher


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


def _iter_events(source) -> Iterable[SentenceEvent]:
    """Accept a TraceReader, Trace, or any SentenceEvent iterable."""
    events = getattr(source, "events", None)
    if callable(events):
        return events()
    return source


@dataclass
class RetroAnswer:
    """Post-mortem answer to one performance question."""

    name: str
    satisfied_time: float
    transitions: int
    satisfied_at_end: bool
    end_time: float


def batch_event_plan(
    source,
    questions: Sequence[PerformanceQuestion | QExpr | OrderedQuestion],
    end_time: float | None = None,
    node: int | None = None,
):
    """Pick the replay source for a whole question batch at once.

    Pushdown fast path: replay only the sentences the questions' patterns
    can observe (satisfaction cannot depend on any other sentence), as one
    union sentence-id set for *all* questions, so a columnar reader answers
    the entire batch in a single zone-map-pruned pass.  When the caller
    leaves ``end_time`` defaulted, the default is the last *replayed*
    event's time, which a filtered replay would change -- so it comes from
    the reader's transitions-only bound instead, and sources where that
    bound is a full extra walk (no ``end_time`` and a node filter) keep
    the plain replay.  Returns ``(events, node_filtered, end)`` where
    ``events`` is the transition iterable, ``node_filtered`` says the
    source already applied the ``node`` filter, and ``end`` is the
    resolved end time (``None`` means "last replayed event's time",
    resolved by the caller).
    """
    end = end_time
    if hasattr(source, "scan_transitions") and (end_time is not None or node is None):
        # static reachability shrinks the union scan set: a table-dead
        # conjunction can never flip, so its patterns' events need not
        # be replayed at all (answers stay byte-identical; pinned by
        # tests/trace/test_retro_batch.py)
        sids = question_sids(source.sentences, questions, prune_dead=True)
        if sids is not None:
            if end is None:
                last_t = source.last_transition_time()
                end = last_t if last_t is not None else 0.0
            events = source.scan_transitions(
                sids=sids, node=ALL_NODES if node is None else node
            )
            return events, True, end
    return _iter_events(source), False, end


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
    transitions, stamped with their recorded times, are fed through it
    once, so watcher satisfied-times accumulate exactly as they did live.
    ``node`` filters to one recording node's events (a multi-node file
    replayed whole feeds every node's transitions into one membership set,
    which is only meaningful if that is also how the live run was wired).
    Open satisfied intervals are closed at ``end_time`` (default: the last
    replayed event's time).

    Pass ``shards`` to partition pattern nodes across consistent-hash
    shards, or a pre-built ``engine`` to reuse one (e.g. the ``repro
    serve`` session engine with subscriptions already attached).

    Answers are keyed by :func:`question_name`, so one name may denote
    only one question: structurally equal duplicates share an answer, and
    a name shared by two different questions raises ``ValueError``.
    """
    eng = engine if engine is not None else MultiQuestionEngine(shards=shards)
    subs = [(question_name(q), eng.subscribe(q)) for q in questions]
    keys: dict[str, tuple] = {}
    for name, sub in subs:
        if keys.setdefault(name, sub.key) != sub.key:
            raise ValueError(f'question name "{name}" is used for two different questions')
    events, node_filtered, end = batch_event_plan(source, questions, end_time, node)
    last = 0.0
    for event in events:
        if not node_filtered and node is not None and event.node_id != node:
            continue
        last = event.time
        eng.transition(event.sentence, event.kind is EventKind.ACTIVATE, event.time)
    if end is None:
        end = last
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

    ``matchers`` restricts the output to matching sentences -- on a
    columnar reader the scan then *decodes* only those sentences' events
    (zone-map segment pruning + sentence-id pushdown); ``jobs > 1``
    additionally fans segment ranges across the sweep worker pool.
    """
    if jobs is not None and jobs > 1 and hasattr(source, "segment_transitions"):
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


def _sorted_with_ends(
    ivs: list[tuple[float, float]],
) -> tuple[list[tuple[float, float]], list[float] | None]:
    """Destination intervals prepared for :func:`_window_overlaps`: sorted
    by start, plus their end times when those are also non-decreasing
    (always true for flattened -- disjoint -- intervals), else ``None``."""
    ivs = sorted(ivs)
    ends = [d1 for _, d1 in ivs]
    if any(a > b for a, b in zip(ends, ends[1:])):
        return ivs, None  # overlapping input: early-break only, no bisect
    return ivs, ends


def _window_overlaps(
    src_ivs: list[tuple[float, float]],
    dst_ivs: list[tuple[float, float]],
    window: float,
    _dst_prepared: tuple[list[tuple[float, float]], list[float] | None] | None = None,
) -> tuple[int, float]:
    """(matched pair count, min lag) of dst intervals starting within
    ``window`` after a src interval (or overlapping it).

    The seed version cross-multiplied every (src, dst) interval pair --
    O(I^2) per sentence pair and the Figure-7 bottleneck on long runs.
    With destinations sorted by start, each source interval scans only
    ``d1 >= s0`` (bisect on the sorted end times) through ``d0 <= s1 +
    window`` (early break), i.e. exactly the matching span.
    """
    count = 0
    min_lag = float("inf")
    dst, ends = _sorted_with_ends(dst_ivs) if _dst_prepared is None else _dst_prepared
    for s0, s1 in src_ivs:
        lo = bisect_left(ends, s0) if ends is not None else 0
        hi_t = s1 + window
        for j in range(lo, len(dst)):
            d0, d1 = dst[j]
            if d0 > hi_t:
                break  # starts are sorted: no later dst can match
            if d1 >= s0:
                count += 1
                lag = d0 - s1
                if lag < min_lag:
                    min_lag = lag if lag > 0.0 else 0.0
    return count, min_lag


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
    sentences never map to themselves).

    ``jobs > 1`` computes the intervals with the parallel segment scan
    (columnar sources only; everything downstream is unchanged).
    """
    matchers = (
        [src_filter, dst_filter]
        if src_filter is not None and dst_filter is not None
        else None  # either role unfiltered: every sentence participates
    )
    intervals = sentence_intervals(source, end_time, matchers=matchers, jobs=jobs)
    src_ok = _as_matcher(src_filter) if src_filter is not None else lambda s: True
    dst_ok = _as_matcher(dst_filter) if dst_filter is not None else lambda s: True
    sources = {s: ivs for s, ivs in intervals.items() if src_ok(s)}
    dests = {s: _sorted_with_ends(ivs) for s, ivs in intervals.items() if dst_ok(s)}
    out: list[WindowedMapping] = []
    for src, src_ivs in sources.items():
        for dst, dst_prep in dests.items():
            if src == dst:
                continue
            count, lag = _window_overlaps(src_ivs, dst_prep[0], window, dst_prep)
            if count:
                out.append(WindowedMapping(src, dst, lag, count))
    return out


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
    """
    if policy not in ("fifo", "all"):
        raise ValueError(f"unknown attribution policy {policy!r}")
    # both roles are mandatory filters, so the scan decodes only their
    # sentences' events (and prunes segments touching neither)
    intervals = sentence_intervals(
        source, end_time, matchers=[producer, consumer], jobs=jobs
    )
    prod_ok = _as_matcher(producer)
    cons_ok = _as_matcher(consumer)
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
    consumed = [False] * len(prods)
    for c0, _c1, csent in cons:
        matched = False
        for i, (p0, p1, psent) in enumerate(prods):
            if policy == "fifo" and consumed[i]:
                continue
            if p0 <= c0 <= p1 + window:
                bucket = keyfn(psent)
                counts[bucket] = counts.get(bucket, 0) + 1
                pairs.append((psent, csent, max(0.0, c0 - p1)))
                matched = True
                if policy == "fifo":
                    consumed[i] = True
                    break
        if not matched:
            unattributed += 1
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
