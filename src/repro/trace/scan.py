"""The common trace-scan API: pushdown filtering + parallel segment scans.

Every retrospective consumer -- the question engine, ``windowed_*``
attribution, ``trace_stats``, the NV-lint sanitizer -- reduces to the same
primitive: *the activation events of an interesting subset of sentences,
over some time range*.  This module gives that primitive one front door,
and one implementation: the columnar reader's.  Any other source (an
in-memory :class:`~repro.core.events.Trace`, a bare event iterable) is
encoded once into an in-memory ``.rtrcx`` and read back
(:func:`_columnar`), so callers never branch on the source.

* :func:`matching_sids` evaluates pattern/predicate filters against a
  reader's **sentence table** (footer-resident, a few hundred entries)
  instead of against millions of events, turning an arbitrary Python
  predicate into a sentence-id set a columnar scan can push down;
* :func:`filtered_intervals` is :func:`~repro.trace.retro.sentence_intervals`
  with pushdown: per-sentence depth counting touches only the filtered
  sentences' rows (exact, because depth is per-sentence state), counted
  by sentence id over the raw transition columns; no event is built;
* :func:`feed_membership_changes` is the question replay's source: it
  hands only the membership changes a question engine acts on, as
  sentence ids, straight to the engine (:func:`membership_changes`
  yields them instead).  Over all nodes they are the rows the writer
  marked with :data:`~repro.trace.columnar.KIND_MEMBER`; for one node it
  counts that node's depth per sentence.  Every sid-filtered scan reads
  just the rows
  :meth:`~repro.trace.columnar.ColumnarTraceReader.segment_rows` takes
  from the segment's posting lists;
* :func:`parallel_intervals` fans contiguous segment ranges of a trace
  file across the sweep pool (:class:`~repro.sweep.runner.SweepRunner`),
  each worker running the serial scan's own loop: it seeds per-sentence
  depth from its first segment's embedded SAS snapshot, emits only
  intervals that *close* inside its range (each interval closes in
  exactly one segment, so the merge is concatenation), and the final
  range closes still-open intervals at the end time.  Results return as
  plain ``{sid: flat float list}`` data.  A trace held in memory has no
  file for a worker to reopen, so it is scanned serially.
"""

from __future__ import annotations

from io import BytesIO
from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..core.nouns import Sentence
from ..core.questions import OrderedQuestion, PerformanceQuestion, SentencePattern
from .codec import CodecError, encode_node
from .columnar import (
    ALL_NODES,
    KIND_ACTIVATE,
    KIND_MEMBER,
    ColumnarTraceReader,
    ColumnarTraceWriter,
)

__all__ = [
    "matching_sids",
    "question_sids",
    "feed_membership_changes",
    "membership_changes",
    "filtered_intervals",
    "parallel_intervals",
]

Matcher = Callable[[Sentence], bool] | SentencePattern


def _as_predicate(matcher: Matcher) -> Callable[[Sentence], bool]:
    if isinstance(matcher, SentencePattern):
        return matcher.matches
    return matcher


def matching_sids(
    sentences: Sequence[Sentence], matchers: Iterable[Matcher]
) -> frozenset[int]:
    """Sentence ids (table positions) matching *any* of ``matchers``.

    This is the pushdown pivot: filters are evaluated once against the
    interned sentence table, and scans thereafter compare integers.
    """
    preds = [_as_predicate(m) for m in matchers]
    return frozenset(
        i for i, sent in enumerate(sentences) if any(p(sent) for p in preds)
    )


def question_sids(
    sentences: Sequence[Sentence], questions, prune_dead: bool = False
) -> frozenset[int] | None:
    """The sentence-id set any of ``questions`` could ever observe.

    Watcher satisfaction only changes when a sentence matching one of the
    question's patterns transitions (``QNot`` included: its atoms still
    only *test* pattern matches), so replaying just these ids yields
    identical satisfied-times.

    ``prune_dead`` additionally drops every pattern of a *table-dead*
    conjunction -- a plain conjunctive or ordered question one of whose
    components matches no sentence in the table.  Such a question's
    satisfaction state can never flip (both watcher kinds count only
    state flips, and a conjunction with one never-active component stays
    unsatisfied forever), so its other components' events are replayed
    for nothing.  Boolean-expression questions (OR/NOT) are never pruned.
    Answers stay byte-identical either way.

    Returns ``None`` -- no pushdown -- when a
    question does not expose ``patterns()``.
    """
    patterns: list[SentencePattern] = []
    for q in questions:
        get = getattr(q, "patterns", None)
        if not callable(get):
            return None
        q_patterns = list(get())
        if (
            prune_dead
            and isinstance(q, (OrderedQuestion, PerformanceQuestion))
            and any(
                not any(p.matches(s) for s in sentences) for p in q.components
            )
        ):
            continue
        patterns.extend(q_patterns)
    return matching_sids(sentences, patterns)


def _columnar(source) -> ColumnarTraceReader:
    """``source`` as a columnar reader: a reader as it is; anything else (an
    in-memory trace, an event iterable) recorded once by
    :meth:`~repro.trace.columnar.ColumnarTraceWriter.record_trace` into an
    in-memory ``.rtrcx`` and read back.  The writer checks the events as
    it does a recording's: a deactivation with no activation on its node,
    or time going backwards, raises ``ValueError``."""
    if isinstance(source, ColumnarTraceReader):
        return source
    buf = BytesIO()
    with ColumnarTraceWriter(buf) as writer:
        writer.record_trace(source)
    return ColumnarTraceReader(buf.getvalue())


def filtered_intervals(
    source,
    matchers: Iterable[Matcher] | None = None,
    end_time: float | None = None,
) -> dict[Sentence, list[tuple[float, float]]]:
    """Flattened activation intervals, restricted to matching sentences.

    Equivalent to :func:`~repro.trace.retro.sentence_intervals` followed by
    dropping non-matching sentences -- but computed *without* reading the
    non-matching sentences' rows, because per-sentence depth counting
    never looks across sentences.  Still-open activations close at
    ``end_time`` (default: the last transition's time **of the whole
    trace**, filtered or not, matching the unfiltered semantics).  Keys
    come in first-activation order.

    Intervals are flattened by sentence id, straight from the transition
    columns (:func:`_flatten_segments`, the loop the parallel scan runs
    too); no :class:`~repro.core.events.SentenceEvent` is built.
    """
    reader = _columnar(source)
    sids, indices, end = _columnar_plan(reader, matchers, end_time)
    return _sentence_keyed(reader, _flatten_segments(reader, indices, sids, end))


# ----------------------------------------------------------------------
# columnar flattening: one loop, serial and parallel
# ----------------------------------------------------------------------
def _columnar_plan(reader, matchers, end_time):
    """``(sids, segment indices, close time)`` of a columnar flattening:
    the matching sentence ids (``None``: all), the zone-map-kept segments
    holding transitions, and where still-open intervals close."""
    sids = (
        matching_sids(reader.sentences, matchers) if matchers is not None else None
    )
    indices = [i for i in reader.prune_segments(sids=sids) if reader.segments[i].n_trans]
    if end_time is None:
        end_time = reader.last_transition_time()
    return sids, indices, end_time if end_time is not None else 0.0


def _flatten_segments(
    reader, indices: Sequence[int], sids, close_at: float | None
) -> dict[int, list[float]]:
    """Flatten intervals over a run of segments of a columnar reader.

    Depth and open-interval starts come from the first segment's embedded
    snapshot (restricted to ``sids``; ``None`` keeps every sentence), so a
    range replays with no dependency on earlier segments.  A sentence is
    filed at its first activation, the serial scan's key order; one open
    when the range starts is filed first, but an earlier range activated
    it, so a merge of ranges in order that keeps first-seen keys keeps the
    serial order.  Only intervals that *close* in the range are emitted --
    plus, when ``close_at`` is given (the final range), the still-open ones
    at that time.  Returns plain data, as a sweep task must:
    ``{sid: [s0, e0, s1, e1, ...]}``.
    """
    out: dict[int, list[float]] = {}
    if not indices:
        return out
    n = len(reader.sentences)
    depth = [0] * n
    start = [0.0] * n
    for sid, (d, s) in reader.segment_open_intervals(indices[0]).items():
        if sids is None or sid in sids:
            depth[sid] = d
            start[sid] = s
            out[sid] = []
    activate = KIND_ACTIVATE
    try:
        for idx in indices:
            times, seg_sids, kinds, _nodes = reader.segment_transitions(idx)
            if sids is None:
                rows = zip(times, seg_sids, kinds)
            else:
                rows = _select(reader.segment_rows(idx, sids), times, seg_sids, kinds)
            for t, sid, kind in rows:
                d = depth[sid]
                if kind & activate:
                    depth[sid] = d + 1
                    if not d:
                        start[sid] = t
                        if sid not in out:
                            out[sid] = []
                elif d == 1:
                    depth[sid] = 0
                    out[sid] += (start[sid], t)
                elif d:
                    depth[sid] = d - 1
                else:
                    raise ValueError(
                        f"deactivate without activate for {reader.sentences[sid]}"
                    )
    except IndexError as exc:
        raise CodecError(f"{reader.path}: sentence id out of range in a scan") from exc
    if close_at is not None:
        for sid, d in enumerate(depth):
            if d:
                out[sid] += (start[sid], close_at)
    return out


def _select(rows: Sequence[int], *columns) -> Iterator[tuple]:
    """The ``rows`` of ``columns``, zipped (one C-level ``itemgetter`` call
    per column; every row is the columns themselves)."""
    if rows == range(len(columns[0])):
        return zip(*columns)
    if len(rows) < 2:  # itemgetter returns a bare item for one row
        return zip(*([col[row] for row in rows] for col in columns))
    return zip(*map(itemgetter(*rows), columns))


def feed_membership_changes(
    reader,
    sids: frozenset[int] | None,
    node: Any,
    change: Callable[[int, bool, float], None],
    chunk: int = 0,
) -> Iterator[None]:
    """Call ``change(sid, joined, time)`` for each membership change of the
    ``sids`` sentences (``None``: all) in a columnar reader's transitions
    (``node``'s only, unless :data:`~repro.trace.columnar.ALL_NODES`), in
    recorded order.

    Only the rows :meth:`~repro.trace.columnar.ColumnarTraceReader.segment_rows`
    takes from the zone-map-kept segments' posting lists are read.  Over
    all nodes the changes are the rows the writer marked
    :data:`~repro.trace.columnar.KIND_MEMBER`, checked to alternate between
    join and leave per sentence; for one node, depth counts per sentence
    id over that node's rows.  Either way only the outermost activation
    (0 -> 1) and the last deactivation (1 -> 0) reach ``change``, with the
    reader's sentence ids -- what a live SAS hands its engine
    (:meth:`~repro.core.multiq.MultiQuestionEngine.membership_change_sid`)
    for the same transitions, with no event or sentence touched.  A
    generator: it yields after every ``chunk`` changes (never when
    ``chunk`` is 0, so one ``next`` runs the whole replay).

    A change that does not alternate (a corrupt KIND byte) raises
    ``ValueError``; a sentence id or row past its column, ``CodecError``.
    """
    sentences = reader.sentences
    want = None if node is ALL_NODES else encode_node(node)
    member = bytearray(len(sentences))  # all nodes: 1 while a member
    depth = [0] * len(sentences)  # one node: its activation depth
    activate, changes = KIND_ACTIVATE, KIND_MEMBER
    fed = 0
    try:
        for i in reader.prune_segments(sids=sids):
            if not reader.segments[i].n_trans:
                continue
            times, seg_sids, kinds, nodes = reader.segment_transitions(i)
            rows = reader.segment_rows(i, sids)
            if want is None:
                for t, sid, kind in _select(rows, times, seg_sids, kinds):
                    if not kind & changes:
                        continue
                    joined = kind & activate == activate
                    if member[sid] == joined:
                        what = "activate of active" if joined else "deactivate of non-active"
                        raise ValueError(f"{what} sentence {sentences[sid]}")
                    member[sid] = joined
                    change(sid, joined, t)
                    if chunk:
                        fed += 1
                        if fed == chunk:
                            fed = 0
                            yield
                continue
            rows = [row for row in rows if nodes[row] == want]
            for t, sid, kind in _select(rows, times, seg_sids, kinds):
                d = depth[sid]
                if kind & activate:
                    depth[sid] = d + 1
                    if d:
                        continue
                    change(sid, True, t)
                elif d == 1:
                    depth[sid] = 0
                    change(sid, False, t)
                elif d:
                    depth[sid] = d - 1
                    continue
                else:
                    raise ValueError(f"deactivate of non-active sentence {sentences[sid]}")
                if chunk:
                    fed += 1
                    if fed == chunk:
                        fed = 0
                        yield
    except IndexError as exc:
        raise CodecError(f"{reader.path}: sentence id out of range in a replay") from exc


def membership_changes(
    reader, sids: frozenset[int] | None, node: Any = ALL_NODES
) -> Iterator[tuple[int, bool, float]]:
    """``(sid, joined, time)`` for each change
    :func:`feed_membership_changes` finds, in recorded order."""
    changes: list[tuple[int, bool, float]] = []
    add = changes.append
    for _ in feed_membership_changes(
        reader, sids, node, lambda sid, joined, t: add((sid, joined, t)), chunk=4096
    ):
        yield from changes
        changes.clear()
    yield from changes


def _sentence_keyed(reader, flat_by_sid: dict[int, list[float]]):
    sentences = reader.sentences
    return {
        sentences[sid]: list(zip(flat[::2], flat[1::2]))
        for sid, flat in flat_by_sid.items()
    }


# ----------------------------------------------------------------------
# parallel segment scans (trace files only)
# ----------------------------------------------------------------------
#: per-process reader cache: workers reopen each trace file once, then
#: every chunk routed to that worker reuses the mmap
_READER_CACHE: dict[str, Any] = {}


def _cached_reader(path: str):
    reader = _READER_CACHE.get(path)
    if reader is None:
        reader = _READER_CACHE[path] = ColumnarTraceReader(path)
    return reader


def _scan_segments_task(
    path: str,
    indices: tuple[int, ...],
    sids: tuple[int, ...] | None,
    close_at: float | None,
) -> dict[int, list[float]]:
    """Sweep-task body: :func:`_flatten_segments` over one segment range."""
    wanted = frozenset(sids) if sids is not None else None
    return _flatten_segments(_cached_reader(path), indices, wanted, close_at)


def parallel_intervals(
    reader,
    matchers: Iterable[Matcher] | None = None,
    end_time: float | None = None,
    jobs: int | None = None,
    runner=None,
) -> dict[Sentence, list[tuple[float, float]]]:
    """:func:`filtered_intervals` fanned across the sweep worker pool.

    Segments are the unit of independence, and each worker reopens the
    trace file; a trace held in memory (an in-memory reader, or a source
    :func:`_columnar` encodes) has no file to reopen, so it is scanned
    serially and no pool is started.  Zone-map pruning happens *before* fan-out, so workers never open a
    segment with no matching sentence.  Each worker runs the serial scan's
    own loop (:func:`_flatten_segments`) over a contiguous segment range,
    and the merge concatenates per-range results in range order, keeping
    each sentence where it was first seen: each interval closes in exactly
    one segment, and each sentence is filed at its first activation, so
    the output equals the serial one, key order included.  When a range
    fails (a corrupt or inconsistent segment), the trace is rescanned
    serially, so the caller sees the serial scan's own error.
    """
    reader = _columnar(reader)
    if reader.in_memory:
        return filtered_intervals(reader, matchers, end_time)
    sids, pruned, close = _columnar_plan(reader, matchers, end_time)
    if not pruned:
        return {}
    if runner is None:
        from ..sweep.runner import SweepRunner

        runner = SweepRunner(workers=jobs)
    nranges = min(runner.workers * 2, len(pruned))
    if nranges <= 1:
        return _sentence_keyed(reader, _flatten_segments(reader, pruned, sids, close))
    bounds = [round(k * len(pruned) / nranges) for k in range(nranges + 1)]
    ranges = [
        tuple(pruned[bounds[k] : bounds[k + 1]])
        for k in range(nranges)
        if bounds[k] < bounds[k + 1]
    ]
    from ..sweep.runner import SweepTask, SweepWorkerError

    sid_arg = tuple(sorted(sids)) if sids is not None else None
    tasks = [
        SweepTask(
            key=f"scan:{reader.path}:{k}",
            fn=_scan_segments_task,
            args=(reader.path, rng, sid_arg, close if k == len(ranges) - 1 else None),
        )
        for k, rng in enumerate(ranges)
    ]
    try:
        results = runner.run(tasks)
    except SweepWorkerError as exc:
        if exc.key == "<pool>":  # a dead worker, not a bad range
            raise
        return filtered_intervals(reader, matchers, end_time)
    merged: dict[int, list[float]] = {}
    for result in results:
        for sid, flat in result.value.items():
            merged.setdefault(sid, []).extend(flat)
    return _sentence_keyed(reader, merged)
