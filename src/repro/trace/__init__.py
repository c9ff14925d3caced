"""Persistent trace store with retrospective mapping.

The run's dynamic record -- SAS transitions, metric samples, dynamic
mappings -- recorded to a compact binary ``.rtrc`` file
(:class:`TraceWriter`), read back with indexed O(log n) seeks
(:class:`TraceReader`), and analyzed post-mortem: live-identical Figure-6
question evaluation, lag-windowed dynamic mappings that recover Figure 7's
asynchronous activations, and per-sentence run diffs (:mod:`.retro`).

The chunked columnar ``.rtrcx`` layout (:mod:`.columnar`) stores the same
record per field, in time-sorted segments with zone maps and embedded SAS
snapshots, read via mmap; :func:`open_trace` dispatches on a file's magic
bytes and :func:`convert` moves runs losslessly between the two layouts.
The common scan API (:mod:`.scan`) gives every retrospective consumer
pushdown filtering and -- on columnar files -- parallel segment scans.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "codec": ("CodecError",),
        "columnar": (
            "ColumnarTraceReader", "ColumnarTraceWriter", "SegmentMeta", "convert", "open_trace",
        ),
        "retro": (
            "AttributionResult", "RetroAnswer", "SentenceStats", "TraceDiff", "WindowedMapping",
            "diff_traces", "evaluate_questions", "parse_pattern", "question_name",
            "sentence_intervals", "trace_stats", "windowed_attribution", "windowed_mappings",
        ),
        "scan": (
            "filtered_intervals", "matching_sids", "parallel_intervals", "question_sids",
            "scan_transitions",
        ),
        "store": ("MappingEvent", "MetricSample", "SASState", "TraceReader", "TraceWriter"),
    },
)
