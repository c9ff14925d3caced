"""Persistent trace store with retrospective mapping.

The run's dynamic record -- SAS transitions, metric samples, dynamic
mappings -- recorded to a columnar ``.rtrcx`` file
(:class:`ColumnarTraceWriter`, :mod:`.columnar`): per-field arrays in
time-sorted segments with zone maps and embedded SAS snapshots, read via
mmap with :func:`open_trace` and O(log n) seeks.  Recorded runs are
analyzed post-mortem: live-identical Figure-6 question evaluation,
lag-windowed dynamic mappings that recover Figure 7's asynchronous
activations, and per-sentence run diffs (:mod:`.retro`).  The common scan
API (:mod:`.scan`) gives every retrospective consumer pushdown filtering
and parallel segment scans.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "codec": ("CodecError",),
        "columnar": (
            "ColumnarTraceReader", "ColumnarTraceWriter", "MappingEvent", "MetricSample",
            "SASState", "SegmentMeta", "open_trace",
        ),
        "retro": (
            "AttributionResult", "RetroAnswer", "SentenceStats", "TraceDiff", "WindowedMapping",
            "diff_traces", "evaluate_questions", "parse_pattern", "question_name",
            "sentence_intervals", "trace_stats", "windowed_attribution", "windowed_mappings",
        ),
        "scan": (
            "filtered_intervals", "matching_sids", "parallel_intervals", "question_sids",
        ),
    },
)
