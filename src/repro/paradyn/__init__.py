"""Paradyn: the performance measurement tool (Sections 5-6).

Per-node daemons, the Data Manager merging static (PIF) and dynamic mapping
information, the where axis, the MDL-driven metric manager with SAS-gated
array foci, ASCII visualization modules, the Performance Consultant, and the
:class:`Paradyn` facade tying one measured execution together.
"""

from .._lazy import attach

__getattr__, __dir__, __all__ = attach(
    __name__,
    {
        "consultant": ("DEFAULT_HYPOTHESES", "Finding", "Hypothesis", "PerformanceConsultant"),
        "daemon": ("Daemon",),
        "export": ("samples_to_csv", "trace_to_chrome", "trace_to_csv"),
        "histogram": ("TimeHistogram",),
        "datamgr": ("DataManager",),
        "metrics": ("Focus", "MetricInstance", "MetricManager"),
        "session": ("load_session", "save_session", "session_to_dict"),
        "tool": ("Paradyn", "QuestionRequest"),
        "visualize": ("bar_chart", "text_table", "time_plot"),
        "whereaxis": ("ResourceNode", "WhereAxis"),
    },
)
