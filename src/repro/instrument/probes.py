"""Probe interface: how instrumented code reports point executions.

Dynamic instrumentation (Section 4.1, after Hollingsworth et al.) rewrites a
running binary; the reproduction's equivalent is that every CMRTS routine is
compiled with a *probe callout* at its entry and exit.  When no
instrumentation is inserted at a point, the callout returns 0.0 cost and the
application is unperturbed -- "any point that does not contain
instrumentation does not cause any execution perturbations".

The return value is the *perturbation cost* in virtual seconds: the caller
charges it to the executing node's ``instrumentation`` time account, so
instrumentation intrusion is first-class and measurable (ablation abl2).
"""

from __future__ import annotations

from typing import Any, Mapping, Protocol

__all__ = ["Probe", "NullProbe", "PointContext"]

#: Context dictionary passed at each point execution.  Standard keys:
#: ``block`` (node code block name), ``kind``, ``verb``, ``arrays`` (tuple of
#: array names), ``lines`` (tuple of source lines), ``elements`` (ints),
#: ``bytes``.  Points may add their own keys.
PointContext = Mapping[str, Any]


class Probe(Protocol):
    """Anything that can receive point-execution callouts.

    A caller asks :meth:`armed` first and builds a callout's context only
    when it is true, so an uninstrumented point costs no host time either.
    """

    def armed(self, point: str, phase: str) -> bool:
        """Whether anything is inserted at (point, phase); O(1)."""
        ...

    def fire(self, point: str, phase: str, node_id: int, ctx: PointContext) -> float:
        """Report that ``point`` executed its ``phase`` ("entry"/"exit").

        Returns the perturbation cost (virtual seconds) of whatever
        instrumentation primitives ran, 0.0 if the point is uninstrumented.
        """
        ...


class NullProbe:
    """The uninstrumented application: every callout is free."""

    def armed(self, point: str, phase: str) -> bool:
        return False

    def fire(self, point: str, phase: str, node_id: int, ctx: PointContext) -> float:
        return 0.0
