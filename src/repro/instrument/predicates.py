"""Predicates guarding instrumentation firing.

A predicate runs *inside* the instrumented application (its evaluation cost
is perturbation even when it returns False).  Three families matter for the
paper:

* context predicates -- match fields the point execution reports
  (verb, block name, arrays touched, source lines);
* the SAS gate -- Section 6.1's "dynamically-inserted instrumentation code
  checks the array's node-global boolean variable before measuring the
  metric": a :class:`SASGate` reads the per-node question watcher flag;
* boolean combinators.
"""

from __future__ import annotations

from typing import Any, Callable, Mapping, Protocol, Sequence

from ..core import QuestionWatcher

__all__ = [
    "Predicate",
    "TRUE",
    "TruePredicate",
    "ContextEquals",
    "ContextContains",
    "SASGate",
    "AndPredicate",
    "OrPredicate",
    "NotPredicate",
    "FnPredicate",
]


class Predicate(Protocol):
    """Guard evaluated inside the application before an action fires."""

    def __call__(self, node_id: int, ctx: dict) -> bool: ...


class TruePredicate:
    """Always fire."""

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return True

    def __repr__(self) -> str:
        return "TRUE"


TRUE = TruePredicate()


class ContextEquals:
    """``ctx[field] == value`` (missing field -> False)."""

    def __init__(self, field: str, value: Any):
        self.field = field
        self.value = value

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return ctx.get(self.field) == self.value

    def __repr__(self) -> str:
        return f"(ctx.{self.field} == {self.value!r})"


class ContextContains:
    """``value in ctx[field]`` (missing/non-container field -> False)."""

    def __init__(self, field: str, value: Any):
        self.field = field
        self.value = value

    def __call__(self, node_id: int, ctx: dict) -> bool:
        container = ctx.get(self.field)
        try:
            return container is not None and self.value in container
        except TypeError:
            return False

    def __repr__(self) -> str:
        return f"({self.value!r} in ctx.{self.field})"


class SASGate:
    """Fire only while a per-node SAS question is satisfied.

    ``watchers[node_id]`` is the :class:`~repro.core.multiq.QuestionWatcher`
    that node's SAS returned from ``attach_question`` -- the "node-global
    boolean variable" of Section 6.1.  Reading the flag is O(1): the SAS's
    question engine updates every watcher's ``satisfied`` bit on each
    membership change, so the gate never triggers an evaluation.  The repr
    names the gated question (``watcher.question``).

    ``watchers`` may be a sequence indexed by node id or a mapping
    ``node_id -> watcher`` (the shape produced when a question is attached
    to a subset of nodes, e.g. ``Paradyn.ask_question(q, node=3)``).
    """

    def __init__(self, watchers: Sequence[QuestionWatcher] | Mapping[int, QuestionWatcher]):
        if isinstance(watchers, Mapping):
            self.watchers: dict[int, QuestionWatcher] | list[QuestionWatcher] = dict(watchers)
        else:
            self.watchers = list(watchers)

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return self.watchers[node_id].satisfied

    def __repr__(self) -> str:
        if not self.watchers:
            return "SASGate(?)"
        if isinstance(self.watchers, dict):
            first = next(iter(self.watchers.values()))
        else:
            first = self.watchers[0]
        return f"SASGate({first.question})"


class AndPredicate:
    """All sub-predicates must hold."""

    def __init__(self, *terms: Predicate):
        if not terms:
            raise ValueError("empty conjunction")
        self.terms = terms

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return all(t(node_id, ctx) for t in self.terms)

    def __repr__(self) -> str:
        return "(" + " AND ".join(map(repr, self.terms)) + ")"


class OrPredicate:
    """Any sub-predicate may hold."""

    def __init__(self, *terms: Predicate):
        if not terms:
            raise ValueError("empty disjunction")
        self.terms = terms

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return any(t(node_id, ctx) for t in self.terms)


class NotPredicate:
    """Inverts a sub-predicate."""

    def __init__(self, term: Predicate):
        self.term = term

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return not self.term(node_id, ctx)


class FnPredicate:
    """Wrap an arbitrary callable (escape hatch for tests and tools)."""

    def __init__(self, fn: Callable[[int, dict], bool], label: str = "fn"):
        self.fn = fn
        self.label = label

    def __call__(self, node_id: int, ctx: dict) -> bool:
        return self.fn(node_id, ctx)

    def __repr__(self) -> str:
        return f"FnPredicate({self.label})"
