"""Performance questions over the Set of Active Sentences.

"We define a performance question to be a vector of sentences.  The meaning
of a performance question is that performance measurements (of resource
utilization) should be made only when all of the sentences of the question
are active." (Section 4.2.2, Figure 6.)

This module provides:

* :class:`SentencePattern` -- a sentence template with ``"?"`` wildcards for
  nouns and verbs (Figure 6's ``{? Sum}``);
* :class:`PerformanceQuestion` -- the paper's conjunction vector;
* :class:`QAtom` / :class:`QAnd` / :class:`QOr` / :class:`QNot` -- the
  boolean *extension* sketched in Section 4.2.2 ("boolean disjunction and
  negation incurring only the added cost of evaluating more complex
  expressions");
* :class:`OrderedQuestion` -- the fix for limitation #3 of Section 4.2.4:
  sentences in a question can be ordered, distinguishing "messages sent while
  summing A" from "summations of A performed while a message is in flight".
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from .nouns import Sentence

__all__ = [
    "WILDCARD",
    "SentencePattern",
    "QExpr",
    "QAtom",
    "QAnd",
    "QOr",
    "QNot",
    "PerformanceQuestion",
    "OrderedQuestion",
]

#: Matches any noun or verb in a pattern position.
WILDCARD = "?"


@dataclass(frozen=True)
class SentencePattern:
    """A sentence template: verb name + required noun names, with wildcards.

    Matching semantics:

    * ``verb`` must equal the sentence's verb name, unless it is ``"?"``;
    * every non-wildcard name in ``nouns`` must appear among the sentence's
      noun names (subset semantics -- a pattern ``{A Sum}`` matches a sentence
      ``{A partial Sum}`` involving additional nouns);
    * a wildcard noun requires the sentence to have at least one noun;
    * ``level``, if given, must equal the sentence's level of abstraction.

    Patterns key the multi-question engine's node table and subsumption
    lattice (:mod:`repro.core.multiq`), so like :class:`Sentence` their hash
    is computed once and cached, equality short-circuits on identity, and
    :meth:`intern` hands out one canonical instance per *match semantics*
    (noun order, duplicate nouns, and wildcards made redundant by a concrete
    noun all normalize away).
    """

    verb: str
    nouns: tuple[str, ...] = ()
    level: str | None = None

    def __post_init__(self) -> None:
        if not self.verb:
            raise ValueError("pattern needs a verb name (use '?' for any)")
        if not isinstance(self.nouns, tuple):
            object.__setattr__(self, "nouns", tuple(self.nouns))

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.verb, self.nouns, self.level))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, SentencePattern):
            return NotImplemented
        return (
            self.verb == other.verb
            and self.nouns == other.nouns
            and self.level == other.level
        )

    @classmethod
    def intern(
        cls,
        verb: str,
        nouns: Iterable[str] = (),
        level: str | None = None,
    ) -> "SentencePattern":
        """The canonical interned pattern with these match semantics."""
        return cls(verb, tuple(nouns), level).canonical()

    def canonical(self) -> "SentencePattern":
        """The interned normal form: same match set, one instance.

        Noun requirements are a set (subset semantics), so duplicates
        collapse and order normalizes to sorted; a wildcard noun only says
        "at least one noun", which any concrete noun requirement already
        implies, so ``?`` survives only when it is the sole requirement.
        ``canonical(a) is canonical(b)`` whenever the two patterns match
        exactly the same sentences by these rules.
        """
        concrete = sorted({n for n in self.nouns if n != WILDCARD})
        nouns = tuple(concrete) if concrete else ((WILDCARD,) if self.nouns else ())
        key = SentencePattern(self.verb, nouns, self.level)
        cached = _CANONICAL.get(key)
        if cached is None:
            cached = _CANONICAL[key] = key
        return cached

    def subsumes(self, other: "SentencePattern") -> bool:
        """True if this pattern's match set contains ``other``'s.

        Exact (not just conservative) for canonical forms: every sentence
        ``other`` matches is also matched by ``self``.  The multi-question
        engine uses this to build the pattern lattice -- a transition that
        fails a subsuming pattern is pruned from all patterns it subsumes.
        """
        if self.level is not None and self.level != other.level:
            return False
        if self.verb != WILDCARD and self.verb != other.verb:
            return False
        mine = {n for n in self.nouns if n != WILDCARD}
        theirs = {n for n in other.nouns if n != WILDCARD}
        if not mine <= theirs:
            return False
        return not (WILDCARD in self.nouns and not other.nouns)

    def matches(self, sent: Sentence) -> bool:
        if self.level is not None and sent.abstraction != self.level:
            return False
        if self.verb != WILDCARD and sent.verb.name != self.verb:
            return False
        names = {n.name for n in sent.nouns}
        for want in self.nouns:
            if want == WILDCARD:
                if not sent.nouns:
                    return False
            elif want not in names:
                return False
        return True

    def is_wildcard_only(self) -> bool:
        """True if this pattern matches every sentence (at its level)."""
        return self.verb == WILDCARD and all(n == WILDCARD for n in self.nouns)

    def index_key(self) -> tuple[str, str] | None:
        """The pattern's most selective discriminator, for routing.

        A sentence can only match this pattern if it carries the returned
        (kind, name) key: a concrete noun name (nouns are subset-required,
        so any one is a safe key, and noun populations are far larger than
        verb populations -- the better discriminator), else a concrete verb
        name, else the required abstraction level.  ``None`` means the
        pattern has no concrete component (wildcard-only) and must be
        checked against every sentence.
        :class:`~repro.core.multiq.MultiQuestionEngine` shards its pattern
        nodes by this key, so a transition visits only the shards holding
        a pattern that could possibly match the transitioning sentence.
        """
        for noun in self.nouns:
            if noun != WILDCARD:
                return ("n", noun)
        if self.verb != WILDCARD:
            return ("v", self.verb)
        if self.level is not None:
            return ("l", self.level)
        return None

    def __str__(self) -> str:
        inner = " ".join([*self.nouns, self.verb])
        return "{" + inner + "}"


#: Canonical-pattern intern table (see :meth:`SentencePattern.canonical`).
_CANONICAL: dict[SentencePattern, SentencePattern] = {}


# ----------------------------------------------------------------------
# boolean expression extension
# ----------------------------------------------------------------------
def _dedupe(patterns: Iterable[SentencePattern]) -> list[SentencePattern]:
    return list(dict.fromkeys(patterns))


class QExpr(abc.ABC):
    """A boolean expression over sentence patterns."""

    @abc.abstractmethod
    def evaluate(self, active: Sequence[Sentence]) -> bool:
        """Evaluate against the currently-active sentences."""

    @abc.abstractmethod
    def patterns(self) -> list[SentencePattern]:
        """Distinct atom patterns, first-occurrence order (for filtering).

        An atom shared by several branches is reported once -- indexes and
        interest predicates built from this list would otherwise register
        (and test) the same pattern per branch.
        """

    def __and__(self, other: "QExpr") -> "QAnd":
        return QAnd((self, other))

    def __or__(self, other: "QExpr") -> "QOr":
        return QOr((self, other))

    def __invert__(self) -> "QNot":
        return QNot(self)


@dataclass(frozen=True)
class QAtom(QExpr):
    """Leaf: true when some active sentence matches the pattern."""

    pattern: SentencePattern

    def evaluate(self, active: Sequence[Sentence]) -> bool:
        return any(self.pattern.matches(s) for s in active)

    def patterns(self) -> list[SentencePattern]:
        return [self.pattern]

    def __str__(self) -> str:
        return str(self.pattern)


@dataclass(frozen=True)
class QAnd(QExpr):
    """Conjunction of sub-expressions."""

    terms: tuple[QExpr, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("empty conjunction")

    def evaluate(self, active: Sequence[Sentence]) -> bool:
        return all(t.evaluate(active) for t in self.terms)

    def patterns(self) -> list[SentencePattern]:
        return _dedupe(p for t in self.terms for p in t.patterns())

    def __str__(self) -> str:
        return "(" + " AND ".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class QOr(QExpr):
    """Disjunction of sub-expressions (the Section 4.2.2 extension)."""

    terms: tuple[QExpr, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("empty disjunction")

    def evaluate(self, active: Sequence[Sentence]) -> bool:
        return any(t.evaluate(active) for t in self.terms)

    def patterns(self) -> list[SentencePattern]:
        return _dedupe(p for t in self.terms for p in t.patterns())

    def __str__(self) -> str:
        return "(" + " OR ".join(str(t) for t in self.terms) + ")"


@dataclass(frozen=True)
class QNot(QExpr):
    """Negation of a sub-expression (the Section 4.2.2 extension)."""

    term: QExpr

    def evaluate(self, active: Sequence[Sentence]) -> bool:
        return not self.term.evaluate(active)

    def patterns(self) -> list[SentencePattern]:
        return self.term.patterns()

    def __str__(self) -> str:
        return f"(NOT {self.term})"


# ----------------------------------------------------------------------
# questions
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PerformanceQuestion:
    """The paper's question: a conjunction vector of sentence patterns.

    ``{A Sum}, {Processor_P Send}`` is satisfied exactly when some active
    sentence matches each component.
    """

    name: str
    components: tuple[SentencePattern, ...]
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("question needs at least one sentence pattern")
        if not isinstance(self.components, tuple):
            object.__setattr__(self, "components", tuple(self.components))

    def satisfied(self, active: Sequence[Sentence]) -> bool:
        return all(any(p.matches(s) for s in active) for p in self.components)

    def as_expr(self) -> QExpr:
        """The equivalent boolean expression (a conjunction of atoms)."""
        if len(self.components) == 1:
            return QAtom(self.components[0])
        return QAnd(tuple(QAtom(p) for p in self.components))

    def patterns(self) -> list[SentencePattern]:
        """All component patterns (uniform accessor shared with QExpr)."""
        return list(self.components)

    def relevant(self, sent: Sentence) -> bool:
        """True if ``sent`` could contribute to satisfying this question.

        Used for the SAS size-reduction of Section 4.2: "if we only ever
        request measurements for array A, then the SAS may avoid keeping
        sentences that do not contain A."
        """
        return any(p.matches(sent) for p in self.components)

    def __str__(self) -> str:
        return ", ".join(str(p) for p in self.components)


@dataclass(frozen=True)
class OrderedQuestion:
    """An order-sensitive question (the paper's proposed limitation-#3 fix).

    Satisfied only when there exist currently-active sentences matching each
    component *whose activation times are non-decreasing in component order*.
    "How many messages are sent for the summation of A?" becomes
    ``OrderedQuestion([{A Sum}, {? Send}])``: the summation must have been
    active before (or when) the send activated -- the reverse question swaps
    the components and is no longer syntactically equivalent.
    """

    name: str
    components: tuple[SentencePattern, ...]
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.components:
            raise ValueError("question needs at least one sentence pattern")

    def satisfied(self, active_with_times: Iterable[tuple[Sentence, float]]) -> bool:
        entries = sorted(active_with_times, key=lambda st: st[1])
        return self._match(entries, 0, -float("inf"))

    def _match(
        self, entries: list[tuple[Sentence, float]], idx: int, min_time: float
    ) -> bool:
        if idx == len(self.components):
            return True
        pattern = self.components[idx]
        for sent, t in entries:
            if t >= min_time and pattern.matches(sent):
                if self._match(entries, idx + 1, t):
                    return True
        return False

    def patterns(self) -> list[SentencePattern]:
        """All component patterns (uniform accessor shared with QExpr)."""
        return list(self.components)

    def relevant(self, sent: Sentence) -> bool:
        """True if ``sent`` could contribute to satisfying this question."""
        return any(p.matches(sent) for p in self.components)

    def __str__(self) -> str:
        return " then ".join(str(p) for p in self.components)
