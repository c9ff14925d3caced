"""The Noun-Verb (NV) model for parallel program performance explanation.

Following Section 1 of the paper:

* a **noun** is any program element for which performance measurements can be
  made (programs, subroutines, FORALL loops, arrays, statements, ...);
* a **verb** is any potential action taken by or performed on a noun
  (statement *execution*, array *assignment*, *reduction*, file *I/O*, ...);
* a **sentence** is an instance of a program construct described by a verb:
  a verb plus the set of participating nouns (costs are measured separately,
  see :mod:`repro.core.cost`);
* the nouns and verbs of a particular software or hardware layer define a
  **level of abstraction**, and sentences of different levels are related by
  *mappings* (:mod:`repro.core.mapping`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator

__all__ = [
    "AbstractionLevel",
    "Noun",
    "Verb",
    "Sentence",
    "SentenceTable",
    "Vocabulary",
    "BASE_LEVEL",
]


@dataclass(frozen=True, order=True)
class AbstractionLevel:
    """A named layer of software or hardware abstraction.

    ``rank`` orders levels: larger rank = more abstract.  The paper's case
    study uses three levels -- Base (rank 0), CMRTS (rank 1), and CM Fortran
    (rank 2) -- but any number may be registered.
    """

    rank: int
    name: str
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("abstraction level needs a name")


#: The lowest level of abstraction: raw functions, processors, messages.
BASE_LEVEL = AbstractionLevel(0, "Base", "functions, processors and messages")


@dataclass(frozen=True)
class Noun:
    """A measurable program element at some level of abstraction.

    Matches the paper's Figure-2 record: ``name``, ``abstraction`` (the level
    name), and free-form ``description``.  Identity is (name, abstraction);
    the description is annotation only.
    """

    name: str
    abstraction: str
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.abstraction:
            raise ValueError("noun needs a name and an abstraction level")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Verb:
    """A potential action taken by or performed on nouns.

    Same record shape as :class:`Noun` (Figure 3 gives nouns and verbs
    identical definition components).
    """

    name: str
    abstraction: str
    description: str = field(default="", compare=False)

    def __post_init__(self) -> None:
        if not self.name or not self.abstraction:
            raise ValueError("verb needs a name and an abstraction level")

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Sentence:
    """A verb plus the participating nouns: one unit of program activity.

    The paper's sentences also carry a cost; costs are measured per execution
    and aggregated, so the Sentence value itself is the *identity* that costs
    attach to (see :class:`repro.core.cost.CostVector`).

    A sentence's level of abstraction is its verb's level.

    Sentences sit on the SAS notification hot path, so their hash is computed
    once and cached, and equality short-circuits on identity -- interned
    sentences (see :meth:`Vocabulary.intern`) compare in O(1).
    """

    verb: Verb
    nouns: tuple[Noun, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.nouns, tuple):
            object.__setattr__(self, "nouns", tuple(self.nouns))

    def __hash__(self) -> int:
        cached = self.__dict__.get("_hash")
        if cached is None:
            cached = hash((self.verb, self.nouns))
            object.__setattr__(self, "_hash", cached)
        return cached

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, Sentence):
            return NotImplemented
        return self.verb == other.verb and self.nouns == other.nouns

    @property
    def abstraction(self) -> str:
        return self.verb.abstraction

    def describe(self) -> str:
        """Human-readable rendering, e.g. ``{A Sum}`` as in Figure 6."""
        subjects = " ".join(n.name for n in self.nouns)
        return f"{{{subjects} {self.verb.name}}}" if subjects else f"{{{self.verb.name}}}"

    def __str__(self) -> str:
        return self.describe()


def sentence(verb: Verb, *nouns: Noun) -> Sentence:
    """Convenience constructor: ``sentence(Executes, line1160)``."""
    return Sentence(verb, tuple(nouns))


class SentenceTable:
    """One run's sentence ids: a sentence is numbered the first time it is
    seen, so the notification path keys its dicts on small ints and hashes
    no sentence per notification.  ``sentences[sid]`` is the instance first
    seen; a table built from a recorded trace's (distinct) sentences
    numbers them by file sid.
    """

    __slots__ = ("sentences", "_ids")

    def __init__(self, sentences: Iterable[Sentence] = ()) -> None:
        self.sentences: list[Sentence] = list(sentences)
        # built at the first lookup: a replay by file sid never needs it
        self._ids: dict[Sentence, int] | None = None

    def _index(self) -> dict[Sentence, int]:
        if self._ids is None:
            self._ids = {s: i for i, s in enumerate(self.sentences)}
        return self._ids

    def sid(self, sent: Sentence) -> int:
        """The id of ``sent``, numbering it if it is new."""
        ids = self._ids if self._ids is not None else self._index()
        sid = ids.get(sent)
        if sid is None:
            sid = ids[sent] = len(self.sentences)
            self.sentences.append(sent)
        return sid

    def get(self, sent: Sentence) -> int | None:
        """The id of ``sent``, or ``None`` if it was never seen."""
        return self._index().get(sent)


class Vocabulary:
    """Registry of the levels, nouns, and verbs known to a tool.

    This is the in-memory form of the paper's "noun and verb definitions"
    (Figure 3): the Data Manager builds one from PIF files and dynamic
    notifications, and the where axis renders it.
    """

    def __init__(self) -> None:
        self._levels: dict[str, AbstractionLevel] = {}
        self._nouns: dict[tuple[str, str], Noun] = {}
        self._verbs: dict[tuple[str, str], Verb] = {}
        self._sentences: dict[Sentence, Sentence] = {}

    # -- levels ---------------------------------------------------------
    def add_level(self, level: AbstractionLevel) -> AbstractionLevel:
        existing = self._levels.get(level.name)
        if existing is not None:
            if existing.rank != level.rank:
                raise ValueError(
                    f"level {level.name!r} re-registered with rank "
                    f"{level.rank} != {existing.rank}"
                )
            return existing
        self._levels[level.name] = level
        return level

    def level(self, name: str) -> AbstractionLevel:
        try:
            return self._levels[name]
        except KeyError:
            raise KeyError(f"unknown abstraction level {name!r}") from None

    def levels(self) -> list[AbstractionLevel]:
        return sorted(self._levels.values())

    def has_level(self, name: str) -> bool:
        return name in self._levels

    # -- nouns / verbs ---------------------------------------------------
    def add_noun(self, noun: Noun) -> Noun:
        self._require_level(noun.abstraction)
        return self._nouns.setdefault((noun.abstraction, noun.name), noun)

    def add_verb(self, verb: Verb) -> Verb:
        self._require_level(verb.abstraction)
        return self._verbs.setdefault((verb.abstraction, verb.name), verb)

    def noun(self, level: str, name: str) -> Noun:
        try:
            return self._nouns[(level, name)]
        except KeyError:
            raise KeyError(f"unknown noun {name!r} at level {level!r}") from None

    def verb(self, level: str, name: str) -> Verb:
        try:
            return self._verbs[(level, name)]
        except KeyError:
            raise KeyError(f"unknown verb {name!r} at level {level!r}") from None

    def nouns_at(self, level: str) -> list[Noun]:
        return [n for (lvl, _), n in sorted(self._nouns.items()) if lvl == level]

    def verbs_at(self, level: str) -> list[Verb]:
        return [v for (lvl, _), v in sorted(self._verbs.items()) if lvl == level]

    def __iter__(self) -> Iterator[Noun]:
        return iter(self._nouns.values())

    # -- sentence interning ----------------------------------------------
    def intern(self, sent: Sentence) -> Sentence:
        """Return the canonical instance of ``sent``.

        Structurally-equal sentences intern to the *same object*
        (``intern(a) is intern(b)`` whenever ``a == b``), so SAS engines fed
        interned sentences resolve membership by identity and never re-hash:
        the cached :meth:`Sentence.__hash__` is computed once per canonical
        instance, and ``__eq__`` short-circuits on ``is``.
        """
        cached = self._sentences.get(sent)
        if cached is None:
            cached = sent
            self._sentences[sent] = sent
        return cached

    def interned_count(self) -> int:
        """Number of distinct sentences interned so far."""
        return len(self._sentences)

    def merge(self, other: "Vocabulary") -> None:
        """Union ``other`` into this vocabulary (used when loading PIF files)."""
        for level in other.levels():
            self.add_level(level)
        for noun in other._nouns.values():
            self.add_noun(noun)
        for verb in other._verbs.values():
            self.add_verb(verb)

    def _require_level(self, name: str) -> None:
        if name not in self._levels:
            raise KeyError(
                f"abstraction level {name!r} must be registered before its nouns/verbs"
            )

    @classmethod
    def with_levels(cls, levels: Iterable[AbstractionLevel]) -> "Vocabulary":
        vocab = cls()
        for level in levels:
            vocab.add_level(level)
        return vocab
