"""Paradyn Information Format (PIF) records.

Figure 3 defines three components of mapping information -- noun
definitions, verb definitions, and mapping definitions (source sentence +
destination sentence).  Figure 2 shows their concrete record syntax.  This
module models those records plus a LEVEL record (the paper has levels
implied by noun/verb ``abstraction`` fields; an explicit record lets a
parser validate them).

Records are the *wire format*: plain strings, no resolved objects.  The Data
Manager resolves a :class:`PIFDocument` against its vocabulary to produce
:class:`~repro.core.nouns.Sentence` and :class:`~repro.core.mapping.Mapping`
values (see :meth:`PIFDocument.build_vocabulary` /
:meth:`PIFDocument.resolve_mappings`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..core.mapping import Mapping, MappingGraph, MappingOrigin
from ..core.nouns import AbstractionLevel, Noun, Sentence, Verb, Vocabulary

__all__ = [
    "LevelDef",
    "NounDef",
    "VerbDef",
    "SentenceRef",
    "MappingDef",
    "PIFDocument",
    "MergeConflictError",
]


@dataclass(frozen=True)
class LevelDef:
    """LEVEL record: an abstraction level (explicit-rank extension)."""

    name: str
    rank: int
    description: str = ""


@dataclass(frozen=True)
class NounDef:
    """NOUN record (Figure 3: name / level of abstraction / description)."""

    name: str
    abstraction: str
    description: str = ""


@dataclass(frozen=True)
class VerbDef:
    """VERB record (Figure 3: name / level of abstraction / description)."""

    name: str
    abstraction: str
    description: str = ""


@dataclass(frozen=True)
class SentenceRef:
    """An unresolved sentence: noun names plus a verb name.

    Figure 2 writes these as ``{cmpe_corr_6_(), CPU Utilization}`` -- nouns
    first, verb last.
    """

    nouns: tuple[str, ...]
    verb: str

    def __str__(self) -> str:
        return "{" + ", ".join([*self.nouns, self.verb]) + "}"


@dataclass(frozen=True)
class MappingDef:
    """MAPPING record (Figure 3: source sentence / destination sentence)."""

    source: SentenceRef
    destination: SentenceRef


class ResolutionError(Exception):
    """A PIF record references an undefined noun/verb or is ambiguous."""


class MergeConflictError(ValueError):
    """Two documents redefine the same name with different payloads."""


@dataclass
class PIFDocument:
    """An in-memory PIF file: ordered record lists."""

    levels: list[LevelDef] = field(default_factory=list)
    nouns: list[NounDef] = field(default_factory=list)
    verbs: list[VerbDef] = field(default_factory=list)
    mappings: list[MappingDef] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.levels) + len(self.nouns) + len(self.verbs) + len(self.mappings)

    # ------------------------------------------------------------------
    # canonical form
    # ------------------------------------------------------------------
    def canonical(self) -> tuple:
        """The document's order- and duplication-insensitive normal form.

        Two documents with the same canonical form define the same mapping
        universe: identical level/noun/verb declarations and identical
        mapping pairs, regardless of record order or exact duplicates.
        This is the equality ``repro mapc`` uses to prove a compiled
        ``.map`` program means the same thing as a hand-written artifact
        (byte diffs would reject harmless reorderings).
        """

        def key(records):
            return tuple(sorted(set(records), key=repr))

        return (
            key(self.levels),
            key(self.nouns),
            key(self.verbs),
            key(self.mappings),
        )

    def canonically_equal(self, other: "PIFDocument") -> bool:
        """True when both documents have the same canonical form."""
        return self.canonical() == other.canonical()

    # ------------------------------------------------------------------
    # resolution into core-model objects
    # ------------------------------------------------------------------
    def build_vocabulary(self, into: Vocabulary | None = None) -> Vocabulary:
        """Register this document's levels, nouns and verbs."""
        vocab = into if into is not None else Vocabulary()
        for lv in self.levels:
            vocab.add_level(AbstractionLevel(lv.rank, lv.name, lv.description))
        for nd in self.nouns:
            vocab.add_noun(Noun(nd.name, nd.abstraction, nd.description))
        for vd in self.verbs:
            vocab.add_verb(Verb(vd.name, vd.abstraction, vd.description))
        return vocab

    def _resolve_name(self, vocab: Vocabulary, name: str, kind: str):
        """Find a noun/verb by bare name across this document's levels."""
        defs = self.nouns if kind == "noun" else self.verbs
        matches = [d for d in defs if d.name == name]
        if not matches:
            raise ResolutionError(f"mapping references undefined {kind} {name!r}")
        if len({d.abstraction for d in matches}) > 1:
            raise ResolutionError(
                f"{kind} {name!r} is ambiguous across levels "
                f"{sorted({d.abstraction for d in matches})}"
            )
        d = matches[0]
        if kind == "noun":
            return vocab.noun(d.abstraction, d.name)
        return vocab.verb(d.abstraction, d.name)

    def resolve_sentence(self, vocab: Vocabulary, ref: SentenceRef) -> Sentence:
        verb = self._resolve_name(vocab, ref.verb, "verb")
        nouns = tuple(self._resolve_name(vocab, n, "noun") for n in ref.nouns)
        return Sentence(verb, nouns)

    def resolve_mappings(
        self, vocab: Vocabulary, into: MappingGraph | None = None
    ) -> MappingGraph:
        """Resolve every MAPPING record into a mapping graph.

        All PIF-derived mappings carry :attr:`MappingOrigin.STATIC` -- this
        is the "static mapping information" channel of Section 3.
        """
        graph = into if into is not None else MappingGraph()
        for md in self.mappings:
            graph.add(
                Mapping(
                    self.resolve_sentence(vocab, md.source),
                    self.resolve_sentence(vocab, md.destination),
                    MappingOrigin.STATIC,
                )
            )
        return graph

    def merge(self, other: "PIFDocument") -> None:
        """Append another document's records (deduplicated).

        Raises :class:`MergeConflictError` when the other document
        *redefines* an existing name with a different payload: a level
        with the same name but a different rank or description, or a
        noun/verb with the same (name, level) but a different
        description.  Identical records deduplicate silently.
        """
        by_level_name = {lv.name: lv for lv in self.levels}
        for lv in other.levels:
            prev = by_level_name.get(lv.name)
            if prev is not None and prev != lv:
                raise MergeConflictError(
                    f"level {lv.name!r} redefined: rank {prev.rank} described "
                    f"{prev.description!r} vs rank {lv.rank} described {lv.description!r}"
                )
        for kind, attr in (("noun", "nouns"), ("verb", "verbs")):
            by_key = {(d.name, d.abstraction): d for d in getattr(self, attr)}
            for d in getattr(other, attr):
                prev = by_key.get((d.name, d.abstraction))
                if prev is not None and prev != d:
                    raise MergeConflictError(
                        f"{kind} {d.name!r} at level {d.abstraction!r} redefined: "
                        f"described {prev.description!r} vs {d.description!r}"
                    )
        for attr in ("levels", "nouns", "verbs", "mappings"):
            mine = getattr(self, attr)
            seen = set(mine)
            for rec in getattr(other, attr):
                if rec not in seen:
                    mine.append(rec)
                    seen.add(rec)
