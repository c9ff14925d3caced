"""Parameterized workload generators for benches and tests.

Two families live here:

* **CMF program generators** (`elementwise_chain` ... `full_verb_mix`):
  return CMF *source text* -- workloads go through the real compiler like
  any user program, so benches exercise the entire pipeline.
* **SAS event-trace generators** (`sas_sentence_pool`, `sas_event_trace`,
  `sas_questions`): seeded random vocabularies, balanced
  activation/deactivation sequences, and random questions of all three
  kinds.  These feed the differential suite
  (``tests/core/test_sas_differential.py``), which replays each trace
  through the SAS and a naive full-rescan oracle and asserts identical
  observable state.
"""

from __future__ import annotations

import random

from ..core import (
    AbstractionLevel,
    EventKind,
    Noun,
    OrderedQuestion,
    PerformanceQuestion,
    QAnd,
    QAtom,
    QExpr,
    QNot,
    QOr,
    Sentence,
    SentencePattern,
    Verb,
    Vocabulary,
    WILDCARD,
)

__all__ = [
    "elementwise_chain",
    "reduction_mix",
    "stencil",
    "transform_mix",
    "sort_workload",
    "skewed_pair",
    "full_verb_mix",
    "sas_sentence_pool",
    "sas_event_trace",
    "sas_questions",
]


def elementwise_chain(size: int = 1024, statements: int = 8, arrays: int = 3) -> str:
    """A run of fusable elementwise statements over ``arrays`` arrays."""
    if arrays < 2:
        raise ValueError("need at least two arrays")
    names = [chr(ord("A") + i) for i in range(arrays)]
    decls = f"  REAL {', '.join(f'{n}({size})' for n in names)}"
    lines = [f"  {names[0]} = 1.0"]
    for i in range(statements):
        dst = names[(i + 1) % arrays]
        src = names[i % arrays]
        lines.append(f"  {dst} = {src} * 1.5 + {float(i)}")
    body = "\n".join(lines)
    return f"PROGRAM CHAIN\n{decls}\n{body}\nEND\n"


def reduction_mix(size: int = 1024, sums: int = 2, maxvals: int = 1, minvals: int = 1) -> str:
    """SUM/MAXVAL/MINVAL reductions over two arrays."""
    lines = ["  A = 2.0", "  B = 3.0"]
    for i in range(sums):
        lines.append(f"  S{i} = SUM(A)")
    for i in range(maxvals):
        lines.append(f"  MX{i} = MAXVAL(B)")
    for i in range(minvals):
        lines.append(f"  MN{i} = MINVAL(A)")
    body = "\n".join(lines)
    return f"PROGRAM REDUCE\n  REAL A({size}), B({size})\n{body}\nEND\n"


def stencil(size: int = 512, iterations: int = 4, width: int = 1) -> str:
    """Jacobi-style 1-D heat stencil with halo width ``width``."""
    if not 1 <= width < size // 2:
        raise ValueError("bad halo width")
    lo, hi = 1 + width, size - width
    return (
        "PROGRAM HEAT\n"
        f"  REAL U({size}), UN({size})\n"
        "  U = 1.0\n"
        f"  DO K = 1, {iterations}\n"
        f"  FORALL (I = {lo}:{hi}) UN(I) = (U(I-{width}) + U(I+{width})) / 2.0\n"
        f"  FORALL (I = {lo}:{hi}) U(I) = UN(I)\n"
        "  ENDDO\n"
        "  TOTAL = SUM(U)\n"
        "END\n"
    )


def transform_mix(size: int = 256, rotations: int = 2, shifts: int = 1, transposes: int = 1) -> str:
    """Shift/rotate/transpose traffic over 1-D and 2-D arrays."""
    side = max(4, int(size**0.5))
    lines = ["  A = 1.0", "  M = 2.0"]
    for i in range(rotations):
        lines.append(f"  B = CSHIFT(A, {i + 1})")
        lines.append(f"  A = CSHIFT(B, {-(i + 1)})")
    for i in range(shifts):
        lines.append(f"  B = EOSHIFT(A, {i + 1})")
    for _ in range(transposes):
        lines.append("  N = TRANSPOSE(M)")
        lines.append("  M = TRANSPOSE(N)")
    body = "\n".join(lines)
    return (
        "PROGRAM XFORM\n"
        f"  REAL A({size}), B({size})\n"
        f"  REAL M({side}, {side}), N({side}, {side})\n"
        f"{body}\nEND\n"
    )


def sort_workload(size: int = 512, repeats: int = 2) -> str:
    """Repeated parallel sorts on shuffled data (rotation reshuffles)."""
    lines = ["  A = SCAN(A)", "  A = CSHIFT(A, 7)"]
    for _ in range(repeats):
        lines.append("  CALL SORT(A)")
        lines.append("  A = CSHIFT(A, 13)")
    body = "\n".join(lines)
    return f"PROGRAM SORTW\n  REAL A({size})\n  A = 1.0\n{body}\nEND\n"


def skewed_pair(size: int = 2048, heavy_ops: int = 8) -> str:
    """Two fusable statements with very different per-element work.

    The compiler merges them into one node code block; ground truth says the
    heavy line does ~``heavy_ops``x the light line's work.  This is the abl1
    split-vs-merge workload.
    """
    heavy = "B"
    for _ in range(heavy_ops - 1):
        heavy = f"SQRT(ABS({heavy} * 1.0001))"
    return (
        "PROGRAM SKEW\n"
        f"  REAL A({size}), B({size})\n"
        "  A = B + 1.0\n"
        f"  B = {heavy} + 0.5\n"
        "END\n"
    )


# ----------------------------------------------------------------------
# SAS event-trace generators (differential-oracle inputs)
# ----------------------------------------------------------------------
def sas_sentence_pool(
    seed: int,
    levels: int = 3,
    verbs: int = 4,
    nouns: int = 6,
    sentences: int = 14,
) -> tuple[Vocabulary, list[Sentence]]:
    """A seeded random vocabulary plus a pool of distinct sentences.

    Levels are ranked 0..levels-1; verbs and nouns are spread across them
    uniformly.  Each pool sentence combines one verb with 0-3 nouns, so
    patterns with subset semantics, wildcards, and level constraints all
    have something to bite on.
    """
    rng = random.Random(seed)
    vocab = Vocabulary.with_levels(
        [AbstractionLevel(i, f"L{i}") for i in range(levels)]
    )
    verb_pool = [
        vocab.add_verb(Verb(f"V{i}", f"L{rng.randrange(levels)}"))
        for i in range(verbs)
    ]
    noun_pool = [
        vocab.add_noun(Noun(f"N{i}", f"L{rng.randrange(levels)}"))
        for i in range(nouns)
    ]
    pool: list[Sentence] = []
    seen: set[Sentence] = set()
    while len(pool) < sentences:
        verb = rng.choice(verb_pool)
        chosen = tuple(rng.sample(noun_pool, rng.randint(0, min(3, len(noun_pool)))))
        sent = vocab.intern(Sentence(verb, chosen))
        if sent not in seen:
            seen.add(sent)
            pool.append(sent)
    return vocab, pool


def sas_event_trace(
    seed: int,
    pool: list[Sentence],
    events: int = 80,
    reactivation_bias: float = 0.35,
) -> list[tuple[EventKind, Sentence]]:
    """A balanced-prefix activation/deactivation sequence over ``pool``.

    Every deactivation targets a currently-active sentence (so replaying
    through a SAS never raises), activations may be re-entrant
    (``reactivation_bias`` steers toward already-active sentences to
    exercise the multiset path), and some activations are left open at the
    end -- open satisfied intervals are part of the observable state the
    oracle compares.
    """
    rng = random.Random(seed)
    depth: dict[Sentence, int] = {}
    out: list[tuple[EventKind, Sentence]] = []
    for _ in range(events):
        active = [s for s, d in depth.items() if d > 0]
        if active and rng.random() < 0.5:
            sent = rng.choice(active)
            depth[sent] -= 1
            out.append((EventKind.DEACTIVATE, sent))
            continue
        if active and rng.random() < reactivation_bias:
            sent = rng.choice(active)  # re-entrant activation
        else:
            sent = rng.choice(pool)
        depth[sent] = depth.get(sent, 0) + 1
        out.append((EventKind.ACTIVATE, sent))
    return out


def _random_pattern(rng: random.Random, pool: list[Sentence]) -> SentencePattern:
    """A pattern derived from a pool sentence, degraded with wildcards."""
    model = rng.choice(pool)
    verb = model.verb.name if rng.random() < 0.7 else WILDCARD
    nouns: list[str] = []
    for noun in model.nouns:
        roll = rng.random()
        if roll < 0.5:
            nouns.append(noun.name)
        elif roll < 0.65:
            nouns.append(WILDCARD)
    level = model.abstraction if rng.random() < 0.25 else None
    if verb == WILDCARD and not nouns and level is None and rng.random() < 0.5:
        # avoid over-representing match-everything patterns
        verb = model.verb.name
    return SentencePattern(verb, tuple(nouns), level)


def _random_expr(rng: random.Random, pool: list[Sentence], depth: int) -> QExpr:
    if depth <= 0 or rng.random() < 0.35:
        return QAtom(_random_pattern(rng, pool))
    roll = rng.random()
    if roll < 0.4:
        return QAnd(tuple(_random_expr(rng, pool, depth - 1) for _ in range(2)))
    if roll < 0.8:
        return QOr(tuple(_random_expr(rng, pool, depth - 1) for _ in range(2)))
    return QNot(_random_expr(rng, pool, depth - 1))


def sas_questions(
    seed: int,
    pool: list[Sentence],
    count: int = 5,
) -> list[PerformanceQuestion | QExpr | OrderedQuestion]:
    """Seeded random questions covering all three kinds.

    Roughly half are plain conjunction :class:`PerformanceQuestion`\\ s, the
    rest split between boolean :class:`QExpr` trees (with OR and NOT) and
    :class:`OrderedQuestion`\\ s, mirroring what the oracle must hold
    identical to the SAS.
    """
    rng = random.Random(seed)
    questions: list[PerformanceQuestion | QExpr | OrderedQuestion] = []
    for i in range(count):
        roll = rng.random()
        patterns = tuple(
            _random_pattern(rng, pool) for _ in range(rng.randint(1, 3))
        )
        if roll < 0.5:
            questions.append(PerformanceQuestion(f"q{i}", patterns))
        elif roll < 0.75:
            questions.append(_random_expr(rng, pool, depth=2))
        else:
            questions.append(OrderedQuestion(f"o{i}", patterns))
    return questions


def full_verb_mix(size: int = 400) -> str:
    """One program exercising every Figure-9 CMF verb at least once."""
    side = 16
    return (
        "PROGRAM FIG9\n"
        f"  REAL A({size}), B({size}), C({size})\n"
        f"  REAL M({side}, {side}), N({side}, {side})\n"
        "  A = 1.0\n"
        "  B = A * 2.0 + 1.0\n"
        "  M = 3.0\n"
        "  S = SUM(A)\n"
        "  MX = MAXVAL(B)\n"
        "  MN = MINVAL(B)\n"
        "  C = CSHIFT(A, 3)\n"
        "  A = EOSHIFT(C, -2)\n"
        "  N = TRANSPOSE(M)\n"
        "  C = SCAN(B)\n"
        "  CALL SORT(C)\n"
        f"  FORALL (I = 2:{size - 1}) A(I) = C(I-1) + C(I+1)\n"
        f"  R = S / {size}.0 + MX - MN\n"
        "END\n"
    )
