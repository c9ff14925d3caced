"""Random valid-program generator for differential testing.

Generates seeded-random CMF programs that are guaranteed to pass semantic
analysis and to be numerically tame (no division by zero, no overflow, no
NaN sources), so the distributed runtime can be compared bit-for-bit-ish
against the reference interpreter.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field

__all__ = ["FuzzConfig", "mutate_pif", "random_program", "random_trace"]


@dataclass(frozen=True)
class FuzzConfig:
    """Knobs for the random program generator."""

    num_1d_arrays: int = 3
    num_2d_pairs: int = 1  # each pair: M(r,c) and its transpose target (c,r)
    max_1d_size: int = 40
    min_1d_size: int = 8
    statements: int = 10
    max_expr_depth: int = 3
    allow_forall: bool = True
    allow_sort: bool = True
    allow_do: bool = True
    allow_subroutines: bool = False
    allow_layouts: bool = False  # emit LAYOUT (*, BLOCK) on some 2-D arrays


@dataclass
class _State:
    rng: random.Random
    cfg: FuzzConfig
    arrays_1d: list[tuple[str, int]] = field(default_factory=list)
    arrays_2d: list[tuple[str, int, int]] = field(default_factory=list)
    scalars: list[str] = field(default_factory=list)


def _expr(state: _State, size: int, depth: int) -> str:
    """A numerically-safe scalar-conformant expression over size-`size` arrays."""
    rng = state.rng
    peers = [n for n, s in state.arrays_1d if s == size]
    if depth <= 0 or rng.random() < 0.3:
        choices = []
        if peers:
            choices += peers * 2
        if state.scalars and rng.random() < 0.4:
            choices.append(rng.choice(state.scalars))
        choices.append(f"{rng.uniform(-4, 4):.3f}")
        return rng.choice(choices)
    kind = rng.choice(["bin", "bin", "abs", "sqrt", "minmax", "neg"])
    if kind == "bin":
        op = rng.choice(["+", "-", "*", "+"])
        return f"({_expr(state, size, depth - 1)} {op} {_expr(state, size, depth - 1)})"
    if kind == "abs":
        return f"ABS({_expr(state, size, depth - 1)})"
    if kind == "sqrt":
        return f"SQRT(ABS({_expr(state, size, depth - 1)}))"
    if kind == "minmax":
        fn = rng.choice(["MIN", "MAX"])
        return f"{fn}({_expr(state, size, depth - 1)}, {_expr(state, size, depth - 1)})"
    return f"(-{_expr(state, size, depth - 1)})"


def _statement(state: _State) -> str:
    rng = state.rng
    cfg = state.cfg
    name, size = rng.choice(state.arrays_1d)
    roll = rng.random()
    if roll < 0.30:  # elementwise whole-array assignment
        return f"  {name} = {_expr(state, size, cfg.max_expr_depth)}"
    if roll < 0.45:  # reduction into a fresh or existing scalar
        scalar = f"S{len(state.scalars)}"
        state.scalars.append(scalar)
        red = rng.choice(["SUM", "MAXVAL", "MINVAL"])
        divisor = rng.choice(["", f" / {rng.uniform(1, 8):.2f}", " + 1.5"])
        return f"  {scalar} = {red}({name}){divisor}"
    if roll < 0.58:  # shift/rotate into a same-size peer
        peers = [n for n, s in state.arrays_1d if s == size]
        dst = rng.choice(peers)
        fn = rng.choice(["CSHIFT", "EOSHIFT"])
        amount = rng.randint(-size - 2, size + 2)
        return f"  {dst} = {fn}({name}, {amount})"
    if roll < 0.66:  # scan
        peers = [n for n, s in state.arrays_1d if s == size]
        return f"  {rng.choice(peers)} = SCAN({name})"
    if roll < 0.74 and state.arrays_2d:  # transpose round trip halves
        m, r, c = rng.choice(state.arrays_2d)
        return f"  {m}T = TRANSPOSE({m})"
    if roll < 0.84 and cfg.allow_forall and size >= 6:
        width = rng.randint(1, min(2, size // 3))
        lo, hi = 1 + width, size - width
        peers = [n for n, s in state.arrays_1d if s == size]
        src = rng.choice(peers)
        sign = rng.choice(["+", "-"])
        return (
            f"  FORALL (I = {lo}:{hi}) {name}(I) = "
            f"{src}(I-{width}) {sign} {src}(I+{width})"
        )
    if roll < 0.92 and cfg.allow_sort:
        return f"  CALL SORT({name})"
    if cfg.allow_do:
        inner = f"  {name} = {name} * 0.5 + 1.0"
        reps = rng.randint(2, 3)
        return f"  DO K{rng.randint(0, 9)} = 1, {reps}\n  {inner}\n  ENDDO"
    return f"  {name} = {name} + 1.0"


def random_program(seed: int, cfg: FuzzConfig | None = None) -> str:
    """Generate one random, semantically-valid CMF program."""
    cfg = cfg or FuzzConfig()
    rng = random.Random(seed)
    state = _State(rng, cfg)

    sizes = sorted(
        {rng.randint(cfg.min_1d_size, cfg.max_1d_size) for _ in range(2)} or {16}
    )
    decls = []
    for i in range(cfg.num_1d_arrays):
        size = sizes[i % len(sizes)]
        name = f"A{i}"
        state.arrays_1d.append((name, size))
        decls.append(f"  REAL {name}({size})")
    for i in range(cfg.num_2d_pairs):
        r, c = rng.randint(3, 8), rng.randint(3, 8)
        name = f"M{i}"
        state.arrays_2d.append((name, r, c))
        decls.append(f"  REAL {name}({r}, {c})")
        decls.append(f"  REAL {name}T({c}, {r})")
        if cfg.allow_layouts and rng.random() < 0.7:
            # random (possibly matched) distributions for the transpose pair
            decls.append(f"  LAYOUT {name}({rng.choice(['BLOCK, *', '*, BLOCK'])})")
            decls.append(f"  LAYOUT {name}T({rng.choice(['BLOCK, *', '*, BLOCK'])})")

    body = [f"  A{i} = {rng.uniform(0.5, 3.0):.3f}" for i in range(cfg.num_1d_arrays)]
    for m, _r, _c in state.arrays_2d:
        body.append(f"  {m} = {rng.uniform(0.5, 3.0):.3f}")
    statements = [_statement(state) for _ in range(cfg.statements)]

    subroutines: list[str] = []
    if cfg.allow_subroutines and len(statements) >= 4:
        # hoist a random contiguous slice of the body into a subroutine and
        # call it (possibly more than once) from the main program
        cut = rng.randint(2, max(2, len(statements) // 2))
        start = rng.randint(0, len(statements) - cut)
        hoisted = statements[start : start + cut]
        calls = ["  CALL HELPER()"] * rng.randint(1, 2)
        statements[start : start + cut] = calls
        subroutines = ["SUBROUTINE HELPER", *hoisted, "END SUBROUTINE"]
    body.extend(statements)

    lines = ["PROGRAM FUZZ", *decls, *body, "END", *subroutines]
    return "\n".join(lines) + "\n"


def mutate_pif(text: str, seed: int, mutations: int = 3) -> str:
    """Structurally mutate PIF document text.

    Starting from a *valid* document, applies ``mutations`` seeded-random
    edits at the record level: duplicating, dropping, and reordering
    records, renaming field values, rewriting ranks, deleting field lines,
    and shuffling fields within a record.  The result may or may not still
    parse -- the contract under fuzz is that the static analyzer either
    parses-and-diagnoses it or rejects it with a syntax error, but never
    crashes with anything else.
    """
    rng = random.Random(seed)
    blocks = [b for b in text.split("\n\n") if b.strip()]
    for _ in range(mutations):
        if not blocks:
            break
        i = rng.randrange(len(blocks))
        op = rng.choice(["dup", "drop", "rename", "rank", "swap", "chop", "shuffle"])
        if op == "dup":
            blocks.insert(i, blocks[i])
        elif op == "drop":
            blocks.pop(i)
        elif op == "rename":
            lines = blocks[i].splitlines()
            j = rng.randrange(len(lines))
            key, eq, _value = lines[j].partition("=")
            if eq:
                lines[j] = f"{key}= X{rng.randrange(100)}"
            blocks[i] = "\n".join(lines)
        elif op == "rank":
            blocks[i] = re.sub(
                r"rank = -?\d+", f"rank = {rng.randrange(-1, 5)}", blocks[i]
            )
        elif op == "swap":
            j = rng.randrange(len(blocks))
            blocks[i], blocks[j] = blocks[j], blocks[i]
        elif op == "chop":
            lines = blocks[i].splitlines()
            if len(lines) > 1:
                lines.pop(rng.randrange(1, len(lines)))
            blocks[i] = "\n".join(lines)
        else:  # shuffle field order within the record
            lines = blocks[i].splitlines()
            if len(lines) > 2:
                tail = lines[1:]
                rng.shuffle(tail)
                blocks[i] = "\n".join([lines[0], *tail])
    return "\n\n".join(blocks) + "\n"


def random_trace(
    seed: int,
    events: int = 120,
    nodes: int = 2,
    sentences: int = 14,
    tie_bias: float = 0.15,
    reactivation_bias: float = 0.35,
):
    """A seeded random timed multi-node :class:`~repro.core.events.Trace`.

    Per-node balanced-prefix event sequences (from
    :func:`~repro.workloads.generators.sas_event_trace`) over one shared
    sentence pool are interleaved under a single globally-monotone clock;
    ``tie_bias`` controls how often consecutive events land on the *same*
    instant (exercising tie ordering in merges, snapshots, and segment
    boundaries).  Per-node causality holds by construction -- a deactivation
    never precedes its activation on that node -- so the result replays
    cleanly through a SAS, a :class:`~repro.trace.ColumnarTraceWriter`, or the
    retrospective analyses.  Some activations stay open at the end.
    """
    from ..core import Trace
    from .generators import sas_event_trace, sas_sentence_pool

    if nodes < 1:
        raise ValueError("need at least one node")
    # distinct stream from the per-node sequence seeds
    rng = random.Random(seed * 2654435761 % 2**32)
    _vocab, pool = sas_sentence_pool(seed, sentences=sentences)
    queues = [
        list(
            sas_event_trace(
                seed * 31 + n + 1,
                pool,
                events=max(1, events // nodes),
                reactivation_bias=reactivation_bias,
            )
        )
        for n in range(nodes)
    ]
    heads = [0] * nodes
    trace = Trace()
    t = 0.0
    while True:
        ready = [n for n in range(nodes) if heads[n] < len(queues[n])]
        if not ready:
            break
        n = rng.choice(ready)
        kind, sent = queues[n][heads[n]]
        heads[n] += 1
        if not (len(trace) and rng.random() < tie_bias):
            t += rng.uniform(1e-6, 1e-3)
        trace.record(t, kind, sent, node_id=n)
    return trace
