"""Trace-backed attribution sanitizer (the static/dynamic cross-check).

The paper's SAS limitations section observes that attribution silently
fails when lower-level activity is neither statically mapped nor
concurrently active with anything at the top abstraction -- the cost
exists in the run but no higher-level sentence can ever be charged for
it.  This module replays a recorded ``.rtrcx`` trace and checks every
observed sentence against both attribution channels:

* **static**: a chain of PIF MAPPING records (plus any dynamic mapping
  records the run itself recorded) connecting the sentence to the top
  abstraction level;
* **dynamic**: co-activity -- the sentence was active while something at
  the top level was active, so the live SAS could map it (Section 4's
  "contained in the SAS concurrently" rule).

A whole level with *neither* channel is an attribution leak (NV013,
error): every second spent there vanishes from the top-level profile.
A single sentence missing both channels inside an otherwise-attributed
level is reported as NV014 (warn) -- real traces legitimately contain
such sentences (a node's ``Idle`` time has no owner by design), so this
is not a gate failure.  The inverse check, declared static mappings the
run never exercised, is NV015 (dead declarations).
"""

from __future__ import annotations

from collections import defaultdict

from ..core.nouns import Sentence
from ..pif.records import PIFDocument
from ..trace.retro import sentence_intervals
from .diagnostics import Diagnostic, diag

__all__ = ["sanitize_trace", "builtin_level_ranks"]


def builtin_level_ranks() -> dict[str, int]:
    """Level ranks of every built-in study vocabulary, by level name."""
    from ..cmrts.nv import BASE_LEVEL, CMF_LEVEL, CMRTS_LEVEL
    from ..dbsim.model import DB_LEVEL, DISK_LEVEL
    from ..unixsim.nv import KERNEL_LEVEL, USER_LEVEL

    return {
        lv.name: lv.rank
        for lv in (BASE_LEVEL, CMRTS_LEVEL, CMF_LEVEL, DB_LEVEL, DISK_LEVEL, KERNEL_LEVEL, USER_LEVEL)
    }


def _static_edges(doc: PIFDocument) -> list[tuple[Sentence, Sentence]]:
    """Resolved (source, destination) pairs of the document's mappings.

    Unresolvable records are skipped -- analyze_pif already reported them
    as NV005; the sanitizer works with whatever survives.
    """
    if not doc.mappings:
        return []
    try:
        vocab = doc.build_vocabulary()
    except ValueError:
        return []
    edges: list[tuple[Sentence, Sentence]] = []
    for md in doc.mappings:
        try:
            src = doc.resolve_sentence(vocab, md.source)
            dst = doc.resolve_sentence(vocab, md.destination)
        except Exception:
            continue
        edges.append((src, dst))
    return edges


def _overlaps(ivs: list[tuple[float, float]], spans: list[tuple[float, float]]) -> bool:
    for s0, s1 in ivs:
        for t0, t1 in spans:
            if s0 <= t1 and s1 >= t0:
                return True
    return False


def sanitize_trace(
    reader,
    static_docs: PIFDocument | list[PIFDocument] | None = None,
    path: str = "",
    level_ranks: dict[str, int] | None = None,
    jobs: int | None = None,
) -> list[Diagnostic]:
    """Check a recorded run's attribution coverage (NV013-NV016).

    ``reader`` is a trace reader (or anything :func:`sentence_intervals`
    accepts).  ``static_docs`` supplies the PIF mapping records declared
    for the run -- one document or several (each resolved in its own
    namespace); ``level_ranks`` overrides the level-name -> rank table
    (default: the docs' LEVEL records over the built-in study
    vocabularies).  ``jobs > 1`` computes the activation intervals with the
    parallel segment scan (columnar readers only).
    """
    if static_docs is None:
        docs: list[PIFDocument] = []
    elif isinstance(static_docs, PIFDocument):
        docs = [static_docs]
    else:
        docs = list(static_docs)

    out: list[Diagnostic] = []
    intervals = sentence_intervals(reader, jobs=jobs)
    if not intervals:
        return out

    ranks = dict(builtin_level_ranks()) if level_ranks is None else dict(level_ranks)
    if level_ranks is None:
        for doc in docs:
            for lv in doc.levels:
                ranks.setdefault(lv.name, lv.rank)

    # NV016: levels we cannot place in the abstraction order
    observed_levels = sorted({s.abstraction for s in intervals})
    known = [lv for lv in observed_levels if lv in ranks]
    for lv in observed_levels:
        if lv not in ranks:
            out.append(
                diag("NV016", f"trace uses level {lv!r} with unknown rank; not checked", path)
            )

    # static + recorded mapping edges, undirected for reachability; identical
    # declarations across documents (a .pif shipped next to the .cmf that
    # generates it) deduplicate so NV015 counts each declaration once
    edges = list(dict.fromkeys(edge for doc in docs for edge in _static_edges(doc)))
    recorded_mappings = getattr(reader, "mappings", None)
    recorded: list[tuple[Sentence, Sentence]] = []
    if callable(recorded_mappings):
        recorded = [(ev.source, ev.destination) for ev in recorded_mappings()]
    adj: dict[Sentence, set[Sentence]] = defaultdict(set)
    for a, b in [*edges, *recorded]:
        adj[a].add(b)
        adj[b].add(a)

    # NV015: declared static mappings the run never exercised, per source
    if edges:
        observed = set(intervals)
        recorded_sources = {a for a, _b in recorded}
        dead: dict[Sentence, int] = defaultdict(int)
        for src, _dst in edges:
            if src not in observed and src not in recorded_sources:
                dead[src] += 1
        for src in sorted(dead, key=str):
            n = dead[src]
            out.append(
                diag(
                    "NV015",
                    f"{n} static mapping{'s' if n != 1 else ''} from {src} "
                    f"never exercised: source sentence never active in this trace",
                    path,
                )
            )

    if len(known) < 2:
        return out  # a single known level has nothing to leak to

    top_rank = max(ranks[lv] for lv in known)
    top_levels = {lv for lv in known if ranks[lv] == top_rank}

    # reachability: everything connected to a top-level sentence by mappings
    frontier = [s for s in adj if s.abstraction in top_levels]
    frontier += [s for s in intervals if s.abstraction in top_levels and s in adj]
    reachable: set[Sentence] = set(frontier)
    while frontier:
        node = frontier.pop()
        for nxt in adj[node]:
            if nxt not in reachable:
                reachable.add(nxt)
                frontier.append(nxt)

    # co-activity: merged activity spans of the top abstraction
    top_spans = sorted(
        iv for s, ivs in intervals.items() if s.abstraction in top_levels for iv in ivs
    )

    by_level: dict[str, list[Sentence]] = defaultdict(list)
    for sent in intervals:
        lv = sent.abstraction
        if lv in ranks and ranks[lv] < top_rank:
            by_level[lv].append(sent)

    for lv in sorted(by_level):
        attributed: list[Sentence] = []
        orphaned: list[Sentence] = []
        for sent in by_level[lv]:
            if sent in reachable or _overlaps(intervals[sent], top_spans):
                attributed.append(sent)
            else:
                orphaned.append(sent)
        if not attributed:
            names = ", ".join(sorted(str(s) for s in orphaned)[:4])
            more = len(orphaned) - 4
            suffix = f" (+{more} more)" if more > 0 else ""
            out.append(
                diag(
                    "NV013",
                    f"attribution leak: no sentence at level {lv!r} has a static "
                    f"mapping path or co-activity with the top abstraction; "
                    f"all its cost is lost ({names}{suffix})",
                    path,
                )
            )
        else:
            for sent in sorted(orphaned, key=str):
                out.append(
                    diag(
                        "NV014",
                        f"sentence {sent} at level {lv!r} is never attributable "
                        f"to the top abstraction",
                        path,
                    )
                )
    return out
