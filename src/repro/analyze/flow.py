"""Symbolic attribution-flow verification over the mapping graph.

The NV passes in :mod:`.nv` are record-local or heuristic: NV008 flags
the relay-diamond *shape*, NV007 asks whether a level is *connected* to
the top.  This pass closes the gap with an abstract interpretation of
the whole sentence-level mapping graph: every measured source sentence
carries one unit of attribution mass, every mapping edge forwards an
exact :class:`fractions.Fraction` of it (the split discipline: ``1/k``
per out-edge of a fan-out of ``k``), and conservation is *proved* or
refuted with exact arithmetic -- no trace required.

Orientation.  The paper maps both upward (dynamic) and downward
(static); attribution, however, always flows toward the top
abstraction.  Cross-rank mapping edges are therefore oriented from the
lower-rank endpoint to the higher-rank endpoint regardless of record
direction, while same-rank edges keep their record direction.  On the
resulting graph, a *source* is a node with no incoming edges and at
least one outgoing edge (a measured entity), and a *sink* is a node
with no outgoing edges.

Verdicts (all with exact fractions and explicit path witnesses):

* **NV017 -- proven double-count.**  Some source reaches some node
  along two or more distinct directed paths.  Under per-path (merge)
  accounting the sink is charged once per path; under split accounting
  the two routes deliver different fractions.  No split/merge policy
  reconciles them, so this is the exact form of the NV008 hazard --
  including deep relays (``S -> X -> Y -> D`` next to ``S -> D``) the
  overlap heuristic cannot see.  A directed cycle is the degenerate
  case (unboundedly many paths) and reports the cycle itself as the
  witness.
* **NV018 -- proven leak.**  A positive fraction of a source's mass
  terminates at a sink below the top rank: the mass can never be
  presented against the top abstraction.  The exact leaked fraction and
  one witness path are reported.

A graph with neither finding is *conservative*: every source delivers
exactly mass 1 to top-rank sinks, which :class:`FlowReport` exposes as
a checkable proof (``delivered[src] == Fraction(1)`` summed over
per-sink contributions).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import TYPE_CHECKING

from ..pif.records import MappingDef, PIFDocument, SentenceRef
from .diagnostics import Diagnostic, diag
from .nv import _check_mappings, _ref_levels

if TYPE_CHECKING:
    from ..core.nouns import Sentence
    from ..core.mapping import MappingGraph

__all__ = ["FlowReport", "SourceVerdict", "analyze_flow", "verify_graph"]


@dataclass(frozen=True)
class SourceVerdict:
    """Conservation accounting for one source node, in exact arithmetic."""

    source: str
    delivered: Fraction  #: mass arriving at top-rank sinks (split discipline)
    leaked: Fraction  #: mass dying at below-top sinks
    multipath: bool  #: some node is reached along >= 2 distinct paths

    @property
    def conservative(self) -> bool:
        return self.delivered == 1 and self.leaked == 0 and not self.multipath


@dataclass
class FlowReport:
    """The result of one flow verification: proof or counterexamples."""

    sources: list[str] = field(default_factory=list)
    sinks: list[str] = field(default_factory=list)
    #: total split-discipline mass arriving at each sink, all sources summed
    sink_mass: dict[str, Fraction] = field(default_factory=dict)
    verdicts: dict[str, SourceVerdict] = field(default_factory=dict)
    diagnostics: list[Diagnostic] = field(default_factory=list)
    cyclic: bool = False

    @property
    def conservative(self) -> bool:
        """True when conservation is proved for every source."""
        if self.cyclic:
            return False
        return all(v.conservative for v in self.verdicts.values())


# ----------------------------------------------------------------------
# graph construction
# ----------------------------------------------------------------------
def _node_rank(levels: set[str], ranks: dict[str, int]) -> int | None:
    """A node's rank: the most abstract level its names resolve to."""
    known = [ranks[name] for name in levels if name in ranks]
    return max(known) if known else None


def _oriented_edges(
    doc: PIFDocument, mappings: list[MappingDef], ranks: dict[str, int]
) -> tuple[dict[str, list[str]], dict[str, int | None], dict[tuple[str, str], int]]:
    """Upward-oriented sentence graph from resolvable mapping records.

    Returns ``(succ, node_ranks, edge_records)`` where ``succ`` maps each
    node (sentence ref rendered as text) to its sorted successors,
    ``node_ranks`` carries each node's rank, and ``edge_records`` the
    canonical record index witnessing each edge (for diagnostics).
    """
    node_ranks: dict[str, int | None] = {}
    succ: dict[str, set[str]] = defaultdict(set)
    edge_records: dict[tuple[str, str], int] = {}

    def register(ref: SentenceRef) -> str:
        key = str(ref)
        if key not in node_ranks:
            node_ranks[key] = _node_rank(_ref_levels(doc, ref), ranks)
        return key

    mapping_index = {id(md): i for i, md in enumerate(doc.mappings)}
    base = len(doc.levels) + len(doc.nouns) + len(doc.verbs)
    for md in mappings:
        a, b = register(md.source), register(md.destination)
        if a == b:
            continue
        ra, rb = node_ranks[a], node_ranks[b]
        if ra is not None and rb is not None and ra > rb:
            a, b = b, a  # orient toward the higher rank
        succ[a].add(b)
        succ.setdefault(b, set())
        rec = mapping_index.get(id(md))
        if rec is not None:
            edge_records.setdefault((a, b), base + rec)
    return (
        {node: sorted(nxts) for node, nxts in succ.items()},
        node_ranks,
        edge_records,
    )


def _find_cycle(succ: dict[str, list[str]]) -> list[str] | None:
    """A directed cycle as a node list (first == last), or None."""
    WHITE, GRAY, BLACK = 0, 1, 2
    color: dict[str, int] = defaultdict(int)
    stack: list[str] = []

    def visit(node: str) -> list[str] | None:
        color[node] = GRAY
        stack.append(node)
        for nxt in succ.get(node, ()):
            if color[nxt] == GRAY:
                return stack[stack.index(nxt) :] + [nxt]
            if color[nxt] == WHITE:
                found = visit(nxt)
                if found is not None:
                    return found
        stack.pop()
        color[node] = BLACK
        return None

    for node in sorted(succ):
        if color[node] == WHITE:
            found = visit(node)
            if found is not None:
                return found
    return None


def _topo_order(succ: dict[str, list[str]]) -> list[str]:
    indeg: dict[str, int] = {node: 0 for node in succ}
    for nxts in succ.values():
        for nxt in nxts:
            indeg[nxt] += 1
    queue = deque(sorted(node for node, d in indeg.items() if d == 0))
    order: list[str] = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for nxt in succ[node]:
            indeg[nxt] -= 1
            if indeg[nxt] == 0:
                queue.append(nxt)
    return order


def _two_paths(succ: dict[str, list[str]], src: str, dst: str) -> list[list[str]]:
    """Up to two distinct directed paths src -> dst (DFS, deterministic)."""
    found: list[list[str]] = []

    def walk(node: str, path: list[str]) -> None:
        if len(found) >= 2:
            return
        if node == dst:
            found.append(path.copy())
            return
        for nxt in succ.get(node, ()):
            if nxt not in path:  # acyclic graph: containment check is cheap
                path.append(nxt)
                walk(nxt, path)
                path.pop()

    walk(src, [src])
    return found


def _render_path(path: list[str]) -> str:
    return " -> ".join(path)


# ----------------------------------------------------------------------
# the verifier core (shared by the PIF and MappingGraph front doors)
# ----------------------------------------------------------------------
def _verify(
    succ: dict[str, list[str]],
    node_ranks: dict[str, int | None],
    top_rank: int | None,
    path: str,
    edge_records: dict[tuple[str, str], int] | None = None,
) -> FlowReport:
    report = FlowReport()
    if not succ:
        return report
    edge_records = edge_records or {}

    cycle = _find_cycle(succ)
    if cycle is not None:
        report.cyclic = True
        rec = edge_records.get((cycle[0], cycle[1]))
        report.diagnostics.append(
            diag(
                "NV017",
                "mass circulates: mapping cycle "
                + _render_path(cycle)
                + " re-attributes the same cost unboundedly",
                path,
                record=rec,
            )
        )
        return report

    indeg: dict[str, int] = {n: 0 for n in succ}
    for nxts in succ.values():
        for nxt in nxts:
            indeg[nxt] += 1
    sources = sorted(n for n in succ if succ[n] and indeg[n] == 0)
    sinks = sorted(n for n in succ if not succ[n])
    report.sources = sources
    report.sinks = sinks
    order = _topo_order(succ)
    outdeg = {n: len(succ[n]) for n in succ}
    totals: dict[str, Fraction] = defaultdict(Fraction)

    for src in sources:
        # split-discipline mass and exact path counts, one DP pass each
        mass: dict[str, Fraction] = defaultdict(Fraction)
        paths: dict[str, int] = defaultdict(int)
        mass[src] = Fraction(1)
        paths[src] = 1
        for node in order:
            if not mass[node] and not paths[node]:
                continue
            for nxt in succ[node]:
                mass[nxt] += mass[node] / outdeg[node]
                paths[nxt] += paths[node]

        multipath = False
        for node in order:
            if paths[node] < 2:
                continue
            multipath = True
            witnesses = _two_paths(succ, src, node)
            first_hop = witnesses[0][1] if len(witnesses[0]) > 1 else node
            rec = edge_records.get((src, first_hop))
            report.diagnostics.append(
                diag(
                    "NV017",
                    f"double-counted attribution: {node} receives {src}'s mass "
                    f"along {paths[node]} distinct paths "
                    f"(split delivers {mass[node]}, merge charges {paths[node]}x); "
                    "witness paths: "
                    + "; ".join(_render_path(p) for p in witnesses),
                    path,
                    record=rec,
                )
            )
            break  # one exact witness per source keeps output focused

        delivered = Fraction(0)
        leaked = Fraction(0)
        for sink in sinks:
            if not mass[sink]:
                continue
            totals[sink] += mass[sink]
            rank = node_ranks.get(sink)
            if top_rank is None or rank == top_rank:
                delivered += mass[sink]
            else:
                leaked += mass[sink]
                witness = _two_paths(succ, src, sink)
                rec = edge_records.get(
                    (src, witness[0][1] if len(witness[0]) > 1 else sink)
                )
                report.diagnostics.append(
                    diag(
                        "NV018",
                        f"attribution leak: {mass[sink]} of {src}'s mass dies at "
                        f"{sink} (rank {rank} < top rank {top_rank}); "
                        f"witness path: {_render_path(witness[0])}",
                        path,
                        record=rec,
                    )
                )
        report.verdicts[src] = SourceVerdict(
            source=src, delivered=delivered, leaked=leaked, multipath=multipath
        )

    report.sink_mass = dict(totals)
    return report


# ----------------------------------------------------------------------
# front doors
# ----------------------------------------------------------------------
def analyze_flow(doc: PIFDocument, path: str = "") -> FlowReport:
    """Verify attribution conservation for one PIF document.

    Only fully-resolvable mappings participate (the same discipline the
    NV005 pass establishes); a document without mappings is vacuously
    conservative.  Diagnostics carry the canonical record index of a
    witness mapping so DSL consumers can re-anchor them to source spans.
    """
    scratch: list[Diagnostic] = []
    resolvable = _check_mappings(doc, path, scratch)
    ranks: dict[str, int] = {}
    for lv in doc.levels:
        ranks.setdefault(lv.name, lv.rank)
    top_rank = max(ranks.values()) if ranks else None
    succ, node_ranks, edge_records = _oriented_edges(doc, resolvable, ranks)
    return _verify(succ, node_ranks, top_rank, path, edge_records)


def verify_graph(
    graph: "MappingGraph", level_ranks: dict[str, int], path: str = ""
) -> FlowReport:
    """Verify a live :class:`~repro.core.mapping.MappingGraph`.

    The dynamic-tool front door: the same proof over in-memory
    :class:`~repro.core.mapping.Mapping` edges, with node ranks taken
    from each sentence's abstraction level.  Unknown levels get rank
    ``None`` and are treated as top (never reported as leaks), matching
    the sanitizer's benefit-of-the-doubt for NV016 levels.
    """
    succ: dict[str, set[str]] = defaultdict(set)
    node_ranks: dict[str, int | None] = {}

    def rank_of(sentence: "Sentence") -> int | None:
        return level_ranks.get(sentence.abstraction)

    for mapping in graph.edges():
        a, b = mapping.source, mapping.destination
        ka, kb = str(a), str(b)
        node_ranks.setdefault(ka, rank_of(a))
        node_ranks.setdefault(kb, rank_of(b))
        ra, rb = node_ranks[ka], node_ranks[kb]
        if ra is not None and rb is not None and ra > rb:
            ka, kb = kb, ka
        succ[ka].add(kb)
        succ.setdefault(kb, set())
    ordered = {node: sorted(nxts) for node, nxts in succ.items()}
    top_rank = max(level_ranks.values()) if level_ranks else None
    # unknown-rank nodes count as top: mark them so _verify never leaks them
    for node, rank in node_ranks.items():
        if rank is None:
            node_ranks[node] = top_rank
    return _verify(ordered, node_ranks, top_rank, path)
