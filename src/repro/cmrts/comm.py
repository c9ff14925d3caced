"""CMRTS communication layer: matched receives and SPMD collectives.

All collectives are built from point-to-point messages on the simulated
network, executed inside per-node processes.  Each helper is a generator to
``yield from`` within a node process.

Message matching: a node's inbox is a single FIFO, but distinct operations
may interleave arrivals from different peers, so :class:`NodeComm` provides
tag/source-matched receives with local buffering of out-of-order messages.

Transfer planning: data-motion operations (shift, transpose, sort
redistribution) are described by :class:`Transfer` lists computed by *pure
functions of the partition metadata*.  Every node needs the same plan
(SPMD), so no coordination messages are needed to agree on who sends what --
matching how real runtime systems hoist this math out of the data path.  The
simulator computes each distinct plan once per run
(:meth:`repro.cmrts.runtime.CMRTSRuntime.transfer_plan`); planning charges
no virtual time, so sharing it changes nothing simulated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Generator

from ..machine.network import CONTROL_PROCESSOR, Network

if TYPE_CHECKING:  # pragma: no cover
    import numpy as np

__all__ = [
    "NodeComm",
    "Transfer",
    "plan_shift_transfers",
    "plan_transpose_transfers",
    "plan_redistribution",
    "tree_reduce_to_zero",
    "tree_broadcast_from_zero",
    "chain_exclusive_scan",
]


class NodeComm:
    """Per-node communication endpoint with matched receives."""

    def __init__(self, network: Network, node_id: int):
        self.network = network
        self.node_id = node_id
        self._pending: list[Any] = []
        self.on_send: list[Callable[[int, str, int], None]] = []
        self.on_send_done: list[Callable[[int, str, int], None]] = []

    def send(self, dst: int, tag: str, payload: Any, size_bytes: int) -> Generator:
        """Point-to-point send with observer hooks around the occupation."""
        for cb in self.on_send:
            cb(dst, tag, size_bytes)
        yield from self.network.send(self.node_id, dst, tag, payload, size_bytes)
        for cb in self.on_send_done:
            cb(dst, tag, size_bytes)

    def send_to_cp(self, tag: str, payload: Any, size_bytes: int) -> Generator:
        yield from self.send(CONTROL_PROCESSOR, tag, payload, size_bytes)

    def recv(self, src: int | None = None, tag: str | None = None) -> Generator:
        """Receive the next message matching ``src``/``tag`` (None = any).

        Non-matching arrivals are buffered and delivered to later matching
        receives in arrival order.
        """

        def matches(msg) -> bool:
            return (src is None or msg.src == src) and (tag is None or msg.tag == tag)

        for i, msg in enumerate(self._pending):
            if matches(msg):
                return self._pending.pop(i)
        while True:
            msg = yield from self.network.receive(self.node_id)
            if matches(msg):
                return msg
            self._pending.append(msg)


# ----------------------------------------------------------------------
# transfer planning (pure functions -- every node needs the same plan)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Transfer:
    """One contiguous block move: src node's local rows -> dst node's rows.

    ``src_rows`` and ``dst_rows`` are half-open *global* row ranges of equal
    length in the source and destination arrays respectively.
    """

    src_node: int
    dst_node: int
    src_rows: tuple[int, int]
    dst_rows: tuple[int, int]

    @property
    def nrows(self) -> int:
        return self.src_rows[1] - self.src_rows[0]


def _segments_to_transfers(
    src_ranges: list[tuple[int, int]],
    dst_ranges: list[tuple[int, int]],
    segments: list[tuple[int, int, int]],
) -> list[Transfer]:
    """Split (src_lo, src_hi, dst_lo) segments on both partitions' seams."""
    out: list[Transfer] = []
    src_cuts = sorted({b for lo, hi in src_ranges for b in (lo, hi)})
    dst_cuts = sorted({c for lo, hi in dst_ranges for c in (lo, hi)})
    for src_lo, src_hi, dst_lo in segments:
        if src_hi <= src_lo:
            continue
        # split on source ownership boundaries
        pieces = [src_lo]
        for cut in src_cuts:
            if src_lo < cut < src_hi:
                pieces.append(cut)
        pieces.append(src_hi)
        for a, b in zip(pieces, pieces[1:], strict=False):
            d_lo = dst_lo + (a - src_lo)
            # split further on destination ownership boundaries
            sub = [a]
            for cut in dst_cuts:
                rel = cut - d_lo
                if 0 < rel < b - a:
                    sub.append(a + rel)
            sub.append(b)
            for u, v in zip(sub, sub[1:], strict=False):
                src_node = _owner(u, src_ranges)
                dst_node = _owner(d_lo + (u - a), dst_ranges)
                out.append(
                    Transfer(src_node, dst_node, (u, v), (d_lo + (u - a), d_lo + (v - a)))
                )
    out.sort(key=lambda t: (t.src_node, t.dst_node, t.src_rows))
    return out


def _owner(row: int, ranges: list[tuple[int, int]]) -> int:
    for p, (lo, hi) in enumerate(ranges):
        if lo <= row < hi:
            return p
    raise IndexError(f"row {row} outside {ranges}")


def plan_shift_transfers(
    n: int,
    ranges: list[tuple[int, int]],
    amount: int,
    circular: bool,
    dst_ranges: list[tuple[int, int]] | None = None,
) -> list[Transfer]:
    """Transfers implementing ``dst[i] = src[i + amount]``.

    CSHIFT wraps (``circular=True``); EOSHIFT drops out-of-range elements
    (the destination keeps its fill value there).  A shift decomposes into at
    most two wrapped segments of the source index space.
    """
    if dst_ranges is None:
        dst_ranges = ranges
    if circular:
        amount %= n
        if amount == 0:
            segments = [(0, n, 0)]
        else:
            # dst rows [0, n-amount) read src [amount, n); dst rows
            # [n-amount, n) read src [0, amount)
            segments = [(amount, n, 0), (0, amount, n - amount)]
    else:
        if amount >= 0:
            src_lo, src_hi = amount, n
            dst_lo = 0
        else:
            src_lo, src_hi = 0, n + amount
            dst_lo = -amount
        if src_hi <= src_lo:
            segments = []
        else:
            segments = [(src_lo, src_hi, dst_lo)]
    return _segments_to_transfers(ranges, dst_ranges, segments)


def plan_transpose_transfers(
    src_ranges: list[tuple[int, int]], dst_ranges: list[tuple[int, int]]
) -> list[tuple[int, int]]:
    """(src_node, dst_node) pairs for the all-to-all transpose exchange.

    Each pair moves ``src_local[:, dst_lo:dst_hi]`` transposed; pairs with an
    empty side are omitted.
    """
    pairs = []
    for p, (slo, shi) in enumerate(src_ranges):
        if shi <= slo:
            continue
        for q, (dlo, dhi) in enumerate(dst_ranges):
            if dhi <= dlo:
                continue
            pairs.append((p, q))
    return pairs


def plan_redistribution(
    counts: list[int], dst_ranges: list[tuple[int, int]]
) -> list[Transfer]:
    """Transfers moving variably-sized per-node chunks back to block layout.

    ``counts[p]`` rows currently live on node ``p`` (in global order by
    node); the result must obey ``dst_ranges``.  Used by sample sort.
    """
    segments = []
    offset = 0
    src_ranges = []
    for count in counts:
        src_ranges.append((offset, offset + count))
        offset += count
    total = offset
    if total != dst_ranges[-1][1] - dst_ranges[0][0]:
        raise ValueError("row counts do not match destination partition")
    segments = [(lo, hi, lo) for lo, hi in src_ranges if hi > lo]
    return _segments_to_transfers(src_ranges, dst_ranges, segments)


# ----------------------------------------------------------------------
# collectives (generators -- ``yield from`` inside node processes)
# ----------------------------------------------------------------------
def tree_reduce_to_zero(
    comm: NodeComm,
    num_nodes: int,
    value: float,
    combine: Callable[[float, float], float],
    tag: str,
    elem_bytes: int = 8,
) -> Generator:
    """Binary-tree combine; returns the full result on node 0 (None elsewhere).

    Round ``r``: nodes with bit ``r`` set send their partial to the node
    ``2**r`` below and drop out; works for non-power-of-two node counts.
    """
    me = comm.node_id
    stride = 1
    while stride < num_nodes:
        if me % (2 * stride) == 0:
            partner = me + stride
            if partner < num_nodes:
                msg = yield from comm.recv(src=partner, tag=tag)
                value = combine(value, msg.payload)
        elif me % (2 * stride) == stride:
            yield from comm.send(me - stride, tag, value, elem_bytes)
            return None
        stride *= 2
    return value if me == 0 else None


def tree_broadcast_from_zero(
    comm: NodeComm,
    num_nodes: int,
    value: Any,
    tag: str,
    size_bytes: int,
) -> Generator:
    """Binary-tree broadcast of node 0's ``value``; returns it on every node."""
    me = comm.node_id
    if me != 0:
        msg = yield from comm.recv(tag=tag)
        value = msg.payload
    # highest power of two at/below my position determines my subtree
    stride = 1
    while stride < num_nodes:
        stride *= 2
    stride //= 2
    while stride >= 1:
        if me % (2 * stride) == 0:
            partner = me + stride
            if partner < num_nodes:
                yield from comm.send(partner, tag, value, size_bytes)
        stride //= 2
    return value


def chain_exclusive_scan(
    comm: NodeComm,
    num_nodes: int,
    local_total: float,
    tag: str,
    elem_bytes: int = 8,
) -> Generator:
    """Linear-chain exclusive prefix: node p gets sum of totals of nodes < p."""
    me = comm.node_id
    offset = 0.0
    if me > 0:
        msg = yield from comm.recv(src=me - 1, tag=tag)
        offset = msg.payload
    if me < num_nodes - 1:
        yield from comm.send(me + 1, tag, offset + local_total, elem_bytes)
    return offset


def _np_bytes(arr: np.ndarray) -> int:
    return int(arr.nbytes)
