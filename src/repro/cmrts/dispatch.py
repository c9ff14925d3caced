"""The CMRTS node code block dispatcher.

Each node runs :meth:`NodeWorker.main`: wait (idle) for a dispatch from the
control processor, process the broadcast arguments, reset vector units if
needed, interpret the block's ops, and acknowledge.  This loop is where the
paper's measurement hooks live:

* **instrumentation points** -- probe callouts (entry/exit) around every
  activity, named ``cmrts.*`` (see :data:`POINTS`); a callout at a point
  with nothing inserted is skipped before its context is built, so it costs
  neither virtual nor host time;
* **SAS notifications** -- "The CMRTS node code block dispatcher notifies
  the SAS of array activation/deactivation by sending the input arguments
  for each node code block to the SAS" (Section 6.1).  Statement sentences
  ({lineN Executes}) and per-array operation sentences ({A Sum}, {A Compute})
  activate for the duration of the block; Base-level message-send sentences
  bracket each point-to-point send.  Notifications carry sentence ids of
  the run's sentence table, resolved once per sentence and node.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

import numpy as np

from ..cmfortran import (
    Elementwise,
    HaloExchange,
    LocalReduce,
    NodeCodeBlock,
    Scan,
    Shift,
    Sort,
    Transpose,
    combine,
    eval_expr,
    REDUCE_FUNCS,
    REDUCE_IDENTITY,
)
from ..core.nouns import SentenceTable
from .arrays import ParallelArray
from .comm import (
    NodeComm,
    chain_exclusive_scan,
    plan_redistribution,
    plan_shift_transfers,
    plan_transpose_transfers,
    tree_broadcast_from_zero,
    tree_reduce_to_zero,
)
from .nv import POINTS, array_op, cmrts_activity, line_executes, processor_sends

if TYPE_CHECKING:  # pragma: no cover
    from .runtime import CMRTSRuntime

__all__ = ["POINTS", "NodeWorker", "block_verb_for_array"]


def block_verb_for_array(block: NodeCodeBlock, array: str) -> str:
    """The CMF-level verb a block performs on ``array`` (for SAS sentences)."""
    for op in block.ops:
        if isinstance(op, LocalReduce) and op.array == array:
            return op.verb
        if isinstance(op, (Shift,)) and array in (op.source, op.target):
            return "Rotate" if op.circular else "Shift"
        if isinstance(op, Transpose) and array in (op.source, op.target):
            return "Transpose"
        if isinstance(op, Scan) and array in (op.source, op.target):
            return "Scan"
        if isinstance(op, Sort) and array == op.array:
            return "Sort"
    return "Compute"


# probe contexts, built only for armed points (see NodeWorker._probe)
def _block_ctx(block: NodeCodeBlock, nbytes: int | None = None) -> dict:
    ctx = {"block": block.name, "kind": block.kind, "arrays": block.arrays_used,
           "lines": block.lines}
    if nbytes is not None:
        ctx["bytes"] = nbytes
    return ctx


def _op_ctx(block: NodeCodeBlock, verb: str, arrays: tuple, line: int,
            elements: int | None = None) -> dict:
    ctx = {"block": block.name, "verb": verb, "arrays": arrays, "lines": (line,)}
    if elements is not None:
        ctx["elements"] = elements
    return ctx


def _send_ctx(dst: int, tag: str, nbytes: int) -> dict:
    return {"dst": dst, "tag": tag, "bytes": nbytes}


@dataclass
class _OpStats:
    """Per-node tallies kept as ground truth for tests."""

    blocks: int = 0
    elementwise_elements: int = 0
    reduces: int = 0
    p2p_sends: int = 0


class NodeWorker:
    """SPMD worker process for one node."""

    def __init__(self, runtime: "CMRTSRuntime", node_id: int):
        self.runtime = runtime
        self.node_id = node_id
        self.node = runtime.machine.nodes[node_id]
        self.comm = NodeComm(runtime.machine.network, node_id)
        self.temps: dict[str, np.ndarray] = {}
        self.stats = _OpStats()
        self._tag_counter = 0
        self._pending_cost = 0.0
        # the notifier and the notification sentence ids are bound when
        # main() starts (_bind_sentences); id(block) -> (block, statement
        # sids, (site, sid) pairs)
        self._notifier = None
        self._block_sids: dict[int, tuple] = {}
        self.comm.on_send.append(self._on_send)
        self.comm.on_send_done.append(self._on_send_done)

    # ------------------------------------------------------------------
    # measurement plumbing
    # ------------------------------------------------------------------
    def _probe(self, point: str, phase: str, ctx_of=None, *args) -> None:
        """Fire a probe callout with context ``ctx_of(*args)`` (empty without
        ``ctx_of``) and accumulate its perturbation cost -- unless nothing is
        inserted at (point, phase): then no context is built and ``fire`` is
        not called, since an uninstrumented point costs nothing."""
        probe = self.runtime.probe
        if probe.armed(point, phase):
            ctx = ctx_of(*args) if ctx_of is not None else {}
            cost = probe.fire(point, phase, self.node_id, ctx)
            if cost:
                self._pending_cost += cost

    def _bind_sentences(self) -> int:
        """Resolve this node's notification sentences to ids of its SAS's
        table (a private one without a notifier); returns the Idle sid.

        Called when :meth:`main` starts: a tool attaches the notifier, and
        with it the run's table, after the runtime built its workers.
        """
        self._notifier = notifier = self.runtime.notifier
        if notifier is not None:
            sid = notifier.sas(self.node_id).sid
        else:
            sid = SentenceTable().sid
        self._sid = sid
        node_id = self.node_id
        self._msg_sid = sid(processor_sends(node_id))
        self._p2p_sid = sid(cmrts_activity("PointToPoint", node_id))
        self._arg_sid = sid(cmrts_activity("ArgumentProcessing", node_id))
        self._cleanup_sid = sid(cmrts_activity("Cleanup", node_id))
        self._reduction_sid = sid(cmrts_activity("Reduction", node_id))
        return sid(cmrts_activity("Idle", node_id))

    def _notify(self, site: str, sid: int, activate: bool) -> None:
        notifier = self._notifier
        if notifier is None:
            return
        if activate:
            self._pending_cost += notifier.activate_sid(self.node_id, site, sid)
        else:
            self._pending_cost += notifier.deactivate_sid(self.node_id, site, sid)

    def _flush_cost(self) -> Generator:
        """Charge accumulated instrumentation/notification cost as time."""
        if self._pending_cost > 0.0:
            cost, self._pending_cost = self._pending_cost, 0.0
            yield from self.node.busy(cost, "instrumentation")

    def _on_send(self, dst: int, tag: str, size: int) -> None:
        # Figure 5: the Send sentence must be in the SAS before any probe at
        # this point queries it, so notifications precede the entry callout.
        self.stats.p2p_sends += 1
        self._notify("msg", self._msg_sid, True)
        self._notify("cmrts", self._p2p_sid, True)
        self._probe("cmrts.p2p", "entry", _send_ctx, dst, tag, size)

    def _on_send_done(self, dst: int, tag: str, size: int) -> None:
        self._probe("cmrts.p2p", "exit", _send_ctx, dst, tag, size)
        self._notify("msg", self._msg_sid, False)
        self._notify("cmrts", self._p2p_sid, False)

    def _sids_of(self, block: NodeCodeBlock) -> tuple:
        """``block``'s statement and array sentence ids, resolved on its
        first execution on this node (the cached entry keeps ``block``
        alive, so its id is not reused)."""
        cached = self._block_sids.get(id(block))
        if cached is None:
            source = self.runtime.program.source_file
            sid = self._sid
            cached = self._block_sids[id(block)] = (
                block,
                [sid(line_executes(line, source)) for line in block.lines],
                [
                    (f"array.{a}", sid(array_op(block_verb_for_array(block, a), a)))
                    for a in block.arrays_used
                ],
            )
        return cached[1], cached[2]

    def _tag(self, stem: str) -> str:
        self._tag_counter += 1
        return f"{stem}:{self._tag_counter}"

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def main(self) -> Generator:
        idle_sid = self._bind_sentences()
        while True:
            self._probe("cmrts.idle", "entry")
            self._notify("cmrts", idle_sid, True)
            yield from self._flush_cost()
            msg = yield from self.node.idle_receive()
            self._notify("cmrts", idle_sid, False)
            self._probe("cmrts.idle", "exit")
            if msg.tag == "shutdown":
                yield from self._flush_cost()
                return
            if msg.tag != "dispatch":
                raise RuntimeError(f"node {self.node_id}: unexpected {msg.tag!r}")
            block, scalars = msg.payload
            self.node.activations += 1
            self._probe("cmrts.broadcast", "entry", dict, (("bytes", msg.size_bytes),))
            self._probe("cmrts.node_activation", "entry", dict, (("block", block.name),))
            yield from self._execute_block(block, scalars, msg.size_bytes)
            yield from self.comm.send_to_cp("ack", (self.node_id, block.name), 16)
            yield from self._flush_cost()

    # ------------------------------------------------------------------
    # block execution
    # ------------------------------------------------------------------
    def _execute_block(self, block: NodeCodeBlock, scalars: dict, arg_bytes: int) -> Generator:
        cfg = self.runtime.config
        self._probe("cmrts.block", "entry", _block_ctx, block)

        # SAS: statement + array sentences become active (Figure 5's state)
        stmt_sids, array_sids = self._sids_of(block)
        for sid in stmt_sids:
            self._notify("stmt", sid, True)
        for site, sid in array_sids:
            self._notify(site, sid, True)

        # argument processing: unpack the broadcast (time scales with size)
        self._probe("cmrts.argument_processing", "entry", _block_ctx, block, arg_bytes)
        self._notify("cmrts", self._arg_sid, True)
        yield from self._flush_cost()
        yield from self.node.busy(
            cfg.arg_fixed_time + arg_bytes * cfg.arg_byte_time, "argument_processing"
        )
        self._notify("cmrts", self._arg_sid, False)
        self._probe("cmrts.argument_processing", "exit", _block_ctx, block, arg_bytes)

        # vector-unit cleanup on context switch
        if self.node.vu_dirty:
            self._probe("cmrts.cleanup", "entry", _block_ctx, block)
            self._notify("cmrts", self._cleanup_sid, True)
            yield from self._flush_cost()
            yield from self.node.cleanup_vector_units(cfg.cleanup_time)
            self._notify("cmrts", self._cleanup_sid, False)
            self._probe("cmrts.cleanup", "exit", _block_ctx, block)

        self.temps.clear()
        for op in block.ops:
            yield from self._execute_op(op, block, scalars)

        for site, sid in reversed(array_sids):
            self._notify(site, sid, False)
        for sid in reversed(stmt_sids):
            self._notify("stmt", sid, False)
        self._probe("cmrts.block", "exit", _block_ctx, block)
        self.stats.blocks += 1
        yield from self._flush_cost()

    def _execute_op(self, op, block: NodeCodeBlock, scalars: dict) -> Generator:
        if isinstance(op, Elementwise):
            yield from self._op_elementwise(op, block, scalars)
        elif isinstance(op, HaloExchange):
            yield from self._op_halo(op, block)
        elif isinstance(op, LocalReduce):
            yield from self._op_reduce(op, block)
        elif isinstance(op, Shift):
            yield from self._op_shift(op, block)
        elif isinstance(op, Transpose):
            yield from self._op_transpose(op, block)
        elif isinstance(op, Scan):
            yield from self._op_scan(op, block)
        elif isinstance(op, Sort):
            yield from self._op_sort(op, block)
        else:  # pragma: no cover - lowering emits only the above
            raise RuntimeError(f"unknown block op {op!r}")

    # -- elementwise -------------------------------------------------------
    def _op_elementwise(self, op: Elementwise, block: NodeCodeBlock, scalars: dict) -> Generator:
        me = self.node_id
        target = self.runtime.heap.get(op.target)
        env: dict[str, np.ndarray | float] = {}
        for name in block.arrays_used:
            if name in self.runtime.heap:
                env[name] = self.runtime.heap.get(name).local(me)
        env.update(self.temps)
        env.update(scalars)
        local = target.local(me)
        my_lo, my_hi = target.local_range(me)
        elements = local.size
        where = (block, "Compute", block.arrays_used, op.line)
        self._probe("cmrts.compute", "entry", _op_ctx, *where, elements)
        yield from self._flush_cost()
        result = eval_expr(op.expr, env)
        if op.index_range is None:
            local[...] = result
        else:
            lo, hi = op.index_range
            s_lo, s_hi = max(lo, my_lo), min(hi, my_hi)
            if s_lo < s_hi:
                sel = slice(s_lo - my_lo, s_hi - my_lo)
                if isinstance(result, np.ndarray):
                    local[sel] = result[sel]
                else:
                    local[sel] = result
        self.stats.elementwise_elements += elements
        yield from self.node.compute(elements * max(1, op.ops_per_element))
        self._probe("cmrts.compute", "exit", _op_ctx, *where, elements)
        yield from self._flush_cost()

    # -- halo / shift data motion ------------------------------------------
    def _move_rows(
        self,
        src: ParallelArray,
        dst_local: np.ndarray,
        dst_ranges: list[tuple[int, int]],
        transfers,
        tag: str,
        row_bytes: int,
        src_local: np.ndarray | None = None,
    ) -> Generator:
        """Execute a transfer plan: local copies, sends, matched receives.

        ``src_local`` overrides the source block (callers pass a snapshot
        when source and destination alias, e.g. ``A = CSHIFT(A, k)``, so
        placements can't clobber rows still needed by later sends).
        """
        me = self.node_id
        my_src_lo = src.local_range(me)[0]
        my_dst_lo = dst_ranges[me][0]
        if src_local is None:
            src_local = src.local(me)
        if src_local is dst_local:
            src_local = np.array(src_local)
        moved = 0
        expected = 0
        for t in transfers:
            if t.src_node == me and t.dst_node == me:
                rows = src_local[t.src_rows[0] - my_src_lo : t.src_rows[1] - my_src_lo]
                dst_local[t.dst_rows[0] - my_dst_lo : t.dst_rows[1] - my_dst_lo] = rows
                moved += t.nrows
            elif t.src_node == me:
                rows = src_local[t.src_rows[0] - my_src_lo : t.src_rows[1] - my_src_lo]
                yield from self.comm.send(
                    t.dst_node, tag, (t.dst_rows, np.array(rows)), t.nrows * row_bytes
                )
                moved += t.nrows
            elif t.dst_node == me:
                expected += 1
        for _ in range(expected):
            msg = yield from self.comm.recv(tag=tag)
            (d_lo, d_hi), rows = msg.payload
            dst_local[d_lo - my_dst_lo : d_hi - my_dst_lo] = rows
            moved += d_hi - d_lo
        if moved:
            cols = dst_local.shape[1] if dst_local.ndim == 2 else 1
            yield from self.node.compute(moved * cols)

    def _op_halo(self, op: HaloExchange, block: NodeCodeBlock) -> Generator:
        src = self.runtime.heap.get(op.array)
        temp = np.zeros_like(src.local(self.node_id))
        transfers = self.runtime.transfer_plan(
            plan_shift_transfers, src.shape[0], src.ranges, op.offset, False
        )
        tag = self._tag(f"halo.{op.array}")
        yield from self._move_rows(src, temp, src.ranges, transfers, tag, src.row_bytes)
        self.temps[op.temp] = temp

    def _op_shift(self, op: Shift, block: NodeCodeBlock) -> Generator:
        verb = "Rotate" if op.circular else "Shift"
        where = (block, verb, (op.source, op.target), op.line)
        self._probe("cmrts.shift", "entry", _op_ctx, *where)
        yield from self._flush_cost()
        src = self.runtime.heap.get(op.source)
        dst = self.runtime.heap.get(op.target)
        dst_local = dst.local(self.node_id)
        src_local = src.local(self.node_id)
        if op.source == op.target:
            src_local = np.array(src_local)  # snapshot before any fill/write
        if src.dist_axis == 1:
            # column-distributed arrays: a shift along axis 0 never crosses
            # node boundaries -- every node holds full columns
            n = src.shape[0]
            if op.circular:
                dst_local[...] = np.roll(src_local, -(op.amount % n), axis=0)
            else:
                dst_local[...] = 0
                amount = op.amount
                if amount >= 0 and amount < n:
                    dst_local[: n - amount] = src_local[amount:]
                elif amount < 0 and -amount < n:
                    dst_local[-amount:] = src_local[: n + amount]
        else:
            if not op.circular:
                dst_local[...] = 0
            transfers = self.runtime.transfer_plan(
                plan_shift_transfers, src.shape[0], src.ranges, op.amount, op.circular, dst.ranges
            )
            tag = self._tag(f"shift.{op.target}")
            yield from self._move_rows(
                src, dst_local, dst.ranges, transfers, tag, src.row_bytes, src_local=src_local
            )
        yield from self.node.compute(dst_local.size)
        self._probe("cmrts.shift", "exit", _op_ctx, *where)
        yield from self._flush_cost()

    # -- reduction ----------------------------------------------------------
    def _op_reduce(self, op: LocalReduce, block: NodeCodeBlock) -> Generator:
        me = self.node_id
        array = self.runtime.heap.get(op.array)
        local = array.local(me)
        where = (block, op.verb, (op.array,), op.line)
        self._probe("cmrts.reduce", "entry", _op_ctx, *where, local.size)
        yield from self._flush_cost()
        partial = (
            float(REDUCE_FUNCS[op.verb](local)) if local.size else REDUCE_IDENTITY[op.verb]
        )
        yield from self.node.compute(max(1, local.size))
        self._notify("cmrts", self._reduction_sid, True)
        total = yield from tree_reduce_to_zero(
            self.comm,
            self.runtime.machine.num_nodes,
            partial,
            lambda a, b: combine(op.verb, a, b),
            self._tag(f"reduce.{op.slot}"),
        )
        self._notify("cmrts", self._reduction_sid, False)
        if me == 0:
            yield from self.comm.send_to_cp("reduce_result", (op.slot, total), 16)
        self.stats.reduces += 1
        self._probe("cmrts.reduce", "exit", _op_ctx, *where, local.size)
        yield from self._flush_cost()

    # -- transpose ------------------------------------------------------------
    def _op_transpose(self, op: Transpose, block: NodeCodeBlock) -> Generator:
        where = (block, "Transpose", (op.source, op.target), op.line)
        self._probe("cmrts.transpose", "entry", _op_ctx, *where)
        yield from self._flush_cost()
        me = self.node_id
        src = self.runtime.heap.get(op.source)
        dst = self.runtime.heap.get(op.target)
        src_local = src.local(me)
        dst_local = dst.local(me)
        if op.source == op.target:
            # in-place transpose of a square array: snapshot the source
            src_local = np.array(src_local)

        if src.dist_axis != dst.dist_axis:
            # matched layouts (BLOCK,*) <-> (*,BLOCK): node p's source block
            # *is* its destination block transposed -- zero communication,
            # the classic data-distribution win
            dst_local[...] = src_local.T
            yield from self.node.compute(dst_local.size)
            self._probe("cmrts.transpose", "exit", _op_ctx, *where)
            yield from self._flush_cost()
            return

        pairs = self.runtime.transfer_plan(plan_transpose_transfers, src.ranges, dst.ranges)
        tag = self._tag(f"transpose.{op.target}")
        my_lo, my_hi = src.local_range(me)
        expected = 0
        for p, q in pairs:
            if p == me:
                dlo, dhi = dst.local_range(q)
                if src.dist_axis == 0:
                    # rows here; peer q needs our rows as its columns
                    piece = np.array(src_local[:, dlo:dhi].T)
                else:
                    # columns here; peer q needs our columns as its rows
                    piece = np.array(src_local[dlo:dhi, :].T)
                if q == me:
                    self._place_transpose_piece(dst, dst_local, (my_lo, my_hi), piece)
                else:
                    yield from self.comm.send(
                        q, tag, ((my_lo, my_hi), piece), piece.nbytes
                    )
            if q == me and p != me:
                expected += 1
        for _ in range(expected):
            msg = yield from self.comm.recv(tag=tag)
            rng, piece = msg.payload
            self._place_transpose_piece(dst, dst_local, rng, piece)
        yield from self.node.compute(dst_local.size)
        self._probe("cmrts.transpose", "exit", _op_ctx, *where)
        yield from self._flush_cost()

    @staticmethod
    def _place_transpose_piece(dst, dst_local, rng, piece) -> None:
        """Place a received transpose piece according to dst's distribution.

        ``rng`` is the sender's owned range in *its* distributed axis, which
        lands in our non-distributed axis.
        """
        lo, hi = rng
        if dst.dist_axis == 0:
            dst_local[:, lo:hi] = piece
        else:
            dst_local[lo:hi, :] = piece

    # -- scan -----------------------------------------------------------------
    def _op_scan(self, op: Scan, block: NodeCodeBlock) -> Generator:
        where = (block, "Scan", (op.source, op.target), op.line)
        self._probe("cmrts.scan", "entry", _op_ctx, *where)
        yield from self._flush_cost()
        me = self.node_id
        src_local = self.runtime.heap.get(op.source).local(me)
        dst = self.runtime.heap.get(op.target)
        cum = np.cumsum(src_local)
        yield from self.node.compute(max(1, src_local.size))
        offset = yield from chain_exclusive_scan(
            self.comm,
            self.runtime.machine.num_nodes,
            float(src_local.sum()) if src_local.size else 0.0,
            self._tag(f"scan.{op.target}"),
        )
        dst.local(me)[...] = cum + offset
        yield from self.node.compute(max(1, src_local.size))
        self._probe("cmrts.scan", "exit", _op_ctx, *where)
        yield from self._flush_cost()

    # -- sort -----------------------------------------------------------------
    def _op_sort(self, op: Sort, block: NodeCodeBlock) -> Generator:
        where = (block, "Sort", (op.array,), op.line)
        self._probe("cmrts.sort", "entry", _op_ctx, *where)
        yield from self._flush_cost()
        me = self.node_id
        n_nodes = self.runtime.machine.num_nodes
        array = self.runtime.heap.get(op.array)
        local = np.sort(array.local(me))
        yield from self.node.compute(max(1, local.size * max(1, int(np.log2(local.size + 1)))))

        if n_nodes == 1:
            array.local(me)[...] = local
            self._probe("cmrts.sort", "exit", _op_ctx, *where)
            yield from self._flush_cost()
            return

        # 1. sample splitters: everyone sends samples to node 0
        k = n_nodes - 1
        samples = (
            local[np.linspace(0, local.size - 1, k, dtype=int)] if local.size else np.empty(0)
        )
        sample_tag = self._tag(f"sort.samples.{op.array}")
        if me == 0:
            pool = [samples]
            for _ in range(n_nodes - 1):
                msg = yield from self.comm.recv(tag=sample_tag)
                pool.append(msg.payload)
            allsamp = np.sort(np.concatenate(pool))
            if allsamp.size:
                splitters = allsamp[
                    np.linspace(0, allsamp.size - 1, k + 2, dtype=int)[1:-1]
                ]
            else:
                splitters = np.zeros(k)
        else:
            yield from self.comm.send(0, sample_tag, samples, max(8, samples.nbytes))
            splitters = None
        splitters = yield from tree_broadcast_from_zero(
            self.comm, n_nodes, splitters, self._tag(f"sort.split.{op.array}"), 8 * k
        )

        # 2. all-to-all bucket exchange
        cuts = np.searchsorted(local, splitters, side="right")
        bounds = [0, *cuts.tolist(), local.size]
        bucket_tag = self._tag(f"sort.bucket.{op.array}")
        mine = [local[bounds[me] : bounds[me + 1]]]
        for q in range(n_nodes):
            if q == me:
                continue
            piece = np.array(local[bounds[q] : bounds[q + 1]])
            yield from self.comm.send(q, bucket_tag, piece, max(8, piece.nbytes))
        for _ in range(n_nodes - 1):
            msg = yield from self.comm.recv(tag=bucket_tag)
            mine.append(msg.payload)
        merged = np.sort(np.concatenate(mine))
        yield from self.node.compute(max(1, merged.size * max(1, int(np.log2(merged.size + 1)))))

        # 3. share bucket counts so every node knows the global layout
        count_tag = self._tag(f"sort.count.{op.array}")
        if me == 0:
            counts = [0] * n_nodes
            counts[0] = merged.size
            for _ in range(n_nodes - 1):
                msg = yield from self.comm.recv(tag=count_tag)
                src_id, cnt = msg.payload
                counts[src_id] = cnt
        else:
            yield from self.comm.send(0, count_tag, (me, merged.size), 16)
            counts = None
        counts = yield from tree_broadcast_from_zero(
            self.comm, n_nodes, counts, self._tag(f"sort.counts.{op.array}"), 8 * n_nodes
        )

        # 4. redistribute back to block layout
        transfers = self.runtime.transfer_plan(plan_redistribution, counts, array.ranges)
        redist_tag = self._tag(f"sort.redist.{op.array}")
        my_cur_lo = sum(counts[:me])
        my_dst_lo = array.local_range(me)[0]
        dst_local = array.local(me)
        staged = np.array(dst_local)
        expected = 0
        for t in transfers:
            if t.src_node == me and t.dst_node == me:
                staged[t.dst_rows[0] - my_dst_lo : t.dst_rows[1] - my_dst_lo] = merged[
                    t.src_rows[0] - my_cur_lo : t.src_rows[1] - my_cur_lo
                ]
            elif t.src_node == me:
                rows = np.array(merged[t.src_rows[0] - my_cur_lo : t.src_rows[1] - my_cur_lo])
                yield from self.comm.send(
                    t.dst_node, redist_tag, (t.dst_rows, rows), max(8, rows.nbytes)
                )
            elif t.dst_node == me:
                expected += 1
        for _ in range(expected):
            msg = yield from self.comm.recv(tag=redist_tag)
            (d_lo, d_hi), rows = msg.payload
            staged[d_lo - my_dst_lo : d_hi - my_dst_lo] = rows
        dst_local[...] = staged
        self._probe("cmrts.sort", "exit", _op_ctx, *where)
        yield from self._flush_cost()
