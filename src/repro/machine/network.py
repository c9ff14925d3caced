"""Interconnection network of the simulated machine.

The network moves :class:`Message` objects between node inboxes (and the
control processor's inbox) under a linear latency/bandwidth cost model:

    transfer_time = latency + size_bytes / bandwidth

The *sender* is additionally occupied for ``send_overhead + size/bandwidth``
virtual seconds (charged to its ``communication`` account), which is what the
paper's *Point-to-Point Time* metric observes on a node.

Every completed send is reported to registered observers.  Observers are how
the reproduction's performance layers watch the machine without the machine
knowing about them: the Set of Active Sentences, the dynamic-instrumentation
manager, and benches (e.g. the Figure-5 snapshot is taken by an observer on
the first point-to-point send) all subscribe here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Generator, Sequence

from .node import Node
from .sim import Simulator, Timeout

__all__ = ["Message", "MessageEvent", "NetworkConfig", "Network", "CONTROL_PROCESSOR"]

#: Pseudo node-id used to address the control processor.
CONTROL_PROCESSOR = -1


@dataclass(frozen=True)
class Message:
    """A unit of communication between nodes.

    ``tag`` identifies the protocol (e.g. ``"dispatch"``, ``"reduce"``,
    ``"p2p"``); ``payload`` is arbitrary Python data (often a numpy array).
    """

    src: int
    dst: int
    tag: str
    payload: Any
    size_bytes: int

    def __post_init__(self) -> None:
        if self.size_bytes < 0:
            raise ValueError("negative message size")


@dataclass(frozen=True)
class MessageEvent:
    """Observer record for one completed ``send`` call."""

    time: float
    message: Message
    kind: str  # "p2p" | "broadcast" | "control" | "datagram"


@dataclass(frozen=True)
class NetworkConfig:
    """Cost-model parameters (defaults loosely CM-5-ish, in virtual seconds)."""

    latency: float = 5e-6
    bandwidth: float = 10e6  # bytes / virtual second
    send_overhead: float = 1e-6
    broadcast_latency: float = 8e-6  # dedicated control network, one hop

    def __post_init__(self) -> None:
        if min(self.latency, self.bandwidth, self.send_overhead, self.broadcast_latency) <= 0:
            raise ValueError("network parameters must be positive")


class NetworkStats:
    """Aggregate and per-node communication counters."""

    def __init__(self, num_nodes: int):
        self.sends = [0] * num_nodes
        self.receives = [0] * num_nodes
        self.bytes_sent = [0] * num_nodes
        self.broadcasts = 0
        self.datagrams = 0
        self.total_messages = 0
        self.total_bytes = 0

    def record_send(self, src: int, dst: int, size: int) -> None:
        self.total_messages += 1
        self.total_bytes += size
        if 0 <= src < len(self.sends):
            self.sends[src] += 1
            self.bytes_sent[src] += size
        if 0 <= dst < len(self.receives):
            self.receives[dst] += 1


class Network:
    """Message fabric connecting the nodes and the control processor."""

    def __init__(self, sim: Simulator, nodes: Sequence[Node], config: NetworkConfig | None = None):
        self.sim = sim
        self.nodes = list(nodes)
        self.config = config or NetworkConfig()
        self.control_inbox = sim.channel(name="control.inbox")
        self.stats = NetworkStats(len(self.nodes))
        self.observers: list[Callable[[MessageEvent], None]] = []
        for node in self.nodes:
            node.network = self

    # ------------------------------------------------------------------
    def subscribe(self, observer: Callable[[MessageEvent], None]) -> None:
        """Register a callback invoked on every completed send."""
        self.observers.append(observer)

    def unsubscribe(self, observer: Callable[[MessageEvent], None]) -> None:
        self.observers.remove(observer)

    def _notify(self, event: MessageEvent) -> None:
        for obs in self.observers:
            obs(event)

    def _inbox_of(self, node_id: int):
        if node_id == CONTROL_PROCESSOR:
            return self.control_inbox
        return self.nodes[node_id].inbox

    def transfer_time(self, size_bytes: int) -> float:
        return self.config.latency + size_bytes / self.config.bandwidth

    # ------------------------------------------------------------------
    # generator operations (``yield from`` inside node processes)
    # ------------------------------------------------------------------
    def send(self, src: int, dst: int, tag: str, payload: Any, size_bytes: int) -> Generator:
        """Point-to-point send; occupies the sender, delivers after transfer.

        The sender's occupation time is charged to its ``communication``
        account (nodes only; the control processor has no ledger).
        """
        msg = Message(src, dst, tag, payload, size_bytes)
        cfg = self.config
        occupy = cfg.send_overhead + size_bytes / cfg.bandwidth
        if 0 <= src < len(self.nodes):
            self.nodes[src].accounts.charge("communication", occupy)
        self.stats.record_send(src, dst, size_bytes)
        sim = self.sim
        now = sim.now
        if self.observers:
            kind = "control" if CONTROL_PROCESSOR in (src, dst) else "p2p"
            self._notify(MessageEvent(now, msg, kind))
        arrival = now + self.transfer_time(size_bytes)
        # call_at's arithmetic without its past-time check: the transfer
        # time is positive, so the arrival is never in the past
        sim._schedule(arrival - now, partial(self._inbox_of(dst).put, msg))
        yield Timeout(occupy)

    def datagram(
        self,
        src: int,
        dst: int,
        tag: str,
        payload: Any,
        size_bytes: int,
        handler: Callable[[Message], None],
        extra_delays: Sequence[float] = (0.0,),
    ) -> Message:
        """Unreliable fire-and-forget delivery to a callback endpoint.

        Unlike :meth:`send`, a datagram does not occupy a sender *process*
        (daemons such as the SAS forwarding bus run beside the application),
        but the sender node still pays ``send_overhead + size/bandwidth`` on
        its ``communication`` account -- the wire cost is real even when the
        receiver never sees the message.

        ``extra_delays`` gives one entry per delivered copy, each added on
        top of the cost-model transfer time: an empty sequence models a lost
        message, two entries a link-level duplicate, unequal entries
        reordering.  This is the link layer that
        :class:`repro.dbsim.bus.FaultPlan` injects faults through.
        """
        msg = Message(src, dst, tag, payload, size_bytes)
        cfg = self.config
        if 0 <= src < len(self.nodes):
            self.nodes[src].accounts.charge(
                "communication", cfg.send_overhead + size_bytes / cfg.bandwidth
            )
        self.stats.record_send(src, dst, size_bytes)
        self.stats.datagrams += 1
        self._notify(MessageEvent(self.sim.now, msg, "datagram"))
        base_arrival = self.sim.now + self.transfer_time(size_bytes)
        for delay in extra_delays:
            if delay < 0:
                raise ValueError("negative datagram delay")
            self.sim.call_at(base_arrival + delay, lambda m=msg: handler(m))
        return msg

    def receive(self, node_id: int) -> Generator:
        """Blocking receive into ``node_id``'s inbox, charged to *communication*.

        Use :meth:`Node.idle_receive` instead when the wait semantically is
        "waiting for the control processor" (dispatch loop).
        """
        node = self.nodes[node_id]
        t0 = self.sim.now
        msg = yield node.inbox.get()
        node.accounts.charge("communication", self.sim.now - t0)
        return msg

    def control_receive(self) -> Generator:
        """Blocking receive on the control processor's inbox."""
        msg = yield self.control_inbox.get()
        return msg

    def broadcast(self, tag: str, payload: Any, size_bytes: int) -> Generator:
        """Control-processor broadcast to every node (dedicated network).

        The CM-5 had a separate broadcast/control network; we model a single
        hop with its own latency, delivering to all nodes simultaneously.
        """
        self.stats.broadcasts += 1
        arrival = self.sim.now + self.config.broadcast_latency + size_bytes / self.config.bandwidth
        for node in self.nodes:
            msg = Message(CONTROL_PROCESSOR, node.node_id, tag, payload, size_bytes)
            inbox = node.inbox
            self.sim.call_at(arrival, lambda inbox=inbox, msg=msg: inbox.put(msg))
        self._notify(
            MessageEvent(
                self.sim.now,
                Message(CONTROL_PROCESSOR, -2, tag, payload, size_bytes),
                "broadcast",
            )
        )
        yield Timeout(self.config.send_overhead)
