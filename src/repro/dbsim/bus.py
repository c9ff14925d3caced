"""Fault-tolerant cross-node SAS forwarding bus (Section 4.2.3, scaled up).

The paper's client/server database example needs one SAS replica per node
plus a way to ship sentence transitions between them ("the client's SAS
would need to send one sentence ... to the server's SAS whenever that
sentence became active or inactive").  The original ``SASForwarder`` did
this as a fire-and-forget point-to-point hook (it survives as a test-side
baseline under ``tests/dbsim/``); :class:`ForwardingBus` replaces it with a
transport a production tool could actually run:

* **batching** -- transitions captured within a configurable *flush window*
  coalesce into one wire message per link, so a burst of activity costs one
  network message instead of one per transition;
* **sequencing** -- every batch carries a per-link monotonic sequence
  number; the receiver applies batches strictly in order, buffering
  out-of-order arrivals (gap detection) and dropping duplicates;
* **reliability** -- batches are acknowledged cumulatively; unacknowledged
  batches are retransmitted with exponential backoff, so delivery is
  exactly-once, in-order even over a lossy link;
* **fault injection** -- a seeded :class:`FaultPlan` drops, duplicates,
  delays and reorders messages at the link layer
  (:meth:`repro.machine.network.Network.datagram`), so the delivery
  guarantees are exercised, not just claimed;
* **observability** -- :class:`BusStats` counts messages, batches, retries,
  suppressed duplicates and detected gaps, and folds end-to-end forwarding
  latency into a histogram; the Data Manager exports these as first-class
  metrics (:meth:`repro.paradyn.datamgr.DataManager.attach_forwarding_bus`).

The differential guarantee (pinned in ``tests/dbsim/test_bus.py``): for any
seeded fault plan, the sequence of transitions applied at each destination
replica -- and therefore every question watcher's transition history -- is
identical to the zero-fault run.  Only timing differs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable

from ..core.nouns import Sentence
from ..core.sas import ActiveSentenceSet
from ..machine.network import Message, Network
from ..paradyn.histogram import TimeHistogram

__all__ = ["BusConfig", "FaultPlan", "BusStats", "Subscription", "ForwardingBus"]


@dataclass(frozen=True)
class BusConfig:
    """Tuning knobs for the forwarding bus.

    ``flush_window`` is the coalescing delay: a link's first pending
    transition schedules a flush that many virtual seconds later, and every
    transition captured in between rides in the same batch.  ``ack_timeout``
    is the initial retransmission timeout, doubled per attempt by
    ``backoff_factor`` up to ``max_backoff``; ``max_retries`` bounds
    attempts per batch so a permanently-dead link cannot hang the
    simulation.  The ``*_bytes`` fields parameterize the network cost model.
    """

    flush_window: float = 1e-5
    ack_timeout: float = 2e-4
    backoff_factor: float = 2.0
    max_backoff: float = 2e-3
    max_retries: int = 16
    header_bytes: int = 24
    transition_bytes: int = 32
    ack_bytes: int = 16

    def __post_init__(self) -> None:
        if self.flush_window < 0:
            raise ValueError("negative flush window")
        if min(self.ack_timeout, self.max_backoff) <= 0 or self.backoff_factor < 1:
            raise ValueError("bad retransmission parameters")
        if self.max_retries < 1:
            raise ValueError("need at least one transmission attempt")
        if min(self.header_bytes, self.transition_bytes, self.ack_bytes) < 0:
            raise ValueError("negative message sizes")


@dataclass
class FaultPlan:
    """Seeded link-layer fault injector.

    Per message: dropped with probability ``drop``; otherwise duplicated
    with probability ``duplicate``; each delivered copy gains an extra
    ``U(0, extra_delay)`` with probability ``delay``, plus -- when
    ``reorder`` is set -- an unconditional ``U(0, jitter)``, which lets
    later messages overtake earlier ones.  All randomness comes from one
    ``random.Random(seed)``, so a plan replays identically.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    delay: float = 0.0
    extra_delay: float = 1e-4
    reorder: bool = False
    jitter: float = 3e-5
    seed: int = 0

    def __post_init__(self) -> None:
        for p in (self.drop, self.duplicate, self.delay):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability out of range: {p}")
        if self.extra_delay < 0 or self.jitter < 0:
            raise ValueError("negative fault delays")
        self._rng = random.Random(self.seed)

    def delivery_delays(self) -> list[float]:
        """Extra delays, one per delivered copy of a message (empty = lost)."""
        rng = self._rng
        if rng.random() < self.drop:
            return []
        copies = 2 if rng.random() < self.duplicate else 1
        out = []
        for _ in range(copies):
            extra = 0.0
            if self.delay > 0 and rng.random() < self.delay:
                extra += rng.random() * self.extra_delay
            if self.reorder:
                extra += rng.random() * self.jitter
            out.append(extra)
        return out


@dataclass
class BusStats:
    """Delivery counters exported as first-class metrics.

    ``messages_sent`` counts data messages on the wire (first transmissions
    plus retries); acks are tallied separately so "batching sends fewer
    messages" comparisons against the ack-free naive forwarder (the
    test-side baseline in ``tests/dbsim/naive_forwarding.py``) stay honest.
    The latency histogram folds end-to-end forwarding delay (SAS transition
    at the source to application at the destination) on its *time* axis.
    """

    transitions_forwarded: int = 0
    transitions_applied: int = 0
    batches_sent: int = 0
    messages_sent: int = 0
    retries: int = 0
    acks_sent: int = 0
    duplicates_suppressed: int = 0
    gaps_detected: int = 0
    max_gap: int = 0
    gave_up: int = 0
    epoch_regressions: int = 0
    latency_samples: int = 0
    latency_total: float = 0.0
    latency_max: float = 0.0
    latency: TimeHistogram = field(
        default_factory=lambda: TimeHistogram(num_buckets=32, initial_width=2e-6)
    )

    def observe_latency(self, elapsed: float) -> None:
        self.latency_samples += 1
        self.latency_total += elapsed
        self.latency_max = max(self.latency_max, elapsed)
        self.latency.add(elapsed, elapsed, 1.0)

    @property
    def latency_mean(self) -> float:
        if self.latency_samples == 0:
            return 0.0
        return self.latency_total / self.latency_samples

    def metrics(self) -> dict[str, float]:
        """Scalar metric view, names stable for the Data Manager export."""
        return {
            "fwd_transitions_forwarded": float(self.transitions_forwarded),
            "fwd_transitions_applied": float(self.transitions_applied),
            "fwd_batches_sent": float(self.batches_sent),
            "fwd_messages_sent": float(self.messages_sent),
            "fwd_retries": float(self.retries),
            "fwd_acks_sent": float(self.acks_sent),
            "fwd_duplicates_suppressed": float(self.duplicates_suppressed),
            "fwd_gaps_detected": float(self.gaps_detected),
            "fwd_max_gap": float(self.max_gap),
            "fwd_gave_up": float(self.gave_up),
            "fwd_latency_mean": self.latency_mean,
            "fwd_latency_max": self.latency_max,
        }


@dataclass(frozen=True)
class _Transition:
    """One captured SAS transition in flight."""

    sentence: Sentence
    became_active: bool
    captured_at: float
    epoch: int


@dataclass
class _Batch:
    seq: int
    transitions: tuple[_Transition, ...]
    attempts: int = 0


class _Link:
    """Sender and receiver state for one directed (src, dst) node pair."""

    __slots__ = (
        "src",
        "dst",
        "queue",
        "flush_scheduled",
        "next_seq",
        "unacked",
        "expected",
        "buffered",
        "last_epoch",
    )

    def __init__(self, src: int, dst: int):
        self.src = src
        self.dst = dst
        # sender side
        self.queue: list[_Transition] = []
        self.flush_scheduled = False
        self.next_seq = 0
        self.unacked: dict[int, _Batch] = {}
        # receiver side
        self.expected = 0
        self.buffered: dict[int, tuple[_Transition, ...]] = {}
        self.last_epoch = -1


class Subscription:
    """A detachable forwarding rule: matching transitions of one source SAS
    travel to one destination replica."""

    def __init__(
        self,
        bus: "ForwardingBus",
        source: ActiveSentenceSet,
        hook: Callable[[Sentence, bool, float], None],
        src_node: int,
        dst_node: int,
    ):
        self.bus = bus
        self.source = source
        self.src_node = src_node
        self.dst_node = dst_node
        self._hook = hook

    def close(self) -> None:
        """Detach from the source SAS; idempotent."""
        try:
            self.source.on_transition.remove(self._hook)
        except ValueError:
            pass


class ForwardingBus:
    """Carries SAS transitions between per-node replicas over the network.

    Usage::

        bus = ForwardingBus(machine.network, BusConfig(), FaultPlan(drop=0.05))
        bus.register_replica(0, client_sas)
        bus.register_replica(1, server_sas)
        bus.subscribe(0, 1, lambda s: s.verb.name == "QueryActive")
        ...  # run the simulation
        bus.close()

    ``on_apply`` hooks observe every transition applied at a destination
    (``(dst_node, sentence, became_active, now)``) -- the differential tests
    compare these logs across fault plans.
    """

    def __init__(
        self,
        network: Network,
        config: BusConfig | None = None,
        fault_plan: FaultPlan | None = None,
    ):
        self.network = network
        self.sim = network.sim
        self.config = config or BusConfig()
        self.fault_plan = fault_plan
        self.stats = BusStats()
        self.replicas: dict[int, ActiveSentenceSet] = {}
        self.subscriptions: list[Subscription] = []
        self.on_apply: list[Callable[[int, Sentence, bool, float], None]] = []
        self._links: dict[tuple[int, int], _Link] = {}
        self._closed = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def register_replica(self, node_id: int, sas: ActiveSentenceSet) -> None:
        """Make ``sas`` addressable as node ``node_id``'s replica."""
        self.replicas[node_id] = sas

    def subscribe(
        self,
        src_node: int,
        dst_node: int,
        interesting: Callable[[Sentence], bool],
    ) -> Subscription:
        """Forward ``interesting`` transitions from ``src_node``'s replica to
        ``dst_node``'s.  Both replicas must already be registered."""
        if self._closed:
            raise RuntimeError("bus is closed")
        source = self.replicas[src_node]
        if dst_node not in self.replicas:
            raise KeyError(f"no replica registered for node {dst_node}")

        def hook(sent: Sentence, became_active: bool, now: float) -> None:
            if self._closed or not interesting(sent):
                return
            self._enqueue(src_node, dst_node, sent, became_active, now)

        source.on_transition.append(hook)
        sub = Subscription(self, source, hook, src_node, dst_node)
        self.subscriptions.append(sub)
        return sub

    def close(self) -> None:
        """Detach every subscription; pending timers become no-ops.

        Required between repeated studies in one process: without it, each
        run's hooks would keep stacking on the source SASes.
        """
        for sub in self.subscriptions:
            sub.close()
        self.subscriptions.clear()
        self._closed = True

    def metrics(self) -> dict[str, float]:
        return self.stats.metrics()

    # ------------------------------------------------------------------
    # sender side
    # ------------------------------------------------------------------
    def _link(self, src: int, dst: int) -> _Link:
        key = (src, dst)
        link = self._links.get(key)
        if link is None:
            link = self._links[key] = _Link(src, dst)
        return link

    def _enqueue(
        self, src: int, dst: int, sent: Sentence, became_active: bool, now: float
    ) -> None:
        link = self._link(src, dst)
        epoch = self.replicas[src].transition_epoch
        link.queue.append(_Transition(sent, became_active, now, epoch))
        self.stats.transitions_forwarded += 1
        if not link.flush_scheduled:
            link.flush_scheduled = True
            self.sim.call_at(now + self.config.flush_window, lambda: self._flush(link))

    def _flush(self, link: _Link) -> None:
        link.flush_scheduled = False
        if self._closed or not link.queue:
            return
        batch = _Batch(link.next_seq, tuple(link.queue))
        link.next_seq += 1
        link.queue.clear()
        link.unacked[batch.seq] = batch
        self.stats.batches_sent += 1
        self._transmit(link, batch)

    def _transmit(self, link: _Link, batch: _Batch) -> None:
        batch.attempts += 1
        if batch.attempts > 1:
            self.stats.retries += 1
        self.stats.messages_sent += 1
        cfg = self.config
        size = cfg.header_bytes + len(batch.transitions) * cfg.transition_bytes
        self._send_faulty(
            link.src,
            link.dst,
            "sas-batch",
            (batch.seq, batch.transitions),
            size,
            lambda msg: self._on_batch(link, msg),
        )
        timeout = min(
            cfg.ack_timeout * cfg.backoff_factor ** (batch.attempts - 1),
            cfg.max_backoff,
        )
        self.sim.call_at(self.sim.now + timeout, lambda: self._check_ack(link, batch))

    def _check_ack(self, link: _Link, batch: _Batch) -> None:
        if self._closed or batch.seq not in link.unacked:
            return
        if batch.attempts >= self.config.max_retries:
            self.stats.gave_up += 1
            del link.unacked[batch.seq]
            return
        self._transmit(link, batch)

    def _send_faulty(
        self,
        src: int,
        dst: int,
        tag: str,
        payload: object,
        size: int,
        handler: Callable[[Message], None],
    ) -> None:
        if self.fault_plan is not None:
            delays = self.fault_plan.delivery_delays()
        else:
            delays = [0.0]
        self.network.datagram(src, dst, tag, payload, size, handler, tuple(delays))

    # ------------------------------------------------------------------
    # receiver side
    # ------------------------------------------------------------------
    def _on_batch(self, link: _Link, msg: Message) -> None:
        if self._closed:
            return
        seq, transitions = msg.payload
        if seq < link.expected or seq in link.buffered:
            # retransmission of something already applied/buffered: drop it,
            # but re-ack in case the original ack was lost
            self.stats.duplicates_suppressed += 1
            self._send_ack(link)
            return
        if seq > link.expected:
            # gap: hold the batch until the missing predecessors arrive
            self.stats.gaps_detected += 1
            self.stats.max_gap = max(self.stats.max_gap, seq - link.expected)
            link.buffered[seq] = transitions
            self._send_ack(link)
            return
        self._apply(link, transitions)
        link.expected += 1
        while link.expected in link.buffered:
            self._apply(link, link.buffered.pop(link.expected))
            link.expected += 1
        self._send_ack(link)

    def _apply(self, link: _Link, transitions: tuple[_Transition, ...]) -> None:
        target = self.replicas[link.dst]
        now = self.sim.now
        for t in transitions:
            if t.epoch <= link.last_epoch:
                self.stats.epoch_regressions += 1
            link.last_epoch = t.epoch
            if t.became_active:
                target.activate(t.sentence)
            else:
                target.deactivate(t.sentence)
            self.stats.transitions_applied += 1
            self.stats.observe_latency(now - t.captured_at)
            for cb in self.on_apply:
                cb(link.dst, t.sentence, t.became_active, now)

    def _send_ack(self, link: _Link) -> None:
        self.stats.acks_sent += 1
        self._send_faulty(
            link.dst,
            link.src,
            "sas-ack",
            link.expected - 1,
            self.config.ack_bytes,
            lambda msg: self._on_ack(link, msg),
        )

    def _on_ack(self, link: _Link, msg: Message) -> None:
        if self._closed:
            return
        acked_through = msg.payload
        for seq in [s for s in link.unacked if s <= acked_through]:
            del link.unacked[seq]
