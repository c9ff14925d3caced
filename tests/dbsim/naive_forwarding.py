"""Cross-node SAS sentence forwarding (Section 4.2.3) -- naive baseline.

"The SAS information that is necessary to answer such a performance
question (*server reads from disk, client query is active*) would be
distributed between the SAS on the client and the SAS on the server. ...
the client's SAS would need to send one sentence (i.e., *client query is
active*) to the server's SAS whenever that sentence became active or
inactive."

:class:`SASForwarder` implements exactly that, as simply as possible: it
watches one SAS's transitions, and for sentences matching a filter,
delivers the same transition to a remote SAS after a fixed latency.  Each
forwarded transition is one message -- the count is the ablation-abl4 cost
of distributed questions (questions answerable locally forward nothing).

It is kept as the *naive baseline* for :class:`repro.dbsim.bus.ForwardingBus`,
which adds batching, sequencing, and retransmission on top of the real
network cost model.  To show why those matter, the shim accepts an optional
:class:`~repro.dbsim.bus.FaultPlan`: under faults it silently loses or
re-applies transitions (deactivating a sentence the target never saw is
skipped rather than raised), corrupting the remote SAS exactly the way the
bus's delivery guarantees prevent.

It lives with the tests because nothing in the package runs it.
:class:`NaiveBus` gives it the bus's wiring surface, so the study runs on it
with ``run_db_study(bus_type=NaiveBus)``: the abl4b bench
(``benchmarks/test_abl4b_forwarding_bus.py``) and ``tests/dbsim`` do.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import Callable

from repro.core.nouns import Sentence
from repro.core.sas import ActiveSentenceSet
from repro.machine.network import Network
from repro.machine.sim import Simulator

__all__ = ["NaiveBus", "SASForwarder"]


class SASForwarder:
    """Forwards matching sentence transitions from one SAS to another."""

    def __init__(
        self,
        sim: Simulator,
        source: ActiveSentenceSet,
        target: ActiveSentenceSet,
        interesting: Callable[[Sentence], bool],
        latency: float = 5e-6,
        fault_plan=None,
    ):
        self.sim = sim
        self.source = source
        self.target = target
        self.interesting = interesting
        self.latency = latency
        self.fault_plan = fault_plan
        self.messages_sent = 0
        self._closed = False
        source.on_transition.append(self._on_transition)

    def close(self) -> None:
        """Detach from the source SAS; idempotent.

        Without this, every :func:`~repro.dbsim.study.run_db_study` call in
        one process would leave another watcher on the client SASes.
        """
        try:
            self.source.on_transition.remove(self._on_transition)
        except ValueError:
            pass
        self._closed = True

    def _on_transition(self, sentence: Sentence, became_active: bool, _now: float) -> None:
        if self._closed or not self.interesting(sentence):
            return
        self.messages_sent += 1
        if self.fault_plan is None:
            delays = [0.0]
        else:
            delays = self.fault_plan.delivery_delays()
        for extra in delays:
            self.sim.call_at(
                self.sim.now + self.latency + extra,
                lambda a=became_active: self._apply(sentence, a),
            )

    def _apply(self, sentence: Sentence, became_active: bool) -> None:
        if became_active:
            self.target.activate(sentence)
        elif self.fault_plan is None or self.target.is_active(sentence):
            # under faults a deactivate may arrive for a sentence whose
            # activation was lost; the naive protocol can only drop it
            self.target.deactivate(sentence)


class NaiveBus:
    """One :class:`SASForwarder` per subscription, behind the
    :class:`~repro.dbsim.bus.ForwardingBus` wiring calls the study makes.

    Each forwarder waits the network's one-hop latency; there are no
    batches, sequence numbers or acks, so ``metrics()`` is empty.
    """

    def __init__(self, network: Network, fault_plan=None):
        self.sim = network.sim
        self.latency = network.config.latency
        self.fault_plan = fault_plan
        self.replicas: dict[int, ActiveSentenceSet] = {}
        self.forwarders: list[SASForwarder] = []

    def register_replica(self, node_id: int, sas: ActiveSentenceSet) -> None:
        self.replicas[node_id] = sas

    def subscribe(
        self, src_node: int, dst_node: int, interesting: Callable[[Sentence], bool]
    ) -> None:
        self.forwarders.append(
            SASForwarder(
                self.sim,
                self.replicas[src_node],
                self.replicas[dst_node],
                interesting,
                latency=self.latency,
                fault_plan=self.fault_plan,
            )
        )

    def close(self) -> None:
        for fwd in self.forwarders:
            fwd.close()

    @property
    def stats(self) -> SimpleNamespace:
        # one wire message per forwarded transition
        sent = sum(f.messages_sent for f in self.forwarders)
        return SimpleNamespace(transitions_forwarded=sent, messages_sent=sent)

    def metrics(self) -> dict[str, float]:
        return {}
