"""The distributed-SAS experiment (Section 4.2.3, ablation abl4).

Two kinds of questions are measured over a client/server database run:

* **local questions** -- e.g. "how many disk reads does the server do?",
  answerable entirely from the server's own SAS: zero forwarded messages,
  exactly as the paper claims for all of Figure 6's questions;
* **distributed questions** -- "server disk reads while query Q is active":
  the client's SAS must forward Q's activation state to the server's SAS
  (one transition forwarded per activate/deactivate).  With forwarding
  disabled the question silently reads zero -- the failure mode of
  pretending a per-node SAS is global.

Forwarding runs over the :class:`~repro.dbsim.bus.ForwardingBus` --
batched, sequenced, retransmitted over the machine's network cost model,
optionally under a seeded :class:`~repro.dbsim.bus.FaultPlan`.  The naive
per-transition forwarder it is measured against (fixed latency, no delivery
guarantees) is a test-side baseline in ``tests/dbsim/naive_forwarding.py``,
passed in as ``bus_type``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Generator, Sequence

from ..core.questions import PerformanceQuestion, SentencePattern
from ..core.sas import ActiveSentenceSet
from ..machine.machine import Machine, MachineConfig
from ..cmrts.comm import NodeComm
from .bus import FaultPlan, ForwardingBus
from .model import Query, query_active, server_disk_read

__all__ = ["DBOutcome", "run_db_study"]

CLIENT_NODE = 0
SERVER_NODE = 1


@dataclass
class DBOutcome:
    """Results of one client/server run."""

    ground_truth: dict[str, int]  # query -> actual disk reads served
    measured: dict[str, int]  # query -> reads counted via the SAS question
    total_reads_local_question: int  # local-only question, no forwarding
    forwarded_messages: int  # transitions forwarded (2 per query)
    elapsed: float = 0.0
    client_sas_notifications: int = 0
    server_sas_notifications: int = 0
    per_query_watcher_time: dict[str, float] = field(default_factory=dict)
    per_client_truth: dict[int, int] = field(default_factory=dict)
    per_client_measured: dict[int, int] = field(default_factory=dict)
    network_messages: int = 0  # data messages on the wire (bus: batches+retries)
    bus_stats: dict[str, float] = field(default_factory=dict)
    stray_watchers: int = 0  # on_transition hooks left on client SASes after close


def run_db_study(
    queries: Sequence[Query] | None = None,
    forwarding: bool = True,
    think_time: float = 2e-4,
    num_clients: int = 1,
    fault_plan: FaultPlan | None = None,
    recorder=None,
    multiq=None,
    bus_type=ForwardingBus,
) -> DBOutcome:
    """Run the client(s)/server scenario and answer both question kinds.

    ``num_clients`` client processes run on nodes 0..num_clients-1, the
    server on the last node.  Queries are dealt round-robin to clients.
    Per-query *and* per-client distributed questions are asked on the
    server's SAS ("server disk reads that correspond to a particular client
    or a particular query").

    ``recorder`` (e.g. a :class:`~repro.trace.ColumnarTraceWriter`) receives
    every handled transition of every SAS -- client transitions under their node
    ids and the server's (including forwarded client state, which is the
    server's view) under the server node -- so the run can be re-queried
    post-mortem.

    ``multiq`` (a :class:`~repro.core.multiq.MultiQuestionEngine`, typically
    with the ``repro serve`` session's subscriptions already compiled)
    attaches to the *server's* SAS, so it observes the fused stream of local
    server transitions plus forwarded client transitions exactly as the
    dedicated per-question watchers do -- one shared evaluation for every
    live subscriber instead of one watcher each.

    ``bus_type`` builds the forwarding transport as
    ``bus_type(machine.network, fault_plan=fault_plan)``; anything with the
    :class:`~repro.dbsim.bus.ForwardingBus` wiring calls (``register_replica``,
    ``subscribe``, ``close``, ``stats``, ``metrics``) will do.
    """
    if queries is None:
        queries = [
            Query("Q_orders", disk_reads=3),
            Query("Q_customers", disk_reads=1),
            Query("Q_report", disk_reads=5),
        ]
    if num_clients < 1:
        raise ValueError("need at least one client")
    server_node = num_clients
    machine = Machine(MachineConfig(num_nodes=num_clients + 1))
    sim = machine.sim
    client_sases = [
        ActiveSentenceSet(clock=sim.now_reader(), node_id=i) for i in range(num_clients)
    ]
    server_sas = ActiveSentenceSet(clock=sim.now_reader(), node_id=server_node)
    if recorder is not None:
        # attached before the baseline snapshot below, so recorder hooks are
        # part of the baseline and don't count as strays
        for cs in client_sases:
            cs.attach_recorder(recorder)
        server_sas.attach_recorder(recorder)
    if multiq is not None:
        # the SAS is empty here, so seeding is a no-op and subscriptions
        # compiled before OR after this attach evaluate identically
        multiq.attach_sas(server_sas)
    baseline_watchers = [len(cs.on_transition) for cs in client_sases]

    def interesting(s):
        return s.verb.name == "QueryActive"

    bus = None
    if forwarding:
        bus = bus_type(machine.network, fault_plan=fault_plan)
        bus.register_replica(server_node, server_sas)
        for c, cs in enumerate(client_sases):
            bus.register_replica(c, cs)
            bus.subscribe(c, server_node, interesting)

    by_client = {c: [q for i, q in enumerate(queries) if i % num_clients == c]
                 for c in range(num_clients)}

    # distributed questions, asked on the SERVER's SAS
    read_sentence = server_disk_read()
    watchers = {}
    counts = {q.name: 0 for q in queries}
    for q in queries:
        question = PerformanceQuestion(
            f"reads for {q.name}",
            (
                SentencePattern("QueryActive", (q.name,)),
                SentencePattern("DiskRead", ("server0",)),
            ),
            description="server reads from disk, client query is active",
        )
        watchers[q.name] = server_sas.attach_question(question)
    client_watchers = {}
    client_counts = {c: 0 for c in range(num_clients)}
    for c in range(num_clients):
        question = PerformanceQuestion(
            f"reads for client{c}",
            (
                SentencePattern("QueryActive", (f"client{c}",)),
                SentencePattern("DiskRead", ("server0",)),
            ),
            description="server reads from disk on behalf of a particular client",
        )
        client_watchers[c] = server_sas.attach_question(question)

    # local question: any disk read at all (answerable without forwarding)
    local_reads = {"n": 0}

    def on_server_transition(sent, became_active, _now):
        if became_active and sent == read_sentence:
            local_reads["n"] += 1
            for name, watcher in watchers.items():
                # counting strategy: at each read, credit queries whose
                # question is satisfied right now
                if watcher.satisfied:
                    counts[name] += 1
            for c, watcher in client_watchers.items():
                if watcher.satisfied:
                    client_counts[c] += 1

    server_sas.on_transition.append(on_server_transition)

    truth = {q.name: 0 for q in queries}
    client_truth = {c: 0 for c in range(num_clients)}
    query_owner = {
        q.name: c for c, qs in by_client.items() for q in qs
    }

    def server_main() -> Generator:
        comm = NodeComm(machine.network, server_node)
        node = machine.nodes[server_node]
        served = 0
        while served < len(queries):
            msg = yield from comm.recv(tag="query")
            query: Query = msg.payload
            for _ in range(query.disk_reads):
                server_sas.activate(read_sentence)
                truth[query.name] += 1
                client_truth[query_owner[query.name]] += 1
                yield from node.busy(query.read_time, "other")
                server_sas.deactivate(read_sentence)
            yield from comm.send(msg.src, "result", query.name, query.response_bytes)
            served += 1

    def client_main(c: int) -> Generator:
        comm = NodeComm(machine.network, c)
        node = machine.nodes[c]
        for query in by_client[c]:
            sentence = query_active(query.name, client=c)
            client_sases[c].activate(sentence)
            yield from comm.send(server_node, "query", query, query.request_bytes)
            yield from comm.recv(tag="result")
            client_sases[c].deactivate(sentence)
            yield from node.busy(think_time, "other")

    sim.spawn(server_main(), "db-server")
    for c in range(num_clients):
        sim.spawn(client_main(c), f"db-client{c}")
    sim.run()

    forwarded = network_messages = 0
    bus_stats: dict[str, float] = {}
    if bus is not None:
        forwarded = bus.stats.transitions_forwarded
        network_messages = bus.stats.messages_sent
        bus_stats = bus.metrics()
        bus.close()
    stray = sum(
        len(cs.on_transition) - base
        for cs, base in zip(client_sases, baseline_watchers, strict=True)
    )

    return DBOutcome(
        ground_truth=truth,
        measured=counts,
        total_reads_local_question=local_reads["n"],
        forwarded_messages=forwarded,
        elapsed=sim.now,
        client_sas_notifications=sum(cs.notifications for cs in client_sases),
        server_sas_notifications=server_sas.notifications,
        per_query_watcher_time={
            name: w.total_satisfied_time(sim.now) for name, w in watchers.items()
        },
        per_client_truth=client_truth,
        per_client_measured=client_counts,
        network_messages=network_messages,
        bus_stats=bus_stats,
        stray_watchers=stray,
    )
