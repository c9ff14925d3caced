"""``repro serve`` -- the streaming performance-question service.

The ROADMAP's millions-of-users story: clients POST Figure-6 question
vectors and subscribe to satisfied-interval streams over recorded or live
runs.  All concurrent subscriptions compile into **one** shared
:class:`~repro.core.multiq.MultiQuestionEngine` plan per batch (interned
patterns, subsumption lattice, per-question dirty bits, consistent-hash
shards), so the recorded trace is replayed -- or the live dbsim run
executed -- exactly once no matter how many subscribers are attached, and
duplicate questions across clients collapse to one watcher.

Protocol: newline-delimited JSON over TCP.

Client -> server (one line)::

    {"questions": [{"name": "...",            # optional; default "p1 & p2"
                    "patterns": ["{A Sum}", "{disk0 DiskWrite}@UNIX Kernel"],
                    "ordered": false}, ...],
     "stream": true}                           # send interval events

Server -> client (one line each)::

    {"event": "hello", "source": "...", "subscribers": N}
    {"event": "subscribed", "questions": ["name", ...]}
    {"event": "interval", "question": "...", "start": t, "end": t}
    {"event": "summary", "end_time": t,
     "questions": {name: {"satisfied_time": s, "transitions": n,
                          "satisfied_at_end": b}}}
    {"event": "end"}

Summary values are byte-identical to ``repro trace query`` on the same
trace and question (same replay plan, same float accumulation order), and
every question's streamed intervals sum exactly to its ``satisfied_time``
-- the client mode re-derives the sum and fails (exit 1) on any divergence.

The server collects ``--subscribers`` connections into a batch, answers
the batch with one shared pass, then (unless ``--once``) starts collecting
the next batch against the same source.
"""

from __future__ import annotations

import asyncio
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from .core import MultiQuestionEngine, OrderedQuestion, PerformanceQuestion
from .trace import open_trace
from .trace.retro import parse_pattern, replay_batch

__all__ = [
    "QuestionSpec",
    "build_question",
    "parse_subscribe",
    "ServeServer",
    "TraceSource",
    "DbStudySource",
    "run_server",
    "run_client",
]

#: membership changes (transitions, for a row trace) replayed between
#: cooperative yields / stream flushes
REPLAY_CHUNK = 512


@dataclass(frozen=True)
class QuestionSpec:
    """One question of a subscription vector, as sent on the wire."""

    patterns: tuple[str, ...]
    ordered: bool = False
    name: str | None = None

    def display_name(self) -> str:
        # matches `repro trace query`'s naming so outputs diff cleanly
        return self.name if self.name is not None else " & ".join(self.patterns)


def build_question(spec: QuestionSpec) -> PerformanceQuestion | OrderedQuestion:
    components = tuple(parse_pattern(text) for text in spec.patterns)
    cls = OrderedQuestion if spec.ordered else PerformanceQuestion
    return cls(spec.display_name(), components)


def _question_key(spec: QuestionSpec) -> tuple:
    """Structural identity of a spec (mirrors the engine's dedup keys).

    Two specs with the same key are the same question (and may safely share
    a display name / watcher); the same name on two *different* keys would
    silently collapse in the engine's name table, so batches reject it.
    """
    components = tuple(parse_pattern(text).canonical() for text in spec.patterns)
    if spec.ordered:
        return ("ordered", components)
    return ("conj", frozenset(components))


def parse_subscribe(line: str | bytes) -> tuple[list[QuestionSpec], bool]:
    """Validate one subscribe request; raises ``ValueError`` on bad input."""
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ValueError(f"subscribe request is not JSON: {exc}") from exc
    if not isinstance(obj, dict) or not isinstance(obj.get("questions"), list):
        raise ValueError('subscribe request needs a "questions" list')
    if not obj["questions"]:
        raise ValueError("subscribe request has no questions")
    specs: list[QuestionSpec] = []
    for q in obj["questions"]:
        if not isinstance(q, dict) or not q.get("patterns"):
            raise ValueError(f'question needs a "patterns" list: {q!r}')
        patterns = tuple(str(p) for p in q["patterns"])
        for text in patterns:
            parse_pattern(text)  # fail fast, before the batch runs
        specs.append(
            QuestionSpec(
                patterns=patterns,
                ordered=bool(q.get("ordered", False)),
                name=str(q["name"]) if q.get("name") is not None else None,
            )
        )
    by_name: dict[str, tuple] = {}
    for spec in specs:
        name = spec.display_name()
        key = _question_key(spec)
        if by_name.setdefault(name, key) != key:
            raise ValueError(
                f'question name "{name}" is used for two different questions'
            )
    return specs, bool(obj.get("stream", True))


@dataclass(eq=False)
class _Client:
    """One connected subscriber within the current batch."""

    reader: asyncio.StreamReader
    writer: asyncio.StreamWriter
    specs: list[QuestionSpec] = field(default_factory=list)
    stream: bool = True
    lines: list[bytes] = field(default_factory=list)

    def send(self, payload: dict) -> None:
        """Queue one NDJSON line; :meth:`drain` writes the queue."""
        self.lines.append(json.dumps(payload, sort_keys=True).encode() + b"\n")

    async def drain(self) -> None:
        """Write every queued line in one ``write`` (one send on a drained
        socket, not one per line) and wait for the transport."""
        if self.lines:
            self.writer.write(b"".join(self.lines))
            self.lines.clear()
        await self.writer.drain()


class TraceSource:
    """Recorded-run source: one shared replay per batch, the one
    :func:`~repro.trace.retro.evaluate_question_batch` runs -- by sentence
    id over the zone-map-kept rows of the ``.rtrcx`` file."""

    def __init__(self, path: str, node: int | None = None):
        self.path = path
        self.node = node
        self.reader = open_trace(path)

    def describe(self) -> str:
        return self.path

    def known_sentences(self):
        """The recorded sentence table -- every sentence this source can
        ever replay, known before any subscriber connects."""
        return list(self.reader.sentences)

    async def run_batch(self, engine, questions, flush) -> float:
        """Replay the batch into ``engine`` exactly as ``repro trace query``
        does (:func:`~repro.trace.retro.replay_batch`), flushing streamed
        intervals after every :data:`REPLAY_CHUNK` changes it feeds."""
        replay = replay_batch(engine, self.reader, questions, node=self.node,
                              chunk=REPLAY_CHUNK)
        while True:
            try:
                next(replay)
            except StopIteration as done:
                return done.value
            await flush()  # stream closed intervals; let clients drain

    def close(self) -> None:
        close = getattr(self.reader, "close", None)
        if close is not None:
            close()


class DbStudySource:
    """Live source: each batch drives one dbsim client/server run with the
    session engine attached to the server SAS (fused local + forwarded
    transitions via the forwarding bus)."""

    def __init__(self, clients: int = 2, queries: int = 3):
        self.clients = clients
        self.queries = queries

    def describe(self) -> str:
        return f"db-study(clients={self.clients}, queries={self.queries})"

    def known_sentences(self):
        """Live runs build their sentence population as they execute, so
        no question can be proven dead up front."""
        return None

    async def run_batch(self, engine, questions, flush) -> float:
        from .dbsim.model import Query
        from .dbsim.study import run_db_study

        queries = [
            Query(f"Q{i}", disk_reads=1 + i % 3) for i in range(self.queries)
        ]
        outcome = run_db_study(
            queries=queries,
            num_clients=self.clients,
            multiq=engine,
        )
        await flush()
        return outcome.elapsed

    def close(self) -> None:
        pass


class ServeServer:
    """Batch-collecting TCP front end over a :class:`TraceSource` /
    :class:`DbStudySource`."""

    def __init__(
        self,
        source,
        host: str = "127.0.0.1",
        port: int = 0,
        subscribers: int = 1,
        once: bool = False,
        shards: int = 1,
        port_file: str | None = None,
        reject_dead: bool = False,
    ):
        if subscribers < 1:
            raise ValueError("need at least one subscriber per batch")
        self.source = source
        self.host = host
        self.port = port
        self.subscribers = subscribers
        self.once = once
        self.shards = shards
        self.port_file = port_file
        self.reject_dead = reject_dead
        self.batches_served = 0
        self._waiting: list[_Client] = []
        self._batch_ready = asyncio.Event()
        self._done = asyncio.Event()
        self._server: asyncio.base_events.Server | None = None

    def _dead_questions(self, specs: list[QuestionSpec]) -> dict[str, list[str]]:
        """Provably dead questions in one subscription, by display name.

        Statically checked against the source's recorded sentence table
        (live sources expose no table, so nothing is provable).  A listed
        question can never fire over this source: some component pattern
        matches no recorded sentence, and a conjunction with a
        never-active component never flips -- its answer is guaranteed
        ``(0.0, 0, False)`` before a single event is replayed.
        """
        sentences = self.source.known_sentences()
        if sentences is None:
            return {}
        from .analyze.deadq import table_dead_patterns

        dead: dict[str, list[str]] = {}
        for spec in specs:
            missing = table_dead_patterns(build_question(spec), sentences)
            if missing:
                dead[spec.display_name()] = [str(p) for p in missing]
        return dead

    async def _handle(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter):
        client = _Client(reader, writer)
        client.send(
            {
                "event": "hello",
                "source": self.source.describe(),
                "subscribers": self.subscribers,
            }
        )
        await client.drain()
        try:
            line = await reader.readline()
            if not line:
                raise ValueError("client closed before subscribing")
            client.specs, client.stream = parse_subscribe(line)
        except ValueError as exc:
            client.send({"event": "error", "message": str(exc)})
            try:
                await client.drain()
            finally:
                writer.close()
            return
        dead = self._dead_questions(client.specs)
        if dead and self.reject_dead:
            names = ", ".join(sorted(dead))
            client.send(
                {
                    "event": "error",
                    "message": (
                        f"dead question(s) rejected: {names} -- some pattern "
                        "matches no sentence this source ever recorded"
                    ),
                }
            )
            try:
                await client.drain()
            finally:
                writer.close()
            return
        subscribed: dict = {
            "event": "subscribed",
            "questions": [s.display_name() for s in client.specs],
        }
        if dead:
            # advisory only: clients that don't know the key ignore it
            subscribed["dead"] = dead
        client.send(subscribed)
        await client.drain()
        self._waiting.append(client)
        if len(self._waiting) >= self.subscribers:
            self._batch_ready.set()

    async def _run_batch(self, batch: list[_Client]) -> None:
        # a display name shared across clients must denote one structural
        # question: the engine keys answers by name, so two different
        # questions under one name would silently report the first one's
        # results to the second subscriber
        by_name: dict[str, tuple] = {}
        for client in batch:
            for spec in client.specs:
                name = spec.display_name()
                key = _question_key(spec)
                if by_name.setdefault(name, key) != key:
                    message = (
                        f'question name "{name}" maps to two different '
                        "questions in this batch"
                    )
                    for c in batch:
                        c.send({"event": "error", "message": message})
                        try:
                            await c.drain()
                        except ConnectionError:
                            pass
                        c.writer.close()
                    return
        engine = MultiQuestionEngine(shards=self.shards)
        registered: set[tuple[int, str]] = set()
        for client in batch:
            for spec in client.specs:
                name = spec.display_name()
                sub = engine.subscribe(build_question(spec), name=name)
                if (id(client), name) in registered:
                    continue  # same client, same question twice: one stream
                registered.add((id(client), name))
                if client.stream:
                    # duplicate questions share one watcher; fan the
                    # callback out per (client, question) pair
                    def emit(start, end, *, c=client, n=name):
                        c.send(
                            {"event": "interval", "question": n,
                             "start": start, "end": end}
                        )

                    sub.watcher.on_interval.append(emit)

        async def flush() -> None:
            for client in batch:
                try:
                    await client.drain()
                except ConnectionError:
                    pass
            await asyncio.sleep(0)

        end = await self.source.run_batch(
            engine, [build_question(s) for c in batch for s in c.specs], flush
        )
        answers = engine.answers(end)
        for client in batch:
            if client.stream:
                # the still-open interval (if any) closes at end_time and was
                # never streamed; emit it so streamed intervals sum exactly
                # to satisfied_time
                for spec in client.specs:
                    name = spec.display_name()
                    w = engine.subscription(name).watcher
                    if w.satisfied:
                        client.send(
                            {"event": "interval", "question": name,
                             "start": w.satisfied_since, "end": end}
                        )
            client.send(
                {
                    "event": "summary",
                    "end_time": end,
                    "questions": {
                        spec.display_name(): {
                            "satisfied_time": answers[spec.display_name()][0],
                            "transitions": answers[spec.display_name()][1],
                            "satisfied_at_end": answers[spec.display_name()][2],
                        }
                        for spec in client.specs
                    },
                }
            )
            client.send({"event": "end"})
            try:
                await client.drain()
            except ConnectionError:
                pass
            client.writer.close()
        self.batches_served += 1

    async def serve(self) -> None:
        self._server = await asyncio.start_server(self._handle, self.host, self.port)
        actual_port = self._server.sockets[0].getsockname()[1]
        self.port = actual_port
        if self.port_file:
            Path(self.port_file).write_text(str(actual_port), encoding="utf-8")
        try:
            while True:
                await self._batch_ready.wait()
                self._batch_ready.clear()
                batch, self._waiting = self._waiting[: self.subscribers], self._waiting[
                    self.subscribers:
                ]
                await self._run_batch(batch)
                if self._waiting and len(self._waiting) >= self.subscribers:
                    self._batch_ready.set()
                if self.once:
                    break
        finally:
            self._server.close()
            await self._server.wait_closed()
            self.source.close()
            self._done.set()


def run_server(
    source,
    host: str = "127.0.0.1",
    port: int = 0,
    subscribers: int = 1,
    once: bool = False,
    shards: int = 1,
    port_file: str | None = None,
    reject_dead: bool = False,
) -> int:
    """Blocking entry point for ``repro serve`` (server role)."""
    server = ServeServer(
        source,
        host=host,
        port=port,
        subscribers=subscribers,
        once=once,
        shards=shards,
        port_file=port_file,
        reject_dead=reject_dead,
    )
    asyncio.run(server.serve())
    return 0


async def _client_session(
    host: str, port: int, specs: Sequence[QuestionSpec], stream: bool
) -> tuple[dict, int]:
    reader, writer = await asyncio.open_connection(host, port)
    request = {
        "questions": [
            {"name": s.name, "patterns": list(s.patterns), "ordered": s.ordered}
            for s in specs
        ],
        "stream": stream,
    }
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    streamed: dict[str, float] = {}
    summary: dict | None = None
    end_time = 0.0
    while True:
        line = await reader.readline()
        if not line:
            break
        msg = json.loads(line)
        event = msg.get("event")
        if event == "error":
            raise ValueError(f"server rejected subscription: {msg.get('message')}")
        if event == "interval":
            q = msg["question"]
            streamed[q] = streamed.get(q, 0.0) + (msg["end"] - msg["start"])
        elif event == "summary":
            summary = msg["questions"]
            end_time = msg["end_time"]
        elif event == "end":
            break
    writer.close()
    if summary is None:
        raise ValueError("server closed the stream without a summary")
    divergence = 0
    if stream:
        for name, ans in summary.items():
            total = streamed.get(name, 0.0)
            # same floats accumulated in the same order on both sides:
            # exact equality, not a tolerance check
            if total != ans["satisfied_time"]:
                divergence += 1
    payload = {"questions": summary, "_end_time": end_time}
    return payload, divergence


def run_client(
    host: str,
    port: int,
    specs: Sequence[QuestionSpec],
    stream: bool = True,
    json_output: bool = True,
) -> int:
    """Blocking entry point for ``repro serve --connect`` (client role).

    Prints the answers in exactly the shape of ``repro trace query --json``
    (so CI can byte-compare the two), and exits 1 if any question's
    streamed intervals do not sum exactly to its summary satisfied-time.
    """
    payload, divergence = asyncio.run(_client_session(host, port, specs, stream))
    questions = payload["questions"]
    if json_output:
        print(json.dumps({"questions": questions}, indent=2, sort_keys=True))
    else:
        for name, ans in questions.items():
            state = "satisfied" if ans["satisfied_at_end"] else "not satisfied"
            print(
                f"question {name}: satisfied {ans['satisfied_time'] * 1e3:.4f} "
                f"virtual ms across {ans['transitions']} transitions "
                f"({state} at end)"
            )
    if divergence:
        print(
            f"repro serve: {divergence} question(s) diverged from stream",
            file=sys.stderr,
        )
        return 1
    return 0
