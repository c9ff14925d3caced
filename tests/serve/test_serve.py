"""Tests for the streaming question service (repro serve)."""

import asyncio
import json

import pytest

from repro.cli import main
from repro.core import OrderedQuestion, PerformanceQuestion
from repro.serve import (
    DbStudySource,
    QuestionSpec,
    ServeServer,
    TraceSource,
    build_question,
    parse_subscribe,
    _client_session,
)
from repro.trace import open_trace
from repro.trace.retro import evaluate_questions

from ..core.oracle import naive_answers


@pytest.fixture
def db_trace(tmp_path):
    path = tmp_path / "db.rtrcx"
    assert (
        main(
            ["trace", "record", "db", "--out", str(path), "--clients", "3", "--queries", "6"]
        )
        == 0
    )
    return str(path)


# ----------------------------------------------------------------------
# protocol parsing
# ----------------------------------------------------------------------
def test_parse_subscribe_roundtrip():
    specs, stream = parse_subscribe(
        json.dumps(
            {
                "questions": [
                    {"patterns": ["{A Sum}", "{? Send}@Base"], "ordered": True},
                    {"name": "mine", "patterns": ["{server0 DiskRead}"]},
                ],
                "stream": False,
            }
        )
    )
    assert not stream
    assert specs[0].ordered and specs[0].display_name() == "{A Sum} & {? Send}@Base"
    assert specs[1].display_name() == "mine"


@pytest.mark.parametrize(
    "line",
    [
        "not json",
        "{}",
        '{"questions": []}',
        '{"questions": [{"patterns": []}]}',
        '{"questions": [{"patterns": ["{}"]}]}',  # empty pattern
        '{"questions": [{"patterns": ["{A Sum}bad"]}]}',  # bad suffix
        # one name, two structurally different questions: would silently
        # collapse to the first question's watcher in the engine name table
        '{"questions": [{"name": "n", "patterns": ["{A Sum}"]},'
        ' {"name": "n", "patterns": ["{B Sum}"]}]}',
        '{"questions": [{"name": "n", "patterns": ["{A Sum}"]},'
        ' {"name": "n", "patterns": ["{A Sum}"], "ordered": true}]}',
    ],
)
def test_parse_subscribe_rejects(line):
    with pytest.raises(ValueError):
        parse_subscribe(line)


def test_build_question_matches_trace_query_naming():
    spec = QuestionSpec(patterns=("{A Sum}", "{? Send}"), ordered=False)
    q = build_question(spec)
    assert isinstance(q, PerformanceQuestion)
    assert q.name == "{A Sum} & {? Send}"  # what trace query calls it
    assert isinstance(
        build_question(QuestionSpec(patterns=("{A Sum}",), ordered=True)),
        OrderedQuestion,
    )


# ----------------------------------------------------------------------
# in-process server round trip
# ----------------------------------------------------------------------
async def _serve_batch(source, specs_per_client, shards=1):
    server = ServeServer(
        source, subscribers=len(specs_per_client), once=True, shards=shards
    )
    task = asyncio.create_task(server.serve())
    while server.port == 0 and not task.done():
        await asyncio.sleep(0.01)
    if task.done():
        task.result()  # propagate startup errors
    sessions = [
        _client_session("127.0.0.1", server.port, specs, stream=True)
        for specs in specs_per_client
    ]
    results = await asyncio.gather(*sessions)
    await asyncio.wait_for(task, timeout=10)
    return results


def test_two_overlapping_subscribers_match_retro_oracle(db_trace):
    q_shared = QuestionSpec(patterns=("{server0 DiskRead}",))
    q_a = QuestionSpec(patterns=("{Q0 QueryActive}", "{server0 DiskRead}"))
    q_ord = QuestionSpec(patterns=("{Q1 QueryActive}", "{server0 DiskRead}"), ordered=True)
    (pay_a, div_a), (pay_b, div_b) = asyncio.run(
        _serve_batch(TraceSource(db_trace), [[q_a, q_shared], [q_shared, q_ord]], shards=3)
    )
    assert div_a == 0 and div_b == 0  # streamed intervals sum to summary
    reader = open_trace(db_trace)
    for payload, specs in ((pay_a, [q_a, q_shared]), (pay_b, [q_shared, q_ord])):
        for spec in specs:
            expected = evaluate_questions(reader, [build_question(spec)])
            ans = payload["questions"][spec.display_name()]
            ref = expected[spec.display_name()]
            assert ans["satisfied_time"] == ref.satisfied_time
            assert ans["transitions"] == ref.transitions
            assert ans["satisfied_at_end"] == ref.satisfied_at_end


def test_node_filtered_batch_matches_trace_query(db_trace, capsys):
    # the fixture's three clients record as nodes 0-2, the server as node 3
    specs = [
        QuestionSpec(patterns=("{? QueryActive}@Database",)),
        QuestionSpec(patterns=("{Q0 QueryActive}", "{server0 DiskRead}")),
    ]
    for node in (0, 3):
        [(payload, divergence)] = asyncio.run(
            _serve_batch(TraceSource(db_trace, node=node), [specs])
        )
        assert divergence == 0
        for spec in specs:
            patterns = [arg for p in spec.patterns for arg in ("--pattern", p)]
            capsys.readouterr()
            assert main(["trace", "query", db_trace, *patterns, "--node", str(node), "--json"]) == 0
            want = json.loads(capsys.readouterr().out)["questions"]
            name = spec.display_name()
            assert payload["questions"][name] == want[name], (node, name)


@pytest.fixture(scope="module")
def db_trace_64(tmp_path_factory):
    """A 40-query db recording in 64-record segments (360 transitions)."""
    from repro.dbsim import Query, run_db_study
    from repro.trace import ColumnarTraceWriter

    path = tmp_path_factory.mktemp("db64") / "db64.rtrcx"
    queries = [Query(f"Q{i}", disk_reads=(i % 4) + 1) for i in range(40)]
    with ColumnarTraceWriter(path, segment_records=64) as w:
        run_db_study(queries, num_clients=3, recorder=w)
    return str(path)


@pytest.mark.parametrize("node", [None, 3])  # node 3: the server
def test_two_client_batch_matches_the_oracle(db_trace_64, node):
    # an ordered question and a pattern shared by both clients, answered by
    # one replay of a segmented columnar file; the oracle replays every
    # recorded event through the naive SAS
    shared = "{server0 DiskRead}@DB Server"
    first = [
        QuestionSpec(patterns=("{Q1 QueryActive}@Database", shared), ordered=True),
        QuestionSpec(patterns=(shared,)),
    ]
    second = [
        QuestionSpec(patterns=("{? QueryActive}@Database", shared)),
        QuestionSpec(patterns=(shared,), name="disk"),
    ]
    replies = asyncio.run(
        _serve_batch(TraceSource(db_trace_64, node=node), [first, second], shards=2)
    )
    with open_trace(db_trace_64) as reader:
        assert len(reader.segments) > 4
        events = list(reader.events())
    for (payload, divergence), specs in zip(replies, (first, second)):
        assert divergence == 0  # streamed intervals sum exactly to summary
        want = naive_answers(events, [build_question(s) for s in specs], node=node)
        for spec in specs:
            name = spec.display_name()
            sat, transitions, at_end, end = want[name]
            assert payload["questions"][name] == {
                "satisfied_time": sat,
                "transitions": transitions,
                "satisfied_at_end": at_end,
            }, (node, name)
            assert payload["_end_time"] == end
        assert any(payload["questions"][s.display_name()]["transitions"] for s in specs)


def test_oversized_subscribe_line_gets_error_then_server_answers(db_trace):
    # asyncio's StreamReader refuses a line past its 64 KiB limit; the
    # client gets an error event and EOF, and the batch slot stays open
    async def scenario():
        server = ServeServer(TraceSource(db_trace), subscribers=1, once=True)
        task = asyncio.create_task(server.serve())
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        await reader.readline()  # hello
        request = {"questions": [{"patterns": ["{server0 DiskRead}"], "name": ""}]}
        pad = 70_000 - len(json.dumps(request))
        request["questions"][0]["name"] = "x" * pad
        line = json.dumps(request).encode()
        assert len(line) == 70_000
        writer.write(line + b"\n")
        await writer.drain()
        msg = json.loads(await reader.readline())
        eof = await reader.read()
        writer.close()
        good = await _client_session(
            "127.0.0.1",
            server.port,
            [QuestionSpec(patterns=("{server0 DiskRead}",))],
            stream=True,
        )
        await asyncio.wait_for(task, timeout=10)
        return msg, eof, good

    msg, eof, (payload, divergence) = asyncio.run(scenario())
    assert msg == {
        "event": "error",
        "message": "Separator is found, but chunk is longer than limit",
    }
    assert eof == b""
    assert divergence == 0 and payload["questions"]["{server0 DiskRead}"]["transitions"] > 0


def test_interval_open_at_end_is_streamed_closed_at_end_time(tmp_path):
    # {A Sum} is satisfied over [1, 2] and again from 3 until the last
    # recorded transition (5): the server streams the closed interval as
    # it happens and the open one, from satisfied_since to end_time, after
    # the replay -- the client's sum must equal the summary exactly
    from repro.core import EventKind, Noun, Verb, sentence
    from repro.trace import ColumnarTraceWriter

    a_sum = sentence(Verb("Sum", "HPF"), Noun("A", "HPF"))
    b_sum = sentence(Verb("Sum", "HPF"), Noun("B", "HPF"))
    path = tmp_path / "open.rtrcx"
    writer = ColumnarTraceWriter(path)
    for t, kind, sent in [
        (1.0, EventKind.ACTIVATE, a_sum), (2.0, EventKind.DEACTIVATE, a_sum),
        (3.0, EventKind.ACTIVATE, a_sum), (5.0, EventKind.ACTIVATE, b_sum),
    ]:
        writer.transition(t, kind, sent, 0)
    writer.close()
    spec = QuestionSpec(patterns=("{A Sum}",))
    [(payload, divergence)] = asyncio.run(_serve_batch(TraceSource(str(path)), [[spec]]))
    assert divergence == 0
    assert payload["_end_time"] == 5.0
    assert payload["questions"]["{A Sum}"] == {
        "satisfied_time": 3.0, "transitions": 3, "satisfied_at_end": True,
    }


def test_live_db_source_round_trip():
    spec = QuestionSpec(patterns=("{Q0 QueryActive}", "{server0 DiskRead}"))
    [(payload, divergence)] = asyncio.run(
        _serve_batch(DbStudySource(clients=2, queries=4), [[spec]])
    )
    ans = payload["questions"][spec.display_name()]
    assert divergence == 0
    assert ans["transitions"] > 0 and ans["satisfied_time"] > 0.0


def test_bad_subscription_gets_error_event(db_trace):
    async def scenario():
        server = ServeServer(TraceSource(db_trace), subscribers=1, once=True)
        task = asyncio.create_task(server.serve())
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
        await reader.readline()  # hello
        writer.write(b'{"questions": []}\n')
        await writer.drain()
        msg = json.loads(await reader.readline())
        writer.close()
        # the bad client was rejected without consuming the batch slot;
        # serve the real batch so the server can exit
        good = await _client_session(
            "127.0.0.1",
            server.port,
            [QuestionSpec(patterns=("{server0 DiskRead}",))],
            stream=True,
        )
        await asyncio.wait_for(task, timeout=10)
        return msg, good

    msg, (payload, divergence) = asyncio.run(scenario())
    assert msg["event"] == "error" and "questions" in msg["message"]
    assert divergence == 0 and payload["questions"]


def test_parse_subscribe_allows_identical_duplicates_under_one_name():
    specs, _ = parse_subscribe(
        json.dumps(
            {
                "questions": [
                    {"name": "n", "patterns": ["{A Sum}", "{B Sum}"]},
                    # same structural question (conjunction order is free)
                    {"name": "n", "patterns": ["{B Sum}", "{A Sum}"]},
                ]
            }
        )
    )
    assert len(specs) == 2


def test_cross_client_name_collision_rejects_batch(db_trace):
    async def scenario():
        server = ServeServer(TraceSource(db_trace), subscribers=2, once=True)
        task = asyncio.create_task(server.serve())
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)

        async def subscribe(patterns):
            reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
            await reader.readline()  # hello
            writer.write(
                json.dumps(
                    {"questions": [{"name": "shared", "patterns": patterns}]}
                ).encode()
                + b"\n"
            )
            await writer.drain()
            msgs = []
            while True:
                line = await reader.readline()
                if not line:
                    break
                msgs.append(json.loads(line))
            writer.close()
            return msgs

        results = await asyncio.gather(
            subscribe(["{server0 DiskRead}"]),
            subscribe(["{Q0 QueryActive}"]),
        )
        await asyncio.wait_for(task, timeout=10)
        return results

    for msgs in asyncio.run(scenario()):
        # each request is individually valid (subscribed), but the batch
        # maps one name to two different questions, so it is rejected
        # instead of silently answering with the first question's results
        assert msgs[0]["event"] == "subscribed"
        assert msgs[-1]["event"] == "error"
        assert "shared" in msgs[-1]["message"]


# ----------------------------------------------------------------------
# CLI exit-code contract + suffix sniffing
# ----------------------------------------------------------------------
def test_serve_without_source_or_connect_exits_2(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)
    assert main(["serve"]) == 2


def test_serve_bad_connect_address_exits_2(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)
    assert main(["serve", "--connect", "nope", "--pattern", "{A Sum}"]) == 2


def test_serve_connect_without_pattern_exits_2(monkeypatch):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)
    assert main(["serve", "--connect", "127.0.0.1:1"]) == 2


def test_serve_missing_trace_exits_2(monkeypatch, tmp_path):
    monkeypatch.delenv("REPRO_DEBUG", raising=False)
    assert main(["serve", "--trace", str(tmp_path / "missing.rtrcx")]) == 2


def test_serve_debug_reraises(monkeypatch):
    monkeypatch.setenv("REPRO_DEBUG", "1")
    with pytest.raises(ValueError):
        main(["serve"])


def test_trace_source_sniffs_both_formats(tmp_path):
    from repro.trace import CodecError

    col = tmp_path / "db.rtrcx"
    assert main(["trace", "record", "db", "--out", str(col)]) == 0
    # misleading suffix: open_trace reads the magic bytes, not the name
    disguised = tmp_path / "actually_columnar.rtrc"
    disguised.write_bytes(col.read_bytes())
    for path in (col, disguised):
        source = TraceSource(str(path))
        assert source.reader.__class__.__name__ == "ColumnarTraceReader"
        source.close()
    # the retired row layout's magic is refused, whatever the name
    row = tmp_path / "db_row.rtrcx"
    row.write_bytes(b"RTRC" + col.read_bytes()[4:])
    with pytest.raises(CodecError):
        TraceSource(str(row))


# ----------------------------------------------------------------------
# dead-question detection at subscribe time
# ----------------------------------------------------------------------
async def _subscribe_raw(port, request):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    await reader.readline()  # hello
    writer.write(json.dumps(request).encode() + b"\n")
    await writer.drain()
    msgs = [json.loads(await reader.readline())]
    while msgs[-1].get("event") not in ("end", "error"):
        line = await reader.readline()
        if not line:
            break
        msgs.append(json.loads(line))
    writer.close()
    return msgs


def test_dead_question_warned_in_subscribed_event(db_trace):
    async def scenario():
        server = ServeServer(TraceSource(db_trace), subscribers=1, once=True)
        task = asyncio.create_task(server.serve())
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        msgs = await _subscribe_raw(
            server.port,
            {
                "questions": [
                    {"name": "live", "patterns": ["{server0 DiskRead}"]},
                    {"name": "dead", "patterns": ["{ghost NoSuchVerb}"]},
                ],
                "stream": False,
            },
        )
        await asyncio.wait_for(task, timeout=10)
        return msgs

    msgs = asyncio.run(scenario())
    subscribed = msgs[0]
    assert subscribed["event"] == "subscribed"
    assert subscribed["dead"] == {"dead": ["{ghost NoSuchVerb}"]}
    summary = next(m for m in msgs if m["event"] == "summary")
    # the statically-dead question still gets its (provably zero) answer
    assert summary["questions"]["dead"] == {
        "satisfied_time": 0.0,
        "transitions": 0,
        "satisfied_at_end": False,
    }
    assert summary["questions"]["live"]["transitions"] > 0


def test_live_subscription_has_no_dead_key(db_trace):
    async def scenario():
        server = ServeServer(TraceSource(db_trace), subscribers=1, once=True)
        task = asyncio.create_task(server.serve())
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        msgs = await _subscribe_raw(
            server.port,
            {"questions": [{"patterns": ["{server0 DiskRead}"]}], "stream": False},
        )
        await asyncio.wait_for(task, timeout=10)
        return msgs

    msgs = asyncio.run(scenario())
    # the protocol stays byte-compatible for clean subscriptions
    assert msgs[0] == {
        "event": "subscribed",
        "questions": ["{server0 DiskRead}"],
    }


def test_reject_dead_refuses_the_subscription(db_trace):
    async def scenario():
        server = ServeServer(
            TraceSource(db_trace), subscribers=1, once=True, reject_dead=True
        )
        task = asyncio.create_task(server.serve())
        while server.port == 0 and not task.done():
            await asyncio.sleep(0.01)
        msgs = await _subscribe_raw(
            server.port,
            {
                "questions": [{"name": "dead", "patterns": ["{ghost NoSuchVerb}"]}],
                "stream": False,
            },
        )
        # rejected client did not consume the batch slot; serve a real batch
        good = await _client_session(
            "127.0.0.1",
            server.port,
            [QuestionSpec(patterns=("{server0 DiskRead}",))],
            stream=True,
        )
        await asyncio.wait_for(task, timeout=10)
        return msgs, good

    msgs, (payload, divergence) = asyncio.run(scenario())
    assert msgs[0]["event"] == "error"
    assert "dead question(s) rejected: dead" in msgs[0]["message"]
    assert divergence == 0 and payload["questions"]


def test_live_db_source_never_rejects_as_dead():
    # live sources have no recorded table: nothing is provably dead
    source = DbStudySource(clients=1, queries=1)
    assert source.known_sentences() is None
    server = ServeServer(source, reject_dead=True)
    assert server._dead_questions(
        [QuestionSpec(patterns=("{ghost NoSuchVerb}",))]
    ) == {}


def test_engine_dead_subscriptions_names():
    from repro.core import MultiQuestionEngine, SentencePattern
    from repro.core.nouns import Noun, Verb
    from repro.core import Sentence

    engine = MultiQuestionEngine()
    engine.subscribe(
        PerformanceQuestion("live", (SentencePattern("Works", ("blk",)),))
    )
    engine.subscribe(
        PerformanceQuestion("dead", (SentencePattern("Works", ("ghost",)),))
    )
    table = [Sentence(Verb("Works", "Base"), (Noun("blk", "Base"),))]
    assert engine.dead_subscriptions(table) == ["dead"]
