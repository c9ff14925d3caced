"""CMRTS notifications reuse their sentences.

The node dispatcher builds each notification sentence once per node (a
block's statement and array sentences at the block's first execution
there), so every notification of one sentence value on one node passes the
same object: the one whose cached hash the notifier, the SAS, the question
engine and a trace recorder all look up.
"""

from repro.cmfortran import compile_source
from repro.paradyn import Paradyn

PROGRAM = """PROGRAM LOOP
REAL A(64), B(64)
A = 1.0
DO K = 1, 4
B = A * 2.0 + 1.0
S = SUM(B)
A = CSHIFT(B, 3)
A = A + B
ENDDO
END
"""
NODES = 4


class Capture:
    """A recorder that keeps every transition's sentence object."""

    def __init__(self):
        self.calls = []

    def transition(self, time, kind, sentence, node_id):
        self.calls.append((sentence, node_id))

    def metric_sample(self, *args, **kwargs):
        pass

    def mapping(self, *args, **kwargs):
        pass


def recorded_notifications():
    tool = Paradyn.for_program(compile_source(PROGRAM, "loop.cmf"), num_nodes=NODES)
    capture = Capture()
    tool.record_to(capture)
    tool.run()
    return capture.calls  # keeps every object alive, so ids stay distinct


def test_one_object_per_sentence_value_on_each_node():
    calls = recorded_notifications()
    objects: dict = {}
    counts: dict = {}
    for sentence, node in calls:
        objects.setdefault((node, sentence), set()).add(id(sentence))
        counts[node, sentence] = counts.get((node, sentence), 0) + 1
    assert {node for node, _ in objects} == set(range(NODES))
    # the loop body's blocks ran on every node once per iteration
    body = [key for key, n in counts.items() if key[1].verb.name == "Executes" and n >= 8]
    assert len(body) >= 4 * NODES
    assert any(s.abstraction == "CMRTS" and n >= 8 for (_, s), n in counts.items())
    shared = {key: ids for key, ids in objects.items() if len(ids) > 1}
    assert not shared, f"{len(shared)} sentence values passed as several objects"

