"""Golden recordings: the shipped studies record byte-identical files.

A recording is a pure function of the simulated run, so any change to the
machine, the CMRTS, the instrumentation or the SAS that alters an event,
a virtual time or a transition shows up here as a different digest.
Neither study uses numpy, so the bytes do not depend on its version.

Two digests per study: one of the file's bytes, which a change to the
``.rtrcx`` layout moves, and one of the record stream the file decodes to
(:meth:`~repro.trace.ColumnarTraceReader.records`), which no layout change
may move.
"""

import hashlib

import pytest

from repro.cli import main
from repro.trace import open_trace

GOLDEN = {
    "db": "54a4bbb247c47adceb5814e69f72230ba9471e9f2e0313f4efbf91c77d2e1440",
    "unix": "70b1aed8dabc648aef62c6f02c939645345f71889c3f93d0fd18a0ada2475cd7",
}

GOLDEN_STREAMS = {
    "db": "b4c0cd6522582b7e8c2f7ee92a7d32338a81969824f61e9a0a449256ffb589b1",
    "unix": "3ddfb0f83f2611d5d5dd5aa9aa6001c32147a6850c2e6d2665b3e1677504a8f8",
}


@pytest.fixture(scope="module", params=sorted(GOLDEN))
def recording(request, tmp_path_factory):
    study = request.param
    path = tmp_path_factory.mktemp("golden") / f"{study}.rtrcx"
    assert main(["trace", "record", study, "--out", str(path)]) == 0
    return study, path


def stream_digest(path) -> str:
    """sha256 over the ``repr`` of every decoded record, in order."""
    digest = hashlib.sha256()
    with open_trace(path) as reader:
        for record in reader.records():
            digest.update(repr(record).encode() + b"\n")
    return digest.hexdigest()


def test_recording_matches_its_golden_digest(recording):
    study, path = recording
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[study]


def test_decoded_stream_matches_its_golden_digest(recording):
    study, path = recording
    assert stream_digest(path) == GOLDEN_STREAMS[study]
