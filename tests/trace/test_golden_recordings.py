"""Golden recordings: the shipped studies record byte-identical files.

A recording is a pure function of the simulated run, so any change to the
machine, the CMRTS, the instrumentation or the SAS that alters an event,
a virtual time or a transition shows up here as a different digest.
Neither study uses numpy, so the bytes do not depend on its version.
"""

import hashlib

import pytest

from repro.cli import main

GOLDEN = {
    "db": "f70e0457e43a79d16ddfaf0fef12097b25cc8b568c64188996356010a4ccac7f",
    "unix": "d7e8042ded765bc59049d3c26b4dd394efbdd83146f66c289c6b48dc0a91ad60",
}


@pytest.mark.parametrize("study", sorted(GOLDEN))
def test_recording_matches_its_golden_digest(study, tmp_path, capsys):
    path = tmp_path / f"{study}.rtrcx"
    assert main(["trace", "record", study, "--out", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == GOLDEN[study]
