"""The engine's ``DetectorState`` JSON and finalized output, held to the byte.

``golden/engine_*.jsonl`` were written by ``engine_goldens.py`` (see its
docstring).  Every refactor of the engine's internals must reproduce them
exactly: the state at each chunk boundary, and what ``finalize()``
returns.  A second check restores each golden state into a fresh engine
and finishes the run from there, so old checkpoints keep loading.
"""

import json

import pytest

from repro.core import DetectorState

from .engine_goldens import (
    BOUNDARIES,
    STREAMS,
    chunks_between,
    final_payload,
    golden_path,
    record,
)


def golden(name):
    return golden_path(name).read_text().splitlines()


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_states_and_final_are_byte_identical(name):
    want = golden(name)
    got = record(name)
    assert len(got) == len(want)
    for k, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"{name}: line {k} differs from the golden"


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_resume_from_every_golden_state(name):
    want = golden(name)
    build, observed = STREAMS[name]()
    for state_line, lo in zip(want[:-1], BOUNDARIES[name]):
        engine = build()
        engine.restore(DetectorState.from_dict(json.loads(state_line)))
        assert json.dumps(engine.state().to_dict()) == state_line
        for a, b in chunks_between(lo, observed.shape[0], seed=7):
            engine.push(observed[a:b])
        assert final_payload(engine) == want[-1]
