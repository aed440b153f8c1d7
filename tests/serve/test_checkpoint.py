"""Atomic checkpoint store (`repro.serve.checkpoint`).

The two contracts under test:

* **Atomicity** — a writer SIGKILLed mid-write leaves only a ``.tmp``
  sibling; loading ignores it and the last complete checkpoint (or
  "none") wins.
* **Fail-soft loading** — any malformed checkpoint means "restart the
  stream from scratch" with a :class:`CheckpointWarning` naming the
  problem, never a crash (the `DetectorState.from_dict` KeyError bug).
"""

import json

import pytest

from repro.core.engine import DetectorState
from repro.serve.checkpoint import (
    CHECKPOINT_SUFFIX,
    CheckpointStore,
    CheckpointWarning,
)
from repro.serve.model import demo_observed

from .conftest import N_SAMPLES, SAMPLE_RATE


@pytest.fixture(scope="module")
def state_doc(model):
    engine = model.build_engine()
    engine.push(demo_observed(0, N_SAMPLES, SAMPLE_RATE)[:800])
    return engine.state().to_dict()


class TestRoundTrip:
    def test_save_load_is_identity(self, tmp_path, state_doc):
        store = CheckpointStore(tmp_path)
        path = store.save("printer-07", state_doc)
        assert path.exists()
        assert store.load("printer-07") == state_doc
        assert store.samples_seen("printer-07") == 800

    def test_restored_engine_is_bit_identical(
        self, tmp_path, model, state_doc
    ):
        store = CheckpointStore(tmp_path)
        store.save("p", state_doc)
        samples = demo_observed(0, N_SAMPLES, SAMPLE_RATE)
        resumed = model.build_engine()
        resumed.restore(DetectorState.from_dict(store.load("p")))
        resumed.push(samples[800:])
        whole = model.build_engine()
        whole.push(samples)
        a = resumed.finalize().detection
        b = whole.finalize().detection
        assert a is not None and b is not None
        assert a.to_dict() == b.to_dict()

    def test_missing_checkpoint_is_none_without_warning(
        self, tmp_path, recwarn
    ):
        store = CheckpointStore(tmp_path)
        assert store.load("never-seen") is None
        assert store.samples_seen("never-seen") == 0
        assert not [
            w for w in recwarn.list
            if issubclass(w.category, CheckpointWarning)
        ]

    def test_delete(self, tmp_path, state_doc):
        store = CheckpointStore(tmp_path)
        store.save("p", state_doc)
        assert store.delete("p") is True
        assert store.delete("p") is False
        assert store.load("p") is None


class TestFilenames:
    def test_weird_stream_ids_round_trip(self, tmp_path, state_doc):
        store = CheckpointStore(tmp_path)
        weird = "printer/7 µ:a%b"
        store.save(weird, state_doc)
        # Exactly one file, inside the store directory, raw id recorded.
        files = list(tmp_path.glob("*" + CHECKPOINT_SUFFIX))
        assert len(files) == 1
        assert files[0].parent == tmp_path
        assert store.load(weird) == state_doc
        assert store.stream_ids() == [weird]

    def test_distinct_ids_never_collide(self, tmp_path, state_doc):
        store = CheckpointStore(tmp_path)
        store.save("a/b", state_doc)
        store.save("a%2fb", state_doc)
        assert len(list(tmp_path.glob("*" + CHECKPOINT_SUFFIX))) == 2

    def test_over_long_id_gets_a_digest_name(self, tmp_path, state_doc):
        # The protocol accepts ids up to 512 characters; their readable
        # encoding would exceed a file name's 255 bytes.
        store = CheckpointStore(tmp_path)
        long_id = "p" * 300
        path = store.save(long_id, state_doc)
        assert len((path.name + ".tmp").encode()) <= 255
        assert path.name.startswith("%sha256-")
        assert store.load(long_id) == state_doc
        assert store.stream_ids() == [long_id]
        assert store.delete(long_id) is True

    def test_digest_names_never_collide_with_readable_ones(self, tmp_path):
        # A readable encoding only emits "%" before two hex digits.
        store = CheckpointStore(tmp_path)
        digest_name = store.path("x" * 300).name
        readable = store.path(digest_name[: -len(CHECKPOINT_SUFFIX)]).name
        assert readable != digest_name


class TestCrashedWriter:
    def test_leftover_tmp_is_ignored(self, tmp_path, state_doc, recwarn):
        store = CheckpointStore(tmp_path)
        store.save("p", state_doc)
        # A writer died mid-write: torn bytes in the .tmp sibling.
        tmp = store.path("p").with_name(store.path("p").name + ".tmp")
        tmp.write_text('{"v": 1, "stream_id": "p", "state": {"conf')
        assert store.load("p") == state_doc
        assert store.samples_seen("p") == 800

    def test_only_a_tmp_means_no_checkpoint(self, tmp_path, recwarn):
        store = CheckpointStore(tmp_path)
        tmp = store.path("p").with_name(store.path("p").name + ".tmp")
        tmp.write_text("{torn")
        assert store.load("p") is None
        assert store.stream_ids() == []


class TestUnusableCheckpoints:
    def test_truncated_json_warns_and_restarts(self, tmp_path, state_doc):
        store = CheckpointStore(tmp_path)
        path = store.save("p", state_doc)
        path.write_text(path.read_text()[: path.stat().st_size // 2])
        with pytest.warns(CheckpointWarning, match="restarts from scratch"):
            assert store.load("p") is None
        with pytest.warns(CheckpointWarning):
            assert store.samples_seen("p") == 0

    def test_missing_state_section_warns(self, tmp_path, state_doc):
        store = CheckpointStore(tmp_path)
        path = store.save("p", state_doc)
        envelope = json.loads(path.read_text())
        del envelope["state"]["progress"]
        path.write_text(json.dumps(envelope))
        with pytest.warns(CheckpointWarning, match="progress"):
            assert store.load("p") is None

    def test_envelope_without_state_warns(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path("p").write_text('{"v": 1, "stream_id": "p"}')
        with pytest.warns(CheckpointWarning, match="state"):
            assert store.load("p") is None

    def test_non_object_envelope_warns(self, tmp_path):
        store = CheckpointStore(tmp_path)
        store.path("p").write_text("[1, 2, 3]")
        with pytest.warns(CheckpointWarning):
            assert store.load("p") is None
