"""Shard mapping and the per-worker engine table (`repro.serve.shard`)."""

import asyncio
import zlib

import pytest

from repro.core.engine import DetectorState
from repro.serve.model import demo_observed
from repro.serve.shard import EngineHost, ShardPool, shard_of

from .conftest import N_SAMPLES, SAMPLE_RATE


def observed(k=0):
    return demo_observed(k, N_SAMPLES, SAMPLE_RATE)


class TestShardOf:
    def test_stable_across_processes(self):
        # crc32, not the salted builtin hash(): the mapping must agree
        # between server restarts and between parent and workers.
        assert shard_of("printer-0007", 8) == (
            zlib.crc32(b"printer-0007") % 8
        )

    def test_all_streams_land_in_range(self):
        for k in range(100):
            assert 0 <= shard_of(f"printer-{k:04d}", 4) < 4

    def test_spread_is_not_degenerate(self):
        shards = {shard_of(f"printer-{k:04d}", 4) for k in range(64)}
        assert shards == {0, 1, 2, 3}

    def test_single_shard_is_zero(self):
        assert shard_of("anything", 1) == 0
        assert shard_of("anything", 0) == 0


class TestEngineHost:
    def test_open_chunk_close_round_trip(self, model):
        host = EngineHost(model)
        ack = host.open("p", None)
        assert ack == {
            "samples_seen": 0, "resumed": False, "reattached": False,
        }
        data = observed()
        ack = host.chunk("p", data[:500])
        assert ack["samples_seen"] == 500
        assert ack["latency_s"] >= 0.0
        host.chunk("p", data[500:])
        reply = host.close("p")
        assert reply["samples_seen"] == N_SAMPLES
        assert "result" in reply
        # Closing removes the engine: a re-open starts from scratch.
        assert host.open("p", None)["samples_seen"] == 0

    def test_reattach_keeps_live_engine(self, model):
        host = EngineHost(model)
        host.open("p", None)
        host.chunk("p", observed()[:300])
        ack = host.open("p", None)
        assert ack["reattached"] is True
        assert ack["samples_seen"] == 300

    def test_restore_from_state_doc(self, model):
        host = EngineHost(model)
        host.open("p", None)
        host.chunk("p", observed()[:400])
        doc = host.states()["p"]
        DetectorState.from_dict(doc)  # valid snapshot
        fresh = EngineHost(model)
        ack = fresh.open("p", doc)
        assert ack["resumed"] is True
        assert ack["samples_seen"] == 400

    def test_rejected_state_doc_degrades_to_fresh(self, model):
        host = EngineHost(model)
        host.open("p", None)
        host.chunk("p", observed()[:400])
        doc = host.states()["p"]
        del doc["progress"]
        fresh = EngineHost(model)
        ack = fresh.open("p", doc)
        assert ack["resumed"] is False
        assert ack["samples_seen"] == 0
        assert "progress" in ack["checkpoint_rejected"]

    def test_drop_discards_without_finalize(self, model):
        host = EngineHost(model)
        host.open("p", None)
        assert host.drop("p") is True
        assert host.drop("p") is False
        assert host.stream_ids() == []


class TestInlinePool:
    def test_inline_pool_round_trip(self, model_dir, model):
        async def scenario():
            pool = ShardPool(str(model_dir), n_shards=0, model=model)
            assert pool.inline
            await pool.open("p", None)
            ack = await pool.chunk("p", observed()[:200])
            assert ack["samples_seen"] == 200
            states = await pool.all_states()
            assert set(states) == {"p"}
            assert await pool.pid(0) > 0
            pool.shutdown()

        asyncio.run(scenario())

    def test_negative_shards_rejected(self, model_dir):
        with pytest.raises(ValueError, match="n_shards"):
            ShardPool(str(model_dir), n_shards=-1)
