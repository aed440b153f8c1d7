"""Fleet service integration tests (inline shard mode, real sockets).

Inline mode runs the same server logic minus worker processes, so these
cover the whole protocol surface fast: open/chunk/close round trips that
must be bit-identical to offline engine runs, duplicate-``stream_id``
ownership semantics, seq validation, restart, checkpointing, and
graceful shutdown.  Crash-resume with real SIGKILLed workers lives in
``test_kill_resume.py``.
"""

import asyncio
import json

import pytest

from repro.obs import telemetry
from repro.serve import FleetServer
from repro.serve.checkpoint import CheckpointStore
from repro.serve.loadgen import offline_verdict, run_loadgen, synth_streams
from repro.serve.model import demo_observed
from repro.serve.protocol import encode

from .conftest import N_SAMPLES, SAMPLE_RATE


async def connect(server):
    return await asyncio.open_connection("127.0.0.1", server.port)


async def rpc(reader, writer, doc):
    writer.write(encode(doc))
    await writer.drain()
    line = await asyncio.wait_for(reader.readline(), timeout=30)
    assert line, "server closed the connection"
    return json.loads(line.decode("utf-8"))


def serve_test(model_dir, scenario, **kwargs):
    """Start an inline server on an ephemeral port, run, always stop."""

    async def runner():
        server = FleetServer(model_dir, port=0, **kwargs)
        await server.start()
        try:
            return await asyncio.wait_for(scenario(server), timeout=60)
        finally:
            await server.stop()

    return asyncio.run(runner())


class TestRoundTrip:
    def test_served_verdict_is_bit_identical(self, model_dir, model):
        samples = demo_observed(3, N_SAMPLES, SAMPLE_RATE)

        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {
                "op": "open", "stream_id": "p3",
                "sample_rate": SAMPLE_RATE,
            })
            seq = 0
            for start in range(0, N_SAMPLES, 256):
                block = samples[start:start + 256]
                reply = await rpc(reader, writer, {
                    "op": "chunk", "stream_id": "p3", "seq": seq,
                    "samples": block[:, 0].tolist(),
                })
                assert reply["ok"], reply
                assert reply["samples_seen"] == min(start + 256, N_SAMPLES)
                seq += 1
            reply = await rpc(
                reader, writer, {"op": "close", "stream_id": "p3"}
            )
            writer.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply["ok"]
        assert reply["result"] == offline_verdict(model, samples)
        assert reply["intrusion"] == reply["result"]["is_intrusion"]

    def test_ping_reports_service_stats(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {
                "op": "open", "stream_id": "p0",
            })
            pong = await rpc(reader, writer, {"op": "ping"})
            writer.close()
            return pong

        pong = serve_test(model_dir, scenario)
        assert pong["ok"] and pong["op"] == "pong"
        assert pong["stats"]["live_streams"] == 1.0
        assert pong["stats"]["shards"] == 0.0

    def test_loadgen_against_inline_server(self, model_dir, model):
        streams = synth_streams(4, N_SAMPLES, SAMPLE_RATE)

        async def scenario(server):
            return await run_loadgen(
                ("127.0.0.1", server.port),
                streams,
                chunk_samples=256,
                verify_model=model,
            )

        result = serve_test(model_dir, scenario)
        assert result.n_streams == 4
        assert result.mismatches == []
        assert result.resumes == 0
        assert result.total_samples == 4 * N_SAMPLES
        assert result.ingest_p99_ms >= result.ingest_p50_ms >= 0.0


class TestValidation:
    def test_chunk_before_open_is_unknown_stream(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            reply = await rpc(reader, writer, {
                "op": "chunk", "stream_id": "ghost", "seq": 0,
                "samples": [1.0],
            })
            writer.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply == {
            "ok": False, "error": "unknown_stream",
            "message": "stream 'ghost' is not open", "stream_id": "ghost",
        }

    def test_seq_gap_is_rejected(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            reply = await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 5,
                "samples": [1.0],
            })
            writer.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply["error"] == "bad_seq"
        assert "expected seq 0" in reply["message"]

    def test_sample_rate_mismatch_is_rejected(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            reply = await rpc(reader, writer, {
                "op": "open", "stream_id": "p", "sample_rate": 44100.0,
            })
            writer.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply["error"] == "bad_request"
        assert "sample_rate" in reply["message"]

    def test_unparseable_line_is_bad_request(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            writer.write(b"this is not json\n")
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), timeout=30)
            writer.close()
            return json.loads(line)

        reply = serve_test(model_dir, scenario)
        assert reply["error"] == "bad_request"


class TestDuplicateStreamIds:
    """Re-registration semantics for a stream id already known."""

    def test_second_connection_is_busy_while_owned(self, model_dir):
        async def scenario(server):
            r1, w1 = await connect(server)
            await rpc(r1, w1, {"op": "open", "stream_id": "p"})
            r2, w2 = await connect(server)
            reply = await rpc(r2, w2, {"op": "open", "stream_id": "p"})
            w1.close()
            w2.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply["error"] == "stream_busy"

    def test_reopen_after_owner_disconnects_reattaches(self, model_dir):
        async def scenario(server):
            r1, w1 = await connect(server)
            await rpc(r1, w1, {"op": "open", "stream_id": "p"})
            await rpc(r1, w1, {
                "op": "chunk", "stream_id": "p", "seq": 0,
                "samples": demo_observed(0, N_SAMPLES)[:300, 0].tolist(),
            })
            w1.close()
            await w1.wait_closed()
            # The server clears ownership when the connection drops;
            # poll until the disconnect has been processed.
            r2, w2 = await connect(server)
            for _ in range(50):
                reply = await rpc(r2, w2, {"op": "open", "stream_id": "p"})
                if reply.get("ok"):
                    break
                await asyncio.sleep(0.05)
            # The live engine is reattached, not restarted: the cursor
            # survives and the chunk seq resets per session.
            chunk = await rpc(r2, w2, {
                "op": "chunk", "stream_id": "p", "seq": 0,
                "samples": demo_observed(0, N_SAMPLES)[300:400, 0].tolist(),
            })
            w2.close()
            return reply, chunk

        reply, chunk = serve_test(model_dir, scenario)
        assert reply["ok"], reply
        assert reply["samples_seen"] == 300
        assert chunk["ok"], chunk
        assert chunk["samples_seen"] == 400

    def test_same_connection_reopen_is_idempotent(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 0,
                "samples": [1.0] * 100,
            })
            reply = await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            writer.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply["ok"]
        assert reply["samples_seen"] == 100

    def test_restart_discards_progress(self, model_dir):
        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 0,
                "samples": [1.0] * 100,
            })
            reply = await rpc(reader, writer, {
                "op": "open", "stream_id": "p", "restart": True,
            })
            writer.close()
            return reply

        reply = serve_test(model_dir, scenario)
        assert reply["ok"]
        assert reply["samples_seen"] == 0
        assert reply["resumed"] is False


class TestCheckpointing:
    def test_checkpoint_now_persists_and_close_deletes(
        self, model_dir, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpt"

        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 0,
                "samples": demo_observed(0, N_SAMPLES)[:500, 0].tolist(),
            })
            n = await server.checkpoint_now()
            cursor = server.checkpoints.samples_seen("p")
            await rpc(reader, writer, {"op": "close", "stream_id": "p"})
            after_close = server.checkpoints.load("p")
            writer.close()
            return n, cursor, after_close

        n, cursor, after_close = serve_test(
            model_dir, scenario, checkpoint_dir=ckpt_dir
        )
        assert n == 1
        assert cursor == 500
        assert after_close is None  # finished streams leave no checkpoint

    def test_periodic_checkpoint_loop_runs(self, model_dir, tmp_path):
        ckpt_dir = tmp_path / "ckpt"

        async def scenario(server):
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 0,
                "samples": [1.0] * 200,
            })
            for _ in range(100):
                if server.checkpoints.load("p") is not None:
                    break
                await asyncio.sleep(0.05)
            writer.close()
            return server.checkpoints.samples_seen("p")

        cursor = serve_test(
            model_dir, scenario,
            checkpoint_dir=ckpt_dir, checkpoint_interval_s=0.1,
        )
        assert cursor == 200

    def test_over_long_stream_id_checkpoints_beside_others(
        self, model_dir, tmp_path
    ):
        ckpt_dir = tmp_path / "ckpt"
        ids = ("p" * 300, "printer-0001")

        async def scenario(server):
            reader, writer = await connect(server)
            try:
                for stream_id in ids:
                    await rpc(reader, writer, {
                        "op": "open", "stream_id": stream_id,
                    })
                    await rpc(reader, writer, {
                        "op": "chunk", "stream_id": stream_id, "seq": 0,
                        "samples": demo_observed(0, N_SAMPLES)[:300, 0].tolist(),
                    })
                n = await server.checkpoint_now()
            finally:
                writer.close()
            return n, [server.checkpoints.samples_seen(s) for s in ids]

        # serve_test stops the server, so returning proves stop() completed.
        n, cursors = serve_test(model_dir, scenario, checkpoint_dir=ckpt_dir)
        assert n == 2
        assert cursors == [300, 300]

    def test_failed_save_is_isolated_counted_and_retried(
        self, model_dir, tmp_path, monkeypatch, caplog
    ):
        """A store that cannot write one stream still writes the others;
        every failure is counted, logged once, and the loop keeps going."""
        ids = ("a", "bad", "z")
        real_save = CheckpointStore.save
        failed = []

        def save(self, stream_id, state_doc):
            if stream_id == "bad":
                failed.append(stream_id)
                raise OSError(28, "No space left on device")
            return real_save(self, stream_id, state_doc)

        monkeypatch.setattr(CheckpointStore, "save", save)

        async def scenario(server):
            reader, writer = await connect(server)
            for stream_id in ids:
                await rpc(reader, writer, {"op": "open", "stream_id": stream_id})
                await rpc(reader, writer, {
                    "op": "chunk", "stream_id": stream_id, "seq": 0,
                    "samples": demo_observed(0, N_SAMPLES)[:300, 0].tolist(),
                })
            with pytest.raises(OSError, match="No space"):
                await server.checkpoint_now()
            cursors = [server.checkpoints.samples_seen(s) for s in ids]
            after_sweep = server.service_stats()
            for _ in range(200):  # the periodic loop keeps sweeping
                if len(failed) >= 3:
                    break
                await asyncio.sleep(0.05)
            later = server.service_stats()
            for stream_id in ids:
                await rpc(reader, writer, {"op": "close", "stream_id": stream_id})
            writer.close()
            return cursors, after_sweep, later

        with caplog.at_level("WARNING", logger="repro.serve.server"):
            cursors, after_sweep, later = serve_test(
                model_dir, scenario,
                checkpoint_dir=tmp_path / "ckpt", checkpoint_interval_s=0.1,
            )
        assert cursors == [300, 0, 300]
        assert after_sweep["checkpoint_failures_total"] >= 1.0
        assert later["checkpoint_failures_total"] >= 3.0
        assert later["checkpoints_total"] > after_sweep["checkpoints_total"]
        logged = [r for r in caplog.records if "'bad'" in r.getMessage()]
        assert len(logged) == 1


class TestShutdown:
    def test_stop_drains_and_rejects_new_work(self, model_dir):
        async def scenario():
            server = FleetServer(model_dir, port=0)
            await server.start()
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            server._stopping = True  # what stop() sets before draining
            reply = await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 0, "samples": [1.0],
            })
            writer.close()
            await server.stop()
            return reply

        reply = asyncio.run(scenario())
        assert reply["error"] == "shutting_down"

    def test_stop_releases_everything_when_final_checkpoint_fails(
        self, model_dir, tmp_path, monkeypatch
    ):
        async def scenario():
            server = FleetServer(
                model_dir, port=0, checkpoint_dir=tmp_path / "ckpt"
            )
            await server.start()
            reader, writer = await connect(server)
            await rpc(reader, writer, {"op": "open", "stream_id": "p"})
            await rpc(reader, writer, {
                "op": "chunk", "stream_id": "p", "seq": 0, "samples": [1.0],
            })
            writer.close()

            def disk_full(self, stream_id, state_doc):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(CheckpointStore, "save", disk_full)
            shutdown_calls = []
            real_shutdown = server.pool.shutdown
            monkeypatch.setattr(
                server.pool, "shutdown",
                lambda: shutdown_calls.append(1) or real_shutdown(),
            )
            with pytest.raises(OSError, match="No space"):
                await server.stop()
            return server, shutdown_calls

        server, shutdown_calls = asyncio.run(scenario())
        assert shutdown_calls == [1]
        assert telemetry.service_stats() is None
        with pytest.raises(OSError):
            asyncio.run(asyncio.open_connection("127.0.0.1", server.port))

    def test_stop_clears_service_stats_provider(self, model_dir):
        async def scenario():
            server = FleetServer(model_dir, port=0)
            await server.start()
            during = telemetry.service_stats()
            await server.stop()
            return during, telemetry.service_stats()

        during, after = asyncio.run(scenario())
        assert during is not None and "live_streams" in during
        assert after is None
