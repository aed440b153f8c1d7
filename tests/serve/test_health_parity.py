"""One health row per stream, whatever runs the engine.

The server owns every stream's telemetry row and feeds it from the chunk
and close acknowledgements, so the same traffic must leave the same row
whether the engine ran inline with observability off, inline with it on,
or in a shard worker process.  The traffic raises alerts both during the
chunks and at ``finalize()`` (the sensor-fault rule), so a row that
misses either kind disagrees with the verdict.
"""

import asyncio

import numpy as np
import pytest

from repro import obs
from repro.obs import telemetry
from repro.serve import FleetServer

from .conftest import SAMPLE_RATE
from .test_server import connect, rpc

STREAM = "printer-parity"
CHUNK = 200
N_CHUNKS = 3

#: The row fields that must agree across shard modes.
FIELDS = (
    "samples", "chunks", "windows", "quarantined_windows",
    "alerts", "state", "intrusion",
)


def chunks():
    """Three 200-sample chunks of noise with every third sample missing.

    Noise matches no part of the reference, so alerts fire during the
    chunks; the missing samples trip the sensor-fault rule at close.
    """
    samples = np.random.default_rng(0).standard_normal(CHUNK * N_CHUNKS)
    values = [float(v) for v in samples]
    for i in range(0, len(values), 3):
        values[i] = None
    return [values[k * CHUNK:(k + 1) * CHUNK] for k in range(N_CHUNKS)]


def served_row(model_dir, shards, obs_on):
    """Feed the traffic through a fresh server; return (row, close reply)."""

    async def scenario():
        server = FleetServer(model_dir, port=0, shards=shards)
        await server.start()
        reader, writer = await connect(server)
        try:
            await rpc(reader, writer, {
                "op": "open", "stream_id": STREAM,
                "sample_rate": SAMPLE_RATE,
            })
            for seq, block in enumerate(chunks()):
                reply = await rpc(reader, writer, {
                    "op": "chunk", "stream_id": STREAM, "seq": seq,
                    "samples": block,
                })
                assert reply["ok"], reply
            close = await rpc(reader, writer, {
                "op": "close", "stream_id": STREAM,
            })
        finally:
            writer.close()
            await server.stop()
        return telemetry.streams().get(STREAM).snapshot(), close

    telemetry.reset_streams()
    was_enabled = obs.enabled()
    if obs_on:
        obs.enable()
    try:
        return asyncio.run(asyncio.wait_for(scenario(), timeout=120))
    finally:
        obs.reset()
        if was_enabled:
            obs.enable()
        else:
            obs.disable()


def view(row):
    doc = {name: row[name] for name in FIELDS}
    doc["last_alert"] = (row["last_alert"] or {}).get("submodule")
    return doc


@pytest.fixture(scope="module")
def rows(model_dir):
    return {
        mode: served_row(model_dir, shards, obs_on)
        for mode, shards, obs_on in (
            ("inline", 0, False),
            ("inline+obs", 0, True),
            ("sharded", 1, False),
        )
    }


class TestHealthParity:
    def test_rows_identical_across_shard_modes(self, rows):
        views = {mode: view(row) for mode, (row, _) in rows.items()}
        assert views["inline"] == views["inline+obs"] == views["sharded"]

    def test_row_matches_the_close_verdict(self, rows):
        row, close = rows["inline"]
        alerts = close["alerts"]
        # The traffic exercises both feeds: chunk-time and finalize alerts.
        assert {a["submodule"] for a in alerts} >= {"v_dist", "sensor_fault"}
        assert row["chunks"] == N_CHUNKS
        assert row["samples"] == CHUNK * N_CHUNKS
        assert row["alerts"] == len(alerts)
        assert row["last_alert"]["submodule"] == alerts[-1]["submodule"]
        assert row["state"] == "finished"
        assert row["intrusion"] is close["intrusion"] is True
        assert row["chunk_latency"]["count"] == N_CHUNKS
