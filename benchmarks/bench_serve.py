"""Fleet detection service ingest benchmark (streams/core).

The serve path multiplexes many printer streams over a small pool of
shard workers; the capacity question is how many *real-time* printers one
deployment can carry per core it burns.  This benchmark replays the
canonical demo fleet — 64 concurrent streams — through a process-mode
:class:`~repro.serve.server.FleetServer` (2 shard workers + the listener)
with offline verification enabled, so the measured configuration is also
proven bit-identical to the offline engine on every stream.

The record lands in ``benchmarks/results/BENCH_serve.json`` with the
exact field names ``repro loadgen --bench-out`` writes, so the committed
baseline here gates the CI serve job's end-to-end run (and vice versa):
``ingest_p99_ms`` lower-is-better, ``serve_samples_per_s`` and
``streams_per_core`` higher-is-better, everything else bookkeeping (see
``scripts/check_bench_regression.py``).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_serve.py -q
"""

from __future__ import annotations

import asyncio

from conftest import RESULTS_DIR

from repro.io import append_bench_record
from repro.obs import telemetry
from repro.serve.loadgen import bench_record, run_loadgen, synth_streams
from repro.serve.model import demo_model
from repro.serve.server import FleetServer

SERVE_STATS_PATH = RESULTS_DIR / "BENCH_serve.json"

#: The canonical scenario — keep in sync with the CI serve job's
#: ``repro loadgen`` flags so baseline and CI records are comparable.
N_STREAMS = 64
N_SAMPLES = 2_000
SAMPLE_RATE = 200.0
CHUNK_SAMPLES = 200
SHARDS = 2


def test_serve_ingest_64_streams(tmp_path, report):
    model = demo_model(n_samples=N_SAMPLES, sample_rate=SAMPLE_RATE)
    model_dir = tmp_path / "model"
    model.save(model_dir)
    streams = synth_streams(
        N_STREAMS, n_samples=N_SAMPLES, sample_rate=SAMPLE_RATE
    )

    async def scenario():
        server = FleetServer(str(model_dir), shards=SHARDS, port=0)
        await server.start()
        try:
            return await run_loadgen(
                ("127.0.0.1", server.port),
                streams,
                chunk_samples=CHUNK_SAMPLES,
                verify_model=model,
            )
        finally:
            await server.stop()

    try:
        result = asyncio.run(asyncio.wait_for(scenario(), timeout=600))
    finally:
        telemetry.reset_streams()

    # Correctness gate: every served verdict bit-identical to offline.
    assert result.mismatches == []
    assert result.n_streams == N_STREAMS
    assert result.total_samples == N_STREAMS * N_SAMPLES
    assert result.samples_per_s > 0

    record = bench_record(
        result,
        chunk_samples=CHUNK_SAMPLES,
        pace=0.0,
        shards=SHARDS,
        sample_rate=SAMPLE_RATE,
        verified=True,
    )
    append_bench_record(SERVE_STATS_PATH, record)
    report(
        "serve_ingest",
        result.summary()
        + f"\nstreams_per_core   {record['streams_per_core']:10.1f} "
        f"(cores_used={record['cores_used']})",
    )
