"""Load generator: replay recorded runs as paced live fleet traffic.

The client half of the fleet service: one connection per printer stream,
each replaying its observed samples as ``chunk`` messages paced against
the recording's own timebase (``pace=1`` → real time, ``pace=0`` → as
fast as the service acknowledges).  Reports the numbers that matter for
capacity planning — p50/p99 ingest round-trip latency, aggregate
samples/s, streams/core — and knows the resume protocol: on a
``shard_crashed`` reply it re-``open``s and rewinds to the acknowledged
checkpoint cursor, exactly like a real edge client riding out a server
worker restart.

``verify_offline`` closes the loop on correctness: every served final
verdict is compared field-for-field (floats bit-exact) against an
offline :class:`~repro.core.engine.DetectionEngine` run of the same
samples — the service must be a transport, never a perturbation.
"""

from __future__ import annotations

import asyncio
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .model import ServeModel, demo_observed
from .pacing import Pacer
from .protocol import MAX_LINE_BYTES, encode

__all__ = [
    "LoadgenError",
    "LoadgenResult",
    "StreamSpec",
    "bench_record",
    "offline_verdict",
    "run_loadgen",
    "synth_streams",
]

#: A TCP ``(host, port)`` pair or a unix-socket path.
Address = Union[Tuple[str, int], str, Path]


class LoadgenError(RuntimeError):
    """The service rejected a request the loadgen cannot recover from."""


@dataclass(frozen=True)
class StreamSpec:
    """One printer stream to replay."""

    stream_id: str
    samples: np.ndarray
    sample_rate: float


@dataclass
class LoadgenResult:
    """Aggregate outcome of one load-generation run."""

    n_streams: int
    total_samples: int
    total_chunks: int
    elapsed_s: float
    ingest_p50_ms: float
    ingest_p99_ms: float
    ingest_mean_ms: float
    samples_per_s: float
    #: Times a stream resumed from checkpoint after ``shard_crashed``.
    resumes: int
    #: ``{stream_id: final close reply}`` (includes ``result`` verdicts).
    verdicts: Dict[str, Dict[str, Any]] = field(default_factory=dict)
    #: Stream ids whose served verdict differed from the offline engine.
    mismatches: List[str] = field(default_factory=list)

    def summary(self) -> str:
        lines = [
            f"streams            {self.n_streams:10d}",
            f"samples            {self.total_samples:10d}",
            f"chunks             {self.total_chunks:10d}",
            f"elapsed_s          {self.elapsed_s:10.2f}",
            f"ingest_p50_ms      {self.ingest_p50_ms:10.3f}",
            f"ingest_p99_ms      {self.ingest_p99_ms:10.3f}",
            f"samples_per_s      {self.samples_per_s:10,.0f}",
            f"resumes            {self.resumes:10d}",
        ]
        if self.mismatches:
            lines.append(f"VERDICT MISMATCHES {len(self.mismatches)}")
        return "\n".join(lines)


def bench_record(
    result: LoadgenResult,
    *,
    chunk_samples: int,
    pace: float,
    shards: int,
    sample_rate: float,
    verified: bool,
) -> Dict[str, Any]:
    """The ``serve_loadgen`` record of a ``BENCH_serve.json`` history.

    ``streams_per_core`` is how many real-time printers the deployment
    keeps up with per core it burns: samples/s over one stream's rate,
    divided by the cores in use — the listener plus one per shard worker,
    but never more than the machine has.  Every stream waits for each
    ack before sending its next chunk, so the run is closed-loop
    (``"loop": "closed"``): the ingest latencies include queueing behind
    the other streams, not just service time.
    """
    cores_used = shards + 1 if shards > 0 else 1
    cores = min(cores_used, os.cpu_count() or cores_used)
    streams_per_core = (
        result.samples_per_s / sample_rate / cores if sample_rate > 0 else 0.0
    )
    return {
        "name": "serve_loadgen",
        "time": time.time(),
        "loop": "closed",
        "n_streams": result.n_streams,
        "chunk_samples": chunk_samples,
        "pace": pace,
        "shards": shards,
        "cores_used": cores_used,
        "cpu_count": os.cpu_count(),
        "total_samples": result.total_samples,
        "total_chunks": result.total_chunks,
        "elapsed_s": round(result.elapsed_s, 4),
        "ingest_p50_ms": round(result.ingest_p50_ms, 4),
        "ingest_p99_ms": round(result.ingest_p99_ms, 4),
        "ingest_mean_ms": round(result.ingest_mean_ms, 4),
        "serve_samples_per_s": round(result.samples_per_s, 1),
        "streams_per_core": round(streams_per_core, 3),
        "resumes": result.resumes,
        "verified": verified,
        "mismatches": len(result.mismatches),
    }


def synth_streams(
    n_streams: int,
    n_samples: int = 8_000,
    sample_rate: float = 200.0,
    prefix: str = "printer",
) -> List[StreamSpec]:
    """The deterministic demo fleet (see :func:`~repro.serve.model.demo_observed`)."""
    return [
        StreamSpec(
            stream_id=f"{prefix}-{k:04d}",
            samples=demo_observed(k, n_samples, sample_rate),
            sample_rate=sample_rate,
        )
        for k in range(int(n_streams))
    ]


def offline_verdict(model: ServeModel, samples: np.ndarray) -> Dict[str, Any]:
    """The ground-truth verdict: one offline engine run of the samples."""
    engine = model.build_engine()
    engine.push(samples)
    result = engine.finalize()
    assert result.detection is not None
    return result.detection.to_dict()


async def _connect(
    address: Address,
) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    if isinstance(address, tuple):
        host, port = address
        return await asyncio.open_connection(
            host, port, limit=MAX_LINE_BYTES
        )
    return await asyncio.open_unix_connection(
        str(address), limit=MAX_LINE_BYTES
    )


async def _request(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    doc: Dict[str, Any],
) -> Dict[str, Any]:
    writer.write(encode(doc))
    await writer.drain()
    line = await reader.readline()
    if not line:
        raise LoadgenError("connection closed by server")
    reply = json.loads(line.decode("utf-8"))
    assert isinstance(reply, dict)
    return reply


async def _open_stream(
    reader: asyncio.StreamReader,
    writer: asyncio.StreamWriter,
    spec: StreamSpec,
    max_attempts: int = 20,
) -> Dict[str, Any]:
    """Open (or resume) the stream, riding out shard restarts.

    A ``shard_crashed`` reply to ``open`` means the replacement worker
    is still coming up (or died again); back off briefly and retry —
    bounded, so a permanently broken service still fails loudly.
    """
    for attempt in range(max_attempts):
        reply = await _request(
            reader,
            writer,
            {
                "op": "open",
                "stream_id": spec.stream_id,
                "sample_rate": spec.sample_rate,
                "resume": True,
            },
        )
        if reply.get("ok"):
            return reply
        if reply.get("error") != "shard_crashed":
            raise LoadgenError(f"open {spec.stream_id}: {reply}")
        await asyncio.sleep(min(0.1 * (attempt + 1), 1.0))
    raise LoadgenError(
        f"open {spec.stream_id}: shard still down after "
        f"{max_attempts} attempts"
    )


def _jsonable_samples(block: np.ndarray, flat: bool) -> list:
    """Strict-JSON-safe ``samples`` payload for one chunk.

    The wire is strict JSON (no ``NaN`` literals), so non-finite samples
    — sensor dropouts being replayed — are sent as ``null``;
    ``samples_to_array`` on the server turns them back into NaN for the
    sanitize stage.
    """
    data = block[:, 0] if flat else block
    finite = np.isfinite(data)
    if finite.all():
        return data.tolist()
    return np.where(finite, data.astype(object), None).tolist()


async def _drive_stream(
    address: Address,
    spec: StreamSpec,
    chunk_samples: int,
    pace: float,
    latencies: List[float],
    counters: Dict[str, int],
) -> Dict[str, Any]:
    """Replay one stream to completion; returns the final close reply."""
    reader, writer = await _connect(address)
    try:
        n = int(spec.samples.shape[0])
        flat = spec.samples.shape[1] == 1
        reply = await _open_stream(reader, writer, spec)
        cursor = int(reply["samples_seen"])
        seq = 0
        interval = chunk_samples / spec.sample_rate / pace if pace > 0 else 0.0
        pacer = Pacer(interval)
        while True:
            if cursor >= n:
                reply = await _request(
                    reader,
                    writer,
                    {"op": "close", "stream_id": spec.stream_id},
                )
                if reply.get("ok"):
                    return reply
            else:
                if interval:
                    await pacer.async_wait()
                block = spec.samples[cursor : cursor + chunk_samples]
                payload = _jsonable_samples(block, flat)
                t0 = time.perf_counter()
                reply = await _request(
                    reader,
                    writer,
                    {
                        "op": "chunk",
                        "stream_id": spec.stream_id,
                        "seq": seq,
                        "samples": payload,
                    },
                )
                if reply.get("ok"):
                    latencies.append(time.perf_counter() - t0)
                    cursor = int(reply["samples_seen"])
                    seq += 1
                    counters["chunks"] += 1
                    continue
            # Not ok: the only recoverable error is a shard crash — the
            # resume protocol is re-open, rewind to the acknowledged
            # cursor, and keep pushing.
            if reply.get("error") != "shard_crashed":
                raise LoadgenError(f"{spec.stream_id}: {reply}")
            counters["resumes"] += 1
            reply = await _open_stream(reader, writer, spec)
            cursor = int(reply["samples_seen"])
            seq = 0
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass


async def run_loadgen(
    address: Address,
    streams: Sequence[StreamSpec],
    chunk_samples: int = 200,
    pace: float = 0.0,
    verify_model: Optional[ServeModel] = None,
) -> LoadgenResult:
    """Replay every stream concurrently and aggregate the numbers.

    ``pace`` is the replay speed relative to the recordings' own
    timebase (1.0 = real time, 2.0 = double speed, 0 = unpaced).
    ``verify_model`` additionally recomputes every verdict offline and
    records streams whose served verdict is not bit-identical.
    """
    if chunk_samples < 1:
        raise ValueError(f"chunk_samples must be >= 1, got {chunk_samples}")
    if pace < 0:
        raise ValueError(f"pace must be >= 0, got {pace}")
    latencies: List[float] = []
    counters = {"chunks": 0, "resumes": 0}
    t0 = time.perf_counter()
    replies = await asyncio.gather(
        *(
            _drive_stream(
                address, spec, chunk_samples, pace, latencies, counters
            )
            for spec in streams
        )
    )
    elapsed = time.perf_counter() - t0
    verdicts = {
        spec.stream_id: reply for spec, reply in zip(streams, replies)
    }
    mismatches: List[str] = []
    if verify_model is not None:
        for spec in streams:
            expected = offline_verdict(verify_model, spec.samples)
            served = verdicts[spec.stream_id].get("result")
            if served != expected:
                mismatches.append(spec.stream_id)
    total_samples = int(sum(s.samples.shape[0] for s in streams))
    lat_ms = np.asarray(latencies, dtype=np.float64) * 1e3
    return LoadgenResult(
        n_streams=len(streams),
        total_samples=total_samples,
        total_chunks=counters["chunks"],
        elapsed_s=elapsed,
        ingest_p50_ms=float(np.percentile(lat_ms, 50)) if len(lat_ms) else 0.0,
        ingest_p99_ms=float(np.percentile(lat_ms, 99)) if len(lat_ms) else 0.0,
        ingest_mean_ms=float(lat_ms.mean()) if len(lat_ms) else 0.0,
        samples_per_s=total_samples / elapsed if elapsed > 0 else 0.0,
        resumes=counters["resumes"],
        verdicts=verdicts,
        mismatches=mismatches,
    )
