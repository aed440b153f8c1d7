"""The asyncio ingest front-end of the fleet detection service.

One :class:`FleetServer` owns a listening socket (TCP or unix), a
:class:`~repro.serve.shard.ShardPool`, a
:class:`~repro.serve.checkpoint.CheckpointStore`, and the service-level
telemetry gauges.  Connections speak :mod:`repro.serve.protocol`; each
connection is handled serially (one request, one reply, in order), so a
client that opens one connection per printer gets per-stream chunk
ordering for free.

Resume guarantees:

* Checkpoints are taken at chunk boundaries (the snapshot call is
  serialized behind pushes on the stream's own shard executor) and
  written atomically, so a checkpoint is always a bit-exact prefix of
  the run.
* After a shard crash the server suspends that shard's streams; each
  client re-``open``s, the last usable checkpoint is restored into the
  replacement worker, and the ``open`` reply's ``samples_seen`` tells
  the client exactly where to resume pushing.  Replaying the identical
  samples from that cursor produces a bit-identical final verdict —
  including a crash mid-dark-run, whose tracker state rides in the
  checkpoint like everything else.
* A stream whose checkpoint is unusable (torn write plus a crash before
  the next one) restarts from scratch — reported, never crashing the
  service.

Health rows: the server owns every stream's
:class:`~repro.obs.telemetry.StreamHealth` row.  It registers the row at
a fresh ``open`` and feeds it from each chunk acknowledgement and from
the ``close`` verdict — one path whether the engine ran inline or in a
shard worker — so one ``/metrics`` endpoint serves the whole fleet and
the same traffic gives the same row in every shard mode.  Each feed is
scheduled with ``loop.call_soon`` and so runs after the reply it belongs
to has been written.
"""

from __future__ import annotations

import asyncio
import contextlib
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Set, Tuple, Union

from ..obs import telemetry
from .checkpoint import CheckpointStore
from .model import ServeModel
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    ProtocolError,
    decode_request,
    encode,
    error_reply,
    samples_to_array,
)
from .shard import ShardCrashed, ShardPool

__all__ = ["FleetServer", "StreamInfo"]

_log = logging.getLogger(__name__)


def _note_alerts(row: telemetry.StreamHealth, alerts: object) -> None:
    """Record the alert dicts of one acknowledgement on a health row."""
    assert isinstance(alerts, list)
    for alert in alerts:
        row.note_alert(str(alert["submodule"]), float(alert["time_s"]))


def _feed_chunk(
    row: telemetry.StreamHealth, n_samples: int, ack: Dict[str, object]
) -> None:
    """Record one chunk acknowledgement on the stream's health row."""
    row.observe_chunk(
        n_samples,
        ack["latency_s"],  # type: ignore[arg-type]
        ack["n_indexes"],  # type: ignore[arg-type]
        ack["n_quarantined"],  # type: ignore[arg-type]
        ack["sensor_fault"],  # type: ignore[arg-type]
    )
    if ack["alerts"]:
        _note_alerts(row, ack["alerts"])


def _feed_close(row: telemetry.StreamHealth, ack: Dict[str, object]) -> None:
    """Record a close acknowledgement: the alerts ``finalize()`` raised,
    then the verdict."""
    _note_alerts(row, ack["finalize_alerts"])
    intrusion = ack.get("intrusion")
    row.mark_finished(bool(intrusion) if intrusion is not None else None)


@dataclass
class StreamInfo:
    """The parent's bookkeeping row for one open stream."""

    stream_id: str
    shard: int
    #: Connection currently allowed to push (None after its socket died).
    owner: Optional[int]
    #: The stream's live telemetry row (held here so the per-chunk feed
    #: skips the registry lock).
    health: telemetry.StreamHealth
    #: Next expected per-session chunk counter.
    next_seq: int = 0
    #: Engine cursor after the last acknowledged operation.
    samples_seen: int = 0
    #: False once the stream's shard crashed; the client must re-open.
    live: bool = True


class FleetServer:
    """A long-running multi-stream detection service.

    Parameters
    ----------
    model_dir:
        :class:`~repro.serve.model.ServeModel` directory every worker
        loads.
    checkpoint_dir:
        Where live ``DetectorState`` snapshots go.  ``None`` disables
        checkpointing (tests of the pure ingest path).
    shards:
        ``0`` = inline engines (single core); ``n >= 1`` = that many
        single-worker processes.
    checkpoint_interval_s:
        Period of the background checkpoint sweep.
    metrics_port:
        When given, start (or reuse) the process-wide telemetry endpoint
        on this port — the shared ``/metrics`` for every stream.
    """

    def __init__(
        self,
        model_dir: Union[str, Path],
        checkpoint_dir: Optional[Union[str, Path]] = None,
        shards: int = 0,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[Union[str, Path]] = None,
        checkpoint_interval_s: float = 5.0,
        metrics_port: Optional[int] = None,
    ) -> None:
        if checkpoint_interval_s <= 0:
            raise ValueError(
                f"checkpoint_interval_s must be > 0, got "
                f"{checkpoint_interval_s}"
            )
        self.model_dir = Path(model_dir)
        self.model = ServeModel.from_dir(self.model_dir)
        self.shards = int(shards)
        self.host = host
        self.port = int(port)
        self.unix_path = Path(unix_path) if unix_path is not None else None
        self.checkpoint_interval_s = float(checkpoint_interval_s)
        self.metrics_port = metrics_port
        self.checkpoints: Optional[CheckpointStore] = (
            CheckpointStore(checkpoint_dir)
            if checkpoint_dir is not None
            else None
        )
        self.pool: Optional[ShardPool] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._ckpt_task: Optional[asyncio.Task] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._streams: Dict[str, StreamInfo] = {}
        self._next_conn = 0
        self._n_conns = 0
        self._stopping = False
        self._started_telemetry = False
        self._chunks_total = 0
        self._samples_total = 0
        self._checkpoints_total = 0
        self._checkpoint_failures_total = 0
        # (stream id, error type) pairs already logged.
        self._checkpoint_failures_logged: Set[Tuple[Optional[str], str]] = set()
        self._crashes_total = 0

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the socket, start the shard pool + checkpoint sweep."""
        assert self._server is None, "start() may only be called once"
        self.pool = ShardPool(
            str(self.model_dir),
            n_shards=self.shards,
            model=self.model,
            on_crash=self._suspend_shard,
        )
        if self.unix_path is not None:
            self._server = await asyncio.start_unix_server(
                self._on_connection,
                path=str(self.unix_path),
                limit=MAX_LINE_BYTES,
            )
        else:
            self._server = await asyncio.start_server(
                self._on_connection,
                host=self.host,
                port=self.port,
                limit=MAX_LINE_BYTES,
            )
            self.port = int(self._server.sockets[0].getsockname()[1])
        if self.checkpoints is not None:
            self._ckpt_task = asyncio.create_task(self._checkpoint_loop())
        if self.metrics_port is not None:
            telemetry.serve(port=self.metrics_port)
            self._started_telemetry = True
        telemetry.set_service_stats(self.service_stats)

    async def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain, final checkpoint."""
        self._stopping = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._conn_tasks:
            await asyncio.gather(
                *tuple(self._conn_tasks), return_exceptions=True
            )
        if self._ckpt_task is not None:
            self._ckpt_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ckpt_task
            self._ckpt_task = None
        try:
            await self.checkpoint_now()
        finally:
            # Release the workers, the endpoint and the socket even when
            # the final checkpoint fails; its error still propagates.
            telemetry.clear_service_stats()
            if self._started_telemetry:
                telemetry.stop()
            if self.pool is not None:
                self.pool.shutdown()
            if self.unix_path is not None:
                with contextlib.suppress(OSError):
                    self.unix_path.unlink()

    # ------------------------------------------------------------------
    def service_stats(self) -> Dict[str, float]:
        """The ``repro_serve_*`` gauge values (see obs.telemetry)."""
        pool = self.pool
        return {
            "live_streams": float(
                sum(1 for s in self._streams.values() if s.live)
            ),
            "streams": float(len(self._streams)),
            "connections": float(self._n_conns),
            "shards": float(self.shards),
            "shard_queue_depth": float(
                pool.queue_depth() if pool is not None else 0
            ),
            "chunks_total": float(self._chunks_total),
            "samples_total": float(self._samples_total),
            "checkpoints_total": float(self._checkpoints_total),
            "checkpoint_failures_total": float(
                self._checkpoint_failures_total
            ),
            "shard_crashes_total": float(self._crashes_total),
        }

    async def checkpoint_now(self) -> int:
        """Persist every live engine's state; returns streams written.

        One stream's failed save does not stop the sweep: every other
        stream is still written.  Each failure is counted in
        ``checkpoint_failures_total`` and logged once per stream and
        error type; the first one is re-raised after the sweep.
        """
        if self.checkpoints is None or self.pool is None:
            return 0
        try:
            states = await self.pool.all_states()
        except Exception as exc:
            self._checkpoint_failed(None, exc)
            raise
        first: Optional[Exception] = None
        written = 0
        for stream_id, doc in states.items():
            try:
                self.checkpoints.save(stream_id, doc)
            except Exception as exc:
                self._checkpoint_failed(stream_id, exc)
                first = first or exc
            else:
                written += 1
        self._checkpoints_total += written
        if first is not None:
            raise first
        return written

    def _checkpoint_failed(
        self, stream_id: Optional[str], exc: Exception
    ) -> None:
        """Count one failed checkpoint (``None``: the state pull itself)."""
        self._checkpoint_failures_total += 1
        key = (stream_id, type(exc).__name__)
        if key not in self._checkpoint_failures_logged:
            self._checkpoint_failures_logged.add(key)
            _log.warning(
                "checkpoint of stream %r failed; it is retried each sweep "
                "and logged again only for a new error type",
                stream_id, exc_info=exc,
            )

    async def _checkpoint_loop(self) -> None:
        while True:
            await asyncio.sleep(self.checkpoint_interval_s)
            try:
                await self.checkpoint_now()
            except Exception:
                pass  # counted and logged by the sweep; the next retries

    # ------------------------------------------------------------------
    async def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
            task.add_done_callback(self._conn_tasks.discard)
        conn_id = self._next_conn
        self._next_conn += 1
        self._n_conns += 1
        try:
            while True:
                try:
                    line = await reader.readline()
                except ValueError:
                    writer.write(
                        encode(
                            error_reply(
                                "bad_request",
                                f"line exceeds {MAX_LINE_BYTES} bytes",
                            )
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                reply = await self._handle_line(conn_id, line)
                writer.write(encode(reply))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            self._n_conns -= 1
            for info in self._streams.values():
                if info.owner == conn_id:
                    info.owner = None
            writer.close()
            with contextlib.suppress(Exception):
                await writer.wait_closed()

    async def _handle_line(
        self, conn_id: int, line: bytes
    ) -> Dict[str, Any]:
        try:
            doc = decode_request(line)
        except ProtocolError as exc:
            return error_reply(exc.code, exc.message)
        op = doc["op"]
        if op == "ping":
            return {
                "ok": True,
                "op": "pong",
                "v": PROTOCOL_VERSION,
                "stats": self.service_stats(),
            }
        if self._stopping:
            return error_reply("shutting_down", "service is draining")
        stream_id = doc["stream_id"]
        try:
            if op == "open":
                return await self._handle_open(conn_id, stream_id, doc)
            if op == "chunk":
                return await self._handle_chunk(conn_id, stream_id, doc)
            return await self._handle_close(conn_id, stream_id)
        except ProtocolError as exc:
            return error_reply(
                exc.code, exc.message, stream_id=stream_id
            )
        except ShardCrashed as exc:
            # Streams were already suspended by the pool's on_crash hook
            # (exactly once per worker death, whoever observes it first).
            return error_reply(
                "shard_crashed",
                f"shard {exc.shard} died; re-open to resume from the "
                "last checkpoint",
                stream_id=stream_id,
                samples_seen=self._checkpoint_cursor(stream_id),
            )
        except LookupError:
            # The worker has no engine for a stream the parent thinks is
            # live: the worker was replaced under us.  Same client-facing
            # contract as a crash — re-open to resume from checkpoint.
            info = self._streams.get(stream_id)
            if info is not None:
                info.live = False
            return error_reply(
                "shard_crashed",
                "worker lost the stream's engine (restarted); re-open "
                "to resume from the last checkpoint",
                stream_id=stream_id,
                samples_seen=self._checkpoint_cursor(stream_id),
            )

    # ------------------------------------------------------------------
    def _checkpoint_cursor(self, stream_id: str) -> int:
        if self.checkpoints is None:
            return 0
        return self.checkpoints.samples_seen(stream_id)

    def _suspend_shard(self, shard: int) -> None:
        """A shard worker died: its streams must re-open to resume."""
        self._crashes_total += 1
        for info in self._streams.values():
            if info.shard == shard:
                info.live = False

    def _check_owner(
        self, conn_id: int, stream_id: str
    ) -> Optional[StreamInfo]:
        info = self._streams.get(stream_id)
        if info is not None and info.owner not in (None, conn_id):
            raise ProtocolError(
                "stream_busy",
                f"stream {stream_id!r} is owned by another live connection",
            )
        return info

    async def _handle_open(
        self, conn_id: int, stream_id: str, doc: Dict[str, Any]
    ) -> Dict[str, Any]:
        assert self.pool is not None
        rate = doc.get("sample_rate")
        if rate is not None and float(rate) != self.model.reference.sample_rate:
            raise ProtocolError(
                "bad_request",
                f"sample_rate {rate} does not match the model's "
                f"{self.model.reference.sample_rate}",
            )
        info = self._check_owner(conn_id, stream_id)
        if doc.get("restart"):
            await self.pool.drop(stream_id)
            if self.checkpoints is not None:
                self.checkpoints.delete(stream_id)
            self._streams.pop(stream_id, None)
            info = None
        state_doc = None
        if (
            (info is None or not info.live)
            and doc.get("resume", True)
            and self.checkpoints is not None
        ):
            state_doc = self.checkpoints.load(stream_id)
        ack = await self.pool.open(stream_id, state_doc)
        samples_seen = int(ack["samples_seen"])  # type: ignore[arg-type]
        self._streams[stream_id] = StreamInfo(
            stream_id=stream_id,
            shard=self.pool.shard_of(stream_id),
            owner=conn_id,
            health=(
                info.health
                if info is not None and info.live
                else telemetry.register_stream(
                    stream_id, self.model.reference.sample_rate
                )
            ),
            next_seq=0,
            samples_seen=samples_seen,
            live=True,
        )
        reply: Dict[str, Any] = {
            "ok": True,
            "op": "open",
            "stream_id": stream_id,
            "resumed": bool(ack["resumed"]),
            "samples_seen": samples_seen,
        }
        if "checkpoint_rejected" in ack:
            reply["checkpoint_rejected"] = ack["checkpoint_rejected"]
        return reply

    async def _handle_chunk(
        self, conn_id: int, stream_id: str, doc: Dict[str, Any]
    ) -> Dict[str, Any]:
        assert self.pool is not None
        info = self._check_owner(conn_id, stream_id)
        if info is None:
            raise ProtocolError(
                "unknown_stream", f"stream {stream_id!r} is not open"
            )
        if not info.live:
            return error_reply(
                "shard_crashed",
                "stream suspended by a shard crash; re-open to resume",
                stream_id=stream_id,
                samples_seen=self._checkpoint_cursor(stream_id),
            )
        seq = doc["seq"]
        if seq != info.next_seq:
            raise ProtocolError(
                "bad_seq",
                f"expected seq {info.next_seq}, got {seq}",
            )
        samples = samples_to_array(doc.get("samples"))
        ack = await self.pool.chunk(stream_id, samples)
        info.next_seq += 1
        info.samples_seen = int(ack["samples_seen"])  # type: ignore[arg-type]
        info.owner = conn_id
        self._chunks_total += 1
        self._samples_total += samples.shape[0]
        # The row is fed once this reply is on the wire, keeping telemetry
        # off the chunk's latency path; callbacks run in FIFO order, so
        # every row sees its stream's acks in the order they were made.
        asyncio.get_running_loop().call_soon(
            _feed_chunk, info.health, samples.shape[0], ack
        )
        return {
            "ok": True,
            "op": "chunk",
            "stream_id": stream_id,
            "seq": seq,
            "samples_seen": info.samples_seen,
            "alerts": ack["alerts"],
        }

    async def _handle_close(
        self, conn_id: int, stream_id: str
    ) -> Dict[str, Any]:
        assert self.pool is not None
        info = self._check_owner(conn_id, stream_id)
        if info is None:
            raise ProtocolError(
                "unknown_stream", f"stream {stream_id!r} is not open"
            )
        if not info.live:
            return error_reply(
                "shard_crashed",
                "stream suspended by a shard crash; re-open to resume",
                stream_id=stream_id,
                samples_seen=self._checkpoint_cursor(stream_id),
            )
        try:
            ack = await self.pool.close(stream_id)
        finally:
            self._streams.pop(stream_id, None)
        if self.checkpoints is not None:
            self.checkpoints.delete(stream_id)
        asyncio.get_running_loop().call_soon(_feed_close, info.health, ack)
        reply: Dict[str, Any] = {
            "ok": True,
            "op": "close",
            "stream_id": stream_id,
            "samples_seen": int(ack["samples_seen"]),  # type: ignore[arg-type]
            "alerts": ack["alerts"],
        }
        if "result" in ack:
            reply["result"] = ack["result"]
            reply["intrusion"] = ack["intrusion"]
        return reply
