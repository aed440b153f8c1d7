"""Detection workers: one ordered engine table per shard.

A shard is the unit of ordering *and* of failure:

* **Ordering** — every stream maps to exactly one shard via
  ``crc32(stream_id) % n_shards`` (``zlib.crc32``, not ``hash()``, which
  is salted per process), and each shard is a **single-worker**
  ``ProcessPoolExecutor``, so all of a printer's chunks execute serially
  on one worker in submission order.  Checkpoint snapshots are submitted
  through the same executor and therefore always observe engine state at
  a chunk boundary — never mid-push.
* **Failure isolation** — a SIGKILLed worker breaks only its own shard's
  executor.  The pool replaces the executor (fresh process, empty engine
  table) and raises :class:`ShardCrashed`; the server suspends the
  shard's streams and clients re-``open`` to resume from the last
  checkpoint.

``n_shards == 0`` is **inline mode**: the same :class:`EngineHost` logic
runs in-process with direct calls — no pickling, no subprocesses — used
by tests, single-core deployments, and as the apples-to-apples baseline
for the serve benchmark.  Both modes dispatch through one path: a call
names an :class:`EngineHost` method, which inline mode looks up on its
own host and process mode ships to the worker's host via
:func:`_worker_call`.  Hosts know nothing of telemetry; the stats each
chunk acknowledgement carries are what the server feeds its health rows
from.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import time
import zlib
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from functools import partial
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from ..core.engine import DetectionEngine, DetectorState
from .model import ServeModel

__all__ = ["EngineHost", "ShardCrashed", "ShardPool", "shard_of"]


class ShardCrashed(RuntimeError):
    """A shard's worker process died; its streams must resume from
    checkpoint.  The pool has already replaced the executor."""

    def __init__(self, shard: int) -> None:
        super().__init__(f"shard {shard} worker process died")
        self.shard = shard


def shard_of(stream_id: str, n_shards: int) -> int:
    """Deterministic stream→shard mapping (stable across processes)."""
    if n_shards <= 1:
        return 0
    return zlib.crc32(stream_id.encode("utf-8")) % n_shards


class EngineHost:
    """The engine table one shard worker serves (single-threaded).

    All mutation happens through :meth:`open` / :meth:`chunk` /
    :meth:`close` / :meth:`drop`; callers guarantee serialization (the
    single-worker executor in process mode, the event loop in inline
    mode).  Return values are JSON-safe dicts — they double as the wire
    acknowledgement payloads.
    """

    def __init__(self, model: ServeModel) -> None:
        self.model = model
        self.engines: Dict[str, DetectionEngine] = {}

    # ------------------------------------------------------------------
    def open(
        self, stream_id: str, state_doc: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        """Ensure a live engine for ``stream_id``.

        Reattaches to an already-live engine (connection churn), restores
        ``state_doc`` into a fresh engine when given, or starts from
        scratch.  A state doc the engine refuses (configuration mismatch
        — the model changed under the checkpoint) degrades to a fresh
        start with the reason reported, per the checkpoint contract.
        """
        live = self.engines.get(stream_id)
        if live is not None:
            return {
                "samples_seen": live.samples_seen,
                "resumed": True,
                "reattached": True,
            }
        engine = self.model.build_engine()
        resumed = False
        reason: Optional[str] = None
        if state_doc is not None:
            try:
                engine.restore(DetectorState.from_dict(state_doc))
                resumed = True
            except ValueError as exc:
                reason = str(exc)
                engine = self.model.build_engine()
        self.engines[stream_id] = engine
        reply: Dict[str, object] = {
            "samples_seen": engine.samples_seen,
            "resumed": resumed,
            "reattached": False,
        }
        if reason is not None:
            reply["checkpoint_rejected"] = reason
        return reply

    def chunk(self, stream_id: str, samples: np.ndarray) -> Dict[str, object]:
        """Push one sample block; returns the ack payload + health stats."""
        engine = self.engines[stream_id]
        t0 = time.perf_counter()
        alerts = engine.push(samples)
        latency_s = time.perf_counter() - t0
        return {
            "samples_seen": engine.samples_seen,
            "alerts": [a.to_dict() for a in alerts],
            "n_indexes": engine.n_indexes,
            "n_quarantined": engine.n_quarantined,
            "sensor_fault": engine.sensor_fault_fired,
            "latency_s": latency_s,
        }

    def close(self, stream_id: str) -> Dict[str, object]:
        """Finalize the stream's engine and return the full verdict.

        ``alerts`` lists every alert of the run; ``finalize_alerts`` only
        those the end-of-run checks raised (no chunk ack carried them).
        """
        engine = self.engines.pop(stream_id)
        n_pushed = len(engine.alerts)
        result = engine.finalize()
        detection = result.detection
        alerts = [a.to_dict() for a in result.alerts]
        reply: Dict[str, object] = {
            "samples_seen": engine.samples_seen,
            "alerts": alerts,
            "finalize_alerts": alerts[n_pushed:],
        }
        if detection is not None:
            reply["intrusion"] = detection.is_intrusion
            reply["result"] = detection.to_dict()
        return reply

    def drop(self, stream_id: str) -> bool:
        """Discard a live engine without finalizing (client restart)."""
        return self.engines.pop(stream_id, None) is not None

    def states(self) -> Dict[str, Dict[str, object]]:
        """``{stream_id: DetectorState.to_dict()}`` of every live engine."""
        return {
            stream_id: engine.state().to_dict()
            for stream_id, engine in self.engines.items()
        }

    def stream_ids(self) -> List[str]:
        return sorted(self.engines)

    def pid(self) -> int:
        """OS pid of the process this host runs in."""
        return os.getpid()


# ---------------------------------------------------------------------------
# Worker-process plumbing: one module-global host per worker, initialized
# once per (re)spawn.  Spawn (not fork) so a worker restarted after a
# crash is indistinguishable from a fresh one.
# ---------------------------------------------------------------------------
_HOST: Optional[EngineHost] = None


def _worker_init(model_dir: str) -> None:
    global _HOST
    _HOST = EngineHost(ServeModel.from_dir(model_dir))


def _worker_call(method: str, *args: Any) -> Any:
    """Run one :class:`EngineHost` method on this worker's host."""
    assert _HOST is not None, "worker used before _worker_init"
    return getattr(_HOST, method)(*args)


class ShardPool:
    """The shard layer: inline (``n_shards == 0``) or process-backed.

    All async methods run on the caller's event loop and dispatch through
    :meth:`_call`: process-mode calls go through ``loop.run_in_executor``
    so the loop stays responsive while a worker computes; inline mode
    calls the host directly — blocking, ordered by the single-threaded
    loop itself.
    """

    def __init__(
        self,
        model_dir: str,
        n_shards: int = 0,
        model: Optional[ServeModel] = None,
        on_crash: Optional[Callable[[int], None]] = None,
    ) -> None:
        if n_shards < 0:
            raise ValueError(f"n_shards must be >= 0, got {n_shards}")
        self.model_dir = str(model_dir)
        self.n_shards = int(n_shards)
        #: Called exactly once per worker death (by whichever caller
        #: observes it first — a client chunk or the checkpoint sweep),
        #: before the corresponding :class:`ShardCrashed` is raised.
        self.on_crash = on_crash
        self._inline: Optional[EngineHost] = None
        self._executors: List[ProcessPoolExecutor] = []
        self._depth: List[int] = []
        self._gen: List[int] = []
        if self.n_shards == 0:
            self._inline = EngineHost(
                model if model is not None else ServeModel.from_dir(model_dir)
            )
        else:
            self._mp = multiprocessing.get_context("spawn")
            self._executors = [
                self._make_executor() for _ in range(self.n_shards)
            ]
            self._depth = [0] * self.n_shards
            self._gen = [0] * self.n_shards

    def _make_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=self._mp,
            initializer=_worker_init,
            initargs=(self.model_dir,),
        )

    # ------------------------------------------------------------------
    @property
    def inline(self) -> bool:
        return self._inline is not None

    def shard_of(self, stream_id: str) -> int:
        return shard_of(stream_id, self.n_shards)

    def queue_depth(self) -> int:
        """Calls submitted to workers and not yet completed."""
        return sum(self._depth)

    async def _call(self, shard: int, method: str, *args: Any) -> Any:
        """Run ``EngineHost.<method>(*args)`` on ``shard``'s host."""
        if self._inline is not None:
            return getattr(self._inline, method)(*args)
        executor = self._executors[shard]
        gen = self._gen[shard]
        loop = asyncio.get_running_loop()
        self._depth[shard] += 1
        try:
            return await loop.run_in_executor(
                executor, partial(_worker_call, method, *args)
            )
        except BrokenExecutor:
            # Replace the dead worker exactly once per breakage: a burst
            # of in-flight calls all fail, but only the first observer of
            # this generation rebuilds the executor and fires the crash
            # hook.  The hook runs before the raise, with no intervening
            # await, so by the time anyone sees ShardCrashed the shard's
            # streams are already marked suspended — even when the first
            # observer is the checkpoint sweep, which swallows the
            # exception itself.
            if self._gen[shard] == gen:
                self._gen[shard] = gen + 1
                executor.shutdown(wait=False)
                self._executors[shard] = self._make_executor()
                if self.on_crash is not None:
                    self.on_crash(shard)
            raise ShardCrashed(shard) from None
        finally:
            self._depth[shard] -= 1

    # ------------------------------------------------------------------
    async def open(
        self, stream_id: str, state_doc: Optional[Dict[str, object]]
    ) -> Dict[str, object]:
        return await self._call(
            self.shard_of(stream_id), "open", stream_id, state_doc
        )

    async def chunk(
        self, stream_id: str, samples: np.ndarray
    ) -> Dict[str, object]:
        return await self._call(
            self.shard_of(stream_id), "chunk", stream_id, samples
        )

    async def close(self, stream_id: str) -> Dict[str, object]:
        return await self._call(self.shard_of(stream_id), "close", stream_id)

    async def drop(self, stream_id: str) -> bool:
        return await self._call(self.shard_of(stream_id), "drop", stream_id)

    async def states(self, shard: int) -> Dict[str, Dict[str, object]]:
        """Every live state on one shard, snapshotted at a chunk boundary."""
        return await self._call(shard, "states")

    async def all_states(self) -> Dict[str, Dict[str, object]]:
        """Every live state across all shards (crashed shards skipped)."""
        merged: Dict[str, Dict[str, object]] = {}
        for shard in range(max(1, self.n_shards)):
            try:
                merged.update(await self.states(shard))
            except ShardCrashed:
                continue
        return merged

    async def pid(self, shard: int) -> int:
        """The shard worker's OS pid (inline mode: this process)."""
        return await self._call(shard, "pid")

    def shutdown(self) -> None:
        """Stop every executor (idempotent; inline mode is a no-op)."""
        for executor in self._executors:
            executor.shutdown(wait=True)
