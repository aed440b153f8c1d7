"""Campaign execution engine: parallel fan-out + content-addressed caching.

A campaign is an embarrassingly parallel workload: every
:func:`~repro.eval.dataset.run_process` call is a pure function of
``(setup, job, seed, daq, channels)``.  The engine exploits that twice:

* **Parallelism** — requests fan out over a ``ProcessPoolExecutor``.  Seeds
  are drawn from the campaign's sequential ``seq`` stream *before* dispatch,
  so a parallel campaign consumes exactly the seed assignment of the serial
  one and produces bit-identical :class:`~repro.eval.dataset.ProcessRun`
  signals regardless of worker count or completion order.  ``workers=0``
  (the default) keeps a pure in-process serial path with no executor, no
  pickling, and full visibility to ``monkeypatch``-style instrumentation.
* **Memoization** — with a :class:`~repro.cache.RunCache` attached, each
  request is first looked up by its content address
  (:func:`~repro.cache.run_cache_key`); hits skip ``simulate_print``
  entirely and misses are written back after simulation.  Labels are not
  part of the key: the same physics is reusable under any label.

The engine is the single chokepoint through which
:func:`~repro.eval.dataset.generate_campaign`, the CLI ``campaign`` /
``report`` commands, and the benchmark harness all execute runs, so cached
campaigns are shared across every consumer.

Two execution modes share one implementation: :meth:`CampaignEngine.execute`
collects every run into a list (the historical API, bit-identical), while
:meth:`CampaignEngine.iter_execute` *streams* ``(request, run)`` pairs in
request order as workers finish — cache hits arrive as memmap-backed lazy
payloads, misses fan out over a persistent pool under a bounded in-flight
window, and a consumer that aggregates incrementally holds O(1) runs in
memory no matter how large the campaign is.
"""

from __future__ import annotations

import os
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple, Union

from .. import obs
from ..obs import events
from ..attacks.base import PrintJob
from ..cache import RunCache, digest_cache_key, program_digest, resolve_cache
from ..sensors.daq import DataAcquisition, default_daq
from .dataset import PrinterSetup, ProcessRun, run_process

__all__ = ["RunRequest", "EngineStats", "CampaignEngine", "default_workers"]


def default_workers() -> int:
    """CPU count minus one (never negative): leave a core for the parent."""
    return max(0, (os.cpu_count() or 1) - 1)


@dataclass(frozen=True)
class RunRequest:
    """One process simulation to execute, with its seed already assigned."""

    setup: PrinterSetup
    job: PrintJob
    label: str
    is_malicious: bool
    seed: int


@dataclass
class EngineStats:
    """Observability counters for one engine lifetime."""

    cache_hits: int = 0
    cache_misses: int = 0
    simulated: int = 0
    elapsed: float = 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "simulated": self.simulated,
            "elapsed": self.elapsed,
        }


def _execute_indexed(
    args: Tuple[
        int, RunRequest, DataAcquisition, Optional[Tuple[str, ...]], bool
    ]
) -> Tuple[int, ProcessRun, Optional[Dict[str, object]]]:
    """Worker entry point: simulate one request (picklable, order-tagged).

    With ``record=True`` (the parent had observability enabled) the worker
    re-enables recording in its own process — child processes start with
    the module-level switch off — and ships its registry state back with
    the result so the parent can fold it in
    (:meth:`~repro.obs.metrics.MetricsRegistry.merge_state`).  The
    registry is reset *before* the task because pool workers are reused:
    without the reset a long-lived worker would re-ship its whole history
    with every task and the parent would double-count.  Must stay
    ``False`` on the serial in-process path, where the reset would wipe
    the caller's own registry.
    """
    index, request, daq, channels, record = args
    if record:
        obs.reset()
        obs.enable()
    run = run_process(
        request.setup,
        request.job,
        request.label,
        request.is_malicious,
        request.seed,
        daq=daq,
        channels=channels,
    )
    state = obs.registry().state_dict() if record else None
    return index, run, state


class CampaignEngine:
    """Executes batches of :class:`RunRequest` with caching + parallelism.

    Parameters
    ----------
    workers:
        Number of worker processes.  ``0`` (default) runs serially in the
        calling process; ``>= 2`` fans out over a ``ProcessPoolExecutor``.
        ``1`` behaves like ``0`` (a one-worker pool only adds overhead).
    cache:
        ``None`` (no caching), a directory path, or a ready
        :class:`~repro.cache.RunCache`.
    """

    def __init__(
        self,
        workers: int = 0,
        cache: Union[RunCache, str, "os.PathLike", None] = None,
    ) -> None:
        if workers < 0:
            raise ValueError(f"workers must be >= 0, got {workers}")
        self.workers = int(workers)
        self.cache = resolve_cache(cache)
        self.stats = EngineStats()
        self._pool: Optional[ProcessPoolExecutor] = None

    # -- pool lifecycle ----------------------------------------------------
    def _ensure_pool(self) -> ProcessPoolExecutor:
        """The persistent worker pool, created on first pooled batch.

        Keeping one pool across batches amortizes worker start-up over the
        whole campaign instead of paying it per ``execute`` call.
        """
        if self._pool is None:
            self._pool = ProcessPoolExecutor(max_workers=self.workers)
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent; engine stays usable)."""
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None

    def __enter__(self) -> "CampaignEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------------------
    def execute(
        self,
        requests: Sequence[RunRequest],
        daq: Optional[DataAcquisition] = None,
        channels: Optional[Sequence[str]] = None,
    ) -> List[ProcessRun]:
        """Run every request; results keep the order of ``requests``.

        Collect-all wrapper over :meth:`iter_execute` with eager (fully
        decoded) cache payloads — bit-identical results to the historical
        batch implementation under any worker count.
        """
        with obs.trace("repro.eval.engine.execute"):
            return [
                run
                for _, run in self.iter_execute(
                    requests, daq=daq, channels=channels, lazy=False
                )
            ]

    def iter_execute(
        self,
        requests: Sequence[RunRequest],
        daq: Optional[DataAcquisition] = None,
        channels: Optional[Sequence[str]] = None,
        *,
        lazy: bool = True,
        window: Optional[int] = None,
    ) -> Iterator[Tuple[RunRequest, ProcessRun]]:
        """Stream ``(request, run)`` pairs in request order as they finish.

        The streaming execution mode: results are yielded one at a time,
        so a consumer that aggregates incrementally holds O(1) runs in
        memory regardless of campaign size.  With ``lazy=True`` (the
        default) cache hits come back as memmap-backed
        :class:`~repro.eval.dataset.ProcessRun` objects — opening a hit
        costs metadata only, and samples page in as the consumer touches
        them.  ``lazy=False`` decodes hits eagerly (what :meth:`execute`
        uses).

        With ``workers >= 2`` misses fan out over the engine's persistent
        pool under a bounded in-flight window (default ``2 * workers``):
        at most ``window`` simulations are queued or running at once, so a
        slow consumer exerts backpressure instead of letting results pile
        up.  Cache lookups always happen in the calling process, and yield
        order is request order regardless of completion order — the seeds
        were pre-assigned, so the stream is bit-identical to the serial
        path.

        The per-task ``queue_wait_s`` histogram observes submit-to-result
        latency for simulated runs; ``engine_run`` events are emitted as
        each request is resolved against the cache.
        """
        requests = list(requests)
        daq = daq or default_daq()
        wanted = tuple(channels) if channels is not None else None
        emit = events.enabled()
        record = obs.enabled()
        t0 = time.perf_counter()
        hits0, misses0 = self.stats.cache_hits, self.stats.cache_misses
        sim0 = self.stats.simulated
        if emit:
            events.emit("engine_batch_start", n_requests=len(requests))
        # Register the counter even for an all-hits batch, so a snapshot
        # after a fully warm campaign reports simulated == 0 explicitly.
        obs.counter("repro.eval.engine.simulated").inc(0)
        keys = self._cache_keys(daq, wanted)
        try:
            if self.workers >= 2 and len(requests) > 1:
                yield from self._iter_pooled(
                    requests, daq, wanted, keys, lazy, window, emit, record
                )
            else:
                yield from self._iter_serial(
                    requests, daq, wanted, keys, lazy, emit, record
                )
        finally:
            elapsed = time.perf_counter() - t0
            self.stats.elapsed += elapsed
            if emit:
                events.emit(
                    "engine_batch_end",
                    simulated=self.stats.simulated - sim0,
                    cache_hits=self.stats.cache_hits - hits0,
                    cache_misses=self.stats.cache_misses - misses0,
                    elapsed=elapsed,
                )

    # -- streaming internals ----------------------------------------------
    def _cache_keys(
        self, daq: DataAcquisition, wanted: Optional[Tuple[str, ...]]
    ) -> Callable[[RunRequest], Optional[str]]:
        """Run cache key of each request of one :meth:`iter_execute` call.

        Serializing a program dominates a key, and a campaign repeats its
        benign program for every reference, training and benign run, so
        each distinct program object is hashed once per call.  Programs are
        mutable, so the memo lives only as long as the call (whose request
        list keeps every program, hence every ``id``, alive).
        """
        if self.cache is None:
            return lambda request: None
        digests: Dict[int, str] = {}

        def key(request: RunRequest) -> str:
            program = request.job.program
            digest = digests.get(id(program))
            if digest is None:
                digest = digests[id(program)] = program_digest(program)
            setup = request.setup
            return digest_cache_key(
                digest, setup.machine, setup.noise, daq, wanted, request.seed
            )

        return key

    def _lookup(
        self,
        index: int,
        request: RunRequest,
        key: Optional[str],
        lazy: bool,
        emit: bool,
    ) -> Tuple[Optional[str], Optional[ProcessRun]]:
        """Resolve one request against the cache (never reaches a worker)."""
        run: Optional[ProcessRun] = None
        if self.cache is not None:
            with obs.trace("cache_lookup"):
                if lazy:
                    handle = self.cache.get_lazy(key)
                    payload = (
                        None
                        if handle is None
                        else (
                            handle.signals(),
                            handle.layer_times,
                            handle.duration,
                        )
                    )
                else:
                    payload = self.cache.get(key)
            if payload is not None:
                signals, layer_times, duration = payload
                run = ProcessRun(
                    label=request.label,
                    is_malicious=request.is_malicious,
                    signals=signals,
                    layer_times=layer_times,
                    duration=duration,
                )
                self.stats.cache_hits += 1
                obs.counter("repro.eval.engine.cache_hits").inc()
            else:
                self.stats.cache_misses += 1
                obs.counter("repro.eval.engine.cache_misses").inc()
        if emit:
            events.emit(
                "engine_run",
                index=index,
                label=request.label,
                source="cache" if run is not None else "simulated",
                key=key,
                seed=request.seed,
            )
        return key, run

    def _finish_miss(
        self, key: Optional[str], run: ProcessRun
    ) -> ProcessRun:
        """Account for one fresh simulation and write it back."""
        self.stats.simulated += 1
        obs.counter("repro.eval.engine.simulated").inc()
        if self.cache is not None and key is not None:
            with obs.trace("cache_write"):
                self.cache.put(
                    key, run.signals, run.layer_times, run.duration
                )
        return run

    def _iter_serial(
        self, requests, daq, wanted, keys, lazy, emit, record
    ) -> Iterator[Tuple[RunRequest, ProcessRun]]:
        for i, request in enumerate(requests):
            key, run = self._lookup(i, request, keys(request), lazy, emit)
            if run is None:
                t_task = time.perf_counter()
                # record=False: the serial path runs in-process, so metrics
                # land in this registry directly (a reset would wipe it).
                with obs.trace("simulate"):
                    _, run, _state = _execute_indexed(
                        (i, request, daq, wanted, False)
                    )
                if record:
                    obs.histogram(
                        "repro.eval.engine.queue_wait_s"
                    ).observe(time.perf_counter() - t_task)
                run = self._finish_miss(key, run)
            yield request, run

    def _iter_pooled(
        self, requests, daq, wanted, keys, lazy, window, emit, record
    ) -> Iterator[Tuple[RunRequest, ProcessRun]]:
        window = window if window else max(2 * self.workers, 2)
        buffer_cap = max(2 * window, 8)
        pool = self._ensure_pool()
        # Entries keep request order: (request, hit-run-or-None, miss-info).
        pending: deque = deque()
        in_flight = 0
        cursor = 0

        def pump() -> None:
            nonlocal cursor, in_flight
            while (
                cursor < len(requests)
                and in_flight < window
                and len(pending) < buffer_cap
            ):
                i = cursor
                cursor += 1
                request = requests[i]
                key, run = self._lookup(
                    i, request, keys(request), lazy, emit
                )
                if run is not None:
                    pending.append((request, run, None))
                    continue
                future = pool.submit(
                    _execute_indexed, (i, request, daq, wanted, record)
                )
                in_flight += 1
                pending.append(
                    (request, None, (key, future, time.perf_counter()))
                )

        try:
            pump()
            while pending:
                request, run, miss = pending.popleft()
                if miss is not None:
                    key, future, t_submit = miss
                    with obs.trace("simulate"):
                        _index, run, state = future.result()
                    in_flight -= 1
                    if state is not None:
                        # Fold the worker's per-task registry into the
                        # parent: counters add, histograms concatenate,
                        # spans merge.
                        obs.registry().merge_state(state)
                    if record:
                        obs.histogram(
                            "repro.eval.engine.queue_wait_s"
                        ).observe(time.perf_counter() - t_submit)
                    run = self._finish_miss(key, run)
                yield request, run
                pump()
        finally:
            # A consumer that stops early must not leave queued work
            # behind; running tasks finish but their results are dropped.
            for entry in pending:
                if entry[2] is not None:
                    entry[2][1].cancel()
