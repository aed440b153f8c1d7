"""The traced run's ledger: spans recorded around the program's entry points.

Nothing under ``src/`` changes.  :func:`install_serve` and
:func:`install_campaign` replace public functions and methods of the
``repro`` modules, from this file, with wrappers that record one span per
call: name, start and end (wall), CPU time of the calling thread, the
enclosing span and a request id (``stream_id/seq`` on the fleet, the run's
seed on campaigns).  A coroutine's span adds up the CPU of its own steps
only, so time spent suspended in an ``await`` is not charged to it.

Spans stay in memory and are appended to ``out/spans/<pid>.jsonl`` by
:meth:`Ledger.flush`; processes forked after installation (campaign pool
workers) start an empty ledger of their own and flush after every
top-level span, because pool workers never run exit handlers.
"""

from __future__ import annotations

import functools
import json
import os
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

#: One span: [name, start, end, cpu_s, parent index, request id, extra].
Span = List[Any]
NAME, START, END, CPU, PARENT, RID, EXTRA = range(7)


class Ledger:
    """The spans of one process."""

    def __init__(self, sink_dir: Path) -> None:
        self.sink_dir = Path(sink_dir)
        self.pid = os.getpid()
        self.autoflush = False
        self.spans: List[Span] = []
        self.stack: List[int] = []
        self.rid: Optional[str] = None
        self.marks: List[Dict[str, Any]] = []
        #: Largest value seen per sampled gauge.
        self.maxima: Dict[str, float] = {}
        self._flushed = 0

    def _check_fork(self) -> None:
        if os.getpid() != self.pid:
            self.pid = os.getpid()
            self.autoflush = True
            self.spans, self.stack, self.marks = [], [], []
            self.rid, self._flushed = None, 0

    def open(self, name: str) -> int:
        """Start a span (not yet on the stack); returns its index."""
        self._check_fork()
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, 0.0, parent, self.rid, None])
        return len(self.spans) - 1

    def close(self, index: int, cpu_s: float) -> None:
        span = self.spans[index]
        span[END] = time.perf_counter()
        span[CPU] = cpu_s
        if self.autoflush and not self.stack:
            self.flush()

    def set_rid(self, rid: str) -> None:
        """Give every open span without an id (and later spans) ``rid``."""
        self.rid = rid
        for index in self.stack:
            if self.spans[index][RID] is None:
                self.spans[index][RID] = rid

    def mark(self, **extra: Any) -> None:
        """Record a window boundary: spans opened after it belong to it."""
        self.marks.append({"span": len(self.spans), **extra})

    def window(self) -> Tuple[int, int]:
        """Index range of the spans between the first and the last mark."""
        if len(self.marks) < 2:
            return 0, len(self.spans)
        return self.marks[0]["span"], self.marks[-1]["span"]

    def flush(self) -> None:
        """Append the spans not yet written to ``<sink>/<pid>.jsonl``."""
        if self._flushed == len(self.spans):
            return
        self.sink_dir.mkdir(parents=True, exist_ok=True)
        with open(self.sink_dir / f"{self.pid}.jsonl", "a") as fh:
            for span in self.spans[self._flushed :]:
                fh.write(json.dumps(span, separators=(",", ":")) + "\n")
        self._flushed = len(self.spans)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------
def traced(
    ledger: Ledger,
    name: str,
    fn: Callable[..., Any],
    before: Optional[Callable[..., None]] = None,
    after: Optional[Callable[..., None]] = None,
) -> Callable[..., Any]:
    """``fn`` recording one span per call.

    ``before(ledger, args, kwargs)`` runs first (to set a request id);
    ``after(span, args, kwargs, result)`` annotates the closed span.
    """

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if before is not None:
            before(ledger, args, kwargs)
        index = ledger.open(name)
        ledger.stack.append(index)
        c0 = time.thread_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            cpu = time.thread_time() - c0
            ledger.stack.pop()
            ledger.close(index, cpu)
        if after is not None:
            after(ledger.spans[index], args, kwargs, result)
        return result

    return wrapper


class _Steps:
    """Awaitable driving a coroutine step by step, timing only the steps."""

    def __init__(self, ledger: Ledger, name: str, coro: Any) -> None:
        self.ledger, self.name, self.coro = ledger, name, coro
        self.index = -1

    def __await__(self):  # type: ignore[no-untyped-def]
        ledger = self.ledger
        self.index = index = ledger.open(self.name)
        cpu = 0.0
        value: Any = None
        error: Optional[BaseException] = None
        try:
            while True:
                ledger.stack.append(index)
                c0 = time.thread_time()
                try:
                    if error is not None:
                        step = self.coro.throw(error)
                    else:
                        step = self.coro.send(value)
                except StopIteration as stop:
                    return stop.value
                finally:
                    cpu += time.thread_time() - c0
                    ledger.stack.pop()
                try:
                    value, error = (yield step), None
                except BaseException as exc:  # re-raised into the coroutine
                    value, error = None, exc
        finally:
            ledger.close(index, cpu)


def traced_async(
    ledger: Ledger,
    name: str,
    fn: Callable[..., Any],
    after: Optional[Callable[..., None]] = None,
) -> Callable[..., Any]:
    """Coroutine function ``fn`` recording one span per call."""

    @functools.wraps(fn)
    async def wrapper(*args: Any, **kwargs: Any) -> Any:
        steps = _Steps(ledger, name, fn(*args, **kwargs))
        result = await steps
        if after is not None:
            after(ledger.spans[steps.index], args, kwargs, result)
        return result

    return wrapper


def _set_extra(span: Span, **values: Any) -> None:
    span[EXTRA] = values


class Patches:
    """Attribute replacements on the program's modules and classes that
    :meth:`undo` reverts."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def wrap(self, owner: Any, attr: str, make: Callable[[Any], Any]) -> None:
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()


# ---------------------------------------------------------------------------
# Installation
# ---------------------------------------------------------------------------
def install_serve(ledger: Ledger) -> Patches:
    """Wrap the fleet server's layers (call before ``FleetServer.start``).

    A ``ping`` request marks a window boundary; the client sends one
    before its first and after its last timed chunk.
    """
    from repro import obs
    from repro.serve import server as server_mod
    from repro.serve.checkpoint import CheckpointStore
    from repro.serve.server import FleetServer
    from repro.serve.shard import ShardPool

    def rid_from_request(span: Span, args: Any, kwargs: Any, doc: Dict[str, Any]) -> None:
        if "seq" in doc:
            ledger.set_rid(f"{doc['stream_id']}/{doc['seq']}")
            span[RID] = ledger.rid

    def rid_from_reply(ledger: Ledger, args: Any, kwargs: Any) -> None:
        message = args[0]
        ledger.rid = f"{message.get('stream_id')}/{message.get('seq')}"

    def marking(handle_line: Callable[..., Any]) -> Callable[..., Any]:
        async def handle_line_or_mark(self: FleetServer, conn_id: int, line: bytes) -> Any:
            if b'"op":"ping"' in line:
                ledger.mark(obs=obs.registry().snapshot()["spans"])
            elif self.pool is not None:
                depth = self.pool.queue_depth()
                ledger.maxima["queue_depth"] = max(ledger.maxima.get("queue_depth", 0), depth)
            ledger.rid = None
            return await handle_line(self, conn_id, line)

        return handle_line_or_mark

    patches = Patches()
    patches.wrap(server_mod, "decode_request", lambda f: traced(
        ledger, "serve.protocol.decode_request", f, after=rid_from_request))
    patches.wrap(server_mod, "samples_to_array", lambda f: traced(
        ledger, "serve.protocol.samples_to_array", f))
    patches.wrap(server_mod, "encode", lambda f: traced(
        ledger, "serve.protocol.encode", f, before=rid_from_reply))
    patches.wrap(FleetServer, "_handle_line", lambda f: marking(traced_async(
        ledger, "serve.server.handle_line", f)))
    patches.wrap(FleetServer, "checkpoint_now", lambda f: traced_async(
        ledger, "serve.checkpoint.sweep", f))
    patches.wrap(CheckpointStore, "save", lambda f: traced(
        ledger, "serve.checkpoint.save", f,
        after=lambda span, a, k, path: _set_extra(span, bytes=os.path.getsize(path))))
    patches.wrap(ShardPool, "chunk", lambda f: traced_async(
        ledger, "serve.shard.chunk", f,
        after=lambda span, a, k, ack: _set_extra(span, latency_s=float(ack["latency_s"]))))
    return patches


def install_campaign(ledger: Ledger) -> Patches:
    """Wrap the simulation, cache, spectrogram and detection layers."""
    from repro.cache import RunCache
    from repro.core.pipeline import NsyncIds
    from repro.eval import dataset as dataset_mod
    from repro.eval import experiments as experiments_mod
    from repro.sensors.daq import DataAcquisition

    def rid_from_seed(ledger: Ledger, args: Any, kwargs: Any) -> None:
        ledger.rid = f"seed{kwargs.get('seed')}"

    patches = Patches()
    patches.wrap(dataset_mod, "simulate_print", lambda f: traced(
        ledger, "printer.firmware.simulate_print", f, before=rid_from_seed))
    patches.wrap(DataAcquisition, "acquire", lambda f: traced(ledger, "sensors.daq.acquire", f))
    patches.wrap(RunCache, "put", lambda f: traced(
        ledger, "cache.put", f,
        after=lambda span, a, k, path: _set_extra(span, bytes=os.path.getsize(path))))
    patches.wrap(RunCache, "get_lazy", lambda f: traced(
        ledger, "cache.get_lazy", f,
        after=lambda span, a, k, handle: _set_extra(span, hit=handle is not None)))
    patches.wrap(experiments_mod, "spectrogram", lambda f: traced(ledger, "signals.spectrogram", f))
    patches.wrap(NsyncIds, "analyze", lambda f: traced(ledger, "core.nsync.analyze", f))
    return patches


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------
def read_spans(sink_dir: Path) -> List[List[Span]]:
    """Every process's flushed spans, one list per process."""
    out = []
    for path in sorted(Path(sink_dir).glob("*.jsonl")):
        with open(path) as fh:
            out.append([json.loads(line) for line in fh])
    return out


def summarize(spans: List[Span], lo: int = 0, hi: Optional[int] = None) -> Dict[str, Dict[str, float]]:
    """Per span name over ``spans[lo:hi]``: calls, wall, CPU and summed
    extras.

    ``top_cpu`` counts only spans with no enclosing span, so the sum of
    ``top_cpu`` over all names is CPU attributed without double counting.
    """
    hi = len(spans) if hi is None else hi
    out: Dict[str, Dict[str, float]] = {}
    for span in spans[lo:hi]:
        row = out.setdefault(span[NAME], {"calls": 0, "wall": 0.0, "cpu": 0.0, "top_cpu": 0.0})
        row["calls"] += 1
        row["wall"] += span[END] - span[START]
        row["cpu"] += span[CPU]
        if span[PARENT] < 0:
            row["top_cpu"] += span[CPU]
        for key, value in (span[EXTRA] or {}).items():
            row[key] = row.get(key, 0.0) + float(value)
    return out


def merge(summaries: List[Dict[str, Dict[str, float]]]) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for summary in summaries:
        for name, row in summary.items():
            dest = out.setdefault(name, {})
            for key, value in row.items():
                dest[key] = dest.get(key, 0.0) + value
    return out


def stage_deltas(before: Dict[str, Any], after: Dict[str, Any]) -> Dict[str, Dict[str, float]]:
    """Engine stage CPU and calls between two ``repro.obs`` span snapshots.

    The engine's stage spans nest under whatever span encloses the push
    (``.../repro.core.engine.push/sanitize``), so stages match by suffix.
    A stage's CPU includes the spans nested inside it (the DWM window
    spans under ``synchronize``): the stages partition the engine's work.
    """

    def cpu_calls(snapshot: Dict[str, Any], name: str) -> Tuple[float, int]:
        row = snapshot.get(name)
        return (row["cpu_total_s"], row["count"]) if row else (0.0, 0)

    out: Dict[str, Dict[str, float]] = {}
    for stage in ("sanitize", "synchronize", "compare", "discriminate"):
        cpu, calls = 0.0, 0
        for name in after:
            if name.endswith("/" + stage):
                c1, n1 = cpu_calls(after, name)
                c0, n0 = cpu_calls(before, name)
                cpu += c1 - c0
                calls += n1 - n0
        out[stage] = {"cpu": cpu, "calls": calls}
    return out
