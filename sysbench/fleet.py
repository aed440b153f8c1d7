"""Fleet workloads: ``python -m repro serve`` driven by an open-loop client.

Every phase starts a fresh server process, opens 64 printer streams over
``min(2, nproc)`` connections (32 streams each on two) and drives them
from this single process.  A phase is one of

* ``sat`` -- closed loop: each stream keeps :data:`SAT_DEPTH` chunks
  outstanding; the acknowledged sample rate is the service's saturation
  throughput;
* ``r1`` / ``r2`` / ``r3`` -- open loop at a fixed multiple of real time
  for the whole fleet (x1 = 64 streams x 200 Hz = 12,800 samples/s).  The
  streams are staggered evenly over one chunk period and every chunk is
  sent when it falls due, whether or not earlier replies are back, so a
  slow server builds a queue instead of slowing the client.  Latency is
  timed from each chunk's *due* time, which charges a stall to every
  chunk queued behind it.

The client runs on the first CPU it may use and the server on the others,
so the two never take turns on one core (the scheduler otherwise tends to
run both ends of a loopback socket on the same CPU, halving throughput
on some runs and not others).

Every ``close`` verdict is checked float for float against
``repro.serve.loadgen.offline_verdict`` over exactly the samples sent.
"""

from __future__ import annotations

import gc
import json
import math
import os
import re
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

import numpy as np

from .common import (
    OUT,
    ROOT,
    SRC,
    TAIL_LADDER,
    BenchError,
    best_rate,
    best_time,
    cpu_delta,
    descendants,
    highest_supported,
    info,
    latency_summary,
    layer_row,
    percentile,
    tree_cpu,
    tree_peak_rss_mb,
    write_trace,
)

N_STREAMS = 64
SAMPLE_RATE = 200.0
#: A rung is sustained only if its tail latency stays within this limit,
LATENCY_LIMIT_S = 0.2
#: no request failed, and at most this many requests are outstanding when
#: sending stops (one per stream: the backlog is not growing).
BACKLOG_LIMIT = N_STREAMS
#: A rung whose generator ran later than this at p99 is invalid.
LAG_LIMIT_S = 0.005
#: Requests due in a phase's first second are left out of its statistics.
WARMUP_S = 1.0
#: Replies not received this long after sending stops count as failed.
DRAIN_S = 5.0
#: The overloaded rung r3 stops sending once this many requests are
#: queued; its verdict is known and a deeper queue only costs drain time.
ABORT_BACKLOG = 16 * N_STREAMS
#: Closed loop: chunks each stream keeps outstanding, so every server
#: wake-up finds a full socket buffer whatever the client's timing.
SAT_DEPTH = 4
#: Share of ``--seconds`` each phase sends for.  The end-to-end metrics
#: come from ``sat`` and ``r2``; ``r1`` and ``r3`` place r2 on the ladder.
PHASE_SHARES = {"sat": 0.3, "r1": 0.1, "r2": 0.5, "r3": 0.1}
#: Throughput and median latency are measured per window of the phase and
#: summarised by the best decile of the windows (see ``best_rate``).
SAT_WINDOW_S = 0.25
WINDOW_SAMPLES = 200
#: Stream kinds: one stream in eight each carries a 2 s dropout burst
#: (sent as JSON ``null``) or a tampered (sign-flipped) 2 s segment.
DROPOUT_KIND, TAMPER_KIND = 3, 7
BURST_SAMPLES = int(2 * SAMPLE_RATE)


@dataclass(frozen=True)
class FleetSpec:
    """One fleet workload: server mode, chunk size and rung rates."""

    shards: int
    chunk_samples: int
    checkpoint: bool
    #: r1, r2, r3 as multiples of real time for the whole fleet.
    rungs: Tuple[int, int, int]

    def server_args(self, model_dir: Path, ckpt_dir: Path) -> List[str]:
        args = ["serve", str(model_dir), "--port", "0", "--shards", str(self.shards)]
        if self.checkpoint:
            args += ["--checkpoint-dir", str(ckpt_dir), "--checkpoint-interval", "1"]
        return args


SPECS: Dict[str, FleetSpec] = {
    # Per-message cost dominates: JSON, asyncio and the socket per 50 ms
    # chunk; the inline engine push is a small share.
    "fleet_small_chunks": FleetSpec(shards=0, chunk_samples=10, checkpoint=False, rungs=(2, 4, 8)),
    # Pickling to the shard worker, engine compute and 1 s checkpoint
    # sweeps queued behind pushes on the single-worker executor.
    "fleet_sharded_ckpt": FleetSpec(shards=1, chunk_samples=200, checkpoint=True, rungs=(4, 8, 16)),
}


def stream_id(k: int) -> str:
    return f"printer-{k:02d}"


@contextmanager
def client_pinned() -> Iterator[Optional[Set[int]]]:
    """Run the client on the first CPU it may use; yields the CPUs left for
    the server (``None`` on a single CPU: nothing is pinned)."""
    saved = os.sched_getaffinity(0)
    cpus = sorted(saved)
    if len(cpus) < 2:
        yield None
        return
    os.sched_setaffinity(0, {cpus[0]})
    try:
        yield set(cpus[1:])
    finally:
        os.sched_setaffinity(0, saved)


@contextmanager
def gc_paused() -> Iterator[None]:
    """No client-side collector pauses inside a timed loop."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
@dataclass
class FleetInputs:
    """The model, the 64 sample streams and their pre-encoded chunks.

    A chunk's wire line is spliced from a per-stream prefix, its ``seq``
    and its pre-encoded samples, so the timed loops never encode JSON.
    A stream that is driven past its last sample wraps around to its
    first (only the closed loop can, and only on a much faster server).
    """

    model: object
    streams: List[np.ndarray]
    chunk_samples: int
    prefixes: List[bytes]
    #: ``payloads[k][b]`` is the JSON ``samples`` array of stream k's
    #: block b, with its closing brace and newline.
    payloads: List[List[bytes]]
    encode_cpu_s: float

    @property
    def n_blocks(self) -> int:
        return len(self.payloads[0])

    def message(self, k: int, seq: int) -> bytes:
        return b"%s%d%s" % (self.prefixes[k], seq, self.payloads[k][seq % self.n_blocks])

    def sent_samples(self, k: int, n_chunks: int) -> np.ndarray:
        """The samples stream k's first ``n_chunks`` chunks carried."""
        return np.resize(self.streams[k], n_chunks * self.chunk_samples)[:, None]


def phase_seconds(seconds: float) -> Dict[str, float]:
    return {phase: share * seconds for phase, share in PHASE_SHARES.items()}


def stream_samples(spec: FleetSpec, seconds: float) -> int:
    """Samples per stream: enough for every rung and for a closed loop at
    twice the overloaded rung's rate."""
    t = phase_seconds(seconds)
    r1, r2, r3 = spec.rungs
    need_s = max(2 * r3 * t["sat"], r1 * t["r1"], r2 * t["r2"], r3 * t["r3"])
    chunks = math.ceil(need_s * SAMPLE_RATE / spec.chunk_samples) + 1
    return chunks * spec.chunk_samples


def make_streams(seed: int, n_samples: int):
    """The seeded model and fleet: reference texture plus per-stream noise."""
    from repro.core.discriminator import Thresholds
    from repro.eval.throughput import ThroughputWorkload
    from repro.serve.model import ServeModel
    from repro.sync.dwm import DwmParams

    w = ThroughputWorkload(sample_rate=SAMPLE_RATE, n_samples=n_samples, seed=seed)
    reference, _ = w.signals()
    model = ServeModel(
        reference=reference,
        params=DwmParams(
            t_win=w.t_win, t_hop=w.t_hop, t_ext=w.t_ext, t_sigma=w.t_sigma, eta=w.eta
        ),
        thresholds=Thresholds(c_c=50.0, h_c=20.0, v_c=0.5),
    )
    base = reference.data[:, 0]
    streams = []
    for k in range(N_STREAMS):
        rng = np.random.default_rng([seed, k])
        x = base + 0.05 * rng.standard_normal(n_samples)
        start = int(SAMPLE_RATE) + int(rng.integers(0, 2 * int(SAMPLE_RATE)))
        burst = slice(start, start + BURST_SAMPLES)
        if k % 8 == DROPOUT_KIND:
            x[burst] = np.nan
        elif k % 8 == TAMPER_KIND:
            x[burst] = -x[burst]
        streams.append(x)
    return model, streams


def encode_payloads(samples: np.ndarray, chunk: int) -> List[bytes]:
    """Each chunk's strict-JSON ``samples`` array (NaN goes out as ``null``)."""
    out = []
    for start in range(0, samples.shape[0], chunk):
        block = [None if v != v else v for v in samples[start : start + chunk].tolist()]
        out.append(b',"samples":%s}\n' % json.dumps(block, separators=(",", ":")).encode())
    return out


def make_inputs(spec: FleetSpec, seed: int, seconds: float) -> FleetInputs:
    model, streams = make_streams(seed, stream_samples(spec, seconds))
    t0 = time.thread_time()
    prefixes = [
        b'{"op":"chunk","stream_id":"%s","seq":' % stream_id(k).encode()
        for k in range(N_STREAMS)
    ]
    payloads = [encode_payloads(x, spec.chunk_samples) for x in streams]
    encode_cpu_s = time.thread_time() - t0
    return FleetInputs(model, streams, spec.chunk_samples, prefixes, payloads, encode_cpu_s)


# ---------------------------------------------------------------------------
# Server process
# ---------------------------------------------------------------------------
class ServerProcess:
    """A ``repro serve`` subprocess on ``cpus``; always stopped, children
    included."""

    READY = re.compile(rb"serving on [^:]+:(\d+)")

    def __init__(
        self,
        argv: Sequence[str],
        log_path: Path,
        cpus: Optional[Set[int]],
        ready_timeout: float = 60.0,
    ) -> None:
        self.log = open(log_path, "wb")
        self.proc = subprocess.Popen(
            list(argv),
            cwd=str(ROOT),
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"},
            stdout=subprocess.PIPE,
            stderr=self.log,
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        try:
            self.port = self._wait_ready(ready_timeout)
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _wait_ready(self, timeout: float) -> int:
        assert self.proc.stdout is not None
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else b""
        match = self.READY.search(line)
        if match is None:
            raise BenchError(f"server did not start: {line!r} (see {self.log.name})")
        return int(match.group(1))

    def stop(self, timeout: float = 30.0) -> None:
        """SIGTERM (graceful drain), then SIGKILL whatever is left."""
        family = descendants(self.proc.pid) if self.proc.poll() is None else []
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        for pid in family:
            _wait_gone(pid)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        self.log.close()


def _alive(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def _wait_gone(pid: int, timeout: float = 10.0) -> None:
    """Wait for a grandchild to exit (it is not ours to reap); kill it if
    it outlives ``timeout``."""
    deadline = time.monotonic() + timeout
    while _alive(pid):
        if time.monotonic() > deadline:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            return
        time.sleep(0.05)


# ---------------------------------------------------------------------------
# Client
# ---------------------------------------------------------------------------
class Conn:
    """One non-blocking connection with its in-order reply queue."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self.out = bytearray()
        self.buf = b""
        #: One entry per request sent and not yet answered, oldest first.
        self.pending: deque = deque()

    def push(self, data: bytes, tag: object) -> None:
        self.out += data
        self.pending.append(tag)

    def flush(self) -> None:
        if self.out:
            try:
                n = self.sock.send(self.out)
            except BlockingIOError:
                return
            del self.out[:n]

    def read_lines(self) -> List[bytes]:
        try:
            data = self.sock.recv(1 << 20)
        except BlockingIOError:
            return []
        if not data:
            raise BenchError("server closed the connection")
        lines = (self.buf + data).split(b"\n")
        self.buf = lines.pop()
        return lines

    def close(self) -> None:
        self.sock.close()


def wait_io(conns: Sequence[Conn], timeout: float) -> List[Conn]:
    """Flush what the sockets accept; return the connections with replies.

    ``select`` (not epoll) because it sleeps with microsecond, not
    millisecond, resolution, which keeps the generator on schedule.
    """
    by_sock = {c.sock: c for c in conns}
    writers = [c.sock for c in conns if c.out]
    readable, writable, _ = select.select(list(by_sock), writers, [], max(0.0, timeout))
    for sock in writable:
        by_sock[sock].flush()
    return [by_sock[s] for s in readable]


def roundtrip(conns: Sequence[Conn], requests: Sequence[Sequence[dict]], timeout: float = 60.0) -> List[List[dict]]:
    """Pipeline untimed requests (open/close/ping) and collect the replies."""
    replies: List[List[dict]] = [[] for _ in conns]
    for conn, reqs in zip(conns, requests):
        for req in reqs:
            conn.push((json.dumps(req, separators=(",", ":")) + "\n").encode(), None)
        conn.flush()
    deadline = time.monotonic() + timeout
    while any(c.pending for c in conns):
        if time.monotonic() > deadline:
            raise BenchError("untimed requests got no reply")
        for conn in wait_io(conns, 0.1):
            for line in conn.read_lines():
                conn.pending.popleft()
                replies[conns.index(conn)].append(json.loads(line))
    return replies


def streams_of(n_conns: int) -> List[List[int]]:
    """Connection c carries streams c, c + n, c + 2n, ... (even spacing)."""
    return [list(range(c, N_STREAMS, n_conns)) for c in range(n_conns)]


def _chunk_ok(line: bytes, sid: str, seq: int) -> bool:
    reply = json.loads(line)
    return (
        reply.get("ok") is True
        and reply.get("op") == "chunk"
        and reply.get("stream_id") == sid
        and reply.get("seq") == seq
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------
def window_medians(dues: Sequence[float], latencies: Sequence[float]) -> List[float]:
    """Median latency (s) of each window of :data:`WINDOW_SAMPLES`
    consecutive requests, in due-time order."""
    order = np.argsort(np.asarray(dues), kind="stable")
    lat = np.asarray(latencies)[order]
    n_windows = max(1, len(lat) // WINDOW_SAMPLES)
    return [float(np.median(chunk)) for chunk in np.array_split(lat, n_windows)]


@dataclass
class PhaseResult:
    """What one phase measured."""

    name: str
    mult: int
    sent: int = 0
    failed: int = 0
    #: Due time and latency (s) of each request due after the warm-up.
    dues: List[float] = field(default_factory=list)
    latencies: List[float] = field(default_factory=list)
    lags: List[float] = field(default_factory=list)
    backlog_at_stop: int = 0
    aborted: bool = False
    #: Closed loop: acknowledged samples/s, best decile of the windows.
    samples_per_s: float = 0.0
    #: Chunks acknowledged per stream.
    acked: List[int] = field(default_factory=lambda: [0] * N_STREAMS)

    def lag_p99_s(self) -> float:
        return percentile(self.lags, 99.0) if self.lags else 0.0

    def latency(self) -> Optional[Dict[str, float]]:
        """The whole-phase summary plus ``best_p50_ms``, the best decile
        of the per-window medians; ``None`` with too few samples."""
        if highest_supported(len(self.latencies), TAIL_LADDER) is None:
            return None
        summary = latency_summary(self.latencies)
        medians = window_medians(self.dues, self.latencies)
        summary["windows"] = len(medians)
        summary["best_p50_ms"] = best_time(medians) * 1e3
        return summary

    def verdict(self) -> str:
        """``sustained`` or the first reason it is not (rungs only)."""
        if self.lags and self.lag_p99_s() > LAG_LIMIT_S:
            return "invalid (generator lag)"
        if self.failed:
            return "not sustained (failures)"
        if self.aborted or self.backlog_at_stop > BACKLOG_LIMIT:
            return "not sustained (backlog)"
        lat = self.latency()
        if lat is None:
            return "invalid (too few samples)"
        if lat["tail_ms"] > LATENCY_LIMIT_S * 1e3:
            return "not sustained (latency)"
        return "sustained"


def open_loop(conns: Sequence[Conn], inputs: FleetInputs, name: str, mult: int, seconds: float) -> PhaseResult:
    """Send every chunk at its due time; time replies from the due time."""
    result = PhaseResult(name, mult)
    period = inputs.chunk_samples / (SAMPLE_RATE * mult)
    n_chunks = min(int(round(seconds / period)), inputs.n_blocks)
    schedules = []
    for streams in streams_of(len(conns)):
        offsets = np.asarray(streams, dtype=np.float64) / N_STREAMS * period
        due = (np.arange(n_chunks)[:, None] * period + offsets[None, :]).ravel()
        ks = np.tile(streams, n_chunks)
        js = np.repeat(np.arange(n_chunks), len(streams))
        schedules.append((due.tolist(), ks.tolist(), js.tolist()))
    message = inputs.message
    sids = [stream_id(k) for k in range(N_STREAMS)]
    cursor = [0] * len(conns)
    outstanding = 0
    sending = True
    stop_at = 0.0
    t0 = time.perf_counter() + 0.01
    while True:
        now = time.perf_counter() - t0
        if sending:
            next_due = math.inf
            for c, conn in enumerate(conns):
                due, ks, js = schedules[c]
                i = cursor[c]
                while i < len(due) and due[i] <= now:
                    conn.push(message(ks[i], js[i]), (due[i], ks[i], js[i]))
                    result.lags.append(now - due[i])
                    i += 1
                outstanding += i - cursor[c]
                result.sent += i - cursor[c]
                cursor[c] = i
                conn.flush()
                if i < len(due):
                    next_due = min(next_due, due[i])
            if next_due == math.inf or (name == "r3" and outstanding > ABORT_BACKLOG):
                sending = False
                stop_at = now
                result.aborted = next_due != math.inf
                result.backlog_at_stop = outstanding
            timeout = next_due - (time.perf_counter() - t0) if sending else DRAIN_S
        else:
            if outstanding == 0:
                break
            timeout = stop_at + DRAIN_S - now
            if timeout <= 0:
                raise BenchError(f"{name}: {outstanding} replies missed the {DRAIN_S:g} s drain cutoff")
        for conn in wait_io(conns, timeout):
            t = time.perf_counter() - t0
            for line in conn.read_lines():
                due, k, j = conn.pending.popleft()
                outstanding -= 1
                if not _chunk_ok(line, sids[k], j):
                    result.failed += 1
                    continue
                result.acked[k] += 1
                if due >= WARMUP_S:
                    result.dues.append(due)
                    result.latencies.append(t - due)
    return result


def closed_loop(conns: Sequence[Conn], inputs: FleetInputs, seconds: float) -> PhaseResult:
    """Keep :data:`SAT_DEPTH` chunks per stream outstanding for ``seconds``."""
    result = PhaseResult("sat", 0)
    message = inputs.message
    sids = [stream_id(k) for k in range(N_STREAMS)]
    n_windows = max(1, int((seconds - WARMUP_S) / SAT_WINDOW_S))
    acked_in = [0] * n_windows
    t0 = time.perf_counter()
    for conn, streams in zip(conns, streams_of(len(conns))):
        for j in range(SAT_DEPTH):
            for k in streams:
                conn.push(message(k, j), (0.0, k, j))
        conn.flush()
    outstanding = result.sent = N_STREAMS * SAT_DEPTH
    while outstanding:
        now = time.perf_counter() - t0
        if now > seconds + DRAIN_S:
            raise BenchError(f"sat: {outstanding} replies missed the drain cutoff")
        for conn in wait_io(conns, seconds + DRAIN_S - now):
            t = time.perf_counter() - t0
            window = int((t - WARMUP_S) // SAT_WINDOW_S)
            for line in conn.read_lines():
                _sent_at, k, j = conn.pending.popleft()
                outstanding -= 1
                if not _chunk_ok(line, sids[k], j):
                    result.failed += 1
                    continue
                result.acked[k] += 1
                if 0 <= window < n_windows:
                    acked_in[window] += 1
                if t < seconds:
                    conn.push(message(k, j + SAT_DEPTH), (t, k, j + SAT_DEPTH))
                    outstanding += 1
                    result.sent += 1
            conn.flush()
    result.samples_per_s = best_rate([n * inputs.chunk_samples / SAT_WINDOW_S for n in acked_in])
    return result


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------
@dataclass
class PhaseRecord:
    result: PhaseResult
    setup_s: float
    peak_rss_mb: float
    #: Server-tree CPU seconds over the timed loop (see ``tree_cpu``).
    cpu_s: Dict[str, float]
    #: Seconds of signal the acknowledged chunks carried.
    signal_s: float
    verdicts: Dict[int, dict]
    mismatches: List[int] = field(default_factory=list)


def run_phase(
    spec: FleetSpec,
    inputs: FleetInputs,
    model_dir: Path,
    name: str,
    seconds: float,
    server_cpus: Optional[Set[int]],
    traced: Optional[Path] = None,
) -> PhaseRecord:
    """Fresh server -> open 64 streams -> drive -> close -> stop."""
    ckpt_dir = OUT / f"ckpt-{name}"
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    args = spec.server_args(model_dir, ckpt_dir)
    if traced is not None:
        argv = [sys.executable, str(Path(__file__).with_name("serve_entry.py")), str(traced), *args]
    else:
        argv = [sys.executable, "-m", "repro", *args]
    n_conns = min(2, os.cpu_count() or 1)
    t_setup = time.perf_counter()
    server = ServerProcess(argv, OUT / f"server-{name}.log", server_cpus)
    conns: List[Conn] = []
    try:
        conns = [Conn(server.port) for _ in range(n_conns)]
        opens = roundtrip(
            conns,
            [
                [{"op": "open", "stream_id": stream_id(k), "sample_rate": SAMPLE_RATE} for k in streams]
                for streams in streams_of(n_conns)
            ],
        )
        if not all(r.get("ok") for replies in opens for r in replies):
            raise BenchError(f"{name}: open failed: {opens}")
        setup_s = time.perf_counter() - t_setup
        if traced is not None:
            roundtrip(conns[:1], [[{"op": "ping"}]])
        cpu0 = tree_cpu(server.pid)
        with gc_paused():
            if name == "sat":
                result = closed_loop(conns, inputs, seconds)
            else:
                mult = spec.rungs[int(name[1]) - 1]
                result = open_loop(conns, inputs, name, mult, seconds)
        cpu = cpu_delta(cpu0, tree_cpu(server.pid))
        if traced is not None:
            roundtrip(conns[:1], [[{"op": "ping"}]])
        closes = roundtrip(
            conns,
            [[{"op": "close", "stream_id": stream_id(k)} for k in streams] for streams in streams_of(n_conns)],
        )
        verdicts: Dict[int, dict] = {}
        for streams, replies in zip(streams_of(n_conns), closes):
            for k, reply in zip(streams, replies):
                if not reply.get("ok") or "result" not in reply:
                    result.failed += 1
                    continue
                verdicts[k] = reply["result"]
        peak = tree_peak_rss_mb(server.pid)
    finally:
        for conn in conns:
            conn.close()
        server.stop()
    shutil.rmtree(ckpt_dir, ignore_errors=True)
    signal_s = sum(result.acked) * inputs.chunk_samples / SAMPLE_RATE
    return PhaseRecord(result, setup_s, peak, cpu, signal_s, verdicts)


def verify(record: PhaseRecord, inputs: FleetInputs) -> None:
    """Served verdicts must equal the offline engine's, float for float."""
    from repro.serve.loadgen import offline_verdict

    for k, served in record.verdicts.items():
        samples = inputs.sent_samples(k, record.result.acked[k])
        expected = json.loads(json.dumps(offline_verdict(inputs.model, samples)))
        if served != expected:
            record.mismatches.append(k)


def describe(record: PhaseRecord) -> str:
    r = record.result
    cps = sum(record.cpu_s.values()) / record.signal_s
    if r.name == "sat":
        return (
            f"sat closed loop: {r.samples_per_s:,.0f} samples/s "
            f"({r.samples_per_s / SAMPLE_RATE:,.0f} real-time streams), "
            f"server {cps:.5f} CPU-s per signal-s, setup {record.setup_s:.2f} s"
        )
    rate = r.mult * N_STREAMS * SAMPLE_RATE
    text = f"{r.name} x{r.mult} ({rate:,.0f} samples/s): "
    lat = r.latency()
    if lat is not None:
        text += (
            f"p50 {lat['p50_ms']:.3f} ms (best window decile {lat['best_p50_ms']:.3f} ms "
            f"of {lat['windows']}), p{lat['tail_pct']:g} {lat['tail_ms']:.3f} ms "
            f"(n={lat['n']}, highest supported p{lat['supported_pct']:g}), "
        )
    text += (
        f"lag p99 {r.lag_p99_s() * 1e3:.3f} ms, backlog at stop {r.backlog_at_stop}, "
        f"failed {r.failed}, server {cps:.5f} CPU-s per signal-s: {r.verdict()}"
    )
    return text


# ---------------------------------------------------------------------------
# Workload entry points
# ---------------------------------------------------------------------------
def _prepare(workload: str, seed: int, seconds: float) -> Tuple[FleetSpec, FleetInputs, Path]:
    spec = SPECS[workload]
    inputs = make_inputs(spec, seed, seconds)
    model_dir = OUT / f"model-{workload}"
    shutil.rmtree(model_dir, ignore_errors=True)
    inputs.model.save(model_dir)
    return spec, inputs, model_dir


def run(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, bool]:
    """The untraced run: saturation plus the three rungs."""
    spec, inputs, model_dir = _prepare(workload, seed, seconds)
    durations = phase_seconds(seconds)
    records: Dict[str, PhaseRecord] = {}
    with client_pinned() as server_cpus:
        for name in ("sat", "r1", "r2", "r3"):
            records[name] = run_phase(spec, inputs, model_dir, name, durations[name], server_cpus)
            info(describe(records[name]))
    for record in records.values():
        verify(record, inputs)
    sustained = [
        spec.rungs[i] for i, name in enumerate(("r1", "r2", "r3"))
        if records[name].result.verdict() == "sustained"
    ]
    info(
        f"sustained: {max(sustained) * N_STREAMS * SAMPLE_RATE:,.0f} samples/s (x{max(sustained)})"
        if sustained else "sustained: none of the rungs"
    )
    r2 = records["r2"].result
    if r2.lag_p99_s() > LAG_LIMIT_S:
        raise BenchError(f"r2 generator lag p99 {r2.lag_p99_s() * 1e3:.2f} ms > {LAG_LIMIT_S * 1e3:g} ms")
    lat = r2.latency()
    if lat is None:
        raise BenchError("r2 has too few latency samples")
    mismatches = sum(len(r.mismatches) for r in records.values())
    info(f"verdict mismatches: {mismatches} of {sum(len(r.verdicts) for r in records.values())} closes")
    values = {
        "setup_s": statistics.median(r.setup_s for r in records.values()),
        "signal_s_per_s": records["sat"].result.samples_per_s / SAMPLE_RATE,
        "latency_ms": lat["best_p50_ms"],
        # The overloaded rung's queue depth is arbitrary; leave it out.
        "peak_rss_mb": max(records[name].peak_rss_mb for name in ("sat", "r1", "r2")),
    }
    attempted = sum(r.result.sent + 2 * N_STREAMS for r in records.values())
    failed = sum(r.result.failed for r in records.values())
    return values, attempted, failed, mismatches == 0


def run_traced(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, bool]:
    """The traced run: rung r2 once plain and once under the ledger."""
    from .ledger import read_spans

    spec, inputs, model_dir = _prepare(workload, seed, seconds)
    duration = phase_seconds(seconds)["r2"]
    summary_path = OUT / "serve-ledger.json"
    with client_pinned() as server_cpus:
        plain = run_phase(spec, inputs, model_dir, "r2", duration, server_cpus)
        traced = run_phase(spec, inputs, model_dir, "r2", duration, server_cpus, summary_path)
    info(describe(traced))
    for record in (plain, traced):
        verify(record, inputs)
    summary = json.loads(summary_path.read_text())
    if summary["marks"] != 2:
        raise BenchError(f"traced server saw {summary['marks']} window marks, not 2")
    write_trace(read_spans(OUT / "spans"))
    values = serve_layers(spec, inputs, plain, traced, summary)
    records = (plain, traced)
    attempted = sum(r.result.sent + 2 * N_STREAMS for r in records)
    failed = sum(r.result.failed for r in records)
    return values, attempted, failed, not any(r.mismatches for r in records)


def serve_layers(
    spec: FleetSpec,
    inputs: FleetInputs,
    plain: PhaseRecord,
    traced: PhaseRecord,
    summary: Dict[str, dict],
) -> Dict[str, float]:
    """The server's CPU, split by layer, per second of signal served.

    Spans give the wrapped layers.  The main thread's CPU outside them is
    the event loop's own (``serve.loop.self``).  In sharded mode the
    executor's helper threads and the worker's CPU beyond its engine
    pushes (argument and reply pickling, checkpoint snapshots) are what
    the process boundary costs (``serve.shard.ipc_cpu``).  CPU of any
    thread or process the ledger has no role for is unattributed.
    """
    layers = summary["layers"]

    def get(name: str, key: str = "cpu") -> float:
        return layers.get(name, {}).get(key, 0.0)

    signal_s = traced.signal_s
    cpu = traced.cpu_s
    total = sum(cpu.values())
    inline = spec.shards == 0
    decode = get("serve.protocol.decode_request") + get("serve.protocol.samples_to_array")
    push = get("serve.shard.chunk", "latency_s")
    server_self = get("serve.server.handle_line") - decode - (get("serve.shard.chunk") if inline else 0.0)
    loop_self = cpu["main"] - sum(
        get(name, "top_cpu")
        for name in ("serve.server.handle_line", "serve.protocol.encode", "serve.checkpoint.sweep")
    )
    ipc_cpu = 0.0 if inline else cpu["threads"] + cpu["children"] - push
    unattributed = cpu["threads"] + cpu["children"] if inline else 0.0
    for name, residual in (("serve.loop.self", loop_self), ("serve.shard.ipc_cpu", ipc_cpu)):
        if residual < -0.05 * total:
            raise BenchError(f"{name} is {residual:.3f} s: the ledger counts CPU twice")
    plain_cps = sum(plain.cpu_s.values()) / plain.signal_s
    values = {
        "serve.protocol.decode.cps": decode / signal_s,
        "serve.protocol.decode.calls": get("serve.protocol.decode_request", "calls"),
        "serve.protocol.encode.cps": get("serve.protocol.encode") / signal_s,
        "serve.protocol.encode.calls": get("serve.protocol.encode", "calls"),
        "serve.server.self.cps": server_self / signal_s,
        "serve.server.self.calls": get("serve.server.handle_line", "calls"),
        "serve.loop.self.cps": loop_self / signal_s,
        "serve.shard.ipc.cps": (get("serve.shard.chunk", "wall") - push) / signal_s,
        "serve.shard.ipc.calls": get("serve.shard.chunk", "calls"),
        "serve.shard.ipc_cpu.cps": ipc_cpu / signal_s,
        "serve.shard.queue_depth_max": summary["maxima"].get("queue_depth", 0),
        "serve.checkpoint.sweep_s": get("serve.checkpoint.sweep", "wall"),
        "serve.checkpoint.sweeps": get("serve.checkpoint.sweep", "calls"),
        "serve.checkpoint.bytes": get("serve.checkpoint.save", "bytes"),
        "core.engine.push.cps": push / signal_s,
        "core.engine.push.calls": get("serve.shard.chunk", "calls"),
        "client.encode.cps": inputs.encode_cpu_s
        / (N_STREAMS * inputs.n_blocks * inputs.chunk_samples / SAMPLE_RATE),
        "client.lag_p99_ms": traced.result.lag_p99_s() * 1e3,
        "trace.overhead_ratio": (total / signal_s) / plain_cps - 1.0,
        "trace.unattributed_ratio": unattributed / total,
    }
    for stage, row in summary["stages"].items():
        values[f"core.engine.{stage}.cps"] = row["cpu"] / signal_s
        values[f"core.engine.{stage}.calls"] = row["calls"]
    return layer_row(values)
