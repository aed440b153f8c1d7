"""Shared helpers: metric declarations, percentiles, /proc accounting."""

from __future__ import annotations

import json
import os
import statistics
import time
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, TypeVar

T = TypeVar("T")

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

WORKLOADS = ("fleet_small_chunks", "fleet_sharded_ckpt", "campaign_build", "campaign_eval")

#: End-to-end metrics (printed by every untraced run, on every workload).
E2E_METRICS: Dict[str, str] = {
    "setup_s": "s",
    "signal_s_per_s": "signal-s/s",
    "latency_ms": "ms",
    "peak_rss_mb": "MiB",
}

_STAGES = ("sanitize", "synchronize", "compare", "discriminate")

#: Per-layer metrics (printed by every traced run, on every workload).
#: ``s/s`` is compute-seconds per signal-second, the unit of the paper's
#: Fig. 11; a layer that does not run on a workload reads 0.
LAYER_METRICS: Dict[str, str] = {
    "serve.protocol.decode.cps": "s/s",
    "serve.protocol.decode.calls": "count",
    "serve.protocol.encode.cps": "s/s",
    "serve.protocol.encode.calls": "count",
    "serve.server.self.cps": "s/s",
    "serve.server.self.calls": "count",
    "serve.loop.self.cps": "s/s",
    "serve.shard.ipc.cps": "s/s",
    "serve.shard.ipc.calls": "count",
    "serve.shard.ipc_cpu.cps": "s/s",
    "serve.shard.queue_depth_max": "count",
    "serve.checkpoint.sweep_s": "s",
    "serve.checkpoint.sweeps": "count",
    "serve.checkpoint.bytes": "B",
    "core.engine.push.cps": "s/s",
    "core.engine.push.calls": "count",
    **{
        f"core.engine.{stage}.{kind}": unit
        for stage in _STAGES
        for kind, unit in (("cps", "s/s"), ("calls", "count"))
    },
    "printer.firmware.cps": "s/s",
    "printer.firmware.calls": "count",
    "sensors.daq.cps": "s/s",
    "sensors.daq.calls": "count",
    "cache.put.cps": "s/s",
    "cache.put.calls": "count",
    "cache.put.bytes": "B",
    "cache.get_lazy.cps": "s/s",
    "cache.get_lazy.calls": "count",
    "cache.hit_ratio": "ratio",
    "eval.engine.consumer_wait.cps": "s/s",
    "eval.engine.consumer_wait.calls": "count",
    "signals.spectrogram.cps": "s/s",
    "signals.spectrogram.calls": "count",
    "core.nsync.analyze.cps": "s/s",
    "core.nsync.analyze.calls": "count",
    "client.encode.cps": "s/s",
    "client.lag_p99_ms": "ms",
    "trace.overhead_ratio": "ratio",
    "trace.unattributed_ratio": "ratio",
}

#: Percentiles a tail latency may be reported at, lowest first.
TAIL_LADDER = (90.0, 95.0, 99.0)
#: Informational ladder for "the highest percentile the sample supports".
SUPPORT_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9, 99.99)
#: A percentile is supported when at least this many samples lie beyond it.
MIN_BEYOND = 10
#: Repeated measurements within a run (windows of a phase, builds, passes)
#: are summarised by their best decile.  Interference from outside the
#: benchmark -- other tenants of the machine -- only ever slows a window
#: down, so the best tenth estimates undisturbed performance much more
#: steadily from run to run than the median does.
BEST_DECILE = 10.0


class BenchError(RuntimeError):
    """The program misbehaved or the run is invalid; no result is printed."""


# ---------------------------------------------------------------------------
# Percentiles
# ---------------------------------------------------------------------------
def samples_beyond(n: int, pct: float) -> int:
    """How many of ``n`` samples lie beyond the ``pct`` percentile."""
    return int(n * (100 - Fraction(str(pct))) / 100)


def highest_supported(
    n: int, ladder: Sequence[float] = SUPPORT_LADDER
) -> Optional[float]:
    """The highest ladder percentile with at least ``MIN_BEYOND`` samples
    beyond it, or ``None`` when even the lowest is unsupported."""
    best = None
    for pct in ladder:
        if samples_beyond(n, pct) >= MIN_BEYOND:
            best = pct
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def best_time(values: Sequence[float]) -> float:
    """The best decile of repeated durations (lower is better)."""
    return percentile(values, BEST_DECILE)


def best_rate(values: Sequence[float]) -> float:
    """The best decile of repeated rates (higher is better)."""
    return percentile(values, 100.0 - BEST_DECILE)


def latency_summary(values_s: Sequence[float]) -> Dict[str, float]:
    """p50 and tail (ms) of a latency sample, with the tail's percentile.

    The tail is the highest of :data:`TAIL_LADDER` the sample supports;
    a sample too small for even p90 raises, so a run never reports a
    percentile its data cannot carry.
    """
    n = len(values_s)
    tail_pct = highest_supported(n, TAIL_LADDER)
    if tail_pct is None:
        raise BenchError(f"{n} latency samples cannot support a p90")
    return {
        "n": n,
        "p50_ms": percentile(values_s, 50.0) * 1e3,
        "tail_pct": tail_pct,
        "tail_ms": percentile(values_s, tail_pct) * 1e3,
        "supported_pct": highest_supported(n),
    }


def quartile_spread(values: Sequence[float]) -> Tuple[float, float, float, float]:
    """``(q1, median, q3, (q3 - q1) / median)`` as the acceptance rule
    computes them (``statistics.quantiles(values, n=4)``)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


# ---------------------------------------------------------------------------
# /proc accounting (Linux)
# ---------------------------------------------------------------------------
_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")


def _stat_fields(path: str) -> List[str]:
    with open(path) as fh:
        text = fh.read()
    # The command name may contain spaces; fields resume after ')'.
    return text.rsplit(")", 1)[1].split()


def _cpu_s(stat_path: str) -> float:
    fields = _stat_fields(stat_path)
    return (int(fields[11]) + int(fields[12])) * _TICK_S


def descendants(pid: int) -> List[int]:
    """Every live descendant process of ``pid``."""
    children: Dict[int, List[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            ppid = int(_stat_fields(f"/proc/{entry}/stat")[1])
        except (OSError, IndexError, ValueError):
            continue
        children.setdefault(ppid, []).append(int(entry))
    out: List[int] = []
    frontier = [pid]
    while frontier:
        nxt = children.get(frontier.pop(), [])
        out.extend(nxt)
        frontier.extend(nxt)
    return out


def tree_cpu(pid: int) -> Dict[str, float]:
    """CPU seconds of a process tree, split three ways.

    ``main`` is the main thread, ``threads`` every other thread of the
    process (including exited ones), ``children`` all live descendants.
    """
    total = _cpu_s(f"/proc/{pid}/stat")
    main = _cpu_s(f"/proc/{pid}/task/{pid}/stat")
    children = 0.0
    for child in descendants(pid):
        try:
            children += _cpu_s(f"/proc/{child}/stat")
        except OSError:
            continue
    return {"main": main, "threads": total - main, "children": children}


def cpu_delta(before: Dict[str, float], after: Dict[str, float]) -> Dict[str, float]:
    return {key: after[key] - before[key] for key in before}


def tree_peak_rss_mb(pid: int) -> float:
    """Sum of per-process peak RSS (``VmHWM``) over a process tree, MiB."""
    total_kb = 0
    for proc in [pid, *descendants(pid)]:
        try:
            with open(f"/proc/{proc}/status") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except OSError:
            continue
    return total_kb / 1024.0


# ---------------------------------------------------------------------------
# Output
# ---------------------------------------------------------------------------
def result_line(
    correct: bool,
    attempted: int,
    failed: int,
    values: Dict[str, float],
    declared: Dict[str, str],
) -> str:
    """The final stdout line: exactly the declared metrics, with units."""
    if set(values) != set(declared):
        missing = sorted(set(declared) - set(values))
        extra = sorted(set(values) - set(declared))
        raise BenchError(f"metric set mismatch: missing {missing}, extra {extra}")
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": {
                name: {"value": float(values[name]), "unit": declared[name]}
                for name in declared
            },
        }
    )


def layer_row(values: Dict[str, float]) -> Dict[str, float]:
    """Every declared per-layer metric: the measured ones, 0 for layers
    the workload never enters."""
    unknown = sorted(set(values) - set(LAYER_METRICS))
    if unknown:
        raise BenchError(f"undeclared layer metrics {unknown}")
    return {name: float(values.get(name, 0.0)) for name in LAYER_METRICS}


def write_trace(processes: List[List[list]]) -> None:
    """``out/trace.json``: every recorded span, one list per process."""
    doc = {
        "fields": ["name", "start_s", "end_s", "cpu_s", "parent", "request_id", "extra"],
        "processes": processes,
    }
    (OUT / "trace.json").write_text(json.dumps(doc, separators=(",", ":")) + "\n")


def repeat_for(seconds: float, once: Callable[[], T]) -> List[T]:
    """Call ``once`` at least once, and again while one more call is
    expected to end within ``seconds`` of the first starting."""
    results: List[T] = []
    t0 = time.perf_counter()
    while True:
        results.append(once())
        elapsed = time.perf_counter() - t0
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def info(*parts: object) -> None:
    """An informational stdout line (never the last line)."""
    print("#", *parts, flush=True)
