"""Steady-state :class:`DetectionEngine` throughput measurement.

Single-core speed *is* the product for the detection core (ROADMAP item
2): the engine is single-threaded, so samples/s here **is** samples/s/core
and directly bounds streams/core for the planned fleet ingest service.
This module owns the workload definition and the measurement procedure;
``benchmarks/bench_engine_throughput.py`` records the numbers into the
regression-gated history and ``repro bench throughput`` prints them on
demand.

Measurement semantics
---------------------

* **streaming** — chunked :meth:`DetectionEngine.push` at a DAQ-realistic
  chunk size (default 10 samples at 200 Hz = 50 ms of signal per push);
  the timed region is the push loop only (steady state), not engine
  construction or :meth:`finalize`.
* **batch** — one push of the whole signal.
* **cold** vs **warm** — cold is the first in-process run (includes lazy
  allocations and kernel dispatch warm-up); warm is the best of
  ``repeats`` subsequent runs.  Only the warm numbers are regression-
  gated: cold is dominated by one-time costs that say nothing about the
  hot path.
* **disabled-obs overhead** — the streaming run is re-timed with the
  ``obs`` module swapped for a probe whose ``enabled()`` is hard-wired
  ``False`` and whose instrument factories *count* every touch.  The
  probe run measures a build with no observability registry at all, so
  ``t_normal / t_probe - 1`` is the overhead the disabled obs layer adds
  to ``push()``; the touch count asserts structurally that the disabled
  hot path never enters a span or resolves a counter.  The engine holds
  no per-stream health row at all (the stream's owner feeds it), so the
  ``obs`` swap is the whole probe.
* **chunk latency** — per-chunk ``push()`` wall latency (p50/p99, ms) is
  measured in a *separate* untimed pass so the latency bookkeeping never
  perturbs the gated samples/s numbers.  These are the SLO numbers the
  live telemetry endpoint exports per stream; recording them into the
  benchmark history puts a lower-is-better regression gate on them too.
"""

from __future__ import annotations

import contextlib
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from ..core.discriminator import Thresholds
from ..core.engine import DetectionEngine
from ..signals.signal import Signal
from ..sync.dwm import DwmParams, DwmSynchronizer

__all__ = [
    "RECORD_NAME",
    "ThroughputWorkload",
    "measure_engine_throughput",
    "count_hot_path_obs_calls",
    "load_baseline_record",
    "render_comparison",
]

#: Record name under which benchmarks/results/BENCH_engine_throughput.json
#: accumulates measurements (one record per benchmark run).
RECORD_NAME = "engine_throughput"

#: The warm samples/s/core fields, i.e. the regression-gated measurements.
WARM_FIELDS = (
    "streaming_warm_samples_per_s",
    "batch_warm_samples_per_s",
)

#: Lower-is-better per-chunk push-latency fields (also regression-gated).
LATENCY_FIELDS = (
    "streaming_chunk_p50_ms",
    "streaming_chunk_p99_ms",
)


@dataclass(frozen=True)
class ThroughputWorkload:
    """A deterministic, textured single-channel detection workload.

    The signal is a two-tone sine mixture plus noise — textured enough
    that the sanitize stage's dark-run tracker stays on its general-case
    footing (a constant signal would be one giant dark run) and the DWM
    search finds genuine correlation peaks.
    """

    sample_rate: float = 200.0
    n_samples: int = 40_000
    chunk_samples: int = 10
    t_win: float = 1.0
    t_hop: float = 0.5
    t_ext: float = 0.5
    t_sigma: float = 0.25
    eta: float = 0.2
    seed: int = 7

    def signals(self) -> Tuple[Signal, np.ndarray]:
        """Build the (reference, observed) pair for this workload."""
        rng = np.random.default_rng(self.seed)
        n = self.n_samples
        t = np.arange(n) / self.sample_rate
        base = (
            np.sin(2 * np.pi * 1.3 * t)
            + 0.5 * np.sin(2 * np.pi * 5.1 * t + 0.7)
            + 0.2 * rng.standard_normal(n)
        )
        reference = Signal(base[:, np.newaxis].copy(), self.sample_rate)
        observed = (base + 0.05 * rng.standard_normal(n))[:, np.newaxis]
        return reference, observed.copy()

    def engine(self, reference: Signal) -> DetectionEngine:
        params = DwmParams(
            t_win=self.t_win,
            t_hop=self.t_hop,
            t_ext=self.t_ext,
            t_sigma=self.t_sigma,
            eta=self.eta,
        )
        thresholds = Thresholds(c_c=50.0, h_c=20.0, v_c=0.5)
        return DetectionEngine(reference, DwmSynchronizer(params), thresholds)


def _push_loop(
    engine: DetectionEngine, workload: ThroughputWorkload, observed: np.ndarray
) -> float:
    """Seconds spent inside the chunked push loop (steady state only)."""
    chunk = workload.chunk_samples
    n = workload.n_samples
    t0 = time.perf_counter()
    for s in range(0, n, chunk):
        engine.push(observed[s : s + chunk])
    return time.perf_counter() - t0


def _chunk_latencies(
    workload: ThroughputWorkload, reference: Signal, observed: np.ndarray
) -> np.ndarray:
    """Per-chunk ``push()`` wall latencies (seconds), one warm pass.

    Runs *outside* the timed throughput loops: the per-chunk clock reads
    here would otherwise perturb the gated samples/s numbers.
    """
    engine = workload.engine(reference)
    chunk = workload.chunk_samples
    n = workload.n_samples
    latencies = np.empty(-(-n // chunk), dtype=np.float64)
    for i, s in enumerate(range(0, n, chunk)):
        t0 = time.perf_counter()
        engine.push(observed[s : s + chunk])
        latencies[i] = time.perf_counter() - t0
    engine.finalize()
    return latencies


def _time_streaming(
    workload: ThroughputWorkload, reference: Signal, observed: np.ndarray
) -> float:
    """Seconds spent inside the chunked push loop (steady state)."""
    engine = workload.engine(reference)
    dt = _push_loop(engine, workload, observed)
    engine.finalize()
    return dt


def _time_batch(
    workload: ThroughputWorkload, reference: Signal, observed: np.ndarray
) -> float:
    """Seconds spent pushing the whole signal at once."""
    engine = workload.engine(reference)
    t0 = time.perf_counter()
    engine.push(observed)
    dt = time.perf_counter() - t0
    engine.finalize()
    return dt


class _NullSpan:
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> None:
        return None


class _NullInstrument:
    def inc(self, value: int = 1) -> None:
        return None

    def set(self, value: float) -> None:
        return None

    def observe(self, value: float) -> None:
        return None


class _ObsProbe:
    """An ``obs``-module lookalike with no registry behind it.

    ``enabled()`` is hard-wired ``False`` (the one check the hoisted fast
    path is allowed to make); every *other* touch — entering a span or
    resolving a counter/gauge/histogram — bumps ``touches``.  A correctly
    hoisted hot path therefore times identically to the real disabled
    ``obs`` module and finishes with ``touches == 0``.
    """

    def __init__(self) -> None:
        self.touches = 0
        self._span = _NullSpan()
        self._instrument = _NullInstrument()

    @staticmethod
    def enabled() -> bool:
        return False

    def trace(self, name: str) -> _NullSpan:
        self.touches += 1
        return self._span

    def counter(self, name: str) -> _NullInstrument:
        self.touches += 1
        return self._instrument

    def gauge(self, name: str) -> _NullInstrument:
        self.touches += 1
        return self._instrument

    def histogram(self, name: str) -> _NullInstrument:
        self.touches += 1
        return self._instrument


@contextlib.contextmanager
def _patched_obs(probe: _ObsProbe) -> Iterator[None]:
    """Swap the ``obs`` module seen by the hot path for ``probe``."""
    import importlib

    modules = tuple(
        importlib.import_module(f"repro.{name}")
        for name in ("core.engine", "core.comparator", "sync.dwm", "sync.tde")
    )
    saved = [m.obs for m in modules]
    for m in modules:
        m.obs = probe  # type: ignore[misc]
    try:
        yield
    finally:
        for m, original in zip(modules, saved):
            m.obs = original  # type: ignore[misc]


def count_hot_path_obs_calls(
    workload: Optional[ThroughputWorkload] = None,
) -> int:
    """Obs-layer touches made by a disabled-observability streaming run.

    Returns the number of span entries / instrument resolutions the
    ``push()`` hot path performed with observability disabled — 0 when
    the fast path is correctly hoisted (asserted by the benchmark).  Only
    the push loop is probed: construction and :meth:`finalize` run once
    per stream and may legitimately keep their (null) spans.
    """
    w = workload or ThroughputWorkload(n_samples=2_000)
    reference, observed = w.signals()
    probe = _ObsProbe()
    with _patched_obs(probe):
        engine = w.engine(reference)
        probe.touches = 0  # construction itself is not the hot path
        _push_loop(engine, w, observed)
        touches = probe.touches
    engine.finalize()
    return touches


def measure_engine_throughput(
    workload: Optional[ThroughputWorkload] = None, repeats: int = 3
) -> Dict[str, object]:
    """Measure batch + streaming engine throughput (samples/s/core).

    Returns a JSON-safe record (see module docstring for field
    semantics) ready to append to ``BENCH_engine_throughput.json``.
    """
    from .. import obs

    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    w = workload or ThroughputWorkload()
    reference, observed = w.signals()
    was_enabled = obs.enabled()
    obs.disable()
    try:
        stream_cold = _time_streaming(w, reference, observed)
        stream_warm = min(
            _time_streaming(w, reference, observed) for _ in range(repeats)
        )
        batch_cold = _time_batch(w, reference, observed)
        batch_warm = min(
            _time_batch(w, reference, observed) for _ in range(repeats)
        )
        probe = _ObsProbe()
        with _patched_obs(probe):
            engines = [w.engine(reference) for _ in range(repeats)]
            probe.touches = 0  # construction is not the hot path
            no_obs = min(
                _push_loop(engine, w, observed) for engine in engines
            )
            hot_path_calls = probe.touches
        for engine in engines:
            engine.finalize()
        latencies = _chunk_latencies(w, reference, observed)
    finally:
        if was_enabled:
            obs.enable()
    n = float(w.n_samples)
    return {
        "name": RECORD_NAME,
        "streaming_cold_samples_per_s": n / stream_cold,
        "streaming_warm_samples_per_s": n / stream_warm,
        "batch_cold_samples_per_s": n / batch_cold,
        "batch_warm_samples_per_s": n / batch_warm,
        "streaming_chunk_p50_ms": float(np.percentile(latencies, 50) * 1e3),
        "streaming_chunk_p99_ms": float(np.percentile(latencies, 99) * 1e3),
        "disabled_obs_overhead": max(0.0, stream_warm / no_obs - 1.0),
        "hot_path_obs_calls": int(hot_path_calls),
        "chunk_samples": int(w.chunk_samples),
        "n_samples": int(w.n_samples),
        "sample_rate": float(w.sample_rate),
        "cpu_count": os.cpu_count(),
    }


def load_baseline_record(path: Path) -> Optional[Dict[str, object]]:
    """First committed ``engine_throughput`` record of a history file.

    The first record is the committed baseline (the same convention
    ``scripts/check_bench_regression.py`` gates against); returns ``None``
    when the file is missing, unreadable, or has no matching record.
    """
    try:
        history = json.loads(Path(path).read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(history, list):
        return None
    for record in history:
        if isinstance(record, dict) and record.get("name") == RECORD_NAME:
            return record
    return None


def render_comparison(
    record: Dict[str, object], baseline: Optional[Dict[str, object]]
) -> str:
    """Human-readable samples/s/core table, with baseline ratios if any."""
    lines: List[str] = []
    same_machine = baseline is not None and baseline.get(
        "cpu_count"
    ) == record.get("cpu_count")
    for field in (
        "streaming_warm_samples_per_s",
        "streaming_cold_samples_per_s",
        "batch_warm_samples_per_s",
        "batch_cold_samples_per_s",
    ):
        value = float(record[field])  # type: ignore[arg-type]
        line = f"{field:34s} {value:12,.0f}"
        if baseline is not None and isinstance(
            baseline.get(field), (int, float)
        ):
            ref = float(baseline[field])  # type: ignore[arg-type]
            if ref > 0 and same_machine:
                line += f"   {value / ref:6.2f}x vs baseline ({ref:,.0f})"
            elif ref > 0:
                line += f"   (baseline {ref:,.0f}; different machine)"
        lines.append(line)
    for field in LATENCY_FIELDS:
        if field not in record:
            continue
        value = float(record[field])  # type: ignore[arg-type]
        line = f"{field:34s} {value:12.3f}"
        if baseline is not None and isinstance(
            baseline.get(field), (int, float)
        ):
            ref = float(baseline[field])  # type: ignore[arg-type]
            if ref > 0 and same_machine:
                line += f"   {value / ref:6.2f}x vs baseline ({ref:.3f})"
            elif ref > 0:
                line += f"   (baseline {ref:.3f}; different machine)"
        lines.append(line)
    overhead = float(record["disabled_obs_overhead"])  # type: ignore[arg-type]
    lines.append(f"{'disabled_obs_overhead':34s} {overhead:12.2%}")
    lines.append(
        f"{'hot_path_obs_calls':34s} {int(record['hot_path_obs_calls']):12d}"  # type: ignore[call-overload]
    )
    if baseline is None:
        lines.append("(no stored baseline to compare against)")
    return "\n".join(lines)
