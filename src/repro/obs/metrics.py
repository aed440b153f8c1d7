"""Metric primitives and the process-wide registry.

Three classic metric kinds cover everything the pipeline needs to report:

* :class:`Counter` — a monotonically increasing count (cache hits, windows
  processed, clamp events);
* :class:`Gauge` — a last-value-wins measurement (samples/sec of the most
  recent firmware run);
* :class:`Histogram` — a value distribution with quantile summaries
  (worker queue-wait, per-window latencies).

All of them live in a :class:`MetricsRegistry`, which is thread-safe (one
lock guards creation, each metric guards its own mutation) and exports a
plain-``dict`` snapshot / JSON document that downstream tooling — the CLI's
``--metrics-out``, the benchmark harness, and
``scripts/check_bench_regression.py`` — can consume without importing this
package.

Naming convention: ``repro.<module>.<name>`` for top-level metrics and
spans (e.g. ``repro.eval.engine.cache_hits``); nested spans use short
segment names and are joined with ``/`` by the tracer.
"""

from __future__ import annotations

import json
import math
import threading
from typing import Dict, List, Optional, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "SpanStats",
    "MetricsRegistry",
    "SNAPSHOT_VERSION",
    "sorted_quantile",
]

#: Schema version of :meth:`MetricsRegistry.snapshot` documents.
SNAPSHOT_VERSION = 1


class Counter:
    """A monotonically increasing counter."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ValueError(f"counters only go up; got inc({amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """A last-value-wins measurement."""

    __slots__ = ("name", "_value", "_lock")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def add(self, amount: float) -> None:
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


def sorted_quantile(values: Sequence[float], q: float) -> float:
    """Exact quantile of ascending ``values`` (nearest-rank with linear
    interpolation); 0.0 when there are none."""
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not values:
        return 0.0
    pos = q * (len(values) - 1)
    lo = math.floor(pos)
    hi = math.ceil(pos)
    if lo == hi:
        return values[lo]
    frac = pos - lo
    return values[lo] * (1.0 - frac) + values[hi] * frac


class Histogram:
    """A value distribution with exact quantiles.

    Values are kept verbatim (the workloads here observe thousands of
    values, not millions); ``max_samples`` bounds memory by dropping the
    oldest half when the cap is hit, which keeps quantiles representative
    of the recent distribution.
    """

    __slots__ = ("name", "_values", "_count", "_total", "_lock", "max_samples")

    def __init__(self, name: str, max_samples: int = 65536) -> None:
        if max_samples < 2:
            raise ValueError(f"max_samples must be >= 2, got {max_samples}")
        self.name = name
        self.max_samples = max_samples
        self._values: List[float] = []
        self._count = 0
        self._total = 0.0
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        with self._lock:
            self._count += 1
            self._total += value
            self._values.append(float(value))
            if len(self._values) > self.max_samples:
                del self._values[: self.max_samples // 2]

    @property
    def count(self) -> int:
        return self._count

    @property
    def mean(self) -> float:
        return self._total / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Exact quantile (nearest-rank with linear interpolation)."""
        with self._lock:
            values = sorted(self._values)
        return sorted_quantile(values, q)

    def summary(self) -> Dict[str, float]:
        with self._lock:
            values = sorted(self._values)
        if not values:
            return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                    "p50": 0.0, "p90": 0.0, "p99": 0.0}
        return {
            "count": self._count,
            "mean": self._total / self._count,
            "min": values[0],
            "max": values[-1],
            "p50": sorted_quantile(values, 0.50),
            "p90": sorted_quantile(values, 0.90),
            "p99": sorted_quantile(values, 0.99),
        }


class SpanStats:
    """Aggregated timings of one span name (all invocations merged)."""

    __slots__ = (
        "name", "count", "errors", "wall_total", "wall_min", "wall_max",
        "cpu_total", "_lock",
    )

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.errors = 0
        self.wall_total = 0.0
        self.wall_min = math.inf
        self.wall_max = 0.0
        self.cpu_total = 0.0
        self._lock = threading.Lock()

    def record(self, wall: float, cpu: float, error: bool = False) -> None:
        with self._lock:
            self.count += 1
            self.errors += 1 if error else 0
            self.wall_total += wall
            self.wall_min = min(self.wall_min, wall)
            self.wall_max = max(self.wall_max, wall)
            self.cpu_total += cpu

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "errors": self.errors,
            "wall_total_s": self.wall_total,
            "wall_min_s": self.wall_min if self.count else 0.0,
            "wall_max_s": self.wall_max,
            "cpu_total_s": self.cpu_total,
        }


class MetricsRegistry:
    """Thread-safe, process-wide home for all metrics and span aggregates.

    ``counter``/``gauge``/``histogram`` return-or-create by name, so call
    sites never need to pre-register anything.  :meth:`snapshot` produces a
    JSON-safe dict (schema version :data:`SNAPSHOT_VERSION`) and
    :meth:`to_json` its serialized form; ``json.loads(to_json())`` equals
    ``snapshot()`` exactly, which tests rely on.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._spans: Dict[str, SpanStats] = {}

    # -- return-or-create accessors ------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            metric = self._counters.get(name)
            if metric is None:
                metric = self._counters[name] = Counter(name)
            return metric

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            metric = self._gauges.get(name)
            if metric is None:
                metric = self._gauges[name] = Gauge(name)
            return metric

    def histogram(self, name: str, max_samples: int = 65536) -> Histogram:
        with self._lock:
            metric = self._histograms.get(name)
            if metric is None:
                metric = self._histograms[name] = Histogram(name, max_samples)
            return metric

    def span_stats(self, name: str) -> SpanStats:
        with self._lock:
            stats = self._spans.get(name)
            if stats is None:
                stats = self._spans[name] = SpanStats(name)
            return stats

    def record_span(
        self, name: str, wall: float, cpu: float, error: bool = False
    ) -> None:
        self.span_stats(name).record(wall, cpu, error)

    # -- export ---------------------------------------------------------
    def snapshot(self) -> Dict[str, object]:
        """JSON-safe dict of every metric's current state."""
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            spans = dict(self._spans)
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {n: c.value for n, c in sorted(counters.items())},
            "gauges": {n: g.value for n, g in sorted(gauges.items())},
            "histograms": {
                n: h.summary() for n, h in sorted(histograms.items())
            },
            "spans": {n: s.as_dict() for n, s in sorted(spans.items())},
        }

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent, sort_keys=True)

    # -- cross-process transfer -----------------------------------------
    def state_dict(self) -> Dict[str, object]:
        """Lossless, JSON/pickle-safe registry state for merging.

        Unlike :meth:`snapshot` (which summarizes histograms down to
        quantiles), this keeps raw histogram values so a parent process
        can fold worker registries into its own without losing quantile
        fidelity.  Consumed by :meth:`merge_state`; the pair is how
        ``CampaignEngine`` ships per-task metrics across the process
        pool.
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = dict(self._histograms)
            spans = dict(self._spans)
        hist_state: Dict[str, Dict[str, object]] = {}
        for name, h in histograms.items():
            with h._lock:
                hist_state[name] = {
                    "values": list(h._values),
                    "count": h._count,
                    "total": h._total,
                    "max_samples": h.max_samples,
                }
        span_state: Dict[str, Dict[str, float]] = {}
        for name, s in spans.items():
            with s._lock:
                span_state[name] = {
                    "count": s.count,
                    "errors": s.errors,
                    "wall_total": s.wall_total,
                    "wall_min": s.wall_min if s.count else math.inf,
                    "wall_max": s.wall_max,
                    "cpu_total": s.cpu_total,
                }
        return {
            "version": SNAPSHOT_VERSION,
            "counters": {n: c.value for n, c in counters.items()},
            "gauges": {n: g.value for n, g in gauges.items()},
            "histograms": hist_state,
            "spans": span_state,
        }

    def merge_state(self, state: Dict[str, object]) -> None:
        """Fold a :meth:`state_dict` from another registry into this one.

        Counters and histogram observations *add*, span aggregates merge
        (counts/totals sum, min/max widen), gauges are last-write-wins —
        the same semantics each metric kind has within one process.
        """
        version = state.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"cannot merge registry state version {version!r}; "
                f"expected {SNAPSHOT_VERSION}"
            )
        counters = state.get("counters", {})
        assert isinstance(counters, dict)
        for name, value in counters.items():
            if value:
                self.counter(name).inc(float(value))
        gauges = state.get("gauges", {})
        assert isinstance(gauges, dict)
        for name, value in gauges.items():
            self.gauge(name).set(float(value))
        histograms = state.get("histograms", {})
        assert isinstance(histograms, dict)
        for name, hs in histograms.items():
            h = self.histogram(
                name, max_samples=int(hs.get("max_samples", 65536))
            )
            values = [float(v) for v in hs["values"]]
            with h._lock:
                h._count += int(hs["count"])
                h._total += float(hs["total"])
                h._values.extend(values)
                if len(h._values) > h.max_samples:
                    del h._values[: len(h._values) - h.max_samples]
        spans = state.get("spans", {})
        assert isinstance(spans, dict)
        for name, ss in spans.items():
            s = self.span_stats(name)
            with s._lock:
                incoming = int(ss["count"])
                if incoming:
                    s.count += incoming
                    s.errors += int(ss["errors"])
                    s.wall_total += float(ss["wall_total"])
                    s.wall_min = min(s.wall_min, float(ss["wall_min"]))
                    s.wall_max = max(s.wall_max, float(ss["wall_max"]))
                    s.cpu_total += float(ss["cpu_total"])

    def reset(self) -> None:
        """Drop every metric (tests and repeated CLI invocations)."""
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
            self._spans.clear()
