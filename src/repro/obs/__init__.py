"""Observability layer: tracing spans + pipeline metrics (zero deps).

The paper sells NSYNC as a *practical, real-time* IDS and reports its
end-to-end processing-time overhead per sensor (Table 10).  This package is
how the reproduction earns the same claim mechanically: every hot layer of
the sim -> sensor -> sync -> discriminate pipeline carries spans and
metrics, and the aggregate exports as JSON for the CLI (``--metrics-out``),
the benchmark harness (``BENCH_*.json`` snapshots), and the CI
perf-regression gate (``scripts/check_bench_regression.py``).

Design constraints, in order:

1. **Disabled must cost ~nothing.**  Tracing is off by default; every
   entry point checks one module-level boolean and returns a shared
   null object (:data:`~repro.obs.tracing.NULL_SPAN`, :data:`NULL_COUNTER`,
   ...) whose methods are empty.  No clock is read, no dict is touched.
2. **Enabled must be cheap.**  Spans aggregate in place (count / total /
   min / max), never append event lists, so memory stays bounded over a
   million-window campaign.
3. **Zero dependencies.**  ``threading`` + ``time`` + ``json`` only.

Usage::

    from repro import obs

    obs.enable()                    # or REPRO_TRACE=1 in the environment
    with obs.trace("repro.eval.engine.execute"):
        with obs.trace("simulate"):      # nests -> ".../execute/simulate"
            ...
    obs.counter("repro.eval.engine.cache_hits").inc()
    obs.histogram("repro.eval.engine.queue_wait_s").observe(0.8)
    print(obs.to_json())            # or obs.export_metrics("metrics.json")

Naming convention: ``repro.<module>.<name>``; nested spans use short
segment names joined with ``/`` (see :mod:`repro.obs.tracing`).

Two further opt-in layers build on the same null-singleton discipline:
:mod:`repro.obs.events` is the *decision-provenance* event log (per-window
discriminator evidence, alarms, run summaries — ``events.enable(path)`` or
``REPRO_EVENTS=path``), and :func:`enable_chrome_trace` /
:func:`export_chrome_trace` capture spans as Chrome/Perfetto
``trace_event`` JSON for ``ui.perfetto.dev``.

A *live* layer completes the picture: :mod:`repro.obs.telemetry`
exposes everything above over a Prometheus text-exposition endpoint with
a per-stream health registry (``obs.serve_telemetry(port)``,
``REPRO_TELEMETRY=port``, ``repro top``).

Note on multiprocessing: metrics live in the recording process.
``CampaignEngine(workers>=2)`` re-enables recording inside each worker
and merges the per-task registry state back into the parent
(:meth:`MetricsRegistry.merge_state`), so counters/histograms/spans
aggregate across the pool; only the live *telemetry* endpoint remains
per-process.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, Union

from . import events
from .metrics import (
    SNAPSHOT_VERSION,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SpanStats,
)
from .tracing import (
    CHROME_TRACE_MAX_EVENTS,
    NULL_SPAN,
    NullSpan,
    Span,
    chrome_trace_enabled,
    current_span_path,
    disable_chrome_trace,
    enable_chrome_trace,
    export_chrome_trace,
)

__all__ = [
    "events",
    "telemetry",
    "serve_telemetry",
    "stop_telemetry",
    "start_snapshot_exporter",
    "CHROME_TRACE_MAX_EVENTS",
    "chrome_trace_enabled",
    "disable_chrome_trace",
    "enable_chrome_trace",
    "export_chrome_trace",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanStats",
    "Span",
    "NullSpan",
    "NULL_SPAN",
    "SNAPSHOT_VERSION",
    "current_span_path",
    "enabled",
    "enable",
    "disable",
    "trace",
    "counter",
    "gauge",
    "histogram",
    "registry",
    "snapshot",
    "to_json",
    "export_metrics",
    "reset",
    "configure_from_env",
]

ENV_VAR = "REPRO_TRACE"


class _NullCounter:
    """Disabled-path counter: accepts ``inc`` and drops it."""

    __slots__ = ()
    name = ""
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass


class _NullGauge:
    """Disabled-path gauge: accepts ``set``/``add`` and drops them."""

    __slots__ = ()
    name = ""
    value = 0.0

    def set(self, value: float) -> None:
        pass

    def add(self, amount: float) -> None:
        pass


class _NullHistogram:
    """Disabled-path histogram: accepts ``observe`` and drops it."""

    __slots__ = ()
    name = ""
    count = 0
    mean = 0.0

    def observe(self, value: float) -> None:
        pass

    def quantile(self, q: float) -> float:
        return 0.0

    def summary(self) -> Dict[str, float]:
        return {"count": 0, "mean": 0.0, "min": 0.0, "max": 0.0,
                "p50": 0.0, "p90": 0.0, "p99": 0.0}


NULL_COUNTER = _NullCounter()
NULL_GAUGE = _NullGauge()
NULL_HISTOGRAM = _NullHistogram()

_registry = MetricsRegistry()
_enabled = False


def enabled() -> bool:
    """Is instrumentation currently recording?"""
    return _enabled


def enable() -> None:
    """Turn recording on (idempotent); existing metrics are kept."""
    global _enabled
    _enabled = True


def disable() -> None:
    """Turn recording off (idempotent); accumulated metrics are kept."""
    global _enabled
    _enabled = False


def configure_from_env(environ: Dict[str, str] = os.environ) -> bool:
    """Enable/disable from ``REPRO_TRACE`` (1/true/yes/on = enabled)."""
    raw = environ.get(ENV_VAR, "").strip().lower()
    if raw in ("1", "true", "yes", "on"):
        enable()
    elif raw in ("0", "false", "no", "off", ""):
        disable()
    else:
        raise ValueError(
            f"{ENV_VAR} must be a boolean-ish value (0/1/true/false), "
            f"got {raw!r}"
        )
    return _enabled


def trace(name: str) -> Union[Span, NullSpan]:
    """Context manager timing one stage; a shared no-op when disabled."""
    if not _enabled:
        return NULL_SPAN
    return Span(name, _registry)


def counter(name: str) -> Union[Counter, _NullCounter]:
    """Return-or-create the named counter; a shared no-op when disabled."""
    if not _enabled:
        return NULL_COUNTER
    return _registry.counter(name)


def gauge(name: str) -> Union[Gauge, _NullGauge]:
    """Return-or-create the named gauge; a shared no-op when disabled."""
    if not _enabled:
        return NULL_GAUGE
    return _registry.gauge(name)


def histogram(name: str) -> Union[Histogram, _NullHistogram]:
    """Return-or-create the named histogram; a shared no-op when disabled."""
    if not _enabled:
        return NULL_HISTOGRAM
    return _registry.histogram(name)


def registry() -> MetricsRegistry:
    """The process-wide registry (always real, even while disabled)."""
    return _registry


def snapshot() -> Dict[str, object]:
    """JSON-safe dict of everything recorded so far."""
    return _registry.snapshot()


def to_json(indent: int = 2) -> str:
    """The registry snapshot serialized as a JSON document."""
    return _registry.to_json(indent=indent)


def export_metrics(path: Union[str, "os.PathLike"]) -> Path:
    """Write the registry snapshot to ``path`` as JSON; returns the path."""
    out = Path(path)
    if out.parent != Path(""):
        out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(_registry.to_json() + "\n")
    return out


def reset() -> None:
    """Drop all recorded metrics (the enabled/disabled state is kept)."""
    _registry.reset()


# Honour REPRO_TRACE at import time so any entry point (CLI, pytest,
# benchmarks) can be traced without code changes.
if os.environ.get(ENV_VAR):
    configure_from_env()

# Imported last: telemetry's import-time REPRO_TELEMETRY hook may call
# back into ``enable()`` above, which must already exist.
from . import telemetry  # noqa: E402


def serve_telemetry(
    port: int = 0, host: str = "127.0.0.1"
) -> "telemetry.TelemetryServer":
    """Start the live Prometheus/JSON telemetry endpoint (see
    :func:`repro.obs.telemetry.serve`); implies :func:`enable`."""
    return telemetry.serve(port=port, host=host)


def stop_telemetry() -> None:
    """Shut the telemetry endpoint down (idempotent)."""
    telemetry.stop()


def start_snapshot_exporter(
    path: Union[str, "os.PathLike"], interval_s: float = 5.0
) -> "telemetry.SnapshotExporter":
    """Start the periodic telemetry file exporter (see
    :class:`repro.obs.telemetry.SnapshotExporter`)."""
    return telemetry.start_snapshot_exporter(path, interval_s=interval_s)
