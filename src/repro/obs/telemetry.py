"""Live operational telemetry: Prometheus exposition + per-stream health.

The metrics registry (:mod:`repro.obs.metrics`) and the event log answer
questions *after* a run; this module answers them **while the detector is
running** — the introspection surface a long-lived multi-stream service
(ROADMAP item 1) is operated through.  Three pieces:

* **Prometheus text exposition** — :func:`render_prometheus` renders the
  process-wide registry plus the per-stream health registry in the
  Prometheus text format (version 0.0.4), and :func:`serve` /
  ``obs.serve_telemetry(port)`` exposes it at ``/metrics`` from a
  ``ThreadingHTTPServer`` on a background daemon thread (``/snapshot.json``
  serves the JSON document ``repro top`` consumes, ``/healthz`` a liveness
  probe).  For scrape-less environments :func:`start_snapshot_exporter`
  periodically writes the same documents to a file (atomic
  write-then-rename, so readers never see a torn snapshot).
* **Per-stream health** — the owner of a detection stream (the fleet
  server for each served printer, ``repro detect --stream`` for its one
  stream) registers a :class:`StreamHealth` row in the process-wide
  :class:`StreamHealthRegistry` and feeds it from every push result:
  ingest lag vs. real time, per-chunk push-latency quantiles
  (p50/p95/p99), samples/s, windows scored, quarantine and SENSOR_FAULT
  state, and the last alert.
* **Metric-name schema** — registry names (``repro.core.engine.samples``)
  map to Prometheus names by replacing every non-``[a-zA-Z0-9_:]`` rune
  with ``_``; counters gain a ``_total`` suffix, histograms render as
  summaries (``{quantile="..."}`` + ``_count``/``_sum``), spans render as
  ``repro_span_*{span="<qualified>"}`` families, and per-stream series as
  ``repro_stream_*{stream="<id>"}`` (see :data:`STREAM_FAMILIES`).

The detection engine itself never touches this module: rows are fed by
the stream's owner whether or not observability is enabled, so the row
reads the same in every mode while the engine's disabled hot path stays
free of obs calls (structurally asserted by
``benchmarks/bench_engine_throughput.py``).  Zero dependencies:
``http.server`` + ``threading`` + ``json`` only.

Environment: ``REPRO_TELEMETRY=<port>`` (or ``<host>:<port>``) starts the
endpoint at import time; ``REPRO_TELEMETRY_SNAPSHOT=<path>`` starts the
file exporter (interval ``REPRO_TELEMETRY_INTERVAL`` seconds, default 5;
a ``.prom`` suffix selects text exposition instead of JSON).
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from collections import deque
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple, Union

from .metrics import sorted_quantile

__all__ = [
    "ENV_VAR",
    "SNAPSHOT_ENV_VAR",
    "INTERVAL_ENV_VAR",
    "TELEMETRY_SCHEMA_VERSION",
    "STREAM_FAMILIES",
    "StreamHealth",
    "StreamHealthRegistry",
    "streams",
    "register_stream",
    "unregister_stream",
    "reset_streams",
    "set_service_stats",
    "clear_service_stats",
    "service_stats",
    "prometheus_name",
    "render_prometheus",
    "telemetry_document",
    "TelemetryServer",
    "serve",
    "stop",
    "active_server",
    "SnapshotExporter",
    "start_snapshot_exporter",
    "configure_from_env",
]

#: Environment variable naming the exposition port (``port`` or
#: ``host:port``); honoured at import time.
ENV_VAR = "REPRO_TELEMETRY"

#: Environment variable naming the periodic snapshot file.
SNAPSHOT_ENV_VAR = "REPRO_TELEMETRY_SNAPSHOT"

#: Environment variable setting the snapshot interval in seconds.
INTERVAL_ENV_VAR = "REPRO_TELEMETRY_INTERVAL"

#: Schema version of :func:`telemetry_document` payloads.
TELEMETRY_SCHEMA_VERSION = 1

#: Latency quantiles exported per stream (the SLO numbers).
_QUANTILES = (0.5, 0.95, 0.99)

#: The per-stream Prometheus families: ``(family, type, help)``.  Every
#: family carries a ``stream="<id>"`` label; this tuple is the contract
#: ``scripts/validate_telemetry.py`` checks against.
STREAM_FAMILIES: Tuple[Tuple[str, str, str], ...] = (
    ("repro_stream_up", "gauge",
     "1 while the stream's engine is live, 0 once finalized"),
    ("repro_stream_samples_total", "counter",
     "samples ingested by the stream's detection engine"),
    ("repro_stream_chunks_total", "counter",
     "chunks pushed into the stream's detection engine"),
    ("repro_stream_windows_total", "counter",
     "synchronized indexes (analysis windows) scored so far"),
    ("repro_stream_alerts_total", "counter",
     "alerts raised by the stream so far"),
    ("repro_stream_quarantined_windows_total", "counter",
     "windows whose input samples had to be repaired"),
    ("repro_stream_sensor_fault", "gauge",
     "1 once the fail-closed SENSOR_FAULT verdict fired"),
    ("repro_stream_ingest_lag_seconds", "gauge",
     "wall-clock time behind a real-time stream (0 when keeping up)"),
    ("repro_stream_staleness_seconds", "gauge",
     "seconds since the last chunk arrived"),
    ("repro_stream_samples_per_second", "gauge",
     "average ingest rate since the stream registered"),
    ("repro_stream_last_alert_timestamp_seconds", "gauge",
     "unix time of the most recent alert (absent before the first)"),
    ("repro_stream_chunk_latency_seconds", "summary",
     "per-chunk DetectionEngine.push wall latency"),
)

#: How many of a stream's latest chunk latencies its quantiles cover: big
#: enough for stable p99 at DAQ chunk rates, bounded so a week-long
#: stream cannot grow memory.
_LATENCY_SAMPLES = 8192


class StreamHealth:
    """Live health row of one detection stream (thread-safe).

    All mutation happens through :meth:`observe_chunk` /
    :meth:`note_alert` / :meth:`mark_finished`, called by the stream's
    owner after each push and once the engine finalized.
    """

    def __init__(self, stream_id: str, sample_rate: float) -> None:
        if not stream_id:
            raise ValueError("stream_id must be a non-empty string")
        if sample_rate <= 0:
            raise ValueError(f"sample_rate must be > 0, got {sample_rate}")
        self.stream_id = stream_id
        self.sample_rate = float(sample_rate)
        self._lock = threading.Lock()
        self._created_ts = time.time()
        self._created_mono = time.perf_counter()
        self._last_push_mono = self._created_mono
        self._samples = 0
        self._chunks = 0
        self._windows = 0
        self._quarantined = 0
        self._sensor_fault = False
        self._alerts = 0
        self._last_alert: Optional[Dict[str, object]] = None
        self._finished = False
        self._intrusion: Optional[bool] = None
        # The latest per-chunk push latencies, kept under the row's own
        # lock: one lock and no extra object per chunk on the ingest path.
        self._latency: Deque[float] = deque(maxlen=_LATENCY_SAMPLES)
        self._latency_total = 0.0

    # ------------------------------------------------------------------
    def observe_chunk(
        self,
        n_samples: int,
        latency_s: float,
        n_indexes: int,
        n_quarantined: int,
        sensor_fault: bool,
    ) -> None:
        """Record one ``push()``: volume, latency, progress.

        Runs once per chunk on the owner's ingest path, so it takes plain
        Python numbers as they are and reads one clock; the wall-clock
        push time is derived when a snapshot is taken.
        """
        with self._lock:
            self._samples += n_samples
            self._chunks += 1
            self._windows = n_indexes
            self._quarantined = n_quarantined
            self._sensor_fault = sensor_fault
            self._last_push_mono = time.perf_counter()
            self._latency.append(latency_s)
            self._latency_total += latency_s

    def note_alert(self, submodule: str, time_s: float) -> None:
        """Record one raised alert."""
        with self._lock:
            self._alerts += 1
            self._last_alert = {
                "submodule": str(submodule),
                "time_s": float(time_s),
                "ts": time.time(),
            }

    def mark_finished(self, intrusion: Optional[bool] = None) -> None:
        """Freeze the row once the stream's engine finalized."""
        with self._lock:
            self._finished = True
            if intrusion is not None:
                self._intrusion = bool(intrusion)

    # ------------------------------------------------------------------
    def snapshot(self, now: Optional[float] = None) -> Dict[str, object]:
        """JSON-safe view of the row (quantiles computed on demand)."""
        mono = time.perf_counter()
        wall = time.time() if now is None else float(now)
        with self._lock:
            samples = self._samples
            elapsed = max(mono - self._created_mono, 1e-9)
            lag = max(0.0, elapsed - samples / self.sample_rate)
            staleness = mono - self._last_push_mono
            doc: Dict[str, object] = {
                "stream_id": self.stream_id,
                "state": "finished" if self._finished else "live",
                "sample_rate": self.sample_rate,
                "created_ts": self._created_ts,
                "last_push_ts": (
                    self._created_ts + (self._last_push_mono - self._created_mono)
                    if self._chunks
                    else None
                ),
                "samples": samples,
                "chunks": self._chunks,
                "windows": self._windows,
                "quarantined_windows": self._quarantined,
                "sensor_fault": self._sensor_fault,
                "alerts": self._alerts,
                "last_alert": dict(self._last_alert)
                if self._last_alert is not None
                else None,
                "intrusion": self._intrusion,
                "samples_per_s": samples / elapsed,
                "ingest_lag_s": lag,
                "staleness_s": staleness,
                "snapshot_ts": wall,
            }
            chunks = self._chunks
            latency_total = self._latency_total
            latencies = list(self._latency)
        latencies.sort()
        doc["chunk_latency"] = {
            "count": chunks,
            "mean_s": latency_total / chunks if chunks else 0.0,
            **{
                f"p{int(q * 100)}_s": sorted_quantile(latencies, q)
                for q in _QUANTILES
            },
        }
        return doc


class StreamHealthRegistry:
    """Process-wide, thread-safe home of every stream's health row."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._streams: Dict[str, StreamHealth] = {}

    def register(self, stream_id: str, sample_rate: float) -> StreamHealth:
        """Create (or replace) the row for ``stream_id`` and return it.

        Re-registering an id starts a fresh row: a restarted print on the
        same printer is a new stream, not a continuation of the old one.
        """
        row = StreamHealth(stream_id, sample_rate)
        with self._lock:
            self._streams[stream_id] = row
        return row

    def get(self, stream_id: str) -> Optional[StreamHealth]:
        with self._lock:
            return self._streams.get(stream_id)

    def unregister(self, stream_id: str) -> bool:
        """Drop a row; returns whether it existed."""
        with self._lock:
            return self._streams.pop(stream_id, None) is not None

    def ids(self) -> List[str]:
        with self._lock:
            return sorted(self._streams)

    def __len__(self) -> int:
        with self._lock:
            return len(self._streams)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """JSON-safe ``{stream_id: row_snapshot}`` of every stream."""
        with self._lock:
            rows = list(self._streams.values())
        now = time.time()
        return {row.stream_id: row.snapshot(now=now) for row in rows}

    def reset(self) -> None:
        with self._lock:
            self._streams.clear()


_streams = StreamHealthRegistry()


def streams() -> StreamHealthRegistry:
    """The process-wide stream-health registry."""
    return _streams


def register_stream(stream_id: str, sample_rate: float) -> StreamHealth:
    """Module-level shortcut for ``streams().register(...)``."""
    return _streams.register(stream_id, sample_rate)


def unregister_stream(stream_id: str) -> bool:
    """Module-level shortcut for ``streams().unregister(...)``."""
    return _streams.unregister(stream_id)


def reset_streams() -> None:
    """Drop every stream row (tests and repeated CLI invocations)."""
    _streams.reset()


# ---------------------------------------------------------------------------
# Service-level stats (the fleet service's gauges: live streams, shard
# queue depth, ...).  The service registers a provider callable returning
# a flat {stat: number} dict; each key renders as a ``repro_serve_<stat>``
# gauge in the exposition and rides along as the ``service`` section of
# :func:`telemetry_document`.  A provider keeps the coupling one-way:
# telemetry knows nothing about repro.serve, and a crashed/stopped service
# simply clears its provider.
# ---------------------------------------------------------------------------
_service_stats_lock = threading.Lock()
_service_stats_provider: Optional[Callable[[], Dict[str, float]]] = None


def set_service_stats(provider: Callable[[], Dict[str, float]]) -> None:
    """Install the service-stats provider (latest registration wins)."""
    global _service_stats_provider
    with _service_stats_lock:
        _service_stats_provider = provider


def clear_service_stats() -> None:
    """Remove the provider (service shut down); idempotent."""
    global _service_stats_provider
    with _service_stats_lock:
        _service_stats_provider = None


def service_stats() -> Optional[Dict[str, float]]:
    """The current service-stats dict, or ``None`` when no service runs.

    A provider that raises is treated as absent: the scrape must never
    fail because the service is mid-shutdown.
    """
    with _service_stats_lock:
        provider = _service_stats_provider
    if provider is None:
        return None
    try:
        stats = provider()
    except Exception:
        return None
    return {
        str(k): float(v)
        for k, v in stats.items()
        if isinstance(v, (int, float))
    }


# ---------------------------------------------------------------------------
# Prometheus text exposition (format version 0.0.4)
# ---------------------------------------------------------------------------
_NAME_OK = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_NAME_FIX = re.compile(r"[^a-zA-Z0-9_:]")


def prometheus_name(name: str) -> str:
    """Map a registry metric name onto the Prometheus grammar.

    ``repro.core.engine.samples`` -> ``repro_core_engine_samples``; any
    rune outside ``[a-zA-Z0-9_:]`` becomes ``_`` and a leading digit gains
    a ``_`` prefix.  The mapping is stable (pure function of the input),
    which is what makes dashboards and alert rules durable across PRs.
    """
    fixed = _NAME_FIX.sub("_", name)
    if not fixed or fixed[0].isdigit():
        fixed = "_" + fixed
    assert _NAME_OK.match(fixed), fixed
    return fixed


def _escape_label(value: str) -> str:
    """Escape a label value per the exposition-format grammar."""
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _fmt(value: float) -> str:
    """Render one sample value (repr keeps float round-trip fidelity)."""
    if value != value:  # NaN
        return "NaN"
    if value in (float("inf"), float("-inf")):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


class _PromDoc:
    """Accumulates families + samples in exposition order."""

    def __init__(self) -> None:
        self.lines: List[str] = []
        self._seen: set = set()

    def family(self, name: str, mtype: str, help_text: str) -> None:
        if name in self._seen:
            return
        self._seen.add(name)
        self.lines.append(f"# HELP {name} {help_text}")
        self.lines.append(f"# TYPE {name} {mtype}")

    def sample(
        self,
        name: str,
        value: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        if labels:
            body = ",".join(
                f'{k}="{_escape_label(v)}"' for k, v in labels.items()
            )
            self.lines.append(f"{name}{{{body}}} {_fmt(value)}")
        else:
            self.lines.append(f"{name} {_fmt(value)}")

    def render(self) -> str:
        return "\n".join(self.lines) + "\n"


def _render_registry(doc: _PromDoc, snapshot: Dict[str, object]) -> None:
    """Counters/gauges/histograms/spans of one registry snapshot."""
    counters = snapshot.get("counters", {})
    assert isinstance(counters, dict)
    for name, value in counters.items():
        prom = prometheus_name(name) + "_total"
        doc.family(prom, "counter", f"registry counter {name}")
        doc.sample(prom, float(value))
    gauges = snapshot.get("gauges", {})
    assert isinstance(gauges, dict)
    for name, value in gauges.items():
        prom = prometheus_name(name)
        doc.family(prom, "gauge", f"registry gauge {name}")
        doc.sample(prom, float(value))
    histograms = snapshot.get("histograms", {})
    assert isinstance(histograms, dict)
    for name, summary in histograms.items():
        prom = prometheus_name(name)
        doc.family(prom, "summary", f"registry histogram {name}")
        count = float(summary.get("count", 0))
        mean = float(summary.get("mean", 0.0))
        for q in ("p50", "p90", "p99"):
            if q in summary:
                doc.sample(
                    prom,
                    float(summary[q]),
                    {"quantile": f"0.{q[1:]}"},
                )
        doc.sample(prom + "_count", count)
        doc.sample(prom + "_sum", mean * count)
    spans = snapshot.get("spans", {})
    assert isinstance(spans, dict)
    if spans:
        doc.family(
            "repro_span_calls_total", "counter", "span invocations"
        )
        doc.family("repro_span_errors_total", "counter", "span errors")
        doc.family(
            "repro_span_wall_seconds_total", "counter",
            "cumulative span wall time",
        )
        doc.family(
            "repro_span_cpu_seconds_total", "counter",
            "cumulative span CPU time",
        )
        for name, stats in spans.items():
            label = {"span": name}
            doc.sample(
                "repro_span_calls_total", float(stats["count"]), label
            )
            doc.sample(
                "repro_span_errors_total", float(stats["errors"]), label
            )
            doc.sample(
                "repro_span_wall_seconds_total",
                float(stats["wall_total_s"]),
                label,
            )
            doc.sample(
                "repro_span_cpu_seconds_total",
                float(stats["cpu_total_s"]),
                label,
            )


def _render_streams(
    doc: _PromDoc, rows: Dict[str, Dict[str, object]]
) -> None:
    """The fixed per-stream families over every registered stream."""
    for family, mtype, help_text in STREAM_FAMILIES:
        doc.family(family, mtype, help_text)
    for stream_id in sorted(rows):
        row = rows[stream_id]
        label = {"stream": stream_id}
        doc.sample(
            "repro_stream_up", 0.0 if row["state"] == "finished" else 1.0,
            label,
        )
        doc.sample(
            "repro_stream_samples_total", float(row["samples"]), label  # type: ignore[arg-type]
        )
        doc.sample(
            "repro_stream_chunks_total", float(row["chunks"]), label  # type: ignore[arg-type]
        )
        doc.sample(
            "repro_stream_windows_total", float(row["windows"]), label  # type: ignore[arg-type]
        )
        doc.sample(
            "repro_stream_alerts_total", float(row["alerts"]), label  # type: ignore[arg-type]
        )
        doc.sample(
            "repro_stream_quarantined_windows_total",
            float(row["quarantined_windows"]),  # type: ignore[arg-type]
            label,
        )
        doc.sample(
            "repro_stream_sensor_fault",
            1.0 if row["sensor_fault"] else 0.0,
            label,
        )
        doc.sample(
            "repro_stream_ingest_lag_seconds",
            float(row["ingest_lag_s"]),  # type: ignore[arg-type]
            label,
        )
        doc.sample(
            "repro_stream_staleness_seconds",
            float(row["staleness_s"]),  # type: ignore[arg-type]
            label,
        )
        doc.sample(
            "repro_stream_samples_per_second",
            float(row["samples_per_s"]),  # type: ignore[arg-type]
            label,
        )
        # Always emitted (0.0 = never alerted) so alert-free streams still
        # expose the full family set the telemetry contract promises.
        last_alert = row.get("last_alert")
        doc.sample(
            "repro_stream_last_alert_timestamp_seconds",
            float(last_alert["ts"])  # type: ignore[arg-type]
            if isinstance(last_alert, dict)
            else 0.0,
            label,
        )
        latency = row.get("chunk_latency")
        if isinstance(latency, dict):
            for q in _QUANTILES:
                doc.sample(
                    "repro_stream_chunk_latency_seconds",
                    float(latency[f"p{int(q * 100)}_s"]),
                    {**label, "quantile": repr(q)},
                )
            count = float(latency["count"])
            doc.sample(
                "repro_stream_chunk_latency_seconds_count", count, label
            )
            doc.sample(
                "repro_stream_chunk_latency_seconds_sum",
                float(latency["mean_s"]) * count,
                label,
            )


def render_prometheus(
    metrics_snapshot: Optional[Dict[str, object]] = None,
    stream_rows: Optional[Dict[str, Dict[str, object]]] = None,
) -> str:
    """The whole process as one Prometheus text-exposition document.

    Defaults to the live process-wide registries; pass explicit snapshots
    to render saved state (``repro top --snapshot`` does).
    """
    from . import snapshot as obs_snapshot  # late: avoid import cycle

    doc = _PromDoc()
    doc.family(
        "repro_telemetry_info", "gauge", "telemetry schema information"
    )
    doc.sample(
        "repro_telemetry_info",
        1.0,
        {"version": str(TELEMETRY_SCHEMA_VERSION)},
    )
    _render_registry(
        doc,
        metrics_snapshot if metrics_snapshot is not None else obs_snapshot(),
    )
    _render_streams(
        doc,
        stream_rows if stream_rows is not None else _streams.snapshot(),
    )
    stats = service_stats()
    if stats is not None:
        for key in sorted(stats):
            prom = prometheus_name(f"repro_serve_{key}")
            doc.family(prom, "gauge", f"fleet service stat {key}")
            doc.sample(prom, stats[key])
    return doc.render()


def telemetry_document() -> Dict[str, object]:
    """The live JSON telemetry snapshot (``repro top``'s wire format)."""
    from . import snapshot as obs_snapshot  # late: avoid import cycle

    doc: Dict[str, object] = {
        "v": TELEMETRY_SCHEMA_VERSION,
        "ts": time.time(),
        "metrics": obs_snapshot(),
        "streams": _streams.snapshot(),
    }
    stats = service_stats()
    if stats is not None:
        doc["service"] = stats
    return doc


# ---------------------------------------------------------------------------
# HTTP exposition endpoint
# ---------------------------------------------------------------------------
class _TelemetryHandler(BaseHTTPRequestHandler):
    """Serves /metrics (text exposition), /snapshot.json, /healthz."""

    server_version = "repro-telemetry/1"

    def _reply(self, code: int, body: bytes, content_type: str) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def do_GET(self) -> None:  # noqa: N802  (http.server API)
        path = self.path.split("?", 1)[0]
        if path in ("/metrics", "/"):
            self._reply(
                200,
                render_prometheus().encode("utf-8"),
                "text/plain; version=0.0.4; charset=utf-8",
            )
        elif path == "/snapshot.json":
            body = json.dumps(telemetry_document()).encode("utf-8")
            self._reply(200, body, "application/json")
        elif path == "/healthz":
            self._reply(200, b"ok\n", "text/plain; charset=utf-8")
        else:
            self._reply(404, b"not found\n", "text/plain; charset=utf-8")

    def log_message(self, format: str, *args: object) -> None:
        """Scrapes happen every few seconds; stay silent."""


class TelemetryServer:
    """A running exposition endpoint (background daemon thread)."""

    def __init__(self, host: str = "127.0.0.1", port: int = 0) -> None:
        self._httpd = ThreadingHTTPServer((host, port), _TelemetryHandler)
        self._httpd.daemon_threads = True
        self.host = self._httpd.server_address[0]
        self.port = int(self._httpd.server_address[1])
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name=f"repro-telemetry:{self.port}",
            daemon=True,
        )
        self._thread.start()

    @property
    def url(self) -> str:
        return f"http://{self.host}:{self.port}"

    def close(self) -> None:
        """Stop serving and release the port (idempotent)."""
        self._httpd.shutdown()
        self._httpd.server_close()
        self._thread.join(timeout=5.0)


_server: Optional[TelemetryServer] = None
_server_lock = threading.Lock()


def serve(port: int = 0, host: str = "127.0.0.1") -> TelemetryServer:
    """Start (or return) the process-wide exposition endpoint.

    ``port=0`` binds an ephemeral port (read it back from ``.port``).
    Idempotent while a server is running: a second call returns the
    existing server regardless of the requested port.  Serving implies
    recording: the process-wide ``obs`` switch is enabled so the
    endpoint has metrics to expose.
    """
    from . import enable as obs_enable  # late: avoid import cycle

    global _server
    with _server_lock:
        if _server is None:
            _server = TelemetryServer(host=host, port=port)
        obs_enable()
        return _server


def stop() -> None:
    """Shut the process-wide endpoint down (idempotent)."""
    global _server
    with _server_lock:
        if _server is not None:
            _server.close()
            _server = None


def active_server() -> Optional[TelemetryServer]:
    """The running process-wide endpoint, if any."""
    return _server


# ---------------------------------------------------------------------------
# Periodic file-snapshot exporter (scrape-less environments)
# ---------------------------------------------------------------------------
class SnapshotExporter:
    """Writes the telemetry snapshot to a file every ``interval_s``.

    A ``.prom`` suffix writes the Prometheus text document (the node-
    exporter textfile-collector convention); anything else writes the
    JSON document ``repro top --snapshot`` reads.  Writes go to a
    temporary sibling then ``os.replace`` so a concurrent reader never
    observes a torn file.  The thread is a daemon; :meth:`stop` performs
    one final write so short-lived processes still leave a snapshot.
    """

    def __init__(self, path: Union[str, "os.PathLike"], interval_s: float = 5.0) -> None:
        if interval_s <= 0:
            raise ValueError(f"interval_s must be > 0, got {interval_s}")
        self.path = Path(path)
        self.interval_s = float(interval_s)
        if self.path.parent != Path(""):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name=f"repro-telemetry-export:{self.path}",
            daemon=True,
        )
        self.writes = 0
        self._thread.start()

    def write_once(self) -> Path:
        """Render and atomically write one snapshot; returns the path."""
        if self.path.suffix == ".prom":
            body = render_prometheus()
        else:
            body = json.dumps(telemetry_document(), indent=2) + "\n"
        tmp = self.path.with_name(self.path.name + ".tmp")
        tmp.write_text(body)
        os.replace(tmp, self.path)
        self.writes += 1
        return self.path

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.write_once()

    def stop(self) -> None:
        """Stop the loop and write one final snapshot (idempotent)."""
        already = self._stop.is_set()
        self._stop.set()
        self._thread.join(timeout=5.0)
        if not already:
            self.write_once()


def start_snapshot_exporter(
    path: Union[str, "os.PathLike"], interval_s: float = 5.0
) -> SnapshotExporter:
    """Start a background :class:`SnapshotExporter`; caller owns ``stop``."""
    return SnapshotExporter(path, interval_s=interval_s)


def configure_from_env(
    environ: Optional[Dict[str, str]] = None,
) -> Optional[TelemetryServer]:
    """Start the endpoint/exporter the environment asks for (if any)."""
    env = os.environ if environ is None else environ
    raw = env.get(ENV_VAR, "").strip()
    server: Optional[TelemetryServer] = None
    if raw:
        host, _, port_s = raw.rpartition(":")
        try:
            port = int(port_s)
        except ValueError:
            raise ValueError(
                f"{ENV_VAR} must be PORT or HOST:PORT, got {raw!r}"
            ) from None
        server = serve(port=port, host=host or "127.0.0.1")
    snap = env.get(SNAPSHOT_ENV_VAR, "").strip()
    if snap:
        interval = float(env.get(INTERVAL_ENV_VAR, "5") or "5")
        start_snapshot_exporter(snap, interval_s=interval)
    return server


# Honour REPRO_TELEMETRY at import time so any entry point can expose
# telemetry without code changes (mirrors REPRO_TRACE / REPRO_EVENTS).
if os.environ.get(ENV_VAR) or os.environ.get(SNAPSHOT_ENV_VAR):
    configure_from_env()
