"""Live telemetry: stream health, Prometheus exposition, server, exporter."""

import json
import threading
import urllib.request

import pytest

from repro import obs
from repro.obs import telemetry
from repro.obs.telemetry import (
    STREAM_FAMILIES,
    SnapshotExporter,
    StreamHealth,
    StreamHealthRegistry,
    prometheus_name,
    render_prometheus,
    telemetry_document,
)


class TestStreamHealth:
    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            StreamHealth("", 200.0)
        with pytest.raises(ValueError):
            StreamHealth("p1", 0.0)

    def test_observe_chunk_accumulates(self):
        row = StreamHealth("p1", 200.0)
        row.observe_chunk(50, 0.002, 3, 1, False)
        row.observe_chunk(25, 0.004, 5, 2, False)
        doc = row.snapshot()
        assert doc["samples"] == 75
        assert doc["chunks"] == 2
        assert doc["windows"] == 5
        assert doc["quarantined_windows"] == 2
        assert doc["state"] == "live"
        assert doc["sensor_fault"] is False
        lat = doc["chunk_latency"]
        assert lat["count"] == 2
        assert lat["p50_s"] == pytest.approx(0.003)
        assert set(lat) == {"count", "mean_s", "p50_s", "p95_s", "p99_s"}

    def test_alerts_and_finish(self):
        row = StreamHealth("p1", 200.0)
        row.note_alert("c_disp", 12.5)
        row.note_alert("v_dist", 14.0)
        row.mark_finished(intrusion=True)
        doc = row.snapshot()
        assert doc["alerts"] == 2
        assert doc["last_alert"]["submodule"] == "v_dist"
        assert doc["last_alert"]["time_s"] == 14.0
        assert doc["state"] == "finished"
        assert doc["intrusion"] is True

    def test_sensor_fault_latches_into_snapshot(self):
        row = StreamHealth("p1", 200.0)
        row.observe_chunk(10, 0.001, 0, 0, True)
        assert row.snapshot()["sensor_fault"] is True

    def test_ingest_lag_never_negative(self):
        # Pushing faster than real time (replay) clamps lag to zero.
        row = StreamHealth("p1", 200.0)
        row.observe_chunk(1_000_000, 0.001, 0, 0, False)
        assert row.snapshot()["ingest_lag_s"] == 0.0

    def test_snapshot_is_json_safe(self):
        row = StreamHealth("p1", 200.0)
        row.observe_chunk(10, 0.001, 1, 0, False)
        row.note_alert("c_disp", 1.0)
        json.dumps(row.snapshot())


class TestStreamHealthRegistry:
    def test_register_get_unregister(self):
        reg = StreamHealthRegistry()
        row = reg.register("p1", 200.0)
        assert reg.get("p1") is row
        assert reg.ids() == ["p1"]
        assert len(reg) == 1
        assert reg.unregister("p1") is True
        assert reg.unregister("p1") is False
        assert reg.get("p1") is None

    def test_reregister_starts_fresh_row(self):
        reg = StreamHealthRegistry()
        old = reg.register("p1", 200.0)
        old.observe_chunk(10, 0.001, 0, 0, False)
        new = reg.register("p1", 200.0)
        assert new is not old
        assert new.snapshot()["samples"] == 0

    def test_snapshot_covers_all_streams(self):
        reg = StreamHealthRegistry()
        reg.register("a", 200.0)
        reg.register("b", 100.0)
        snap = reg.snapshot()
        assert set(snap) == {"a", "b"}

    def test_module_registry_shortcuts(self):
        telemetry.register_stream("p9", 100.0)
        assert telemetry.streams().get("p9") is not None
        assert telemetry.unregister_stream("p9") is True


class TestPrometheusRendering:
    def test_name_sanitization(self):
        assert (
            prometheus_name("repro.core.engine.samples")
            == "repro_core_engine_samples"
        )
        assert prometheus_name("9lives") == "_9lives"
        assert prometheus_name("a-b c") == "a_b_c"

    def test_name_is_stable(self):
        name = "repro.eval.engine.cache_hits"
        assert prometheus_name(name) == prometheus_name(name)

    def test_counters_gain_total_suffix(self):
        obs.enable()
        obs.counter("repro.core.engine.samples").inc(42)
        text = render_prometheus()
        assert "# TYPE repro_core_engine_samples_total counter" in text
        assert "repro_core_engine_samples_total 42.0" in text

    def test_histogram_renders_as_summary(self):
        obs.enable()
        h = obs.histogram("repro.eval.engine.queue_wait_s")
        for v in (1.0, 2.0, 3.0):
            h.observe(v)
        text = render_prometheus()
        assert "# TYPE repro_eval_engine_queue_wait_s summary" in text
        assert 'repro_eval_engine_queue_wait_s{quantile="0.50"} 2.0' in text
        assert "repro_eval_engine_queue_wait_s_count 3.0" in text
        assert "repro_eval_engine_queue_wait_s_sum 6.0" in text

    def test_spans_render_with_label(self):
        obs.enable()
        with obs.trace("repro.core.engine.push"):
            pass
        text = render_prometheus()
        assert (
            'repro_span_calls_total{span="repro.core.engine.push"} 1.0'
            in text
        )

    def test_stream_families_all_render(self):
        row = telemetry.register_stream("p1", 200.0)
        row.observe_chunk(50, 0.002, 3, 0, False)
        row.note_alert("c_disp", 1.0)
        text = render_prometheus()
        for family, mtype, _help in STREAM_FAMILIES:
            assert f"# TYPE {family} {mtype}" in text, family
        assert 'repro_stream_up{stream="p1"} 1.0' in text
        assert 'repro_stream_samples_total{stream="p1"} 50.0' in text
        assert (
            'repro_stream_chunk_latency_seconds{stream="p1",quantile="0.5"}'
            in text
        )
        assert (
            'repro_stream_chunk_latency_seconds{stream="p1",quantile="0.99"}'
            in text
        )
        assert (
            'repro_stream_last_alert_timestamp_seconds{stream="p1"}' in text
        )

    def test_label_values_escaped(self):
        telemetry.register_stream('we"ird\\id\n', 200.0)
        text = render_prometheus()
        assert 'stream="we\\"ird\\\\id\\n"' in text

    def test_type_precedes_samples_once_per_family(self):
        telemetry.register_stream("a", 200.0)
        telemetry.register_stream("b", 200.0)
        text = render_prometheus()
        assert text.count("# TYPE repro_stream_up gauge") == 1
        type_at = text.index("# TYPE repro_stream_up gauge")
        sample_at = text.index('repro_stream_up{stream="a"}')
        assert type_at < sample_at

    def test_document_schema(self):
        telemetry.register_stream("p1", 200.0)
        doc = telemetry_document()
        assert doc["v"] == telemetry.TELEMETRY_SCHEMA_VERSION
        assert "p1" in doc["streams"]
        assert doc["metrics"]["version"] == 1
        json.dumps(doc)


class TestTelemetryServer:
    def test_endpoints(self):
        telemetry.register_stream("p1", 200.0)
        server = obs.serve_telemetry(0)
        assert server.port > 0
        with urllib.request.urlopen(f"{server.url}/metrics") as resp:
            assert resp.headers["Content-Type"].startswith(
                "text/plain; version=0.0.4"
            )
            body = resp.read().decode()
        assert 'repro_stream_up{stream="p1"}' in body
        with urllib.request.urlopen(f"{server.url}/snapshot.json") as resp:
            doc = json.loads(resp.read())
        assert "p1" in doc["streams"]
        with urllib.request.urlopen(f"{server.url}/healthz") as resp:
            assert resp.read() == b"ok\n"
        with pytest.raises(urllib.error.HTTPError):
            urllib.request.urlopen(f"{server.url}/nope")

    def test_serve_implies_enable_and_is_idempotent(self):
        obs.disable()
        server = obs.serve_telemetry(0)
        assert obs.enabled()
        assert obs.serve_telemetry(0) is server
        assert telemetry.active_server() is server
        obs.stop_telemetry()
        assert telemetry.active_server() is None
        obs.stop_telemetry()  # idempotent

    def test_configure_from_env_port(self):
        server = telemetry.configure_from_env({"REPRO_TELEMETRY": "0"})
        assert server is not None and server.port > 0

    def test_configure_from_env_rejects_garbage(self):
        with pytest.raises(ValueError):
            telemetry.configure_from_env({"REPRO_TELEMETRY": "not-a-port"})


class TestSnapshotExporter:
    def test_json_snapshot(self, tmp_path):
        telemetry.register_stream("p1", 200.0)
        exporter = SnapshotExporter(tmp_path / "snap.json", interval_s=60.0)
        exporter.write_once()
        exporter.stop()
        doc = json.loads((tmp_path / "snap.json").read_text())
        assert "p1" in doc["streams"]
        assert exporter.writes >= 2  # explicit + final on stop

    def test_prom_snapshot(self, tmp_path):
        telemetry.register_stream("p1", 200.0)
        exporter = SnapshotExporter(tmp_path / "snap.prom", interval_s=60.0)
        exporter.stop()
        text = (tmp_path / "snap.prom").read_text()
        assert 'repro_stream_up{stream="p1"} 1.0' in text

    def test_periodic_writes(self, tmp_path):
        exporter = SnapshotExporter(tmp_path / "s.json", interval_s=0.02)
        deadline = threading.Event()
        deadline.wait(0.2)
        exporter.stop()
        assert exporter.writes >= 2

    def test_rejects_bad_interval(self, tmp_path):
        with pytest.raises(ValueError):
            SnapshotExporter(tmp_path / "s.json", interval_s=0.0)


class TestEngineIntegration:
    def test_no_stream_id_means_no_registration(self):
        """The engine never registers or feeds a health row, even with
        observability on: the stream's owner does (see
        tests/serve/test_health_parity.py and the CLI telemetry tests)."""
        import numpy as np

        from repro.core.discriminator import Thresholds
        from repro.core.engine import DetectionEngine
        from repro.signals.signal import Signal
        from repro.sync.dwm import DwmParams, DwmSynchronizer

        obs.enable()
        rng = np.random.default_rng(3)
        base = np.sin(np.arange(2000) / 20.0) + 0.1 * rng.standard_normal(2000)
        engine = DetectionEngine(
            Signal(base[:, None].copy(), 200.0),
            DwmSynchronizer(DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25)),
            Thresholds(c_c=50.0, h_c=20.0, v_c=0.5),
        )
        for s in range(0, 2000, 100):
            engine.push(base[s : s + 100, None])
        engine.finalize()
        assert not hasattr(engine, "stream_id")
        assert len(telemetry.streams()) == 0
