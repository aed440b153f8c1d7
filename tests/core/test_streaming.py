"""Unit tests for the real-time (streaming) NSYNC pipeline."""

import numpy as np
import pytest

from repro import obs
from repro.core import NsyncIds, StreamingNsyncIds, Thresholds
from repro.core.comparator import MAX_CORRELATION_DISTANCE
from repro.core.streaming import TRUNCATED_WINDOW_DISTANCE
from repro.obs import events
from repro.signals import Signal
from repro.sync import DwmParams, DwmSynchronizer

PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)
FS = 100.0


def textured(n=3000, seed=0):
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal(n))
    return base - np.linspace(0, base[-1], n)


@pytest.fixture()
def reference():
    return Signal(textured(seed=1), FS)


@pytest.fixture()
def lenient():
    return Thresholds(c_c=1e9, h_c=1e9, v_c=1e9)


@pytest.fixture()
def strict():
    return Thresholds(c_c=50.0, h_c=20.0, v_c=0.5)


class TestStreamingNsync:
    def test_identical_stream_no_alerts(self, reference, strict):
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        for start in range(0, reference.n_samples, 250):
            ids.push(reference.data[start : start + 250])
        assert not ids.intrusion_detected
        assert ids.alerts == []

    def test_corrupted_stream_alerts(self, reference, strict):
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        rng = np.random.default_rng(9)
        corrupted = np.cumsum(rng.standard_normal((reference.n_samples, 1)), axis=0)
        alerts = ids.push(corrupted)
        assert ids.intrusion_detected
        assert alerts, "corrupted stream must raise at least one alert"
        assert alerts[0].submodule in ("c_disp", "h_dist", "v_dist")
        assert alerts[0].value > alerts[0].threshold

    def test_alert_contains_window_index(self, reference, strict):
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        rng = np.random.default_rng(10)
        ids.push(np.cumsum(rng.standard_normal((2000, 1)), axis=0))
        indexes = [a.window_index for a in ids.alerts]
        assert indexes == sorted(indexes)

    def test_evidence_snapshot(self, reference, lenient):
        ids = StreamingNsyncIds(reference, PARAMS, lenient)
        ids.push(reference.data[:1500])
        ev = ids.evidence()
        assert ev["h_disp"].size > 0
        assert ev["h_dist_filtered"].size == ev["h_disp"].size
        assert ev["v_dist_filtered"].size == ev["h_disp"].size
        assert ev["c_disp"] >= 0.0

    def test_streaming_matches_batch_evidence(self, reference, lenient):
        """Chunked streaming must produce the same h_disp/v_dist as batch."""
        obs = Signal(textured(seed=2), FS)

        stream = StreamingNsyncIds(reference, PARAMS, lenient)
        for start in range(0, obs.n_samples, 97):
            stream.push(obs.data[start : start + 97])
        ev = stream.evidence()

        batch = NsyncIds(reference, DwmSynchronizer(PARAMS))
        analysis = batch.analyze(obs)

        n = min(ev["h_disp"].size, analysis.sync.n_indexes)
        assert np.allclose(ev["h_disp"][:n], analysis.sync.h_disp[:n])
        assert np.allclose(
            ev["v_dist_filtered"][:n],
            analysis.features.v_dist_filtered[:n],
            atol=1e-9,
        )

    def test_invalid_filter_window(self, reference, lenient):
        with pytest.raises(ValueError):
            StreamingNsyncIds(reference, PARAMS, lenient, filter_window=0)

    def test_first_alert_is_earliest_violation(self, reference):
        """v_c violated from the start: the first alert is window 0."""
        tight = Thresholds(c_c=1e9, h_c=1e9, v_c=1e-6)
        ids = StreamingNsyncIds(reference, PARAMS, tight)
        rng = np.random.default_rng(11)
        noise = rng.standard_normal((reference.n_samples, 1))
        ids.push(noise)
        v_alerts = [a for a in ids.alerts if a.submodule == "v_dist"]
        assert v_alerts and v_alerts[0].window_index == 0

    def test_alert_time_s_from_window_geometry(self, reference):
        """time_s = window_index * hop / sample rate."""
        tight = Thresholds(c_c=1e9, h_c=1e9, v_c=1e-6)
        ids = StreamingNsyncIds(reference, PARAMS, tight)
        rng = np.random.default_rng(12)
        ids.push(rng.standard_normal((reference.n_samples, 1)))
        n_hop = round(PARAMS.t_hop * FS)
        for alert in ids.alerts:
            assert alert.time_s == pytest.approx(
                alert.window_index * n_hop / FS
            )


@pytest.fixture()
def event_ring():
    """Memory-only event log, torn down even on failure."""
    events.enable()
    yield
    events.disable()


class TestAlarmProvenance:
    """Every alert pairs with exactly one ``alarm`` event, in order.

    (Batch-vs-streaming evidence parity is no longer asserted here: both
    facades run the same :class:`~repro.core.engine.DetectionEngine`, and
    chunking invariance is covered by the hypothesis property in
    ``tests/core/test_engine.py``.)
    """

    def test_alarm_events_match_alerts(self, reference, event_ring):
        strict = Thresholds(c_c=50.0, h_c=20.0, v_c=0.5)
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        rng = np.random.default_rng(9)
        ids.push(np.cumsum(rng.standard_normal((reference.n_samples, 1)),
                           axis=0))
        assert ids.intrusion_detected
        alarm_events = events.tail(etype="alarm")
        assert len(alarm_events) == len(ids.alerts)
        for event, alert in zip(alarm_events, ids.alerts):
            assert event["window"] == alert.window_index
            assert event["submodule"] == alert.submodule
            assert event["time_s"] == pytest.approx(alert.time_s)


class TestTruncatedWindows:
    def test_constant_is_max_correlation_distance(self):
        assert TRUNCATED_WINDOW_DISTANCE == MAX_CORRELATION_DISTANCE == 2.0

    def test_truncated_window_emits_event_and_counter(
        self, reference, lenient, event_ring
    ):
        """A displacement beyond the reference end leaves no overlap: the
        window reports the named worst-case distance and is accounted."""
        ids = StreamingNsyncIds(reference, PARAMS, lenient)
        ids.push(reference.data[:400])
        obs.reset()
        obs.enable()
        try:
            ids.engine._ingest(
                [(ids.engine.n_indexes, float(reference.n_samples + 1000))],
                v_pre=None,
            )
        finally:
            snapshot = obs.snapshot()
            obs.disable()
        assert ids.engine._evidence.v_hist[-1] == TRUNCATED_WINDOW_DISTANCE
        truncated = events.tail(etype="window_truncated")
        assert truncated and truncated[-1]["n"] < 2
        assert snapshot["counters"][
            "repro.core.engine.truncated_windows"
        ] == 1.0


class TestStreamingSanitization:
    """Degenerate chunks are repaired in-stream; dark channels fail closed."""

    def test_nan_chunk_repaired_and_quarantined(self, reference, lenient):
        ids = StreamingNsyncIds(reference, PARAMS, lenient)
        data = textured(seed=5)
        data[500:530] = np.nan  # 0.3 s burst, under the dark limit
        for start in range(0, data.size, 250):
            ids.push(data[start : start + 250])
        ev = ids.evidence()
        assert np.isfinite(ev["h_disp"]).all()
        assert np.isfinite(ev["v_dist_filtered"]).all()
        health = ids.health()
        assert health["n_nonfinite"] == 30
        assert health["quarantined_windows"]
        assert not health["sensor_fault"]
        assert not ids.intrusion_detected

    def test_leading_nan_first_chunk(self, reference, lenient):
        """NaNs before any good sample fall back to zeros, not a crash."""
        ids = StreamingNsyncIds(reference, PARAMS, lenient)
        data = textured(seed=6)
        data[:10] = np.nan
        # The first chunk (97 samples) completes no window, so the engine's
        # sanitized buffer is still untrimmed and inspectable.
        ids.push(data[:97])
        assert np.isfinite(ids.engine._ring.tail()).all()
        assert np.all(ids.engine._ring.tail()[:10, 0] == 0.0)
        for start in range(97, data.size, 97):
            ids.push(data[start : start + 97])
        ev = ids.evidence()
        assert np.isfinite(ev["h_disp"]).all()
        assert np.isfinite(ev["v_dist_filtered"]).all()
        assert ids.health()["n_nonfinite"] == 10

    def test_dark_stream_fails_closed(self, reference, strict):
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        data = textured(seed=7)
        data[1000:1300] = data[999]  # 3 s frozen at fs=100
        for start in range(0, data.size, 50):
            ids.push(data[start : start + 50])
        health = ids.health()
        assert health["sensor_fault"]
        assert "dark_channel" in health["reasons"]
        assert ids.intrusion_detected
        faults = [a for a in ids.alerts if a.submodule == "sensor_fault"]
        assert len(faults) == 1, "SENSOR_FAULT must fire exactly once"

    def test_dark_run_spans_chunk_boundaries(self, reference, strict):
        """A constant run split across many tiny chunks must still trip."""
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        data = textured(seed=8)
        data[700:900] = -2.5  # 2 s dark, pushed 25 samples at a time
        for start in range(0, data.size, 25):
            ids.push(data[start : start + 25])
        assert ids.health()["sensor_fault"]

    def test_sensor_fault_event_emitted(self, reference, strict, event_ring):
        ids = StreamingNsyncIds(reference, PARAMS, strict)
        data = textured(seed=9)
        data[500:800] = 0.0
        ids.push(data.reshape(-1, 1))
        assert events.tail(etype="sensor_fault")

    def test_quarantine_event_emitted(self, reference, lenient, event_ring):
        ids = StreamingNsyncIds(reference, PARAMS, lenient)
        data = textured(seed=10)
        data[400:420] = np.inf
        ids.push(data.reshape(-1, 1))
        quarantine = events.tail(etype="window_quarantined")
        assert quarantine
        assert all(e["n_bad"] > 0 for e in quarantine)

    def test_disabled_policy_repairs_without_fault(self, reference, lenient):
        from repro.core import SanitizePolicy

        ids = StreamingNsyncIds(
            reference, PARAMS, lenient, policy=SanitizePolicy(enabled=False)
        )
        data = textured(seed=11)
        data[500:900] = 1.0
        ids.push(data.reshape(-1, 1))
        assert not ids.health()["sensor_fault"]
        assert not ids.intrusion_detected

    def test_clean_stream_health(self, reference, lenient):
        ids = StreamingNsyncIds(reference, PARAMS, lenient)
        ids.push(textured(seed=12).reshape(-1, 1))
        health = ids.health()
        assert health["n_nonfinite"] == 0
        assert health["bad_fraction"] == 0.0
        assert health["quarantined_windows"] == []
