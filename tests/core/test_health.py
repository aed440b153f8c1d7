"""Unit tests for the input-sanitization stage (repro.core.health)."""

import numpy as np
import pytest

from repro.core import SanitizePolicy, sanitize_signal
from repro.core.health import ChannelHealth
from repro.signals import Signal


def textured(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return np.cumsum(rng.standard_normal(n))


class TestSanitizePolicy:
    def test_defaults_valid(self):
        policy = SanitizePolicy()
        assert policy.enabled

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_dark_s": 0.0},
            {"max_dark_s": -1.0},
            {"max_bad_fraction": 0.0},
            {"max_bad_fraction": 1.5},
            {"dark_eps": -1e-9},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ValueError):
            SanitizePolicy(**kwargs)

    def test_min_dark_samples_scales_with_rate(self):
        policy = SanitizePolicy(max_dark_s=0.5)
        assert policy.min_dark_samples(100.0) == 50
        assert policy.min_dark_samples(1.0) == 2  # floor of 2 samples


class TestSanitizeSignal:
    def test_clean_signal_untouched(self):
        sig = Signal(textured(), 100.0)
        out = sanitize_signal(sig)
        assert out.signal is sig  # no copy for the common case
        assert not out.bad_samples.any()
        assert out.health.is_clean
        assert not out.health.sensor_fault

    def test_nan_forward_filled(self):
        data = textured(400)
        data[100:110] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        repaired = out.signal.data[:, 0]
        assert np.isfinite(repaired).all()
        assert np.all(repaired[100:110] == data[99])
        assert out.bad_samples[100:110].all()
        assert not out.bad_samples[:100].any()
        assert out.health.n_nonfinite == 10

    def test_leading_nan_becomes_zero(self):
        data = textured(300)
        data[:5] = np.inf
        out = sanitize_signal(Signal(data, 100.0))
        assert np.all(out.signal.data[:5, 0] == 0.0)

    def test_short_burst_no_sensor_fault(self):
        data = textured(1000)
        data[200:220] = np.nan  # 0.2 s << max_dark_s
        out = sanitize_signal(Signal(data, 100.0))
        assert not out.health.sensor_fault

    def test_dark_channel_trips_sensor_fault(self):
        data = textured(1000)
        data[300:500] = 4.2  # 2 s constant at fs=100
        out = sanitize_signal(Signal(data, 100.0), SanitizePolicy(max_dark_s=1.0))
        assert out.health.sensor_fault
        assert "dark_channel" in out.health.reasons
        assert any(a <= 300 and b >= 500 for a, b in out.health.dark_spans)
        assert out.health.longest_dark_s >= 2.0

    def test_nan_flood_counts_as_dark(self):
        data = textured(1000)
        data[300:500] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        assert out.health.sensor_fault
        assert "dark_channel" in out.health.reasons

    def test_bad_fraction_rule(self):
        rng = np.random.default_rng(0)
        data = textured(1000)
        # Scatter NaNs so no single run is long, but the fraction is high.
        bad = rng.random(1000) < 0.5
        bad[::2] = False  # never two adjacent -> short runs
        data[bad] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        assert out.health.bad_fraction > 0.2
        assert "nonfinite_fraction" in out.health.reasons

    def test_disabled_policy_repairs_but_never_faults(self):
        data = textured(1000)
        data[300:600] = 0.0
        out = sanitize_signal(
            Signal(data, 100.0), SanitizePolicy(enabled=False)
        )
        assert not out.health.sensor_fault
        assert out.health.reasons == ()
        assert np.isfinite(out.signal.data).all()

    def test_multichannel_dark_on_one_channel(self):
        rng = np.random.default_rng(1)
        data = rng.standard_normal((1000, 3)).cumsum(axis=0)
        data[100:400, 1] = -1.0
        out = sanitize_signal(Signal(data, 100.0))
        assert out.health.sensor_fault
        # The healthy channels must be untouched.
        assert np.array_equal(out.signal.data[:, 0], data[:, 0])

    def test_health_to_dict_json_safe(self):
        import json

        data = textured(500)
        data[50:60] = np.nan
        out = sanitize_signal(Signal(data, 100.0))
        doc = out.health.to_dict()
        json.dumps(doc)
        assert doc["n_nonfinite"] == 10
        assert isinstance(out.health, ChannelHealth)
