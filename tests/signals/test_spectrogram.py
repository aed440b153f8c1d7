"""Unit tests for the STFT spectrogram front-end (Table III)."""

import numpy as np
import pytest

from repro.signals import (
    PAPER_SPECTROGRAMS,
    Signal,
    SpectrogramConfig,
    spectrogram,
)
from repro.signals.spectrogram import scaled_spectrogram_config
from repro.signals.windows import get_window


def tone(freq, fs=1000.0, seconds=2.0, channels=1):
    t = np.arange(0, seconds, 1 / fs)
    data = np.sin(2 * np.pi * freq * t)
    if channels > 1:
        data = np.column_stack([data] * channels)
    return Signal(data, fs)


class TestConfig:
    def test_window_length_from_delta_f(self):
        cfg = SpectrogramConfig(delta_f=20.0, delta_t=0.0125)
        assert cfg.n_window(1000.0) == 50  # 1000 / 20

    def test_hop_from_delta_t(self):
        cfg = SpectrogramConfig(delta_f=20.0, delta_t=0.025)
        assert cfg.n_hop(1000.0) == 25  # round(0.025 * 1000)

    def test_n_bins(self):
        cfg = SpectrogramConfig(delta_f=20.0, delta_t=0.0125)
        assert cfg.n_bins(1000.0) == 26  # 50 // 2 + 1

    def test_minimum_sizes(self):
        cfg = SpectrogramConfig(delta_f=1e6, delta_t=1e-9)
        assert cfg.n_window(100.0) >= 1
        assert cfg.n_hop(100.0) >= 1


class TestSpectrogram:
    def test_output_shape(self):
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.05)
        spec = spectrogram(tone(50.0), cfg)
        n_win, n_hop = cfg.n_window(1000.0), cfg.n_hop(1000.0)
        expected_frames = 1 + (2000 - n_win) // n_hop
        assert spec.n_samples == expected_frames
        assert spec.n_channels == n_win // 2 + 1

    def test_output_rate_is_frame_rate(self):
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.05)
        spec = spectrogram(tone(50.0), cfg)
        assert spec.sample_rate == pytest.approx(1000.0 / cfg.n_hop(1000.0))

    def test_tone_lands_in_right_bin(self):
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.05)
        spec = spectrogram(tone(50.0), cfg)
        mean_mag = spec.data.mean(axis=0)
        assert np.argmax(mean_mag) == 5  # 50 Hz / 10 Hz per bin

    def test_two_tones_two_peaks(self):
        fs = 1000.0
        t = np.arange(0, 2, 1 / fs)
        sig = Signal(np.sin(2 * np.pi * 100 * t) + np.sin(2 * np.pi * 300 * t), fs)
        cfg = SpectrogramConfig(delta_f=20.0, delta_t=0.05)
        spec = spectrogram(sig, cfg)
        mean_mag = spec.data.mean(axis=0)
        top2 = set(np.argsort(mean_mag)[-2:])
        assert top2 == {5, 15}  # 100/20 and 300/20

    def test_multichannel_layout_channel_major(self):
        fs = 1000.0
        t = np.arange(0, 2, 1 / fs)
        two = Signal(
            np.column_stack(
                [np.sin(2 * np.pi * 100 * t), np.sin(2 * np.pi * 300 * t)]
            ),
            fs,
        )
        cfg = SpectrogramConfig(delta_f=20.0, delta_t=0.05)
        spec = spectrogram(two, cfg)
        n_bins = cfg.n_bins(fs)
        assert spec.n_channels == 2 * n_bins
        ch0 = spec.data[:, :n_bins].mean(axis=0)
        ch1 = spec.data[:, n_bins:].mean(axis=0)
        assert np.argmax(ch0) == 5
        assert np.argmax(ch1) == 15

    def test_too_short_signal_rejected(self):
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.05)
        with pytest.raises(ValueError, match="STFT window"):
            spectrogram(Signal(np.zeros(10), 1000.0), cfg)

    def test_boxcar_window_supported(self):
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.05, window="Boxcar")
        spec = spectrogram(tone(50.0), cfg)
        assert spec.n_samples > 0

    def test_magnitudes_nonnegative(self):
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.05)
        spec = spectrogram(tone(50.0), cfg)
        assert np.all(spec.data >= 0)


def frame_loop_spectrogram(signal, config):
    """The one-frame-at-a-time STFT: the bit-exactness oracle for the
    blocked :func:`spectrogram`."""
    n_win = config.n_window(signal.sample_rate)
    n_hop = config.n_hop(signal.sample_rate)
    taper = get_window(config.window, n_win)
    n_frames = 1 + (signal.n_samples - n_win) // n_hop
    n_bins = n_win // 2 + 1
    frames = np.empty((n_frames, n_bins * signal.n_channels))
    for i in range(n_frames):
        chunk = signal.data[i * n_hop : i * n_hop + n_win, :]
        tapered = chunk * taper[:, np.newaxis]
        mags = np.abs(np.fft.rfft(tapered, axis=0))  # (n_bins, C)
        frames[i, :] = mags.T.reshape(-1)
    return frames


class TestBlockedFramesMatchFrameLoop:
    """The blocked STFT reproduces the per-frame loop bit for bit."""

    @pytest.mark.parametrize(
        "channel,rate,channels,seconds",
        [
            ("ACC", 2000.0, 3, 6.0),
            ("ACC", 4000.0, 1, 2.0),
            ("AUD", 2000.0, 1, 9.0),
            ("AUD", 8000.0, 2, 3.0),
            ("MAG", 100.0, 3, 30.0),
            ("EPT", 4000.0, 1, 1.0),
            ("PWR", 3000.0, 2, 4.0),
        ],
    )
    def test_paper_configs(self, channel, rate, channels, seconds):
        rng = np.random.default_rng(len(channel) + channels)
        data = rng.standard_normal((int(rate * seconds), channels)) * 3.0
        data[::97] = -0.0
        sig = Signal(data, rate)
        cfg = scaled_spectrogram_config(channel, rate)
        got = spectrogram(sig, cfg).data
        ref = frame_loop_spectrogram(sig, cfg)
        assert got.shape == ref.shape
        assert np.array_equal(got, ref)

    def test_block_edges_and_strided_input(self):
        """Frame counts around the block size, a one-frame signal, NaN
        samples, and a non-contiguous channel view."""
        cfg = SpectrogramConfig(delta_f=10.0, delta_t=0.002)  # hop of 2
        rng = np.random.default_rng(7)
        wide = rng.standard_normal((2000, 4))
        wide[500, 1] = np.nan
        for n_frames in (1, 255, 256, 257, 513):
            data = wide[: 100 + 2 * (n_frames - 1), ::2]
            sig = Signal(data, 1000.0)
            got = spectrogram(sig, cfg).data
            ref = frame_loop_spectrogram(sig, cfg)
            assert got.shape == (n_frames, 2 * 51)
            assert np.array_equal(got, ref, equal_nan=True)


class TestPaperConfigs:
    def test_all_six_channels_configured(self):
        assert set(PAPER_SPECTROGRAMS) == {
            "ACC", "TMP", "MAG", "AUD", "EPT", "PWR",
        }

    def test_pwr_uses_boxcar(self):
        assert PAPER_SPECTROGRAMS["PWR"].window == "Boxcar"

    def test_others_use_bh(self):
        for cid in ("ACC", "TMP", "MAG", "AUD", "EPT"):
            assert PAPER_SPECTROGRAMS[cid].window == "BH"

    def test_table_iii_bin_counts_at_paper_rates(self):
        """At the paper's native rates the bin counts match Table III."""
        # ACC: 4000 Hz / 20 Hz -> 200-sample window -> 101 bins
        assert PAPER_SPECTROGRAMS["ACC"].n_bins(4000.0) == 101
        # MAG: 100 Hz / 5 Hz -> 20-sample window -> 11 bins
        assert PAPER_SPECTROGRAMS["MAG"].n_bins(100.0) == 11
        # AUD: 48000 / 120 -> 400 window -> 201 bins
        assert PAPER_SPECTROGRAMS["AUD"].n_bins(48000.0) == 201
        # EPT: 96000 / 120 -> 800 window -> 401 bins
        assert PAPER_SPECTROGRAMS["EPT"].n_bins(96000.0) == 401
        # PWR: 12000 / 60 -> 200 window -> 101 bins
        assert PAPER_SPECTROGRAMS["PWR"].n_bins(12000.0) == 101
