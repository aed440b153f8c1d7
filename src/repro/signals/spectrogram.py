"""Short-Time Fourier Transform spectrograms (paper Table III).

A spectrogram turns a signal into "a new signal with a reduced sampling rate
and an increased number of channels": each STFT frame becomes one sample
whose channels are the magnitudes of the frequency bins of every input
channel.  That is exactly how NSYNC and the baseline IDSs consume it, so
:func:`spectrogram` returns a :class:`~repro.signals.signal.Signal`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .signal import Signal
from .windows import get_window

__all__ = ["SpectrogramConfig", "spectrogram", "PAPER_SPECTROGRAMS"]

#: STFT frames transformed per ``rfft`` call.
_FRAME_BLOCK = 256


@dataclass(frozen=True)
class SpectrogramConfig:
    """STFT configuration in the paper's Table III terms.

    ``delta_f`` is the spectral resolution in Hz (reciprocal of the window
    length in seconds); ``delta_t`` is the hop in seconds; ``window`` names
    the taper (``"BH"`` or ``"Boxcar"``).
    """

    delta_f: float
    delta_t: float
    window: str = "BH"

    def n_window(self, sample_rate: float) -> int:
        """STFT window length in samples for a given input rate."""
        n = int(round(sample_rate / self.delta_f))
        return max(1, n)

    def n_hop(self, sample_rate: float) -> int:
        """STFT hop length in samples for a given input rate."""
        n = int(round(self.delta_t * sample_rate))
        return max(1, n)

    def n_bins(self, sample_rate: float) -> int:
        """Number of one-sided frequency bins per input channel."""
        return self.n_window(sample_rate) // 2 + 1


def spectrogram(signal: Signal, config: SpectrogramConfig) -> Signal:
    """Compute the magnitude spectrogram of every channel of ``signal``.

    The result has sample rate ``1 / delta_t`` and
    ``n_bins * signal.n_channels`` channels, laid out channel-major: input
    channel 0's bins first, then channel 1's, and so on.
    """
    n_win = config.n_window(signal.sample_rate)
    n_hop = config.n_hop(signal.sample_rate)
    if signal.n_samples < n_win:
        raise ValueError(
            f"signal has {signal.n_samples} samples but the STFT window "
            f"needs {n_win}"
        )
    taper = get_window(config.window, n_win)
    n_frames = 1 + (signal.n_samples - n_win) // n_hop
    n_bins = n_win // 2 + 1

    frames = np.empty((n_frames, n_bins * signal.n_channels))
    # (n_frames, C, n_win) strided view; each block of frames is tapered
    # and transformed in one call, which bounds the temporaries on long
    # prints.  Every frame sees the same per-line rfft as a lone frame.
    view = sliding_window_view(signal.data, n_win, axis=0)[::n_hop]
    for start in range(0, n_frames, _FRAME_BLOCK):
        block = view[start : start + _FRAME_BLOCK] * taper
        mags = np.abs(np.fft.rfft(block, axis=-1))  # (b, C, n_bins)
        frames[start : start + _FRAME_BLOCK] = mags.reshape(len(block), -1)

    out_rate = signal.sample_rate / n_hop
    return Signal(frames, out_rate)


# Table III of the paper, keyed by side-channel ID.  The channel counts in
# the paper (e.g. 101 x 6 for ACC) follow from these resolutions and the
# Table II sample rates.
PAPER_SPECTROGRAMS = {
    "ACC": SpectrogramConfig(delta_f=20.0, delta_t=1.0 / 80.0, window="BH"),
    "TMP": SpectrogramConfig(delta_f=20.0, delta_t=1.0 / 80.0, window="BH"),
    "MAG": SpectrogramConfig(delta_f=5.0, delta_t=1.0 / 20.0, window="BH"),
    "AUD": SpectrogramConfig(delta_f=120.0, delta_t=1.0 / 240.0, window="BH"),
    "EPT": SpectrogramConfig(delta_f=120.0, delta_t=1.0 / 240.0, window="BH"),
    "PWR": SpectrogramConfig(delta_f=60.0, delta_t=1.0 / 120.0, window="Boxcar"),
}

#: Table II sample rates, needed to rescale Table III for simulated signals.
_PAPER_RATES = {
    "ACC": 4000.0,
    "TMP": 4000.0,
    "MAG": 100.0,
    "AUD": 48000.0,
    "EPT": 96000.0,
    "PWR": 12000.0,
}


def scaled_spectrogram_config(
    channel: str, sample_rate: float
) -> SpectrogramConfig:
    """Table III rescaled so the *bin structure* survives rate scaling.

    The simulated sensors run below the paper's native rates (DESIGN.md).
    Keeping Table III's absolute resolutions at a lower rate would shrink
    the STFT window and collapse the bin count — e.g. the 60 Hz mains hum
    would smear across most of a 9-bin EPT spectrogram instead of occupying
    1 of 401 bins.  Scaling ``delta_f`` (down) and ``delta_t`` (up) by the
    rate ratio preserves the paper's window length *in samples*, hence its
    exact channel counts (101 x 6 for ACC, 401 for EPT, ...).
    """
    base = PAPER_SPECTROGRAMS[channel]
    ratio = sample_rate / _PAPER_RATES[channel]
    if ratio >= 1.0:
        return base
    return SpectrogramConfig(
        delta_f=base.delta_f * ratio,
        delta_t=base.delta_t / ratio,
        window=base.window,
    )
