"""Unit tests for Dynamic Window Matching (batch and streaming)."""

import importlib
from unittest import mock

import numpy as np
import pytest

from repro.signals import Signal
from repro.sync import (
    DwmParams,
    DwmSynchronizer,
    RM3_DWM_PARAMS,
    StreamingDwm,
    UM3_DWM_PARAMS,
)

from .test_tde import oracle_correlation_profile


def chirpy_signal(n=4000, fs=100.0, seed=0):
    """A non-periodic broadband signal DWM can lock onto."""
    rng = np.random.default_rng(seed)
    base = rng.standard_normal(n)
    kernel = np.exp(-np.arange(20) / 5.0)
    return np.convolve(base, kernel, mode="same")


def shifted_pair(shift=25, n=4000, fs=100.0):
    """Reference and a copy delayed by a constant number of samples."""
    data = chirpy_signal(n + abs(shift) + 10, fs)
    ref = Signal(data[: n], fs)
    obs = Signal(data[shift : n + shift], fs)  # obs[i] = ref[i + shift]
    return obs, ref


class TestDwmParams:
    def test_table_iv_values(self):
        assert UM3_DWM_PARAMS == DwmParams(4.0, 2.0, 2.0, 1.0, 0.1)
        assert RM3_DWM_PARAMS == DwmParams(1.0, 0.5, 0.1, 0.05, 0.1)

    def test_sample_conversion(self):
        p = DwmParams(2.0, 1.0, 0.5, 0.25)
        assert p.n_win(100.0) == 200
        assert p.n_hop(100.0) == 100
        assert p.n_ext(100.0) == 50
        assert p.n_sigma(100.0) == pytest.approx(25.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            DwmParams(0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="t_hop"):
            DwmParams(1.0, 2.0, 1.0, 1.0)  # hop > win
        with pytest.raises(ValueError):
            DwmParams(1.0, 0.5, 0.0, 1.0)
        with pytest.raises(ValueError):
            DwmParams(1.0, 0.5, 1.0, -1.0)
        with pytest.raises(ValueError, match="eta"):
            DwmParams(1.0, 0.5, 1.0, 1.0, eta=1.5)

    def test_scaled(self):
        p = DwmParams(4.0, 2.0, 2.0, 1.0, 0.1).scaled(0.5)
        assert p == DwmParams(2.0, 1.0, 1.0, 0.5, 0.1)


class TestDwmBatch:
    PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)

    def test_identical_signals_zero_displacement(self):
        sig = Signal(chirpy_signal(), 100.0)
        sync = DwmSynchronizer(self.PARAMS).synchronize(sig, sig)
        assert sync.mode == "window"
        assert np.allclose(sync.h_disp, 0.0)
        assert np.allclose(sync.scores, 1.0, atol=1e-9)

    def test_constant_shift_recovered(self):
        obs, ref = shifted_pair(shift=25)
        sync = DwmSynchronizer(self.PARAMS).synchronize(obs, ref)
        # obs[i] = ref[i + 25] so windows of obs match ref 25 samples later.
        assert np.median(sync.h_disp[2:]) == pytest.approx(25, abs=2)

    def test_negative_shift_recovered(self):
        data = chirpy_signal(4100)
        ref = Signal(data[30:4030], 100.0)
        obs = Signal(data[:4000], 100.0)
        sync = DwmSynchronizer(self.PARAMS).synchronize(obs, ref)
        assert np.median(sync.h_disp[2:]) == pytest.approx(-30, abs=2)

    def test_growing_drift_tracked(self):
        """A 2% rate difference — the Fig. 1 scenario."""
        fs = 100.0
        n = 6000
        data = chirpy_signal(int(n * 1.05) + 10, fs)
        ref = Signal(data[:n], fs)
        # Observation runs 2% fast: obs(t) = ref(1.02 t).
        t_obs = np.arange(int(n / 1.02)) * 1.02
        obs = Signal(np.interp(t_obs, np.arange(n), data[:n]), fs)
        sync = DwmSynchronizer(self.PARAMS).synchronize(obs, ref)
        # By the last window, ref is ~2% of elapsed time ahead.
        i_last = sync.n_indexes - 1
        expected = 0.02 * (i_last * self.PARAMS.n_hop(fs))
        assert sync.h_disp[i_last] == pytest.approx(expected, rel=0.3)

    def test_rate_mismatch_rejected(self):
        a = Signal(np.zeros(100), 10.0)
        b = Signal(np.zeros(100), 20.0)
        with pytest.raises(ValueError, match="rates"):
            DwmSynchronizer(self.PARAMS).synchronize(a, b)

    def test_short_reference_stops_early(self):
        obs = Signal(chirpy_signal(4000), 100.0)
        ref = Signal(chirpy_signal(2000), 100.0)
        sync = DwmSynchronizer(self.PARAMS).synchronize(obs, ref)
        assert sync.n_indexes < obs.n_windows(
            self.PARAMS.n_win(100.0), self.PARAMS.n_hop(100.0)
        )

    def test_multichannel_signals(self):
        data = chirpy_signal(4000)
        two = np.column_stack([data, np.roll(data, 3)])
        sig = Signal(two, 100.0)
        sync = DwmSynchronizer(self.PARAMS).synchronize(sig, sig)
        assert np.allclose(sync.h_disp, 0.0)

    def test_cadhd_zero_for_identical(self):
        sig = Signal(chirpy_signal(), 100.0)
        sync = DwmSynchronizer(self.PARAMS).synchronize(sig, sig)
        assert sync.cadhd()[-1] == pytest.approx(0.0)

    def test_eta_zero_still_tracks_constant_shift(self):
        params = DwmParams(1.0, 0.5, 0.5, 0.25, eta=0.0)
        obs, ref = shifted_pair(shift=10)
        sync = DwmSynchronizer(params).synchronize(obs, ref)
        assert np.median(sync.h_disp[2:]) == pytest.approx(10, abs=2)


class TestStreamingDwm:
    PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)

    def test_matches_batch_result(self):
        obs, ref = shifted_pair(shift=15)
        batch = DwmSynchronizer(self.PARAMS).synchronize(obs, ref)

        stream = StreamingDwm(ref, self.PARAMS)
        emitted = []
        for start in range(0, obs.n_samples, 173):  # awkward chunk size
            emitted.extend(stream.push(obs.data[start : start + 173]))
        result = stream.result()

        assert [i for i, _ in emitted] == list(range(batch.n_indexes))
        assert np.allclose(result.h_disp, batch.h_disp)
        assert np.allclose(result.scores, batch.scores)

    def test_incremental_emission(self):
        obs, ref = shifted_pair(shift=0)
        stream = StreamingDwm(ref, self.PARAMS)
        n_win = self.PARAMS.n_win(100.0)
        # Not enough samples yet: nothing emitted.
        assert stream.push(obs.data[: n_win - 1]) == []
        # One more sample completes the first window.
        out = stream.push(obs.data[n_win - 1 : n_win])
        assert len(out) == 1
        assert out[0][0] == 0

    def test_channel_mismatch_rejected(self):
        ref = Signal(np.zeros((100, 2)), 10.0)
        stream = StreamingDwm(ref, DwmParams(1.0, 0.5, 0.5, 0.25))
        with pytest.raises(ValueError, match="channels"):
            stream.push(np.zeros((5, 3)))

    def test_exhausted_reference_stops_emitting(self):
        obs = Signal(chirpy_signal(4000), 100.0)
        ref = Signal(chirpy_signal(1000), 100.0)
        stream = StreamingDwm(ref, self.PARAMS)
        stream.push(obs.data)
        n_before = stream.n_windows_done
        assert stream.push(np.zeros((500, 1))) == []
        assert stream.n_windows_done == n_before

    def test_1d_chunks_accepted(self):
        ref = Signal(chirpy_signal(1000), 100.0)
        stream = StreamingDwm(ref, self.PARAMS)
        out = stream.push(chirpy_signal(1000))
        assert len(out) > 0


class TestFastPathDifferential:
    """The hoisted fast step vs the instrumented reference step.

    With observability disabled the streaming cursor takes ``_step_fast``
    (no span wrappers, cached Gaussian bias, direct correlation kernel);
    with it enabled it takes the original ``_dwm_step``.  Both must emit
    bit-identical displacements and scores — the fast path is an
    *overhead* optimization, never a numerical one.
    """

    PARAMS = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)

    @staticmethod
    def _run(obs_sig, ref, params, chunk, enable_obs):
        from repro import obs as obs_mod

        stream = StreamingDwm(ref, params)
        emitted = []
        was_enabled = obs_mod.enabled()
        if enable_obs:
            obs_mod.enable()
        try:
            for start in range(0, obs_sig.n_samples, chunk):
                emitted.extend(
                    stream.push(obs_sig.data[start : start + chunk])
                )
        finally:
            if enable_obs and not was_enabled:
                obs_mod.disable()
        return emitted, stream.result()

    @pytest.mark.parametrize("shift", [0, 15, -20])
    @pytest.mark.parametrize("chunk", [1, 97, 4000])
    def test_fast_and_slow_paths_bit_identical(self, shift, chunk):
        obs_sig, ref = shifted_pair(shift=shift, n=2000)
        fast_emitted, fast = self._run(
            obs_sig, ref, self.PARAMS, chunk, enable_obs=False
        )
        slow_emitted, slow = self._run(
            obs_sig, ref, self.PARAMS, chunk, enable_obs=True
        )
        assert fast_emitted == slow_emitted
        assert np.array_equal(fast.h_disp, slow.h_disp)
        assert np.array_equal(fast.scores, slow.scores)

    def test_fast_path_matches_drifting_stream(self):
        """A drifting (resampled) observed stream exercises non-trivial
        search centres and clamping on both paths."""
        data = chirpy_signal(3000)
        drift = np.interp(
            np.linspace(0, data.size - 1, data.size) * 1.01,
            np.arange(data.size),
            data,
        )
        ref = Signal(data, 100.0)
        obs_sig = Signal(drift, 100.0)
        _, fast = self._run(obs_sig, ref, self.PARAMS, 50, enable_obs=False)
        _, slow = self._run(obs_sig, ref, self.PARAMS, 50, enable_obs=True)
        assert np.array_equal(fast.h_disp, slow.h_disp)
        assert np.array_equal(fast.scores, slow.scores)

    def test_custom_similarity_never_takes_fast_path(self):
        """A non-correlation similarity must use the generic step even
        with observability disabled (the fast kernel hard-codes
        correlation)."""
        from repro.signals.metrics import correlation_similarity

        def wrapped(x, y):
            return correlation_similarity(x, y)

        obs_sig, ref = shifted_pair(shift=10, n=1500)
        generic = StreamingDwm(ref, self.PARAMS, similarity=wrapped)
        generic.push(obs_sig.data)
        fast = StreamingDwm(ref, self.PARAMS)
        fast.push(obs_sig.data)
        assert np.array_equal(
            generic.result().h_disp, fast.result().h_disp
        )


class TestSpectrogramKernelDifferential:
    """402-channel AUD spectrogram streams against the per-channel oracle.

    At the scaled spectrogram frame rate (10 frames/s) RM3's Table IV
    window is 3 shifts x 10 frames and UM3's is 41 shifts x 40 frames, so
    the two cells cover both batched branches of the direct cross term.
    A cursor fed the same uneven chunks with ``correlation_profile``
    swapped for the loop oracle must serialize to the same state.
    """

    FRAME_RATE = 10.0
    CHUNKS = (1, 7, 33, 2, 100, 13)

    @classmethod
    def _spectrogram_pair(cls, n_frames=900, n_channels=402, seed=0):
        rng = np.random.default_rng(seed)
        # Smooth, non-negative, heavy-tailed power over time, as STFT
        # magnitudes are, with a few dead (constant) bins.
        power = rng.lognormal(sigma=1.0, size=(n_frames + 40, n_channels))
        kernel = np.exp(-np.arange(6) / 2.0)
        power = np.apply_along_axis(np.convolve, 0, power, kernel, "same")
        power[:, ::97] = 0.0
        rate = cls.FRAME_RATE
        # The observed run lags by a drifting few frames, plus noise.
        lag = np.round(3 + 4 * np.sin(np.arange(n_frames) / 120.0))
        observed = power[np.arange(n_frames) + lag.astype(int)]
        observed = observed * rng.lognormal(sigma=0.1, size=observed.shape)
        return Signal(observed, rate), Signal(power[:n_frames], rate)

    def _push(self, cursor, observed):
        start, k = 0, 0
        while start < observed.n_samples:
            size = self.CHUNKS[k % len(self.CHUNKS)]
            cursor.push(observed.data[start : start + size])
            start, k = start + size, k + 1
        return cursor.state_dict()

    @pytest.mark.parametrize(
        "params", [RM3_DWM_PARAMS, UM3_DWM_PARAMS], ids=["RM3", "UM3"]
    )
    def test_state_matches_loop_oracle(self, params):
        observed, ref = self._spectrogram_pair()
        batched = self._push(
            StreamingDwm(ref, params, use_fast=True), observed
        )
        dwm_module = importlib.import_module("repro.sync.dwm")
        with mock.patch.object(
            dwm_module, "correlation_profile", oracle_correlation_profile
        ):
            oracle = self._push(
                StreamingDwm(ref, params, use_fast=True), observed
            )
        assert len(batched["h_disp"]) > 20
        assert batched == oracle
