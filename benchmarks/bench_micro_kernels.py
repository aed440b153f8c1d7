"""Micro-benchmarks of the hot kernels (regression tracking).

Unlike the table/figure benches (single-shot experiment reproductions),
these use pytest-benchmark's statistical timing: the kernels here are the
ones whose constants decide whether the IDS runs in real time, so a
regression in any of them matters.

Rough expectations on commodity hardware:
* correlation_profile: sub-millisecond for a 4 s ACC window, and for one
  402-channel AUD spectrogram window at RM3's and UM3's Table IV shapes;
* one full DWM synchronization of an 80 s raw ACC pair: tens of ms;
* one compare-stage ``window_distances`` call over a run's windows,
  gather included: a few ms; over one fleet window: tens of µs;
* STFT of the same signal: a few ms.
"""

import importlib
from unittest import mock

import numpy as np
import pytest

from repro.attacks import PrintJob
from repro.core import Comparator
from repro.printer import TimeNoiseModel, ULTIMAKER3
from repro.printer.arcs import segment_arcs
from repro.printer.firmware import Firmware
from repro.signals import Signal, SpectrogramConfig, spectrogram
from repro.slicer import SlicerConfig, gear_outline
from repro.sync import (
    DwmSynchronizer, SyncResult, UM3_DWM_PARAMS, fastdtw_path, tdeb,
)
from repro.sync.tde import correlation_profile

tde_module = importlib.import_module("repro.sync.tde")


@pytest.fixture(scope="module")
def acc_like_pair():
    """Two 80 s, 400 Hz, 6-channel signals with realistic structure."""
    rng = np.random.default_rng(0)
    base = np.cumsum(rng.standard_normal((32000, 6)), axis=0)
    base -= np.linspace(0, 1, 32000)[:, None] * base[-1]
    a = Signal(base + 0.05 * rng.standard_normal(base.shape), 400.0)
    b = Signal(base + 0.05 * rng.standard_normal(base.shape), 400.0)
    return a, b


def test_kernel_correlation_profile(benchmark, acc_like_pair):
    a, b = acc_like_pair
    window = a.data[:1600]            # one 4 s analysis window
    segment = b.data[:3200]           # its extended search window
    result = benchmark(correlation_profile, segment, window)
    assert result.shape == (1601,)
    assert result.max() > 0.9


def _loop_cross(x2, y2, n_shifts):
    """The per-channel ``np.correlate`` loop the batched kernel replaces."""
    cross = np.empty((n_shifts, x2.shape[1]))
    for c in range(x2.shape[1]):
        cross[:, c] = np.correlate(x2[:, c], y2[:, c], mode="valid")
    return cross


@pytest.mark.parametrize(
    "n_shifts,n_win", [(3, 10), (41, 40)], ids=["RM3", "UM3"]
)
def test_kernel_correlation_profile_aud_spectro(benchmark, n_shifts, n_win):
    """One DWM window of an AUD Spectro. stream (2 mics x 201 bins) at the
    scaled 10 frames/s: RM3 searches 3 shifts of a 10-frame window, UM3
    41 shifts of a 40-frame one.  Must equal the per-channel loop."""
    rng = np.random.default_rng(2)
    power = rng.lognormal(size=(n_win + n_shifts + 20, 402))
    segment = power[10 : 10 + n_win + n_shifts - 1]  # a reference row slice
    window = power[12 : 12 + n_win] * rng.lognormal(0.0, 0.1, (n_win, 402))
    result = benchmark(correlation_profile, segment, window)
    with mock.patch.object(tde_module, "_direct_cross", _loop_cross):
        oracle = correlation_profile(segment, window)
    assert result.shape == (n_shifts,)
    assert np.array_equal(result, oracle)


@pytest.mark.parametrize(
    "k,n,c",
    [(153, 400, 6), (35, 40, 402), (1, 200, 1)],
    ids=["RM3-ACC-Raw", "UM3-AUD-Spectro", "fleet-window"],
)
def test_kernel_pair_distances(benchmark, k, n, c):
    """The compare stage over one push: k windows of n samples by c
    channels through :meth:`Comparator.window_distances`, gather included
    (a whole run in batch mode, or the single window a demo fleet stream
    completes at 200 Hz).  Must equal the scalar per-window reference bit
    for bit."""
    rng = np.random.default_rng(3)
    hop = max(n // 2, 1)
    ref = rng.standard_normal((k * hop + n, c))
    obs = ref[: len(ref) - 7] * 1.5 + 0.1 * rng.standard_normal(
        (len(ref) - 7, c)
    )
    index, disp = list(range(k)), [3.0] * k
    comp = Comparator()
    dist, overlap = benchmark(
        comp.window_distances, obs, 0, ref, index, disp, n, hop
    )
    sync = SyncResult(np.asarray(disp), mode="window", n_win=n, n_hop=hop)
    oracle = comp._window_distances_scalar(
        Signal(obs, 1.0), Signal(ref, 1.0), sync
    )
    assert np.array_equal(dist, oracle)
    assert overlap == [n] * k


def test_kernel_tdeb(benchmark, acc_like_pair):
    a, b = acc_like_pair
    window = a.data[800:2400]         # planted at delay 800 in the segment
    segment = b.data[:3200]
    result = benchmark(tdeb, segment, window, 400.0)
    assert abs(result.delay - 800) < 40


def test_kernel_dwm_full_sync(benchmark, acc_like_pair):
    a, b = acc_like_pair
    sync = benchmark(DwmSynchronizer(UM3_DWM_PARAMS).synchronize, a, b)
    assert sync.n_indexes > 30
    # Real-time requirement: well under the 80 s of signal.
    assert benchmark.stats["mean"] < 8.0


def test_kernel_stft(benchmark, acc_like_pair):
    a, _ = acc_like_pair
    config = SpectrogramConfig(delta_f=2.0, delta_t=0.125)
    spec = benchmark(spectrogram, a, config)
    assert spec.n_samples > 100


def test_kernel_fastdtw(benchmark):
    rng = np.random.default_rng(1)
    base = np.cumsum(rng.standard_normal((800, 8)), axis=0)
    a, b = base[:760], base[20:780]
    cost, path = benchmark(fastdtw_path, a, b, 1)
    assert path[0] == (0, 0)


# ---------------------------------------------------------------------------
# Firmware sampling kernels: vectorized vs loop-reference regression
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def scheduled_print():
    """Segments + events of one noisy gear print (the _sample workload)."""
    job = PrintJob.slice(
        gear_outline(),
        SlicerConfig(object_height=0.6, infill_spacing=6.0),
        center=(110.0, 110.0),
    )
    firmware = Firmware(ULTIMAKER3, TimeNoiseModel())
    noise = TimeNoiseModel().start(np.random.default_rng(3))
    segments, events = firmware._schedule(
        segment_arcs(job.program), noise
    )
    return firmware, segments, events


def test_kernel_sample_vectorized(benchmark, scheduled_print):
    firmware, segments, events = scheduled_print
    trace = benchmark(firmware._sample, segments, events)
    reference = firmware._sample_loop(segments, events)
    for name in (
        "position", "velocity", "acceleration", "extrusion_rate",
        "hotend_temp", "bed_temp", "fan",
    ):
        a = getattr(trace, name)
        b = getattr(reference, name)
        assert np.max(np.abs(a - b)) <= 1e-9
    assert np.array_equal(trace.command_index, reference.command_index)
    assert np.array_equal(trace.layer_index, reference.layer_index)


def test_kernel_sample_loop_reference(benchmark, scheduled_print):
    firmware, segments, events = scheduled_print
    trace = benchmark(firmware._sample_loop, segments, events)
    assert trace.n_samples > 1000


def test_kernel_thermal_track(benchmark, scheduled_print):
    firmware, segments, events = scheduled_print
    times = np.arange(40_000) / ULTIMAKER3.sim_rate
    hot = benchmark(
        firmware._thermal_track, times, events["hotend"], ULTIMAKER3.hotend_tau
    )
    reference = firmware._thermal_track_loop(
        times, events["hotend"], ULTIMAKER3.hotend_tau
    )
    assert np.max(np.abs(hot - reference)) <= 1e-9
