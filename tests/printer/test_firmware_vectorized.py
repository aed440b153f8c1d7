"""Equivalence of the fast firmware kernels with their references.

The vectorized ``_sample`` is the hot path of every simulation; the
original per-segment loop is kept as ``_sample_loop``.  The thermal track's
one-pole IIR must keep ``scipy.signal.lfilter``'s bits, which every cached
campaign holds, so it is checked against ``lfilter`` itself (imported here
only: the simulation path does not import scipy).  Any divergence would
silently change every cached campaign, so equivalence is asserted at
tier 1, on both kinematics and both with and without time noise.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import lfilter

from repro.attacks import PrintJob
from repro.printer import (
    NO_TIME_NOISE,
    ROSTOCK_MAX_V3,
    TimeNoiseModel,
    ULTIMAKER3,
)
from repro.printer import firmware as firmware_module
from repro.printer.arcs import segment_arcs
from repro.printer.firmware import Firmware, _first_order_iir
from repro.slicer import SlicerConfig, gear_outline

FLOAT_TRACKS = (
    "position", "velocity", "acceleration", "extrusion_rate",
    "hotend_temp", "bed_temp", "fan",
)
INT_TRACKS = ("command_index", "layer_index")


def _scheduled(machine, noise, seed):
    center = (110.0, 110.0) if machine is ULTIMAKER3 else (0.0, 0.0)
    job = PrintJob.slice(
        gear_outline(n_teeth=12, outer_diameter=30.0, tooth_depth=2.0),
        SlicerConfig(object_height=0.4, layer_height=0.2, infill_spacing=6.0),
        center=center,
    )
    firmware = Firmware(machine, noise)
    started = noise.start(np.random.default_rng(seed))
    segments, events = firmware._schedule(segment_arcs(job.program), started)
    return firmware, segments, events


@pytest.mark.parametrize("machine", [ULTIMAKER3, ROSTOCK_MAX_V3],
                         ids=["UM3", "RM3"])
@pytest.mark.parametrize("noisy", [False, True], ids=["clean", "noisy"])
def test_sample_matches_loop_reference(machine, noisy):
    noise = TimeNoiseModel() if noisy else NO_TIME_NOISE
    firmware, segments, events = _scheduled(machine, noise, seed=5)
    vec = firmware._sample(segments, events)
    ref = firmware._sample_loop(segments, events)
    assert np.array_equal(vec.times, ref.times)
    for name in FLOAT_TRACKS:
        a, b = getattr(vec, name), getattr(ref, name)
        assert a.shape == b.shape
        assert np.max(np.abs(a - b)) <= 1e-9, name
    for name in INT_TRACKS:
        assert np.array_equal(getattr(vec, name), getattr(ref, name)), name


def test_sample_motion_bit_exact():
    """Motion tracks (not just thermal) are *bit*-identical, so cached runs
    generated by either implementation interchange freely."""
    firmware, segments, events = _scheduled(ULTIMAKER3, TimeNoiseModel(), 9)
    vec = firmware._sample(segments, events)
    ref = firmware._sample_loop(segments, events)
    for name in ("position", "velocity", "acceleration", "extrusion_rate"):
        assert np.array_equal(getattr(vec, name), getattr(ref, name)), name


def _alpha(machine, tau):
    return min((1.0 / machine.sim_rate) / max(tau, 1e-6), 1.0)


def _lfilter_iir(x, y0, alpha):
    return lfilter([alpha], [1.0, alpha - 1.0], x, zi=[(1.0 - alpha) * y0])[0]


def _bit_equal(a, b):
    return np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


@pytest.mark.parametrize("machine", [ULTIMAKER3, ROSTOCK_MAX_V3],
                         ids=["UM3", "RM3"])
def test_thermal_track_matches_lfilter(machine):
    firmware, _, events = _scheduled(machine, NO_TIME_NOISE, 0)
    times = np.arange(20_000) / machine.sim_rate
    for profile_key, tau in (
        ("hotend", machine.hotend_tau),
        ("bed", machine.bed_tau),
    ):
        track = firmware._thermal_track(times, events[profile_key], tau)
        target = firmware._step_track(times, events[profile_key])
        y0 = machine.ambient_temp
        assert track[0] == y0
        assert _bit_equal(track[1:], _lfilter_iir(target[1:], y0, _alpha(machine, tau)))


_MACHINE_ALPHAS = sorted({
    _alpha(machine, tau)
    for machine in (ULTIMAKER3, ROSTOCK_MAX_V3)
    for tau in (machine.hotend_tau, machine.bed_tau)
})
_LEVELS = st.one_of(
    st.sampled_from([0.0, -0.0, -40.0, 25.0, 60.0, 205.0]),
    st.floats(-1e4, 1e4, allow_nan=False),
)


@given(
    runs=st.lists(
        st.tuples(_LEVELS, st.integers(1, 5_000)), min_size=1, max_size=4
    ),
    alpha=st.one_of(
        st.sampled_from(_MACHINE_ALPHAS),
        st.floats(0.0, 1.0, exclude_min=True),
    ),
    y0=st.one_of(st.sampled_from([0.0, -0.0, 25.0]), st.floats(-300.0, 300.0)),
    shorter=st.integers(1, 5_000),
)
@settings(max_examples=60, deadline=None)
def test_first_order_iir_matches_lfilter(runs, alpha, y0, shorter):
    """Bit-identical to ``lfilter`` on piecewise-constant input, through a
    fresh memo entry, a handed-out prefix and an extension of the entry."""
    x = np.concatenate([np.full(n, level) for level, n in runs])
    bits = x.view(np.int64)
    first_len = int(np.argmin(bits == bits[0])) or x.size  # equal runs merge
    head = x[: min(shorter, first_len)]
    firmware_module._IIR_RAMPS.clear()
    for xs in (head, x, head):
        assert _bit_equal(_first_order_iir(xs, y0, alpha), _lfilter_iir(xs, y0, alpha))
    (ramp,) = firmware_module._IIR_RAMPS.values()
    assert ramp.shape == (max(head.size, first_len),)


def test_thermal_track_empty_and_single():
    firmware, _, events = _scheduled(ULTIMAKER3, NO_TIME_NOISE, 0)
    times = np.arange(64) / ULTIMAKER3.sim_rate
    fast = firmware._thermal_track(times, events["hotend"], ULTIMAKER3.hotend_tau)
    assert fast.shape == times.shape
    single = firmware._thermal_track(
        times[:1], events["hotend"], ULTIMAKER3.hotend_tau
    )
    assert single.shape == (1,)
