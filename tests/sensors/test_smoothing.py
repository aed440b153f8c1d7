"""The accelerometer's mechanical smoothing against ``scipy.ndimage``.

``_gaussian_smooth`` replaces ``scipy.ndimage.gaussian_filter1d`` on the
simulation path (which imports no scipy) and must keep its bits, which
every cached ACC run holds.  scipy is imported here only, as the oracle.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.ndimage import gaussian_filter1d

from repro.sensors.motion_sensors import _gaussian_smooth


@st.composite
def _signals(draw):
    n = draw(st.integers(1, 300))
    channels = draw(st.integers(1, 3))
    x = draw(arrays(np.float64, (n, channels),
                    elements=st.floats(-1e4, 1e4, allow_nan=False)))
    return np.asfortranarray(x) if draw(st.booleans()) else x


@given(
    x=_signals(),
    sigma=st.one_of(
        st.floats(0.01, 0.12),    # radius 0: the centre tap alone
        st.floats(0.125, 8.0),
        st.floats(8.0, 150.0),    # radius beyond n: repeated reflection
    ),
)
@example(x=np.array([[3.0]]), sigma=40.0)
@example(x=np.arange(7.0).reshape(7, 1), sigma=0.05)
@example(x=np.asfortranarray(np.arange(12.0).reshape(4, 3)), sigma=25.0)
@settings(max_examples=80, deadline=None)
def test_matches_gaussian_filter1d(x, sigma):
    out = _gaussian_smooth(x, sigma)
    assert out.flags.c_contiguous
    assert np.array_equal(out, gaussian_filter1d(x, sigma, axis=0))


def test_matches_on_a_run_sized_track():
    rng = np.random.default_rng(3)
    x = rng.standard_normal((32161, 3)) * 1e3
    assert np.array_equal(
        _gaussian_smooth(x, 12.0), gaussian_filter1d(x, 12.0, axis=0)
    )
