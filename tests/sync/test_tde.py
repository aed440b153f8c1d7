"""Unit + property tests for Time Delay Estimation (plain and biased)."""

import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.signals.metrics import correlation_similarity, cosine_similarity
from repro.sync import similarity_profile, tde, tdeb
from repro.sync.tde import correlation_profile

# ``repro.sync.tde`` the module: the package attribute is the function.
tde_module = importlib.import_module("repro.sync.tde")


def embedded_template(delay=30, n_x=200, n_y=40, channels=1, noise=0.0, seed=0):
    """Random x with a template y planted at the given delay."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n_x, channels))
    y = x[delay : delay + n_y].copy()
    if noise:
        y = y + noise * rng.standard_normal(y.shape)
    return x, y


class TestSimilarityProfile:
    def test_length_matches_eq1(self):
        x, y = embedded_template()
        s = similarity_profile(x, y)
        assert s.shape == (200 - 40 + 1,)

    def test_peak_at_planted_delay(self):
        x, y = embedded_template(delay=57)
        s = similarity_profile(x, y)
        assert np.argmax(s) == 57
        assert s[57] == pytest.approx(1.0)

    def test_multichannel(self):
        x, y = embedded_template(delay=12, channels=4)
        s = similarity_profile(x, y)
        assert np.argmax(s) == 12

    def test_custom_similarity_fallback(self):
        x, y = embedded_template(delay=20)
        s = similarity_profile(x, y, similarity=cosine_similarity)
        assert np.argmax(s) == 20

    def test_channel_mismatch_rejected(self):
        with pytest.raises(ValueError, match="channel"):
            similarity_profile(np.zeros((10, 2)), np.zeros((5, 3)))

    def test_y_longer_than_x_rejected(self):
        with pytest.raises(ValueError, match="shorter"):
            similarity_profile(np.zeros(5), np.ones(10))

    def test_empty_y_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            similarity_profile(np.zeros(5), np.zeros(0))

    def test_vectorized_matches_loop(self):
        """The fast path must agree with Eq. (3) applied per shift."""
        rng = np.random.default_rng(3)
        x = rng.standard_normal((80, 3))
        y = rng.standard_normal((17, 3))
        fast = correlation_profile(x, y)
        slow = np.array(
            [correlation_similarity(x[n : n + 17], y) for n in range(64)]
        )
        assert np.allclose(fast, slow, atol=1e-10)

    def test_vectorized_handles_constant_windows(self):
        x = np.ones((50, 1))
        x[20:30, 0] = np.arange(10)
        y = np.ones((10, 1))
        s = correlation_profile(x, y)
        assert np.all(np.isfinite(s))

    @given(delay=st.integers(0, 160))
    @settings(max_examples=25, deadline=None)
    def test_recovers_any_delay(self, delay):
        x, y = embedded_template(delay=delay, n_x=200, n_y=40, seed=delay)
        assert int(np.argmax(similarity_profile(x, y))) == delay


class TestTde:
    def test_returns_argmax(self):
        x, y = embedded_template(delay=42)
        result = tde(x, y)
        assert result.delay == 42
        assert result.score == pytest.approx(1.0)

    def test_noisy_template_still_found(self):
        x, y = embedded_template(delay=42, noise=0.3, seed=7)
        assert tde(x, y).delay == 42

    def test_scores_array_exposed(self):
        x, y = embedded_template()
        result = tde(x, y)
        assert result.scores.shape == (161,)
        assert result.scores[result.delay] == pytest.approx(result.score)


class TestTdeb:
    def test_bias_resolves_periodic_ambiguity(self):
        """Fig. 5's scenario: periodic content has many equal peaks; the
        bias must pick the one near the centre."""
        t = np.arange(400)
        x = np.sin(2 * np.pi * t / 25.0)[:, np.newaxis]  # period 25
        y = x[150:250].copy()  # many perfect matches, 25 samples apart
        unbiased = tde(x, y)
        biased = tdeb(x, y, sigma=10.0)
        centre = (400 - 100) // 2
        assert abs(biased.delay - centre) <= abs(unbiased.delay - centre) + 25
        assert abs(biased.delay - centre) <= 12

    def test_bias_on_pure_noise_stays_near_centre(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((300, 1))
        y = rng.standard_normal((50, 1))  # unrelated noise
        delays = [
            tdeb(x, y, sigma=10.0, centre=125).delay for _ in range(1)
        ]
        assert abs(delays[0] - 125) <= 40

    def test_strong_peak_overrides_bias(self):
        x, y = embedded_template(delay=140, n_x=200, n_y=40)
        result = tdeb(x, y, sigma=60.0)
        assert result.delay == 140

    def test_custom_centre(self):
        x, y = embedded_template(delay=10)
        result = tdeb(x, y, sigma=5.0, centre=10)
        assert result.delay == 10

    def test_score_is_unbiased_similarity(self):
        x, y = embedded_template(delay=80)
        result = tdeb(x, y, sigma=80.0)
        assert result.score == pytest.approx(1.0, abs=1e-9)

    def test_invalid_sigma(self):
        x, y = embedded_template()
        with pytest.raises(ValueError, match="sigma"):
            tdeb(x, y, sigma=0.0)

    def test_negative_scores_not_inverted(self):
        """Regression: multiplying negative scores by a small Gaussian tail
        must not make far-away anti-correlated shifts look good."""
        t = np.arange(300)
        x = np.sin(2 * np.pi * t / 40.0)[:, np.newaxis]
        y = x[100:160].copy()
        result = tdeb(x, y, sigma=15.0, centre=100)
        assert result.score > 0.9


def loop_cross(x2, y2, n_shifts):
    """The per-channel ``np.correlate`` loop the batched kernel replaces."""
    cross = np.empty((n_shifts, x2.shape[1]))
    for c in range(x2.shape[1]):
        cross[:, c] = np.correlate(x2[:, c], y2[:, c], mode="valid")
    return cross


def oracle_correlation_profile(x, y):
    """``correlation_profile`` with its cross term from :func:`loop_cross`."""
    with mock.patch.object(tde_module, "_direct_cross", loop_cross):
        return correlation_profile(x, y)


@st.composite
def direct_branch_inputs(draw):
    """(x, y) pairs on the direct branch, in every memory layout DWM makes.

    Template lengths straddle numpy's 11/12-tap small-kernel switch and
    channel counts straddle the 16-channel batching threshold.
    """
    n_y = draw(st.integers(1, 16))
    n_shifts = draw(st.integers(1, 12))
    n_ch = draw(st.sampled_from([1, 6, 15, 16, 17, 402]))
    layout = draw(st.sampled_from(["C", "F", "slice"]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    n_x = n_shifts + n_y - 1
    if layout == "slice":
        # A row slice of a longer reference, as ``b.data[start:stop]``.
        x = rng.standard_normal((n_x + 9, n_ch))[4 : 4 + n_x]
    else:
        x = rng.standard_normal((n_x, n_ch))
        if layout == "F":
            x = np.asfortranarray(x)
    y = rng.standard_normal((n_y, n_ch))
    if layout == "F":
        y = np.asfortranarray(y)
    if draw(st.booleans()):
        x[:, draw(st.integers(0, n_ch - 1))] = 2.5  # a constant channel
    return x, y


class TestDirectCrossOracle:
    """The batched direct cross term against the per-channel loop.

    Equality is exact: a future numpy that changes how ``np.correlate``
    sums (its small-kernel rule, or BLAS dispatch) fails here first.
    """

    @given(direct_branch_inputs())
    @settings(max_examples=200, deadline=None)
    def test_kernel_bit_identical(self, xy):
        x, y = xy
        n_shifts = x.shape[0] - y.shape[0] + 1
        cross = tde_module._direct_cross(x, y, n_shifts)
        assert np.array_equal(cross, loop_cross(x, y, n_shifts))
        assert cross.flags.c_contiguous

    @given(direct_branch_inputs())
    @settings(max_examples=200, deadline=None)
    def test_profile_bit_identical(self, xy):
        x, y = xy
        assert np.array_equal(
            correlation_profile(x, y), oracle_correlation_profile(x, y)
        )

    @pytest.mark.parametrize("n_y", [11, 12])
    def test_signed_zero_products_match(self, n_y):
        """A zero template against a negative signal: numpy's sums start
        from +0.0, so no -0.0 may leak out of either batched branch."""
        x = -np.ones((n_y + 4, 402))
        y = np.zeros((n_y, 402))
        cross = tde_module._direct_cross(x, y, 5)
        assert not np.signbit(cross).any()
        assert not np.signbit(loop_cross(x, y, 5)).any()
