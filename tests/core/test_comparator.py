"""Unit tests for the comparator (vertical-distance calculation)."""

import numpy as np
import pytest

from repro.core import Comparator, stack_axis, vertical_distances
from repro.signals import Signal
from repro.sync import SyncResult


def make_signal(n=100, fs=10.0, seed=0, channels=1):
    rng = np.random.default_rng(seed)
    return Signal(rng.standard_normal((n, channels)), fs)


def window_sync(n_indexes, n_win=10, n_hop=5, h_disp=None):
    h = np.zeros(n_indexes) if h_disp is None else np.asarray(h_disp, float)
    return SyncResult(h_disp=h, mode="window", n_win=n_win, n_hop=n_hop)


class TestWindowMode:
    def test_identical_signals_zero_distance(self):
        s = make_signal()
        v = vertical_distances(s, s, window_sync(10))
        assert np.allclose(v, 0.0, atol=1e-12)

    def test_gain_change_still_zero_with_correlation(self):
        s = make_signal()
        scaled = s.with_data(s.data * 7.5)
        v = vertical_distances(scaled, s, window_sync(10))
        assert np.allclose(v, 0.0, atol=1e-9)

    def test_displacement_applied(self):
        """With the correct h_disp, a shifted copy scores near zero."""
        data = np.random.default_rng(1).standard_normal(200)
        ref = Signal(data, 10.0)
        obs = Signal(data[5:150], 10.0)  # obs[i] = ref[i + 5]
        sync = window_sync(10, h_disp=np.full(10, 5.0))
        v = vertical_distances(obs, ref, sync)
        assert np.allclose(v, 0.0, atol=1e-12)

        wrong = vertical_distances(obs, ref, window_sync(10))
        assert wrong.mean() > 0.5

    def test_unrelated_signals_high_distance(self):
        v = vertical_distances(
            make_signal(seed=1), make_signal(seed=2), window_sync(10)
        )
        assert v.mean() > 0.5

    def test_boundary_window_reports_max_distance(self):
        """A window pushed off the reference end must score 2.0 (worst)."""
        obs = make_signal(100)
        ref = make_signal(100)
        sync = window_sync(1, h_disp=[99.0])  # only 1 overlapping sample
        v = vertical_distances(obs, ref, sync)
        assert v[0] == pytest.approx(2.0)

    def test_custom_metric_by_name(self):
        s = make_signal()
        shifted = s.with_data(s.data + 1.0)
        v = Comparator("mae").vertical_distances(s, shifted, window_sync(5))
        assert np.allclose(v, 1.0)

    def test_custom_metric_callable(self):
        calls = []

        def metric(u, v):
            calls.append(1)
            return 0.25

        s = make_signal()
        v = Comparator(metric).vertical_distances(s, s, window_sync(4))
        assert np.allclose(v, 0.25)
        assert len(calls) == 4

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError, match="unknown distance"):
            Comparator("chebyshev")

    def test_fractional_h_disp_rounded(self):
        s = make_signal(200)
        sync = window_sync(5, h_disp=[0.4, -0.4, 0.0, 0.49, -0.49])
        v = vertical_distances(s, s, sync)
        assert np.allclose(v, 0.0, atol=1e-12)


class TestPointMode:
    def test_point_mode_needs_pairs(self):
        s = make_signal()
        sync = SyncResult(h_disp=np.zeros(10), mode="point", pairs=None)
        with pytest.raises(ValueError, match="warping path"):
            vertical_distances(s, s, sync)

    def test_identity_path_zero_distance(self):
        s = make_signal(20, channels=3)
        pairs = [(i, i) for i in range(20)]
        sync = SyncResult(h_disp=np.zeros(20), mode="point", pairs=pairs)
        v = vertical_distances(s, s, sync)
        assert np.allclose(v, 0.0, atol=1e-9)

    def test_duplicate_pairs_averaged_eq15(self):
        obs = Signal(np.array([[1.0, 2.0]]), 1.0)
        ref = Signal(np.array([[1.0, 2.0], [2.0, 1.0]]), 1.0)
        pairs = [(0, 0), (0, 1)]
        sync = SyncResult(h_disp=np.zeros(1), mode="point", pairs=pairs)
        v = Comparator("mae").vertical_distances(obs, ref, sync)
        # d(a0, b0) = 0; d(a0, b1) = mean(|1-2|, |2-1|) = 1 -> average 0.5
        assert v[0] == pytest.approx(0.5)

    def test_out_of_range_pairs_skipped(self):
        s = make_signal(5)
        pairs = [(0, 0), (10, 2), (1, 99)]
        sync = SyncResult(h_disp=np.zeros(5), mode="point", pairs=pairs)
        v = vertical_distances(s, s, sync)
        assert v.shape == (5,)


class TestDegenerateWindows:
    """Regression tests: zero-variance / non-finite inputs must map to
    explicit worst-case (or zero) distances, never NaN and never a crash."""

    def test_constant_window_vs_varying_is_max_distance(self):
        """Pre-fix: Pearson's r on a constant window degenerated and v_dist
        could go NaN, which compares benign against every threshold."""
        obs = make_signal(100)
        frozen = obs.with_data(np.zeros_like(obs.data))
        v = vertical_distances(frozen, obs, window_sync(10))
        assert np.isfinite(v).all()
        assert np.allclose(v, 2.0)

    def test_identical_constant_windows_are_zero(self):
        s = Signal(np.full(100, 3.25), 10.0)
        v = vertical_distances(s, s, window_sync(10))
        assert np.allclose(v, 0.0)

    def test_different_constant_windows_are_max(self):
        a = Signal(np.full(100, 1.0), 10.0)
        b = Signal(np.full(100, -1.0), 10.0)
        v = vertical_distances(a, b, window_sync(10))
        assert np.allclose(v, 2.0)

    def test_non_finite_h_disp_does_not_crash(self):
        """Pre-fix: int(round(nan)) raised mid-detection."""
        s = make_signal(200)
        sync = window_sync(5, h_disp=[0.0, np.nan, np.inf, -np.inf, 0.0])
        v = vertical_distances(s, s, sync)
        assert np.isfinite(v).all()
        assert v[1] == v[2] == v[3] == pytest.approx(2.0)
        assert v[0] == pytest.approx(0.0, abs=1e-9)

    def test_huge_negative_offset_is_max_distance(self):
        """An offset so negative the reference window clamps to nothing
        must score as a walk-off, like an overrun does."""
        s = make_signal(200)
        sync = window_sync(3, h_disp=[0.0, -1e6, -200.0])
        v = vertical_distances(s, s, sync)
        assert np.isfinite(v).all()
        assert v[1] == pytest.approx(2.0)
        assert v[2] == pytest.approx(2.0)

    def test_nan_returning_metric_clamped(self):
        """Whatever a custom metric emits, v_dist stays finite."""
        s = make_signal()
        v = Comparator(lambda u, w: float("nan")).vertical_distances(
            s, s, window_sync(4)
        )
        assert np.allclose(v, 2.0)

    def test_constant_special_case_is_correlation_only(self):
        """Other metrics are well-defined on constants and stay untouched."""
        a = Signal(np.full(100, 2.0), 10.0)
        b = Signal(np.full(100, 5.0), 10.0)
        v = Comparator("mae").vertical_distances(a, b, window_sync(5))
        assert np.allclose(v, 3.0)

    def test_pair_distance_public_contract(self):
        comp = Comparator("correlation")
        varying = np.random.default_rng(0).standard_normal((20, 1))
        const = np.full((20, 1), 1.5)
        assert comp.pair_distance(const, varying) == 2.0
        assert comp.pair_distance(const, const.copy()) == 0.0
        assert np.isfinite(comp.pair_distance(varying, varying))


class TestBatchedDifferential:
    """The vectorized comparator paths vs their scalar bit-oracles.

    ``_window_distances_scalar`` / ``pair_distance`` are kept verbatim as
    references; the batched implementations must reproduce them *bit for
    bit* (not approximately) so chunking invariance and forensic replay
    stay exact.
    """

    @staticmethod
    def _windows(seed, k, n, c, special):
        """A (k, n, c) stack with optional degenerate windows mixed in."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((k, n, c))
        for j in range(k):
            kind = special[j % len(special)] if special else "normal"
            if kind == "const":
                w[j] = float(j)
            elif kind == "nan":
                w[j, n // 2, 0] = np.nan
        return w

    def test_pair_distances_matches_pair_distance(self):
        comp = Comparator("correlation")
        specials = ["normal", "const", "nan", "normal"]
        wa = self._windows(1, 8, 12, 2, specials)
        wb = self._windows(2, 8, 12, 2, ["normal", "const"])
        batched = comp.pair_distances(wa, wb)
        scalar = np.array(
            [comp.pair_distance(wa[j], wb[j]) for j in range(8)]
        )
        assert np.array_equal(batched, scalar)

    def test_pair_distances_identical_constants_zero(self):
        comp = Comparator("correlation")
        wa = np.full((3, 10, 1), 4.0)
        wb = wa.copy()
        wb[1] += 1.0  # different constant -> worst case
        batched = comp.pair_distances(wa, wb)
        assert batched[0] == 0.0
        assert batched[1] == 2.0
        assert batched[2] == 0.0

    def test_pair_distances_shape_mismatch_rejected(self):
        comp = Comparator("correlation")
        with pytest.raises(ValueError, match="window stacks"):
            comp.pair_distances(np.zeros((2, 5, 1)), np.zeros((2, 6, 1)))

    def test_pair_distances_empty_stack(self):
        assert Comparator().pair_distances(
            np.zeros((0, 5, 1)), np.zeros((0, 5, 1))
        ).shape == (0,)

    def test_pair_distances_noncorrelation_falls_back(self):
        comp = Comparator("mae")
        wa = self._windows(3, 4, 9, 1, [])
        wb = self._windows(4, 4, 9, 1, [])
        batched = comp.pair_distances(wa, wb)
        scalar = np.array(
            [comp.pair_distance(wa[j], wb[j]) for j in range(4)]
        )
        assert np.array_equal(batched, scalar)

    def test_single_channel_needs_pair_major_stack(self):
        """Why :func:`stack_axis` keeps c == 1 pair-major: numpy sums a
        contiguous ``(n, 1)`` window pairwise, so reducing a window-major
        stack (sequential over n) changes bits once n is large enough."""
        assert stack_axis(1) == 1 and stack_axis(2) == stack_axis(402) == 0
        comp = Comparator("correlation")
        wa = np.random.default_rng(0).standard_normal((20, 200, 1))
        wb = np.random.default_rng(100).standard_normal((20, 200, 1))
        scalar = np.array(
            [comp.pair_distance(wa[j], wb[j]) for j in range(20)]
        )
        assert np.array_equal(comp.pair_distances(wa, wb, axis=1), scalar)
        window_major = comp.pair_distances(
            np.ascontiguousarray(wa.transpose(1, 0, 2)),
            np.ascontiguousarray(wb.transpose(1, 0, 2)),
            axis=0,
        )
        assert not np.array_equal(window_major, scalar)

    def test_pair_distances_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="window axis"):
            Comparator().pair_distances(
                np.zeros((2, 5, 1)), np.zeros((2, 5, 1)), axis=2
            )

    def test_pair_distances_hypothesis_bit_identical(self):
        """Both stack layouts against the scalar reference, bit for bit:
        equal values and equal sign bits, over degenerate windows too."""
        from hypothesis import example, given, settings
        from hypothesis import strategies as st

        comp = Comparator("correlation")
        kinds = ["normal", "const", "same_const", "nan", "neg_zero", "zeros"]

        def pair(rng, kind, n, c):
            scale, offset = rng.uniform(1e-3, 1e3), rng.uniform(-1e3, 1e3)
            wa = rng.standard_normal((n, c)) * scale + offset
            wb = rng.standard_normal((n, c))
            if kind == "const":
                wa[:] = rng.uniform(-5.0, 5.0, c)
            elif kind == "same_const":
                wa[:] = rng.uniform(-5.0, 5.0, c)
                wb = wa.copy()
            elif kind == "nan":
                wa[rng.integers(n), rng.integers(c)] = np.nan
            elif kind == "neg_zero":
                wa[:: max(n // 3, 1)] = -0.0
                wb[:, 0] = -0.0
            elif kind == "zeros":
                wa[:] = -0.0
                wb[:] = 0.0
            return wa, wb

        @given(
            seed=st.integers(0, 2**16),
            c=st.sampled_from([1, 2, 3, 6, 16, 402]),
            n=st.integers(2, 2000),
            pair_kinds=st.lists(
                st.sampled_from(kinds), min_size=2, max_size=5
            ),
        )
        @settings(deadline=None, max_examples=60)
        # Long single-channel windows are where pairwise and sequential
        # sums part; wide ones are the spectrogram cells.
        @example(seed=1, c=1, n=200, pair_kinds=["normal"] * 4)
        @example(seed=1, c=6, n=2000, pair_kinds=["normal", "nan", "zeros"])
        @example(seed=2, c=402, n=40, pair_kinds=kinds)
        def property_case(seed, c, n, pair_kinds):
            rng = np.random.default_rng(seed)
            pairs = [pair(rng, kind, n, c) for kind in pair_kinds]
            scalar = np.array([comp.pair_distance(a, b) for a, b in pairs])
            axis = stack_axis(c)
            for layout in {axis, 1}:
                batched = comp.pair_distances(
                    np.stack([a for a, _ in pairs], axis=1 - layout),
                    np.stack([b for _, b in pairs], axis=1 - layout),
                    layout,
                )
                assert np.array_equal(batched, scalar)
                assert np.array_equal(
                    np.signbit(batched), np.signbit(scalar)
                )

        property_case()

    def test_window_distances_matches_scalar_reference(self):
        """Mixed clean / clipped / walked-off / NaN-displaced windows."""
        comp = Comparator("correlation")
        a = make_signal(200, seed=3, channels=2)
        b = make_signal(220, seed=4, channels=2)
        h = [0.0, 3.0, -2.4, np.nan, 1e9, -1e9, 215.0, 0.5, np.inf, 7.0]
        sync = window_sync(10, n_win=16, n_hop=8, h_disp=h)
        fast = comp.vertical_distances(a, b, sync)
        scalar = comp._window_distances_scalar(a, b, sync)
        assert np.array_equal(fast, scalar)

    def test_window_distances_quarantined_nan_windows(self):
        """NaN samples (as left by a disabled sanitizer) score identically
        through the batched and scalar routes."""
        comp = Comparator("correlation")
        data = np.random.default_rng(5).standard_normal((200, 1))
        data[30:40] = np.nan
        a = Signal(data, 10.0)
        b = make_signal(200, seed=6)
        sync = window_sync(20, n_win=12, n_hop=6)
        fast = comp.vertical_distances(a, b, sync)
        scalar = comp._window_distances_scalar(a, b, sync)
        assert np.array_equal(fast, scalar)

    def test_window_distances_hypothesis_bit_identical(self):
        from hypothesis import given, settings
        from hypothesis import strategies as st

        comp = Comparator("correlation")

        @given(
            seed=st.integers(0, 2**16),
            channels=st.sampled_from([1, 3]),
            n_win=st.integers(2, 10),
            n_hop=st.integers(1, 8),
            disps=st.lists(
                st.one_of(
                    st.floats(-40, 40),
                    st.sampled_from(
                        [np.nan, np.inf, -np.inf, 1e300, -1e300]
                    ),
                ),
                min_size=1,
                max_size=12,
            ),
            zero_var=st.booleans(),
        )
        @settings(deadline=None, max_examples=75)
        def property_case(seed, channels, n_win, n_hop, disps, zero_var):
            rng = np.random.default_rng(seed)
            n = max(n_hop * len(disps) + n_win, n_win) + 5
            da = rng.standard_normal((n, channels))
            db = rng.standard_normal((n + 13, channels))
            if zero_var:
                da[: n // 2] = 1.25  # constant prefix windows
            a, b = Signal(da, 10.0), Signal(db, 10.0)
            sync = window_sync(
                len(disps), n_win=n_win, n_hop=n_hop, h_disp=disps
            )
            fast = comp.vertical_distances(a, b, sync)
            scalar = comp._window_distances_scalar(a, b, sync)
            assert np.array_equal(fast, scalar)

        property_case()

    def test_window_distances_reads_a_block_and_reports_overlap(self):
        """A buffered block at its absolute start scores like the whole
        signal, and each pair reports its overlap: full, clipped at
        either end of the reference or the observation, or walked off."""
        comp = Comparator("correlation")
        a = make_signal(200, seed=7, channels=3)
        b = make_signal(210, seed=8, channels=3)
        index = [4, 5, 6, 7, 8, 19]
        disp = [0.0, -60.0, 145.0, np.nan, 2.0, 0.0]
        whole, n = comp.window_distances(a.data, 0, b.data, index, disp, 20, 10)
        block, n_block = comp.window_distances(
            a.data[40:], 40, b.data, index, disp, 20, 10
        )
        assert n == n_block == [20, 10, 5, 0, 20, 10]
        assert whole == block
        for j, (i, h) in enumerate(zip(index, disp)):
            if not np.isfinite(h):
                assert whole[j] == 2.0
                continue
            wa = a.window(i, 20, 10).data
            wb = b.window(i, 20, 10, offset=int(round(h))).data
            m = n[j]
            assert whole[j] == comp.pair_distance(wa[:m], wb[:m])
        single, n_single = comp.window_distances(
            a.data[40:], 40, b.data, [5], [-60.0], 20, 10
        )
        assert single[0] == whole[1] and n_single[0] == 10
        with pytest.raises(IndexError, match="starts before sample"):
            comp.window_distances(a.data[40:], 40, b.data, [3], [0.0], 20, 10)
