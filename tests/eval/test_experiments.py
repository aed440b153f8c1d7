"""Tests for the experiment drivers (on the session mini-campaign)."""

import numpy as np
import pytest

from repro.baselines import GaoIds, MooreIds
from repro.eval import (
    baseline_results,
    fig1_time_noise,
    fig2_unsynced_distances,
    fig10_hdisp_consistency,
    fig11_time_ratio,
    nsync_results,
    transform_signal,
)
from repro.eval.reporting import (
    format_accuracy_ranking,
    format_ids_table,
    format_table,
)
from repro.signals import PAPER_SPECTROGRAMS, Signal


class TestTransform:
    def test_raw_identity(self, mini_campaign):
        sig = mini_campaign.reference.signals["ACC"]
        assert transform_signal(sig, "ACC", "Raw") is sig

    def test_spectro_reduces_rate(self, mini_campaign):
        sig = mini_campaign.reference.signals["ACC"]
        spec = transform_signal(sig, "ACC", "Spectro.")
        assert spec.sample_rate < sig.sample_rate
        assert spec.n_channels > sig.n_channels

    def test_unknown_transform(self, mini_campaign):
        sig = mini_campaign.reference.signals["ACC"]
        with pytest.raises(ValueError):
            transform_signal(sig, "ACC", "Wavelet")


class TestNsyncResults:
    def test_dwm_acc_raw_high_accuracy(self, mini_campaign):
        """The headline result: NSYNC/DWM detects everything on ACC."""
        result = nsync_results(mini_campaign, "ACC", "Raw")
        assert result.overall.fpr <= 0.34  # at most one benign FP out of 3
        assert result.overall.tpr == 1.0
        assert result.overall.accuracy >= 0.8

    def test_submodules_reported(self, mini_campaign):
        result = nsync_results(mini_campaign, "ACC", "Raw")
        assert set(result.submodules) == {
            "c_disp", "h_dist", "v_dist", "duration",
        }

    def test_per_attack_tprs(self, mini_campaign):
        result = nsync_results(mini_campaign, "ACC", "Raw")
        assert set(result.per_attack_tpr) == set(mini_campaign.malicious_test)
        # Timing-heavy attacks must always be caught.
        assert result.per_attack_tpr["Speed0.95"] == 1.0
        assert result.per_attack_tpr["Layer0.3"] == 1.0


class TestBaselineResults:
    def test_moore_fails_under_time_noise(self, mini_campaign):
        """Paper Fig. 12: no-DSYNC IDSs land near coin-flip accuracy."""
        result = baseline_results(mini_campaign, MooreIds(), "ACC", "Raw")
        assert result.overall.accuracy <= 0.85

    def test_nsync_beats_moore_and_gao(self, mini_campaign):
        nsync = nsync_results(mini_campaign, "ACC", "Raw")
        moore = baseline_results(mini_campaign, MooreIds(), "ACC", "Raw")
        gao = baseline_results(mini_campaign, GaoIds(), "ACC", "Raw")
        assert nsync.overall.accuracy >= moore.overall.accuracy
        assert nsync.overall.accuracy >= gao.overall.accuracy


class TestFigureDrivers:
    def test_fig1_spread_positive(self, mini_campaign):
        out = fig1_time_noise(mini_campaign)
        assert out["spread"] > 0.0
        assert out["durations"].size == 7  # 1 ref + 3 train + 3 test

    def test_fig2_benign_distances_large_without_sync(self, mini_campaign):
        out = fig2_unsynced_distances(mini_campaign, "ACC")
        # The paper's point: unsynced benign distances are comparable to
        # malicious ones (both large).
        assert np.median(out["benign"][3:]) > 0.3
        assert out["benign"].size > 0
        assert out["malicious"].size > 0

    def test_fig10_consistent_shapes(self, mini_campaign):
        out = fig10_hdisp_consistency(
            mini_campaign, channels=("ACC",), transforms=("Raw",)
        )
        assert ("ACC", "Raw") in out
        assert out[("ACC", "Raw")].shape == (50,)

    def test_fig11_dwm_faster_than_reference_dtw(self, mini_campaign):
        out = fig11_time_ratio(mini_campaign, "ACC")
        assert out["dwm_time_ratio"] > 0
        assert out["dtw_time_ratio"] > 0
        # The paper's comparison is against the pure-Python FastDTW.
        assert out["dtw_reference_time_ratio"] > out["dwm_time_ratio"]
        assert out["reference_speedup"] > 1.0


class TestReporting:
    def test_format_table_aligned(self):
        text = format_table(["a", "bb"], [["x", "y"], ["long", "z"]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("a")

    def test_format_ids_table(self, mini_campaign):
        result = nsync_results(mini_campaign, "ACC", "Raw")
        text = format_ids_table({"UM3 Raw ACC": result}, title="Table VIII")
        assert "Table VIII" in text
        assert "UM3 Raw ACC" in text
        assert "/" in text

    def test_format_accuracy_ranking(self):
        text = format_accuracy_ranking({"moore": 0.5, "nsync_dwm": 0.99})
        assert text.index("moore") < text.index("nsync_dwm")  # sorted ascending

    def test_render_overhead_table(self):
        from repro.eval import render_overhead_table

        snapshot = {
            "spans": {
                "repro.eval.engine.execute": {
                    "count": 1, "errors": 0, "wall_total_s": 3.0,
                    "wall_min_s": 3.0, "wall_max_s": 3.0, "cpu_total_s": 2.5,
                },
                "repro.eval.engine.execute/simulate": {
                    "count": 8, "errors": 0, "wall_total_s": 2.0,
                    "wall_min_s": 0.1, "wall_max_s": 0.5, "cpu_total_s": 1.9,
                },
                "repro.core.pipeline.analyze": {
                    "count": 4, "errors": 0, "wall_total_s": 1.0,
                    "wall_min_s": 0.2, "wall_max_s": 0.3, "cpu_total_s": 0.9,
                },
            }
        }
        text = render_overhead_table(snapshot)
        lines = text.splitlines()
        # One row per span plus header + separator; children indented.
        assert len(lines) == 5
        assert "repro.eval.engine.execute" in text
        assert "  simulate" in text
        # Top-level shares: 3.0 of 4.0 and 1.0 of 4.0 total wall.
        assert "75.0%" in text and "25.0%" in text

    def test_render_overhead_table_empty(self):
        from repro.eval import render_overhead_table

        assert "no spans recorded" in render_overhead_table({"spans": {}})
        assert "no spans recorded" in render_overhead_table({})
