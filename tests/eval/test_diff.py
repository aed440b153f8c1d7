"""Tests for the lock-step differential harness (repro.eval.diff).

The mutation smoke tests are the heart of this file: a deliberate one-ulp
fault planted in a fast path must be caught by the hypothesis search with a
first-divergence report naming the pair, the step index, and the field —
if the harness can't see a single ulp, it guards nothing.
"""

import json

import numpy as np
import pytest

from repro.eval.diff import (
    BUNDLE_SCHEMA,
    PAIRS,
    Divergence,
    PairReport,
    _array_first_diff,
    _dwm_signals,
    _engine_for_workload,
    _first_deep_diff,
    _observed_with_faults,
    diff_pair,
    load_bundle,
    replay_bundle,
    run_diff,
    run_workload,
    write_bundle,
)
from repro.sync.dwm import StreamingDwm


FIRMWARE_WORKLOAD = {
    "pair": "firmware",
    "machine": "UM3",
    "lookahead": True,
    "noisy": True,
    "seed": 3,
    "gcode": [
        "G28",
        "G1 X10 Y10 F3000",
        "G2 X20 Y10 I5 J0",
        "G91",
        "G1 X0 Y0",
        "G90",
        "G1 E2",
        "M106 S128",
        "G1 X5 Y5 Z0.2 E4",
        "G4 P50",
        "M104 S200",
    ],
}

DWM_WORKLOAD = {
    "pair": "dwm",
    "seed": 1,
    "n_ref": 200,
    "n_obs": 260,
    "n_channels": 2,
    "params": {"t_win": 0.4, "t_hop": 0.2, "t_ext": 0.2, "t_sigma": 0.1},
    "chunks": [7, 1, 33],
}

COMPARATOR_WORKLOAD = {
    "pair": "comparator",
    "seed": 2,
    "n_a": 80,
    "n_b": 90,
    "n_channels": 2,
    "n_win": 8,
    "n_hop": 4,
    "h_disp": [0.0, 3.0, -2.5, float("nan"), 1e300, -40.0, 12.0],
    "const_spans": [[10, 30]],
}

ENGINE_WORKLOAD = {
    "pair": "engine",
    "seed": 5,
    "n_ref": 300,
    "n_obs": 350,
    "n_channels": 2,
    "params": {"t_win": 0.4, "t_hop": 0.2, "t_ext": 0.2, "t_sigma": 0.1},
    "chunks": [11, 3, 29],
    "group": 3,
    "nan_spans": [[40, 6]],
    "flat_spans": [[120, 80]],
    "v_c": 0.5,
}

WORKLOADS = {
    "firmware": FIRMWARE_WORKLOAD,
    "dwm": DWM_WORKLOAD,
    "comparator": COMPARATOR_WORKLOAD,
    "engine": ENGINE_WORKLOAD,
}


class TestDeepDiff:
    def test_equal_nested(self):
        doc = {"a": [1, 2, {"b": 3.5}], "c": None}
        assert _first_deep_diff(doc, json.loads(json.dumps(doc))) is None

    def test_first_leaf_named_with_path(self):
        ref = {"sync": {"h_disp": [0, 1, 2]}, "i": 3}
        fast = {"sync": {"h_disp": [0, 1, 5]}, "i": 3}
        field, r, f = _first_deep_diff(ref, fast)
        assert field == "sync.h_disp[2]"
        assert (r, f) == (2, 5)

    def test_length_mismatch(self):
        field, r, f = _first_deep_diff({"x": [1, 2]}, {"x": [1]})
        assert field == "x.__len__"
        assert (r, f) == (2, 1)

    def test_missing_key(self):
        field, r, f = _first_deep_diff({"a": 1}, {})
        assert field == "a"
        assert f == "<missing>"

    def test_type_mismatch_is_divergence(self):
        assert _first_deep_diff({"a": 1.0}, {"a": "1.0"}) is not None


class TestArrayFirstDiff:
    def test_bit_exact_nan_self_equal(self):
        a = np.array([1.0, np.nan, 3.0])
        assert _array_first_diff(a, a.copy()) is None

    def test_one_sided_nan_diverges(self):
        a = np.array([1.0, np.nan, 3.0])
        b = np.array([1.0, 2.0, 3.0])
        assert _array_first_diff(a, b) == 1

    def test_ulp_diverges_without_atol(self):
        a = np.array([1.0, 2.0])
        b = np.array([1.0, np.nextafter(2.0, np.inf)])
        assert _array_first_diff(a, b) == 1

    def test_multichannel_reports_row(self):
        a = np.zeros((4, 3))
        b = a.copy()
        b[2, 1] = 1e-300
        assert _array_first_diff(a, b) == 2


class TestRunners:
    @pytest.mark.parametrize("pair", PAIRS)
    def test_fixed_workload_clean(self, pair):
        assert run_workload(WORKLOADS[pair]) is None

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            run_workload({"pair": "quantum"})

    def test_firmware_without_lookahead(self):
        workload = dict(FIRMWARE_WORKLOAD, lookahead=False, machine="RM3")
        assert run_workload(workload) is None

    def test_comparator_empty_h_disp(self):
        workload = dict(COMPARATOR_WORKLOAD, h_disp=[])
        assert run_workload(workload) is None


class TestSearch:
    def test_run_diff_all_pairs_pass(self):
        report = run_diff(seed=0, examples=5)
        assert report.ok
        assert tuple(r.pair for r in report.reports) == PAIRS
        assert all(r.workload is None for r in report.reports)

    def test_unknown_pair_rejected(self):
        with pytest.raises(ValueError, match="unknown pair"):
            run_diff(pairs=("quantum",))

    def test_report_json_round_trips(self):
        report = run_diff(pairs=("comparator",), seed=7, examples=3)
        doc = json.loads(json.dumps(report.to_dict()))
        assert doc["ok"] is True
        assert doc["seed"] == 7
        assert doc["pairs"][0]["pair"] == "comparator"


def _plant_dwm_ulp(monkeypatch):
    """Perturb _step_fast's accepted score by exactly one ulp."""
    orig = StreamingDwm._step_fast

    def mutated(self, a_window):
        ok = orig(self, a_window)
        if ok and self._state.scores:
            self._state.scores[-1] = float(
                np.nextafter(self._state.scores[-1], np.inf)
            )
        return ok

    monkeypatch.setattr(StreamingDwm, "_step_fast", mutated)


class TestMutationSmoke:
    """Planted faults MUST be caught — the harness's own acceptance test."""

    def test_one_ulp_step_fast_fault_is_caught(self, monkeypatch):
        _plant_dwm_ulp(monkeypatch)
        report = diff_pair("dwm", seed=0, examples=25)
        assert not report.ok
        divergence = report.divergence
        assert divergence.pair == "dwm"
        assert divergence.step >= 0
        assert "scores" in divergence.field
        assert divergence.reference != divergence.fast
        # The report must be actionable: the rendered block names all three.
        rendered = divergence.render()
        assert "pair 'dwm'" in rendered
        assert f"step {divergence.step}" in rendered
        assert divergence.field in rendered
        # The shrunk workload replays to the same finding deterministically.
        replayed = run_workload(report.workload)
        assert replayed is not None
        assert replayed.field == divergence.field

    def test_comparator_ulp_fault_is_caught(self, monkeypatch):
        from repro.core.comparator import Comparator

        def engine_v_dist():
            reference, _ = _dwm_signals(ENGINE_WORKLOAD)
            engine = _engine_for_workload(ENGINE_WORKLOAD, reference)
            engine.push(_observed_with_faults(ENGINE_WORKLOAD))
            return engine.finalize().v_dist

        clean_v_dist = engine_v_dist()
        orig = Comparator.window_distances

        def mutated(self, *args):
            dist, n = orig(self, *args)
            return np.nextafter(dist, np.inf).tolist(), n

        monkeypatch.setattr(Comparator, "window_distances", mutated)
        report = diff_pair("comparator", seed=0, examples=25)
        assert not report.ok
        assert report.divergence.pair == "comparator"
        assert report.divergence.field == "v_dist"
        # The engine's compare stage runs the same routine, so the pair
        # above is its oracle too.
        assert not np.array_equal(engine_v_dist(), clean_v_dist)

    def test_firmware_vstart_regression_is_caught(self, monkeypatch):
        # Re-introduce the bug this PR fixed: the batched evaluation used
        # to ignore GeneralProfile's junction entry speed, diverging
        # lookahead chains from the loop reference.
        import dataclasses

        from repro.printer import firmware as fw

        orig = fw.Firmware._motion_arrays

        class _ZeroVStart:
            """Segment view whose profile reports v_start = 0."""

            def __init__(self, seg):
                self._seg = seg

            def __getattr__(self, name):
                return getattr(self._seg, name)

            @property
            def profile(self):
                profile = self._seg.profile
                if getattr(profile, "v_start", 0.0):
                    return dataclasses.replace(profile, v_start=0.0)
                return profile

        def mutated(self, times, segments):
            return orig(self, times, [_ZeroVStart(s) for s in segments])

        monkeypatch.setattr(fw.Firmware, "_motion_arrays", mutated)
        divergence = run_workload(FIRMWARE_WORKLOAD)
        assert divergence is not None
        assert divergence.pair == "firmware"
        assert divergence.detail  # names the instruction and sample


class TestBundles:
    def _diverged_report(self, monkeypatch) -> PairReport:
        _plant_dwm_ulp(monkeypatch)
        report = diff_pair("dwm", seed=0, examples=25)
        assert not report.ok
        return report

    def test_round_trip(self, tmp_path, monkeypatch):
        report = self._diverged_report(monkeypatch)
        path = write_bundle(report, tmp_path / "bundle_dwm.json")
        doc = load_bundle(path)
        assert doc["schema"] == BUNDLE_SCHEMA
        assert doc["pair"] == "dwm"
        assert doc["workload"] == report.workload
        # Fault still planted: replay reproduces the divergence.
        replayed = replay_bundle(path)
        assert not replayed.ok
        assert replayed.divergence.field == report.divergence.field

    def test_replay_passes_once_fixed(self, tmp_path, monkeypatch):
        report = self._diverged_report(monkeypatch)
        path = write_bundle(report, tmp_path / "bundle_dwm.json")
        monkeypatch.undo()  # un-plant the fault
        assert replay_bundle(path).ok

    def test_clean_report_refuses_bundle(self, tmp_path):
        clean = PairReport(pair="dwm", examples=1, seed=0)
        with pytest.raises(ValueError, match="no divergence"):
            write_bundle(clean, tmp_path / "nope.json")

    def test_wrong_schema_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"schema": "something/else"}))
        with pytest.raises(ValueError, match="not a repro-diff bundle"):
            load_bundle(path)

    def test_divergence_dict_round_trip(self):
        d = Divergence(
            pair="dwm", step=3, field="scores[1]",
            reference=0.5, fast=0.25, detail="after chunk 2",
        )
        assert Divergence.from_dict(json.loads(json.dumps(d.to_dict()))) == d
