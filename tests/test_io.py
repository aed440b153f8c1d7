"""Unit tests for persistence (signals, thresholds, DWM params, bench
histories)."""

import json

import numpy as np
import pytest

from repro.core import Thresholds
from repro.io import (
    LazyRunPayload,
    append_bench_record,
    load_dwm_params,
    load_run_payload,
    load_signal,
    load_signals,
    load_thresholds,
    save_dwm_params,
    save_run_payload,
    save_signal,
    save_signals,
    save_thresholds,
)
from repro.signals import Signal
from repro.sync import UM3_DWM_PARAMS


class TestSignalRoundtrip:
    def test_basic_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        original = Signal(rng.standard_normal((100, 3)), 400.0)
        save_signal(original, tmp_path / "sig.npz")
        loaded = load_signal(tmp_path / "sig.npz")
        assert loaded == original

    def test_channel_names_preserved(self, tmp_path):
        original = Signal(
            np.zeros((10, 2)), 10.0, channel_names=["ax", "ay"]
        )
        save_signal(original, tmp_path / "sig.npz")
        loaded = load_signal(tmp_path / "sig.npz")
        assert loaded.channel_names == ("ax", "ay")

    def test_no_channel_names(self, tmp_path):
        original = Signal(np.zeros(5), 10.0)
        save_signal(original, tmp_path / "sig.npz")
        assert load_signal(tmp_path / "sig.npz").channel_names is None

    def test_multi_signal_directory(self, tmp_path):
        signals = {
            "ACC": Signal(np.ones((20, 6)), 400.0),
            "AUD": Signal(np.ones((50, 2)), 2000.0),
        }
        save_signals(signals, tmp_path / "run0")
        loaded = load_signals(tmp_path / "run0")
        assert set(loaded) == {"ACC", "AUD"}
        assert loaded["AUD"].sample_rate == 2000.0

    def test_empty_directory_rejected(self, tmp_path):
        (tmp_path / "empty").mkdir()
        with pytest.raises(FileNotFoundError):
            load_signals(tmp_path / "empty")


class TestThresholdsRoundtrip:
    def test_roundtrip(self, tmp_path):
        original = Thresholds(c_c=123.4, h_c=56.7, v_c=0.89, d_c=2.0)
        save_thresholds(original, tmp_path / "t.json")
        assert load_thresholds(tmp_path / "t.json") == original

    def test_infinite_d_c(self, tmp_path):
        original = Thresholds(c_c=1.0, h_c=1.0, v_c=1.0)
        save_thresholds(original, tmp_path / "t.json")
        assert load_thresholds(tmp_path / "t.json").d_c == float("inf")

    def test_file_is_human_readable(self, tmp_path):
        save_thresholds(Thresholds(1.0, 2.0, 3.0), tmp_path / "t.json")
        text = (tmp_path / "t.json").read_text()
        assert '"c_c"' in text
        assert '"v_c"' in text


class TestDwmParamsRoundtrip:
    def test_roundtrip(self, tmp_path):
        save_dwm_params(UM3_DWM_PARAMS, tmp_path / "p.json")
        assert load_dwm_params(tmp_path / "p.json") == UM3_DWM_PARAMS

    def test_default_eta_backfill(self, tmp_path):
        (tmp_path / "p.json").write_text(
            '{"t_win": 4.0, "t_hop": 2.0, "t_ext": 2.0, "t_sigma": 1.0}'
        )
        assert load_dwm_params(tmp_path / "p.json").eta == 0.1


class TestDeploymentRoundtrip:
    def test_train_save_reload_detect(self, tmp_path, acc_pair):
        """The deployment loop: train, persist, reload into a fresh IDS."""
        from repro.core import NsyncIds
        from repro.sync import DwmSynchronizer

        obs, ref = acc_pair
        ids = NsyncIds(ref, DwmSynchronizer(UM3_DWM_PARAMS))
        ids.fit([obs], r=0.5)

        save_signal(ref, tmp_path / "reference.npz")
        save_thresholds(ids.thresholds, tmp_path / "thresholds.json")
        save_dwm_params(UM3_DWM_PARAMS, tmp_path / "params.json")

        reloaded = NsyncIds(
            load_signal(tmp_path / "reference.npz"),
            DwmSynchronizer(load_dwm_params(tmp_path / "params.json")),
        )
        reloaded.thresholds = load_thresholds(tmp_path / "thresholds.json")
        verdict = reloaded.detect(obs)
        assert not verdict.is_intrusion  # its own training run must pass


class TestLazyRunPayload:
    def _payload(self):
        rng = np.random.default_rng(3)
        signals = {
            "ACC": Signal(rng.standard_normal((60, 3)), 400.0,
                          channel_names=["ax", "ay", "az"]),
            "AUD": Signal(rng.standard_normal(90), 2000.0),
        }
        return signals, (0.5, 1.25, 2.0), 2.5

    def test_roundtrip_matches_eager_loader(self, tmp_path):
        signals, layer_times, duration = self._payload()
        save_run_payload(tmp_path / "run.npz", signals, layer_times, duration)
        with LazyRunPayload(tmp_path / "run.npz") as lazy:
            assert lazy.channels == ("ACC", "AUD")
            assert lazy.layer_times == layer_times
            assert lazy.duration == duration
            got = lazy.materialize()
        eager = load_run_payload(tmp_path / "run.npz")
        assert got[1] == eager[1] and got[2] == eager[2]
        for cid in signals:
            assert np.array_equal(got[0][cid].data, eager[0][cid].data)
            assert np.array_equal(got[0][cid].data, signals[cid].data)
            assert got[0][cid].sample_rate == signals[cid].sample_rate
        assert got[0]["ACC"].channel_names == ("ax", "ay", "az")
        assert got[0]["AUD"].channel_names is None

    def test_channel_data_is_memmap_backed(self, tmp_path):
        signals, layer_times, duration = self._payload()
        save_run_payload(tmp_path / "run.npz", signals, layer_times, duration)
        lazy = LazyRunPayload(tmp_path / "run.npz")
        sig = lazy.signal("ACC")
        base = sig.data
        while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)
        assert np.array_equal(sig.data, signals["ACC"].data)

    def test_partial_channel_load(self, tmp_path):
        signals, layer_times, duration = self._payload()
        save_run_payload(tmp_path / "run.npz", signals, layer_times, duration)
        with LazyRunPayload(tmp_path / "run.npz") as lazy:
            got = lazy.signals(channels=("AUD",))
            assert list(got) == ["AUD"]
            assert np.array_equal(got["AUD"].data, signals["AUD"].data)
            # Only the requested channel is resident in the handle cache.
            assert list(lazy._signals) == ["AUD"]

    def test_metadata_without_touching_data(self, tmp_path):
        signals, layer_times, duration = self._payload()
        save_run_payload(tmp_path / "run.npz", signals, layer_times, duration)
        lazy = LazyRunPayload(tmp_path / "run.npz")
        assert lazy.rate("ACC") == 400.0
        assert lazy.rate("AUD") == 2000.0
        assert lazy._signals == {}  # nothing loaded yet

    def test_unknown_channel_raises_with_inventory(self, tmp_path):
        signals, layer_times, duration = self._payload()
        save_run_payload(tmp_path / "run.npz", signals, layer_times, duration)
        with pytest.raises(KeyError, match="ACC"):
            LazyRunPayload(tmp_path / "run.npz").signal("MAG")

    def test_empty_channel_array(self, tmp_path):
        signals = {"ACC": Signal(np.zeros((0, 3)), 400.0)}
        save_run_payload(tmp_path / "run.npz", signals, (), 0.0)
        with LazyRunPayload(tmp_path / "run.npz") as lazy:
            assert lazy.signal("ACC").data.shape == (0, 3)

    def test_signals_stay_valid_after_close(self, tmp_path):
        signals, layer_times, duration = self._payload()
        save_run_payload(tmp_path / "run.npz", signals, layer_times, duration)
        lazy = LazyRunPayload(tmp_path / "run.npz")
        sig = lazy.signal("ACC")
        lazy.close()
        assert np.array_equal(sig.data, signals["ACC"].data)


class TestBenchHistory:
    def test_missing_file_starts_history(self, tmp_path):
        path = tmp_path / "results" / "BENCH_x.json"
        append_bench_record(path, {"name": "a", "t": 1.0})
        append_bench_record(path, {"name": "a", "t": 2.0})
        assert [r["t"] for r in json.loads(path.read_text())] == [1.0, 2.0]

    @pytest.mark.parametrize("text", ['[{"name": "base"', '{"name": "base"}'])
    def test_unparseable_history_is_refused_untouched(self, tmp_path, text):
        path = tmp_path / "BENCH_x.json"
        path.write_text(text)
        with pytest.raises(ValueError, match="BENCH_x.json"):
            append_bench_record(path, {"name": "a"})
        assert path.read_text() == text

    def test_cli_refuses_with_one_line_error(self, tmp_path):
        from repro.cli import _append_bench_record

        path = tmp_path / "BENCH_x.json"
        path.write_text("not json")
        with pytest.raises(SystemExit, match="repro: .*BENCH_x.json"):
            _append_bench_record(str(path), {"name": "a"})
        assert path.read_text() == "not json"
