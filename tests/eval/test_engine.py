"""Tests for the parallel, cached campaign engine (repro.eval.engine)."""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest

import repro.eval.dataset as dataset_mod
from repro.attacks import TABLE_I_ATTACKS
from repro.eval import (
    CampaignEngine,
    default_setup,
    default_workers,
    generate_campaign,
)

CAMPAIGN_KW = dict(
    channels=("ACC",),
    n_train=2,
    n_benign_test=2,
    n_attack_runs=1,
    seed=7,
)


@pytest.fixture(scope="module")
def setup():
    return default_setup("UM3", object_height=0.4)


@pytest.fixture(scope="module")
def attacks():
    return TABLE_I_ATTACKS()[:2]


def _flat_runs(campaign):
    return [
        campaign.reference,
        *campaign.training,
        *campaign.benign_test,
        *campaign.all_malicious(),
    ]


def _assert_identical(a, b):
    runs_a, runs_b = _flat_runs(a), _flat_runs(b)
    assert len(runs_a) == len(runs_b)
    for run_a, run_b in zip(runs_a, runs_b):
        assert run_a.label == run_b.label
        assert run_a.is_malicious == run_b.is_malicious
        assert run_a.layer_times == run_b.layer_times
        assert run_a.duration == run_b.duration
        assert list(run_a.signals) == list(run_b.signals)
        for channel in run_a.signals:
            assert np.array_equal(
                run_a.signals[channel].data, run_b.signals[channel].data
            )


@pytest.fixture(scope="module")
def serial_campaign(setup, attacks):
    return generate_campaign(setup, attacks=attacks, workers=0, **CAMPAIGN_KW)


def test_parallel_bit_identical_to_serial(setup, attacks, serial_campaign):
    """workers=4 must reproduce the serial seed stream bit-for-bit."""
    parallel = generate_campaign(
        setup, attacks=attacks, workers=4, **CAMPAIGN_KW
    )
    _assert_identical(serial_campaign, parallel)


def test_cached_campaign_matches_and_counts(
    setup, attacks, serial_campaign, tmp_path
):
    cold = CampaignEngine(workers=0, cache=tmp_path / "cache")
    populated = generate_campaign(
        setup, attacks=attacks, engine=cold, **CAMPAIGN_KW
    )
    _assert_identical(serial_campaign, populated)
    n_runs = len(_flat_runs(serial_campaign))
    assert cold.stats.simulated == n_runs
    assert cold.stats.cache_misses == n_runs
    assert cold.stats.cache_hits == 0


def test_warm_cache_runs_zero_simulations(
    setup, attacks, serial_campaign, tmp_path, monkeypatch
):
    """A fully warm cache must not invoke simulate_print at all."""
    cache_dir = tmp_path / "cache"
    cold = CampaignEngine(workers=0, cache=cache_dir)
    generate_campaign(setup, attacks=attacks, engine=cold, **CAMPAIGN_KW)

    calls = {"n": 0}
    real = dataset_mod.simulate_print

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(dataset_mod, "simulate_print", counting)
    warm = CampaignEngine(workers=0, cache=cache_dir)
    campaign = generate_campaign(
        setup, attacks=attacks, engine=warm, **CAMPAIGN_KW
    )
    assert calls["n"] == 0
    assert warm.stats.simulated == 0
    assert warm.stats.cache_hits == len(_flat_runs(serial_campaign))
    _assert_identical(serial_campaign, campaign)


def test_iter_execute_hashes_each_program_once_with_unchanged_keys(
    setup, attacks, tmp_path, monkeypatch
):
    """One ``iter_execute`` call serializes each distinct program once,
    and its keys are :func:`run_cache_key`'s bytes, so entries written
    under that key still hit."""
    from repro.cache import RunCache, run_cache_key
    from repro.eval.dataset import campaign_requests
    from repro.printer.gcode import GcodeProgram
    from repro.sensors.daq import default_daq

    requests, _ = campaign_requests(
        setup, attacks=attacks, n_train=2, n_benign_test=2,
        n_attack_runs=1, seed=7,
    )
    cache_dir = tmp_path / "cache"
    with CampaignEngine(workers=0, cache=cache_dir) as cold:
        for _ in cold.iter_execute(requests, channels=("ACC",)):
            pass
    cache, daq = RunCache(cache_dir), default_daq()
    for req in requests:
        key = run_cache_key(
            req.job.program, req.setup.machine, req.setup.noise, daq,
            ("ACC",), req.seed,
        )
        assert cache.path_for(key).is_file()

    serialized = []
    real = GcodeProgram.to_text

    def counting(self):
        serialized.append(id(self))
        return real(self)

    monkeypatch.setattr(GcodeProgram, "to_text", counting)
    programs = {id(req.job.program) for req in requests}
    assert len(programs) < len(requests)
    warm = CampaignEngine(workers=0, cache=cache_dir)
    for _ in range(2):  # the memo does not outlive a call
        serialized.clear()
        for _ in warm.iter_execute(requests, channels=("ACC",)):
            pass
        assert sorted(serialized) == sorted(programs)
    assert warm.stats.simulated == 0
    assert warm.stats.cache_hits == 2 * len(requests)


def test_noise_change_invalidates_cache(setup, attacks, tmp_path):
    """Different noise params must produce cache misses, not stale hits."""
    cache_dir = tmp_path / "cache"
    first = CampaignEngine(workers=0, cache=cache_dir)
    generate_campaign(setup, attacks=attacks, engine=first, **CAMPAIGN_KW)

    tweaked = replace(
        setup, noise=replace(setup.noise, gap_mean=setup.noise.gap_mean + 0.01)
    )
    second = CampaignEngine(workers=0, cache=cache_dir)
    generate_campaign(tweaked, attacks=attacks, engine=second, **CAMPAIGN_KW)
    assert second.stats.cache_hits == 0
    assert second.stats.cache_misses == first.stats.cache_misses


def test_seed_change_invalidates_cache(setup, attacks, tmp_path):
    cache_dir = tmp_path / "cache"
    first = CampaignEngine(workers=0, cache=cache_dir)
    kw = dict(CAMPAIGN_KW)
    generate_campaign(setup, attacks=attacks, engine=first, **kw)

    second = CampaignEngine(workers=0, cache=cache_dir)
    kw["seed"] = CAMPAIGN_KW["seed"] + 1
    generate_campaign(setup, attacks=attacks, engine=second, **kw)
    assert second.stats.cache_hits == 0


def test_default_workers_nonnegative():
    assert default_workers() >= 0


def test_workers_one_stays_serial(setup, attacks, serial_campaign):
    """workers=1 short-circuits to in-process execution (no pool overhead)."""
    campaign = generate_campaign(
        setup, attacks=attacks, workers=1, **CAMPAIGN_KW
    )
    _assert_identical(serial_campaign, campaign)


def test_obs_counters_match_engine_stats_on_warm_cache(
    setup, attacks, tmp_path
):
    """The observability counters must agree with EngineStats exactly."""
    from repro import obs

    cache_dir = tmp_path / "cache"
    cold = CampaignEngine(workers=0, cache=cache_dir)
    generate_campaign(setup, attacks=attacks, engine=cold, **CAMPAIGN_KW)

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        warm = CampaignEngine(workers=0, cache=cache_dir)
        generate_campaign(setup, attacks=attacks, engine=warm, **CAMPAIGN_KW)
        counters = obs.snapshot()["counters"]
        spans = obs.snapshot()["spans"]
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()

    assert counters["repro.eval.engine.cache_hits"] == warm.stats.cache_hits
    assert counters.get("repro.eval.engine.cache_misses", 0) == 0
    assert warm.stats.cache_misses == 0
    assert counters["repro.eval.engine.simulated"] == warm.stats.simulated == 0
    assert spans["repro.eval.engine.execute"]["count"] == 1
    # A warm cache never reaches the firmware, so no simulation spans exist.
    assert not any("firmware" in name for name in spans)


def test_obs_counters_track_cold_misses(setup, attacks, tmp_path):
    """Cold engines must count one miss per executed request."""
    from repro import obs

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        cold = CampaignEngine(workers=0, cache=tmp_path / "cache")
        campaign = generate_campaign(
            setup, attacks=attacks, engine=cold, **CAMPAIGN_KW
        )
        counters = obs.snapshot()["counters"]
        histograms = obs.snapshot()["histograms"]
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()

    n_runs = len(_flat_runs(campaign))
    assert counters["repro.eval.engine.cache_misses"] == n_runs
    assert counters["repro.eval.engine.simulated"] == n_runs
    assert counters.get("repro.eval.engine.cache_hits", 0) == 0
    assert histograms["repro.eval.engine.queue_wait_s"]["count"] == n_runs


def test_pool_workers_merge_registry_into_parent(setup, attacks):
    """S1: with workers>=2 each worker ships its per-task registry back
    and the parent folds it in, so counters/spans from inside
    ``run_process`` survive the process boundary."""
    from repro import obs

    was_enabled = obs.enabled()

    def run(workers):
        obs.reset()
        obs.enable()
        try:
            engine = CampaignEngine(workers=workers)
            generate_campaign(
                setup, attacks=attacks, engine=engine, **CAMPAIGN_KW
            )
            return obs.snapshot()
        finally:
            obs.reset()
            if not was_enabled:
                obs.disable()

    serial = run(workers=0)
    pooled = run(workers=2)

    # Worker-side spans (simulation internals) must appear in the parent
    # registry with the same per-leaf call counts as the serial run.
    def leaf_counts(snapshot):
        counts = {}
        for name, stats in snapshot["spans"].items():
            leaf = name.rsplit("/", 1)[-1]
            counts[leaf] = counts.get(leaf, 0) + stats["count"]
        return counts

    serial_counts = leaf_counts(serial)
    pooled_counts = leaf_counts(pooled)
    assert any("firmware" in name for name in pooled["spans"])
    for leaf, count in serial_counts.items():
        assert pooled_counts.get(leaf, 0) == count, leaf

    # Counters recorded inside workers accumulate identically.
    for name, value in serial["counters"].items():
        assert pooled["counters"].get(name, 0) == value, name


def test_serial_path_does_not_reset_parent_registry(setup, attacks):
    """The in-process path must never pass record=True to the worker
    entry point: the per-task reset would wipe the caller's registry."""
    from repro import obs

    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    try:
        obs.counter("repro.test.sentinel").inc(41)
        engine = CampaignEngine(workers=0)
        generate_campaign(
            setup, attacks=attacks, engine=engine, **CAMPAIGN_KW
        )
        counters = obs.snapshot()["counters"]
    finally:
        obs.reset()
        if not was_enabled:
            obs.disable()
    assert counters["repro.test.sentinel"] == 41
