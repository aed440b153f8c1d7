"""The streaming campaign data path: lazy campaigns, iter_execute, memory.

These tests pin the two contracts the scale-out refactor rests on:

* **Equivalence** — a lazy, plan-backed campaign streamed through the
  incremental accumulators produces *float-for-float* the same tables as
  the historical eager path (confusion counts are commutative sums).
* **Boundedness** — streamed evaluation peak memory is governed by one
  run's working set, not by the campaign size.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

from repro.attacks import TABLE_I_ATTACKS
from repro.cache import RunCache
from repro.eval import (
    CampaignEngine,
    baseline_results,
    campaign_requests,
    default_setup,
    generate_campaign,
    nsync_results,
    roc_sweep,
)

CAMPAIGN_KW = dict(
    channels=("ACC",),
    n_train=2,
    n_benign_test=2,
    n_attack_runs=1,
    seed=11,
)


@pytest.fixture(scope="module")
def setup():
    return default_setup("UM3", object_height=0.4)


@pytest.fixture(scope="module")
def attacks():
    return TABLE_I_ATTACKS()[:2]


@pytest.fixture(scope="module")
def warm_cache(setup, attacks, tmp_path_factory):
    """A RunCache pre-populated with every run of the test campaign."""
    cache = RunCache(tmp_path_factory.mktemp("warm-cache"))
    generate_campaign(setup, attacks=attacks, cache=cache, **CAMPAIGN_KW)
    return cache


def _campaigns(setup, attacks, cache):
    eager = generate_campaign(
        setup, attacks=attacks, cache=cache, **CAMPAIGN_KW
    )
    lazy = generate_campaign(
        setup, attacks=attacks, cache=cache, materialize=False, **CAMPAIGN_KW
    )
    return eager, lazy


class TestIterExecute:
    def test_preserves_request_order(self, setup, attacks, warm_cache):
        engine = CampaignEngine(workers=0, cache=warm_cache)
        requests, _ = campaign_requests(
            setup, n_train=2, n_benign_test=2, attacks=attacks,
            n_attack_runs=1, seed=11,
        )
        out = list(engine.iter_execute(requests, channels=("ACC",)))
        assert [req for req, _ in out] == list(requests)
        assert [run.label for _, run in out] == [r.label for r in requests]

    def test_bit_identical_to_execute(self, setup, attacks, warm_cache):
        engine = CampaignEngine(workers=0, cache=warm_cache)
        requests, _ = campaign_requests(
            setup, n_train=2, n_benign_test=2, attacks=attacks,
            n_attack_runs=1, seed=11,
        )
        collected = engine.execute(requests, channels=("ACC",))
        streamed = [
            run for _, run in engine.iter_execute(requests, channels=("ACC",))
        ]
        assert len(collected) == len(streamed)
        for a, b in zip(collected, streamed):
            assert a.label == b.label
            assert a.layer_times == b.layer_times
            assert np.array_equal(
                a.signals["ACC"].data, b.signals["ACC"].data
            )

    def test_warm_hits_are_memmap_backed(self, setup, attacks, warm_cache):
        engine = CampaignEngine(workers=0, cache=warm_cache)
        requests, _ = campaign_requests(
            setup, n_train=2, n_benign_test=2, attacks=attacks,
            n_attack_runs=1, seed=11,
        )
        _, run = next(iter(engine.iter_execute(requests, channels=("ACC",))))
        base = run.signals["ACC"].data
        while isinstance(base, np.ndarray) and not isinstance(base, np.memmap):
            base = base.base
        assert isinstance(base, np.memmap)

    def test_early_break_is_clean(self, setup, attacks, warm_cache):
        engine = CampaignEngine(workers=0, cache=warm_cache)
        requests, _ = campaign_requests(
            setup, n_train=2, n_benign_test=2, attacks=attacks,
            n_attack_runs=1, seed=11,
        )
        stream = engine.iter_execute(requests, channels=("ACC",))
        next(stream)
        stream.close()  # must not raise or leave the engine unusable
        assert len(engine.execute(requests[:1], channels=("ACC",))) == 1

    def test_pool_persists_across_batches(self, setup, attacks):
        with CampaignEngine(workers=2) as engine:
            requests, _ = campaign_requests(
                setup, n_train=1, n_benign_test=1, attacks=attacks[:1],
                n_attack_runs=1, seed=11,
            )
            list(engine.iter_execute(requests, channels=("ACC",)))
            pool = engine._pool
            assert pool is not None
            list(engine.iter_execute(requests, channels=("ACC",)))
            assert engine._pool is pool  # same executor, not a fresh one
        assert engine._pool is None  # close() tore it down


class TestStreamingMatchesEager:
    """The acceptance differential: streamed tables == eager tables."""

    def test_nsync_results_identical(self, setup, attacks, warm_cache):
        eager, lazy = _campaigns(setup, attacks, warm_cache)
        a = nsync_results(eager, "ACC", "Raw")
        b = nsync_results(lazy, "ACC", "Raw")
        assert a.overall.__dict__ == b.overall.__dict__
        assert {k: v.__dict__ for k, v in a.submodules.items()} == \
            {k: v.__dict__ for k, v in b.submodules.items()}
        assert a.per_attack_tpr == b.per_attack_tpr

    def test_baseline_results_identical(self, setup, attacks, warm_cache):
        from repro.eval import BASELINE_FACTORIES

        eager, lazy = _campaigns(setup, attacks, warm_cache)
        for name in ("moore", "gao"):
            a = baseline_results(eager, BASELINE_FACTORIES[name](), "ACC")
            b = baseline_results(lazy, BASELINE_FACTORIES[name](), "ACC")
            assert a.overall.__dict__ == b.overall.__dict__
            assert a.per_attack_tpr == b.per_attack_tpr

    def test_roc_sweep_identical(self, setup, attacks, warm_cache):
        eager, lazy = _campaigns(setup, attacks, warm_cache)
        a = roc_sweep(eager, "ACC")
        b = roc_sweep(lazy, "ACC")
        assert a.points == b.points  # dataclass equality: exact floats

    def test_lazy_campaign_sequence_interface(self, setup, attacks, warm_cache):
        eager, lazy = _campaigns(setup, attacks, warm_cache)
        assert len(lazy.training) == len(eager.training)
        assert lazy.n_benign_test == eager.n_benign_test
        assert lazy.n_malicious_test == eager.n_malicious_test
        assert np.array_equal(
            lazy.benign_test[-1].signals["ACC"].data,
            eager.benign_test[-1].signals["ACC"].data,
        )
        assert [r.label for r in lazy.all_malicious()] == \
            [r.label for r in eager.all_malicious()]
        assert [role for role, _ in lazy.iter_runs()] == \
            [role for role, _ in eager.iter_runs()]


class TestMemoryCeiling:
    """Streamed evaluation peak memory must not scale with campaign size."""

    @staticmethod
    def _streamed(setup, attacks, cache, n_benign_test):
        return generate_campaign(
            setup,
            channels=("ACC",),
            n_train=2,
            n_benign_test=n_benign_test,
            n_attack_runs=1,
            attacks=attacks,
            seed=11,
            cache=cache,
            materialize=False,
        )

    def _streamed_peak(self, setup, attacks, cache, n_benign_test):
        campaign = self._streamed(setup, attacks, cache, n_benign_test)
        tracemalloc.start()
        try:
            nsync_results(campaign, "ACC", "Raw")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak

    def test_peak_independent_of_campaign_size(
        self, setup, attacks, tmp_path_factory
    ):
        cache = RunCache(tmp_path_factory.mktemp("ceiling-cache"))
        # Warm the larger campaign (executing every run into the cache); the
        # smaller one's seeds are a prefix of the same stream, so both
        # evaluate fully from cache.
        generate_campaign(
            setup, channels=("ACC",), n_train=2, n_benign_test=32,
            n_attack_runs=1, attacks=attacks, seed=11, cache=cache,
        )
        # One untraced pass, so first-time imports stay out of both traced
        # windows.
        nsync_results(self._streamed(setup, attacks, cache, 8), "ACC", "Raw")
        peak_small = self._streamed_peak(setup, attacks, cache, 8)
        peak_large = self._streamed_peak(setup, attacks, cache, 32)
        # 4x the benign-test runs; allow generous per-run noise but fail
        # loudly if the stream starts accumulating payloads again.
        assert peak_large < 2.0 * peak_small, (
            f"streamed peak grew with campaign size: "
            f"{peak_small} -> {peak_large} bytes"
        )
        assert peak_large < cache.total_bytes()


class TestSeedStream:
    def test_no_ten_thousand_run_ceiling(self, setup):
        # The historical implementation drew seeds from a range() of
        # 10,000 and raised StopIteration past it; paper-scale-and-beyond
        # campaigns must keep drawing.
        requests, _ = campaign_requests(
            setup, n_train=6_000, n_benign_test=6_000, attacks=[],
            n_attack_runs=0, seed=3,
        )
        assert len(requests) == 12_001

    def test_seed_assignment_unchanged(self, setup):
        # Sequential from seed * 1_000_003, in request order — the exact
        # assignment the bounded range() produced, so cached campaigns
        # keyed under the old scheme stay warm.
        requests, _ = campaign_requests(
            setup, n_train=2, n_benign_test=2, attacks=TABLE_I_ATTACKS()[:1],
            n_attack_runs=2, seed=7,
        )
        assert [r.seed for r in requests] == [
            7 * 1_000_003 + i for i in range(len(requests))
        ]


class TestCampaignPlanRoles:
    def test_role_layout(self, setup, attacks, warm_cache):
        _, lazy = _campaigns(setup, attacks, warm_cache)
        plan = lazy.plan
        n = len(plan.requests)
        roles = [plan.role_of(i) for i in range(n)]
        assert roles[0] == "reference"
        assert roles[1:3] == ["training"] * 2
        assert roles[3:5] == ["benign"] * 2
        assert roles[5:] == ["malicious"] * (n - 5)
