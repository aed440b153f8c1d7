"""Shared fixtures for the benchmark harness.

Each benchmark regenerates one table or figure of the paper's evaluation on
a simulated campaign.  Campaigns are expensive (dozens of firmware + sensor
simulations), so they are session-scoped, shared across benchmark files,
and executed through the :class:`~repro.eval.engine.CampaignEngine`: runs
fan out over ``REPRO_BENCH_WORKERS`` processes (default ``cpu_count - 1``)
and are memoized in a content-addressed cache (``REPRO_CACHE_DIR``,
default ``benchmarks/.cache``) so re-running any benchmark file hits the
cache instead of re-simulating.

Scale: the paper ran 151 benign + 100 malicious prints per printer; the
benchmark campaigns keep the same structure at 1 reference + 8 training +
8 benign-test + 2 runs of each of the 5 attacks per printer.  Regenerated
rows are printed AND appended to ``benchmarks/results/*.txt`` so they
survive pytest's output capture; campaign wall-clock and cache-hit stats
accumulate in ``benchmarks/results/BENCH_campaign.json`` to track the perf
trajectory across PRs.
"""

from __future__ import annotations

import os
import time
from pathlib import Path

import pytest

from repro import obs
from repro.eval import Campaign, CampaignEngine, default_setup, generate_campaign
from repro.io import append_bench_record

RESULTS_DIR = Path(__file__).parent / "results"
CAMPAIGN_STATS_PATH = RESULTS_DIR / "BENCH_campaign.json"
ENGINE_THROUGHPUT_PATH = RESULTS_DIR / "BENCH_engine_throughput.json"

N_TRAIN = 8
N_BENIGN_TEST = 8
N_ATTACK_RUNS = 2
CHANNELS = ("ACC", "MAG", "AUD", "EPT")


def bench_cache_dir() -> str:
    return os.environ.get(
        "REPRO_CACHE_DIR", str(Path(__file__).parent / ".cache")
    )


def bench_workers() -> int:
    env = os.environ.get("REPRO_BENCH_WORKERS")
    if env is not None:
        return int(env)
    return max(0, (os.cpu_count() or 1) - 1)


def record_bench_stats(path: Path, name: str, record: dict) -> None:
    """Append one perf record to a ``BENCH_*.json`` history file.

    Every history file shares the record shape the regression gate
    (``scripts/check_bench_regression.py``) expects: a JSON list of dicts,
    each with a ``name``, a wall-clock ``time`` stamp, and free-form
    numeric fields.  A history that does not parse is refused, not reset
    (see :func:`repro.io.append_bench_record`).
    """
    append_bench_record(path, {"name": name, "time": time.time(), **record})


def record_campaign_stats(name: str, record: dict) -> None:
    """Append one perf record to benchmarks/results/BENCH_campaign.json."""
    record_bench_stats(CAMPAIGN_STATS_PATH, name, record)


def _timed_campaign(printer: str, seed: int) -> Campaign:
    engine = CampaignEngine(workers=bench_workers(), cache=bench_cache_dir())
    # Trace the campaign so each record carries a per-stage span snapshot
    # alongside the wall-clock numbers.  The registry is reset first so one
    # campaign's spans don't bleed into the next record, and the previous
    # enabled/disabled state is restored afterwards.
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    t0 = time.perf_counter()
    try:
        campaign = generate_campaign(
            default_setup(printer, object_height=0.6),
            channels=CHANNELS,
            n_train=N_TRAIN,
            n_benign_test=N_BENIGN_TEST,
            n_attack_runs=N_ATTACK_RUNS,
            seed=seed,
            engine=engine,
        )
    finally:
        wall_clock = time.perf_counter() - t0
        metrics = obs.snapshot()
        obs.reset()
        if not was_enabled:
            obs.disable()
    import resource

    record_campaign_stats(
        f"{printer.lower()}_campaign",
        {
            "wall_clock": wall_clock,
            # Informational in the regression gate (verdict "info"): RSS
            # ceilings vary with allocator/page-cache pressure across
            # machines, but the trend is worth recording.
            "peak_rss_mb": round(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                1,
            ),
            "workers": engine.workers,
            "cpu_count": os.cpu_count(),
            **engine.stats.as_dict(),
            "metrics": metrics,
        },
    )
    return campaign


@pytest.fixture(scope="session")
def um3_campaign() -> Campaign:
    return _timed_campaign("UM3", seed=1)


@pytest.fixture(scope="session")
def rm3_campaign() -> Campaign:
    return _timed_campaign("RM3", seed=2)


@pytest.fixture(scope="session")
def campaigns(um3_campaign, rm3_campaign):
    return {"UM3": um3_campaign, "RM3": rm3_campaign}


@pytest.fixture(scope="session")
def report():
    """Print a result block and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def _report(name: str, text: str) -> None:
        banner = f"\n===== {name} =====\n{text}\n"
        print(banner)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")

    return _report


def run_once(benchmark, fn):
    """Run ``fn`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(fn, rounds=1, iterations=1)
