"""Campaign workloads: ``CampaignEngine`` and ``nsync_results`` in-process.

* ``campaign_build`` -- repeated cold builds into an empty ``RunCache``:
  the Table VIII campaign structure on both printers, every run streamed
  through ``CampaignEngine.iter_execute`` and checksummed.  Firmware
  simulation, DAQ synthesis, cache writes and the worker pool dominate;
  nothing is detected.
* ``campaign_eval`` -- the same campaign on a cache warmed during set-up,
  evaluated by ``nsync_results`` on four cells (ACC Raw and AUD Spectro.
  on both printers), pass after pass.  Memmap reads, spectrograms and the
  batch detection engine dominate; nothing is simulated.

*Signal* seconds count each run's print duration once per cell that reads
it (once per build).  Each repeated unit -- a build, or one cell of a
pass -- is measured separately and the least disturbed repeats are kept
(see ``common.BEST_DECILE``).
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import time
import zlib
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Sequence, Tuple

import numpy as np

from .common import (
    HERE,
    OUT,
    TAIL_LADDER,
    best_rate,
    best_time,
    highest_supported,
    info,
    latency_summary,
    layer_row,
    repeat_for,
    tree_peak_rss_mb,
    write_trace,
)

PRINTERS = ("UM3", "RM3")
CHANNELS = ("ACC", "MAG", "AUD", "EPT")
#: Table VIII structure at a scale one run can build several times:
#: per printer 1 reference + 4 training + 4 benign + 5 attacks x 1.
N_TRAIN, N_BENIGN, N_ATTACK_RUNS = 4, 4, 1
N_RUNS = len(PRINTERS) * (1 + N_TRAIN + N_BENIGN + 5 * N_ATTACK_RUNS)
CELLS = (("UM3", "ACC", "Raw"), ("UM3", "AUD", "Spectro."),
         ("RM3", "ACC", "Raw"), ("RM3", "AUD", "Spectro."))
#: Cached runs per build that are re-simulated in-process and compared.
N_RESIMULATED = 4
#: The traced run alternates this many plain and traced repeats.
TRACE_REPEATS = 2
EXPECTED_DIR = HERE / "expected"


def n_workers() -> int:
    return os.cpu_count() or 1


def plan(seed: int) -> List[Any]:
    """Both printers' ordered run requests, seeds pre-assigned."""
    from repro.eval.dataset import campaign_requests, default_setup

    requests: List[Any] = []
    for printer in PRINTERS:
        reqs, _ = campaign_requests(
            default_setup(printer),
            n_train=N_TRAIN,
            n_benign_test=N_BENIGN,
            n_attack_runs=N_ATTACK_RUNS,
            seed=seed,
        )
        requests.extend(reqs)
    return requests


@dataclass
class Stream:
    """One ``iter_execute`` call as its consumer saw it."""

    #: When the consumer asked for each run; the last ask found the end.
    asks: List[float] = field(default_factory=list)
    #: How long each ``next()`` blocked.
    waits: List[float] = field(default_factory=list)
    signal_s: float = 0.0

    def run_latencies(self) -> List[float]:
        """Per run: fetching it plus everything the consumer did with it."""
        return [b - a for a, b in zip(self.asks, self.asks[1:])]


class TimedEngine:
    """A ``CampaignEngine`` whose ``iter_execute`` records a :class:`Stream`
    per call.  With a ledger, each blocking ``next()`` is also a span."""

    def __init__(self, engine: Any, ledger: Any = None) -> None:
        self.engine = engine
        self.streams: List[Stream] = []
        self._next: Any = next
        self.trace(ledger)

    def trace(self, ledger: Any) -> None:
        """Record each blocking ``next()`` as a span (``None``: stop)."""
        from .ledger import traced

        self._next = next if ledger is None else traced(ledger, "eval.engine.consumer_wait", next)

    def iter_execute(self, *args: Any, **kwargs: Any) -> Iterator[Tuple[Any, Any]]:
        runs = self.engine.iter_execute(*args, **kwargs)
        stream = Stream()
        self.streams.append(stream)
        while True:
            stream.asks.append(time.perf_counter())
            try:
                pair = self._next(runs)
            except StopIteration:
                return
            stream.waits.append(time.perf_counter() - stream.asks[-1])
            stream.signal_s += pair[1].duration
            yield pair


def checksum(run: Any) -> int:
    crc = zlib.crc32(repr((run.duration, tuple(run.layer_times))).encode())
    for name in sorted(run.signals):
        crc = zlib.crc32(np.ascontiguousarray(run.signals[name].data).view(np.uint8), crc)
    return crc


def tree_cpu_s() -> float:
    """CPU of this process and its reaped children (the pool workers)."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def describe_latency(latencies: Sequence[float]) -> str:
    if highest_supported(len(latencies), TAIL_LADDER) is None:
        return f"run latency p50 {statistics.median(latencies) * 1e3:.1f} ms (n={len(latencies)})"
    lat = latency_summary(latencies)
    return (
        f"run latency p50 {lat['p50_ms']:.1f} ms, p{lat['tail_pct']:g} {lat['tail_ms']:.1f} ms "
        f"(n={lat['n']}, highest supported p{lat['supported_pct']:g})"
    )


# ---------------------------------------------------------------------------
# campaign_build
# ---------------------------------------------------------------------------
@dataclass
class Build:
    plan_s: float
    wall_s: float
    stream: Stream
    checksums: List[int]
    simulated: int
    hits: int
    peak_rss_mb: float
    cpu_s: float
    #: CPU the benchmark itself spent checksumming runs.
    harness_cpu_s: float


def build_once(seed: int, cache_dir: Path, ledger: Any = None) -> Build:
    """Plan, then stream every run into an empty cache."""
    from repro.eval.engine import CampaignEngine

    shutil.rmtree(cache_dir, ignore_errors=True)
    t0 = time.perf_counter()
    requests = plan(seed)
    plan_s = time.perf_counter() - t0
    cpu0 = tree_cpu_s()
    harness = 0.0
    checksums = []
    t0 = time.perf_counter()
    with CampaignEngine(workers=n_workers(), cache=cache_dir) as engine:
        timed = TimedEngine(engine, ledger)
        for _request, run in timed.iter_execute(requests, channels=CHANNELS):
            c0 = time.thread_time()
            checksums.append(checksum(run))
            harness += time.thread_time() - c0
        peak = tree_peak_rss_mb(os.getpid())
        stats = engine.stats
    wall = time.perf_counter() - t0
    return Build(
        plan_s=plan_s,
        wall_s=wall,
        stream=timed.streams[0],
        checksums=checksums,
        simulated=stats.simulated,
        hits=stats.cache_hits,
        peak_rss_mb=peak,
        cpu_s=tree_cpu_s() - cpu0,
        harness_cpu_s=harness,
    )


def resimulate(seed: int, cache_dir: Path, checksums: Sequence[int]) -> List[str]:
    """Re-simulate sampled runs in-process; each must equal its cache entry
    and the streamed run bit for bit.  Returns the problems found."""
    from repro.cache import RunCache, run_cache_key
    from repro.eval.dataset import run_process
    from repro.sensors.daq import default_daq

    requests = plan(seed)
    daq = default_daq()
    cache = RunCache(cache_dir)
    rng = np.random.default_rng([seed, 1])
    problems = []
    for index in sorted(rng.choice(len(requests), N_RESIMULATED, replace=False).tolist()):
        req = requests[index]
        fresh = run_process(
            req.setup, req.job, req.label, req.is_malicious, req.seed, daq=daq, channels=CHANNELS
        )
        key = run_cache_key(req.job.program, req.setup.machine, req.setup.noise, daq, CHANNELS, req.seed)
        payload = cache.get(key)
        if payload is None:
            problems.append(f"run {index}: not in the cache")
            continue
        signals, layer_times, duration = payload
        same = (
            duration == fresh.duration
            and tuple(layer_times) == tuple(fresh.layer_times)
            and sorted(signals) == sorted(fresh.signals)
            and all(
                signals[name].data.tobytes() == fresh.signals[name].data.tobytes()
                and signals[name].sample_rate == fresh.signals[name].sample_rate
                for name in fresh.signals
            )
        )
        if not same:
            problems.append(f"run {index}: cached payload differs from a fresh simulation")
        elif checksum(fresh) != checksums[index]:
            problems.append(f"run {index}: streamed run differs from a fresh simulation")
    return problems


def check_builds(builds: Sequence[Build]) -> List[str]:
    """Every build simulates every run, and every build's runs are the same."""
    problems = []
    for i, build in enumerate(builds):
        if build.simulated != N_RUNS or build.hits:
            problems.append(f"build {i}: simulated {build.simulated}, hits {build.hits}")
        if build.checksums != builds[0].checksums:
            problems.append(f"build {i}: runs differ from build 0")
    return problems


def run_build(seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, bool]:
    cache_dir = OUT / "cache-build"

    def once() -> Build:
        b = build_once(seed, cache_dir)
        info(f"build: {b.wall_s:.2f} s, {b.stream.signal_s / b.wall_s:.1f} signal-s/s, "
             f"first run after {b.stream.waits[0] * 1e3:.0f} ms, plan {b.plan_s:.2f} s")
        return b

    builds = repeat_for(seconds, once)
    problems = check_builds(builds) + resimulate(seed, cache_dir, builds[-1].checksums)
    shutil.rmtree(cache_dir, ignore_errors=True)
    for problem in problems:
        info("WRONG:", problem)
    info(describe_latency([x for b in builds for x in b.stream.run_latencies()]))
    values = {
        "setup_s": statistics.median(b.plan_s for b in builds),
        "signal_s_per_s": best_rate([b.stream.signal_s / b.wall_s for b in builds]),
        # A cold build delivers runs in bursts of one per worker, so the
        # median gap between runs flips between ~0 and a whole simulation;
        # the wait for the first run (pool start, one simulation, one cache
        # write) is the build's steady latency.
        "latency_ms": best_time([b.stream.waits[0] for b in builds]) * 1e3,
        "peak_rss_mb": max(b.peak_rss_mb for b in builds),
    }
    return values, len(builds) * N_RUNS, 0, not problems


# ---------------------------------------------------------------------------
# campaign_eval
# ---------------------------------------------------------------------------
@dataclass
class CellRun:
    """One cell of one pass: its counts, wall time and consumer stream."""

    counts: Dict[str, int]
    wall_s: float
    stream: Stream


@dataclass
class EvalState:
    setup_s: float
    engine: Any
    timed: TimedEngine
    campaigns: Dict[str, Any]


def eval_setup(seed: int) -> EvalState:
    """Warm the cache with a cold build, then open lazy campaigns on it."""
    from repro.eval.dataset import default_setup, generate_campaign
    from repro.eval.engine import CampaignEngine

    cache_dir = OUT / "cache-eval"
    shutil.rmtree(cache_dir, ignore_errors=True)
    t0 = time.perf_counter()
    with CampaignEngine(workers=n_workers(), cache=cache_dir) as warm:
        for _ in warm.iter_execute(plan(seed), channels=CHANNELS):
            pass
    engine = CampaignEngine(workers=n_workers(), cache=cache_dir)
    timed = TimedEngine(engine)
    campaigns = {
        printer: generate_campaign(
            default_setup(printer),
            channels=CHANNELS,
            n_train=N_TRAIN,
            n_benign_test=N_BENIGN,
            n_attack_runs=N_ATTACK_RUNS,
            seed=seed,
            engine=timed,
            materialize=False,
        )
        for printer in PRINTERS
    }
    return EvalState(time.perf_counter() - t0, engine, timed, campaigns)


def eval_pass(state: EvalState) -> Dict[str, CellRun]:
    """Every cell once."""
    from repro.eval.experiments import nsync_results

    cells = {}
    for printer, channel, transform in CELLS:
        n_streams = len(state.timed.streams)
        t0 = time.perf_counter()
        o = nsync_results(state.campaigns[printer], channel, transform).overall
        wall = time.perf_counter() - t0
        (stream,) = state.timed.streams[n_streams:]
        counts = {"tp": o.true_positives, "fp": o.false_positives,
                  "tn": o.true_negatives, "fn": o.false_negatives}
        cells[f"{printer} {channel} {transform}"] = CellRun(counts, wall, stream)
    return cells


def counts_of(cells: Dict[str, CellRun]) -> Dict[str, Dict[str, int]]:
    return {name: cell.counts for name, cell in cells.items()}


def check_counts(seed: int, passes: Sequence[Dict[str, CellRun]]) -> List[str]:
    """Every pass gives the same verdicts, one per test run; for seeds with
    a committed expectation, exactly the expected confusion counts."""
    counts = [counts_of(p) for p in passes]
    problems = [f"pass {i}: counts differ from pass 0" for i, c in enumerate(counts) if c != counts[0]]
    n_test = N_BENIGN + 5 * N_ATTACK_RUNS
    for cell, c in counts[0].items():
        if sum(c.values()) != n_test:
            problems.append(f"{cell}: {sum(c.values())} verdicts for {n_test} test runs")
    path = EXPECTED_DIR / f"campaign_eval-seed{seed}.json"
    if not path.exists():
        info(f"confusion counts for seed {seed}: unchecked (no expected file)")
    elif json.loads(path.read_text()) != counts[0]:
        problems.append(f"confusion counts {counts[0]} differ from {path.name}")
    else:
        info(f"confusion counts for seed {seed}: match {path.name}")
    return problems


def run_eval(seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, bool]:
    state = eval_setup(seed)
    try:
        sim0 = state.engine.stats.simulated

        def once() -> Dict[str, CellRun]:
            cells = eval_pass(state)
            wall = sum(c.wall_s for c in cells.values())
            signal = sum(c.stream.signal_s for c in cells.values())
            info(f"pass: {wall:.2f} s, {signal / wall:.1f} signal-s/s")
            return cells

        passes = repeat_for(seconds, once)
        simulated = state.engine.stats.simulated - sim0
        peak = tree_peak_rss_mb(os.getpid())
    finally:
        state.engine.close()
    (OUT / "campaign_eval-counts.json").write_text(json.dumps(counts_of(passes[0]), indent=2) + "\n")
    problems = check_counts(seed, passes)
    if simulated:
        problems.append(f"{simulated} runs were simulated on a warm cache")
    for problem in problems:
        info("WRONG:", problem)
    info(f"setup (cache warm-up) {state.setup_s:.2f} s")
    info(describe_latency([x for p in passes for c in p.values() for x in c.stream.run_latencies()]))
    # Each cell's least disturbed pass stands for that cell.
    best = [
        min((p[name] for p in passes), key=lambda c: c.wall_s) for name in passes[0]
    ]
    values = {
        "setup_s": state.setup_s,
        "signal_s_per_s": sum(c.stream.signal_s for c in best) / sum(c.wall_s for c in best),
        "latency_ms": statistics.median(x for c in best for x in c.stream.run_latencies()) * 1e3,
        "peak_rss_mb": peak,
    }
    return values, len(passes) * len(CELLS) * N_RUNS // len(PRINTERS), 0, not problems


def run(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, bool]:
    if workload == "campaign_build":
        return run_build(seed, seconds)
    return run_eval(seed, seconds)


# ---------------------------------------------------------------------------
# Traced runs
# ---------------------------------------------------------------------------
def run_traced(workload: str, seed: int, seconds: float) -> Tuple[Dict[str, float], int, int, bool]:
    """Plain and traced builds (or evaluation passes), alternately; the
    ledger of the traced ones, per second of signal."""
    from repro import obs

    from .ledger import Ledger, install_campaign, merge, read_spans, stage_deltas, summarize

    ledger = Ledger(OUT / "spans")
    plain_walls: List[float] = []
    walls: List[float] = []
    streams: List[Stream] = []
    cpu = harness = 0.0
    stages0 = obs.registry().snapshot()["spans"]

    @contextmanager
    def tracing() -> Iterator[None]:
        patches = install_campaign(ledger)
        obs.enable()
        try:
            yield
        finally:
            obs.disable()
            patches.undo()

    if workload == "campaign_build":
        cache_dir = OUT / "cache-build"
        builds = []
        for _ in range(TRACE_REPEATS):
            builds.append(build_once(seed, cache_dir))
            plain_walls.append(builds[-1].wall_s)
            with tracing():
                b = build_once(seed, cache_dir, ledger)
            builds.append(b)
            walls.append(b.wall_s)
            streams.append(b.stream)
            cpu += b.cpu_s
            harness += b.harness_cpu_s
        shutil.rmtree(cache_dir, ignore_errors=True)
        problems = check_builds(builds)
        attempted = len(builds) * N_RUNS
    else:
        state = eval_setup(seed)
        passes = []
        try:
            for _ in range(TRACE_REPEATS):
                passes.append(eval_pass(state))
                plain_walls.append(sum(c.wall_s for c in passes[-1].values()))
                with tracing():
                    state.timed.trace(ledger)
                    cpu0 = tree_cpu_s()
                    passes.append(eval_pass(state))
                    cpu += tree_cpu_s() - cpu0
                    state.timed.trace(None)
                walls.append(sum(c.wall_s for c in passes[-1].values()))
                streams += [c.stream for c in passes[-1].values()]
        finally:
            state.engine.close()
        problems = check_counts(seed, passes)
        attempted = len(passes) * len(CELLS) * N_RUNS // len(PRINTERS)
    stages = stage_deltas(stages0, obs.registry().snapshot()["spans"])
    ledger.flush()
    processes = read_spans(OUT / "spans")
    write_trace(processes)
    layers = merge([summarize(spans) for spans in processes])

    def get(name: str, key: str = "cpu") -> float:
        return layers.get(name, {}).get(key, 0.0)

    signal_s = sum(s.signal_s for s in streams)
    waits = [w for s in streams for w in s.waits]
    attributed = sum(row["top_cpu"] for row in layers.values())
    program_cpu = cpu - harness
    gets = get("cache.get_lazy", "calls")
    values = {
        "printer.firmware.cps": get("printer.firmware.simulate_print") / signal_s,
        "printer.firmware.calls": get("printer.firmware.simulate_print", "calls"),
        "sensors.daq.cps": get("sensors.daq.acquire") / signal_s,
        "sensors.daq.calls": get("sensors.daq.acquire", "calls"),
        "cache.put.cps": get("cache.put") / signal_s,
        "cache.put.calls": get("cache.put", "calls"),
        "cache.put.bytes": get("cache.put", "bytes"),
        "cache.get_lazy.cps": get("cache.get_lazy") / signal_s,
        "cache.get_lazy.calls": gets,
        "cache.hit_ratio": get("cache.get_lazy", "hit") / gets if gets else 0.0,
        "eval.engine.consumer_wait.cps": sum(waits) / signal_s,
        "eval.engine.consumer_wait.calls": len(waits),
        "signals.spectrogram.cps": get("signals.spectrogram") / signal_s,
        "signals.spectrogram.calls": get("signals.spectrogram", "calls"),
        "core.nsync.analyze.cps": get("core.nsync.analyze") / signal_s,
        "core.nsync.analyze.calls": get("core.nsync.analyze", "calls"),
        "trace.overhead_ratio": min(walls) / min(plain_walls) - 1.0,
        "trace.unattributed_ratio": (program_cpu - attributed) / program_cpu,
    }
    for stage, row in stages.items():
        values[f"core.engine.{stage}.cps"] = row["cpu"] / signal_s
        values[f"core.engine.{stage}.calls"] = row["calls"]
    for problem in problems:
        info("WRONG:", problem)
    info(f"best traced {min(walls):.2f} s vs plain {min(plain_walls):.2f} s; process-tree CPU "
         f"{cpu:.2f} s, "
         f"attributed {attributed:.2f} s, harness {harness:.2f} s")
    return layer_row(values), attempted, 0, not problems
