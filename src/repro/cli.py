"""Command-line interface: ``python -m repro <command>``.

Four workflows cover the life of a deployment:

* ``slice``    — produce the benign (or attacked) G-code for a part;
* ``simulate`` — execute G-code on a simulated printer and record the
  side-channel signals to disk;
* ``train``    — build an NSYNC reference + thresholds from benign runs;
* ``detect``   — screen a recorded run against a trained model
  (``--stream --chunk-s S`` feeds the engine chunk by chunk instead of
  one batch push — identical verdict by the chunking-invariance
  property);
* ``campaign`` — run a scaled evaluation campaign and print the
  Table VIII-style row for one channel;
* ``faults``   — chaos-test the trained IDS by replaying the fault-injection
  matrix (:mod:`repro.faults`) against the batch and streaming detectors
  (exit status 1 when any graceful-degradation check fails);
* ``diff``     — lock-step differential validation of every vectorized
  hot path against its kept scalar reference over generated workloads
  (:mod:`repro.eval.diff`; exit status 1 + a replayable repro bundle on
  the first divergence);
* ``bench``    — measure detection-engine throughput on this machine;
* ``serve``    — run the fleet detection service: multiplex many live
  printer streams over a pool of checkpointed detection engines
  (:mod:`repro.serve`), with crash resume from atomic checkpoints and
  one shared telemetry endpoint;
* ``loadgen``  — replay a synthetic printer fleet against ``serve`` and
  report p50/p99 ingest latency, samples/s, and streams/core (with
  optional bit-identical offline verification);
* ``top``      — live terminal dashboard over the telemetry endpoint or
  snapshot file (:mod:`repro.obs.telemetry`): one row per detection
  stream with ingest lag, chunk-latency p50/p99, windows, quarantine /
  SENSOR_FAULT state and alerts.  Pair it with ``detect --stream
  --telemetry-port 9107`` (and optionally ``--pace 1`` for DAQ-realtime
  replay) in another terminal.

Every command accepting ``--trace``/``--metrics-out`` can record tracing
spans and pipeline metrics (see :mod:`repro.obs`): ``--trace`` turns the
instrumentation on (equivalent to ``REPRO_TRACE=1``), and
``--metrics-out PATH`` writes the metrics-registry snapshot as JSON when
the command finishes (implies ``--trace``).  ``--chrome-trace PATH``
additionally captures every span as a Chrome/Perfetto ``trace_event`` and
writes the trace JSON on exit (open it at https://ui.perfetto.dev).  With
``--workers > 0`` each worker records its own registry and the campaign
engine merges it back into the parent on task completion, so counters,
histograms, and span aggregates cover the whole pool; only the
Chrome-trace *event capture* stays per-process (use ``--workers 0`` for a
complete single-process trace timeline).

Forensics: ``detect --events-out events.jsonl`` records the structured
event log (schema v1, see :mod:`repro.obs.events`) — per-window evidence,
per-submodule alarms, and the run summary.  ``repro explain
events.jsonl --attack Speed0.95`` then joins the log with the simulated
machine trace to render a markdown incident report naming the implicated
G-code instruction span.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------
def _attack_by_name(name: str):
    from .attacks import TABLE_I_ATTACKS

    attacks = {a.name: a for a in TABLE_I_ATTACKS()}
    try:
        return attacks[name]
    except KeyError:
        raise SystemExit(
            f"unknown attack {name!r}; choose from {sorted(attacks)}"
        ) from None


def _setup_for(printer: str, height: float):
    from .eval import default_setup

    return default_setup(printer, object_height=height)


def _obs_requested(args: argparse.Namespace) -> bool:
    return bool(
        getattr(args, "trace", False)
        or getattr(args, "metrics_out", None)
        or getattr(args, "chrome_trace", None)
    )


def _start_obs(args: argparse.Namespace) -> None:
    """Enable the observability layers the flags ask for."""
    from . import obs

    if _obs_requested(args):
        obs.enable()
    if getattr(args, "chrome_trace", None):
        obs.enable_chrome_trace()
    events_out = getattr(args, "events_out", None)
    if events_out:
        from .obs import events

        events.enable(jsonl_path=events_out)


def _finish_obs(args: argparse.Namespace) -> None:
    """Export the observability artifacts the command asked for.

    Bookkeeping messages go to stderr so machine-readable stdout (e.g.
    ``detect --json``) stays clean.
    """
    from . import obs

    path = getattr(args, "metrics_out", None)
    if path:
        out = obs.export_metrics(path)
        print(f"metrics registry written to {out}", file=sys.stderr)
    chrome = getattr(args, "chrome_trace", None)
    if chrome:
        obs.export_chrome_trace(chrome)
        obs.disable_chrome_trace()
        print(f"chrome trace written to {chrome} "
              "(open at https://ui.perfetto.dev)", file=sys.stderr)
    if getattr(args, "events_out", None):
        from .obs import events

        n = events.log().seq
        events.disable()
        print(f"{n} events written to {args.events_out}", file=sys.stderr)


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------
def cmd_slice(args: argparse.Namespace) -> int:
    setup = _setup_for(args.printer, args.height)
    job = setup.job()
    if args.attack:
        job = _attack_by_name(args.attack).apply(job)
    Path(args.output).write_text(job.program.to_text())
    print(f"wrote {len(job.program)} commands to {args.output}")
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from .io import save_signals
    from .printer import GcodeProgram, simulate_print
    from .sensors import default_daq

    setup = _setup_for(args.printer, args.height)
    program = GcodeProgram.from_text(Path(args.gcode).read_text())
    trace = simulate_print(program, setup.machine, setup.noise, seed=args.seed)
    channels = args.channels.split(",") if args.channels else None
    signals = default_daq().acquire(
        trace, np.random.default_rng(args.seed), channels=channels
    )
    save_signals(signals, args.output)
    print(
        f"simulated {trace.duration:.1f} s print "
        f"({len(trace.layer_change_times) + 1} layers); wrote "
        f"{len(signals)} channels to {args.output}/"
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    from .core import NsyncIds
    from .io import save_dwm_params, save_signal, save_thresholds
    from .sensors import default_daq
    from .printer import simulate_print
    from .sync import DwmSynchronizer

    setup = _setup_for(args.printer, args.height)
    job = setup.job()
    daq = default_daq()

    def acc(seed: int):
        trace = simulate_print(job.program, setup.machine, setup.noise, seed=seed)
        return daq.acquire(
            trace, np.random.default_rng(seed), channels=[args.channel]
        )[args.channel]

    print(f"recording reference + {args.runs} benign training runs "
          f"({args.channel}, {args.printer})...")
    reference = acc(args.seed)
    ids = NsyncIds(reference, DwmSynchronizer(setup.dwm_params))
    ids.fit([acc(args.seed + 1 + k) for k in range(args.runs)], r=args.r)

    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    save_signal(reference, out / "reference.npz")
    save_thresholds(ids.thresholds, out / "thresholds.json")
    save_dwm_params(setup.dwm_params, out / "dwm_params.json")
    print(f"model written to {out}/ "
          f"(c_c={ids.thresholds.c_c:.1f}, h_c={ids.thresholds.h_c:.1f}, "
          f"v_c={ids.thresholds.v_c:.3f}, d_c={ids.thresholds.d_c:.1f})")
    return 0


def cmd_detect(args: argparse.Namespace) -> int:
    import json
    import math
    import time

    from .core import NsyncIds
    from .io import load_dwm_params, load_signal, load_thresholds
    from .sync import DwmSynchronizer

    model = Path(args.model)
    ids = NsyncIds(
        load_signal(model / "reference.npz"),
        DwmSynchronizer(load_dwm_params(model / "dwm_params.json")),
    )
    ids.thresholds = load_thresholds(model / "thresholds.json")

    observed = load_signal(args.signal)
    if args.stream:
        from . import obs

        telemetry_on = (
            args.telemetry_port is not None or args.telemetry_snapshot
        )
        exporter = None
        if args.telemetry_port is not None:
            server = obs.serve_telemetry(args.telemetry_port)
            print(
                f"telemetry endpoint at {server.url}/metrics "
                f"(snapshot: {server.url}/snapshot.json)",
                file=sys.stderr,
            )
        if args.telemetry_snapshot:
            obs.enable()
            exporter = obs.start_snapshot_exporter(
                args.telemetry_snapshot, interval_s=args.telemetry_interval
            )
        stream_id = args.stream_id
        if stream_id is None and telemetry_on:
            stream_id = Path(args.signal).stem
        # This command owns the stream, so it feeds the stream's health
        # row from every push result, as the fleet server does.
        row = (
            obs.telemetry.register_stream(stream_id, observed.sample_rate)
            if stream_id is not None
            else None
        )
        # Same engine as the batch call, driven chunk by chunk.
        engine = ids.engine()
        hop = max(1, int(round(args.chunk_s * observed.sample_rate)))
        # Deadline-based pacing: chunk k is released at start + k/pace
        # chunk-durations on the monotonic clock, so engine processing
        # time is absorbed instead of accumulating as replay drift.
        from .serve.pacing import Pacer

        pacer = Pacer(args.chunk_s / args.pace if args.pace > 0 else 0.0)
        for start in range(0, observed.n_samples, hop):
            chunk = observed.data[start : start + hop]
            t0 = time.perf_counter()
            alerts = engine.push(chunk)
            if row is not None:
                row.observe_chunk(
                    chunk.shape[0],
                    time.perf_counter() - t0,
                    engine.n_indexes,
                    engine.n_quarantined,
                    engine.sensor_fault_fired,
                )
                for alert in alerts:
                    row.note_alert(alert.submodule, alert.time_s)
            pacer.wait()
        n_pushed = len(engine.alerts)
        result = engine.finalize()
        verdict = result.detection
        assert verdict is not None
        if row is not None:
            for alert in result.alerts[n_pushed:]:
                row.note_alert(alert.submodule, alert.time_s)
            row.mark_finished(intrusion=verdict.is_intrusion)
        if exporter is not None:
            exporter.stop()
            print(
                f"telemetry snapshot written to {exporter.path}",
                file=sys.stderr,
            )
    else:
        verdict = ids.detect(observed)
    if args.json:
        t = ids.thresholds
        doc = verdict.to_dict()
        # inf (= sub-module disabled) is not valid strict JSON.
        doc["thresholds"] = {
            name: (v if math.isfinite(v) else None)
            for name, v in (
                ("c_c", t.c_c), ("h_c", t.h_c),
                ("v_c", t.v_c), ("d_c", t.d_c),
            )
        }
        print(json.dumps(doc, indent=2))
    elif verdict.is_intrusion:
        fired = ", ".join(verdict.fired_submodules())
        print(f"INTRUSION (sub-modules: {fired}; "
              f"first alarm at window {verdict.first_alarm_index})")
    else:
        print("ok — no intrusion detected")
    return 1 if verdict.is_intrusion else 0


def _render_top(doc: dict, source: str = "") -> str:
    """One ``repro top`` frame from a telemetry JSON document."""
    import datetime

    streams = doc.get("streams", {})
    ts = doc.get("ts")
    when = (
        datetime.datetime.fromtimestamp(float(ts)).strftime("%H:%M:%S")
        if ts
        else "?"
    )
    header = f"repro top — {len(streams)} stream(s) — {when}"
    if source:
        header += f" — {source}"
    cols = (
        f"{'STREAM':<18} {'STATE':<9} {'SAMPLES':>9} {'RATE/S':>9} "
        f"{'LAG_S':>7} {'P50_MS':>7} {'P99_MS':>7} {'WIN':>5} "
        f"{'QUAR':>5} {'ALERTS':>6} {'FAULT':>5}  LAST_ALERT"
    )
    lines = [header, cols]
    for sid in sorted(streams):
        row = streams[sid]
        lat = row.get("chunk_latency") or {}
        last = row.get("last_alert")
        last_s = (
            f"{last['submodule']}@{float(last['time_s']):.1f}s"
            if last
            else "-"
        )
        lines.append(
            f"{sid[:18]:<18} {row['state']:<9} {int(row['samples']):>9} "
            f"{float(row['samples_per_s']):>9.1f} "
            f"{float(row['ingest_lag_s']):>7.2f} "
            f"{float(lat.get('p50_s', 0.0)) * 1e3:>7.2f} "
            f"{float(lat.get('p99_s', 0.0)) * 1e3:>7.2f} "
            f"{int(row['windows']):>5} "
            f"{int(row['quarantined_windows']):>5} "
            f"{int(row['alerts']):>6} "
            f"{'YES' if row['sensor_fault'] else '-':>5}  {last_s}"
        )
    if not streams:
        lines.append("(no streams registered yet)")
    return "\n".join(lines) + "\n"


def cmd_top(args: argparse.Namespace) -> int:
    """Live-refreshing dashboard over /snapshot.json or a snapshot file."""
    import json
    import time as _time
    import urllib.request

    if args.snapshot:
        source = str(args.snapshot)

        def fetch() -> dict:
            return json.loads(Path(args.snapshot).read_text())

    else:
        source = args.url.rstrip("/")

        def fetch() -> dict:
            with urllib.request.urlopen(
                source + "/snapshot.json", timeout=2.0
            ) as resp:
                return json.loads(resp.read().decode("utf-8"))

    iterations = 1 if args.once else args.iterations
    shown = 0
    ever_ok = False
    while True:
        try:
            frame = _render_top(fetch(), source=source)
            ever_ok = True
        except (OSError, ValueError, KeyError) as exc:
            frame = f"repro top: waiting for telemetry ({exc})\n"
        if shown and sys.stdout.isatty():
            print("\x1b[2J\x1b[H", end="")
        print(frame, end="", flush=True)
        shown += 1
        if iterations is not None and shown >= iterations:
            return 0 if ever_ok else 1
        try:
            _time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


def cmd_explain(args: argparse.Namespace) -> int:
    from .eval import incident_from_events, render_incident_report
    from .obs.events import read_jsonl
    from .printer import GcodeProgram, simulate_print

    setup = _setup_for(args.printer, args.height)
    tampered = ()
    if args.attack:
        job = _attack_by_name(args.attack).apply(setup.job())
        program = job.program
        tampered = job.tampered_spans
    elif args.gcode:
        program = GcodeProgram.from_text(Path(args.gcode).read_text())
    else:
        raise SystemExit("repro explain: pass --attack NAME or --gcode PATH "
                         "so the print can be re-simulated")

    try:
        records = read_jsonl(
            args.events_jsonl, tolerate_torn_tail=args.tolerate_torn_tail
        )
    except ValueError as exc:
        raise SystemExit(f"repro explain: {exc}") from None
    # Re-run the same simulation 'detect' screened (same noise model and
    # seed) to recover the sample -> instruction mapping.
    trace = simulate_print(program, setup.machine, setup.noise, seed=args.seed)
    try:
        incident = incident_from_events(records, trace=trace)
    except ValueError as exc:
        # A torn tail that ate the run_summary lands here: the log read
        # cleanly but no longer carries a verdict to explain.
        raise SystemExit(f"repro explain: {exc}") from None
    report = render_incident_report(
        incident, program=program, tampered_spans=tampered
    )
    if args.output:
        Path(args.output).write_text(report)
        print(f"incident report written to {args.output}")
    else:
        print(report, end="")
    return 0


def _engine_for(args: argparse.Namespace):
    """Build the campaign engine from the --workers/--cache-dir flags."""
    from .eval import CampaignEngine

    try:
        return CampaignEngine(workers=args.workers, cache=args.cache_dir)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}") from None


def _print_engine_stats(engine) -> None:
    s = engine.stats
    cache = f", cache {s.cache_hits} hits / {s.cache_misses} misses" \
        if engine.cache is not None else ""
    print(
        f"executed {s.simulated} simulations in {s.elapsed:.1f} s "
        f"({engine.workers} workers{cache})"
    )


#: Table VIII/IX campaign sizes: 50 training, 100 benign test, 20 runs
#: per attack class (the paper's per-configuration experiment counts).
PAPER_SCALE = {"train": 50, "test": 100, "attack_runs": 20}

#: The quick default sizes used when --paper-scale is not given.
QUICK_SCALE = {"train": 8, "test": 8, "attack_runs": 2}


def _campaign_sizes(args: argparse.Namespace) -> Dict[str, int]:
    """Resolve --train/--test/--attack-runs against the scale preset.

    Explicit flags always win; unset ones fall back to the paper's
    Table VIII/IX counts under ``--paper-scale``, else the quick preset.
    """
    preset = PAPER_SCALE if args.paper_scale else QUICK_SCALE
    return {
        key: preset[key] if getattr(args, key) is None else getattr(args, key)
        for key in ("train", "test", "attack_runs")
    }


def _peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux: KB units)."""
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _append_bench_record(path: str, record: Dict[str, object]) -> None:
    """Append one record to a BENCH_*.json history; a one-line error
    (file untouched) when the history does not parse."""
    from .io import append_bench_record

    try:
        append_bench_record(path, record)
    except ValueError as exc:
        raise SystemExit(f"repro: {exc}")


def cmd_campaign(args: argparse.Namespace) -> int:
    import time

    from .eval import format_ids_table, generate_campaign, nsync_results

    sizes = _campaign_sizes(args)
    setup = _setup_for(args.printer, args.height)
    print(f"generating campaign ({args.printer}, {sizes['train']} train, "
          f"{sizes['test']} benign test, {sizes['attack_runs']} runs/attack"
          f"{', paper scale' if args.paper_scale else ''})...")
    engine = _engine_for(args)
    synchronizer = None
    if args.synchronizer == "fastdtw":
        from .sync.fastdtw import FastDtwSynchronizer

        synchronizer = FastDtwSynchronizer()
    t0 = time.perf_counter()
    # Lazy campaign: runs stream through nsync_results one at a time, so
    # peak memory stays O(1) in the campaign size even at paper scale.
    campaign = generate_campaign(
        setup,
        channels=(args.channel,),
        n_train=sizes["train"],
        n_benign_test=sizes["test"],
        n_attack_runs=sizes["attack_runs"],
        seed=args.seed,
        engine=engine,
        materialize=False,
    )
    result = nsync_results(
        campaign, args.channel, args.transform,
        synchronizer=synchronizer, r=args.r,
    )
    wall_clock_s = time.perf_counter() - t0
    _print_engine_stats(engine)
    engine.close()
    sync_name = args.synchronizer
    label = f"{args.printer} {args.transform} {args.channel}"
    table = format_ids_table(
        {label: result},
        submodule_names=("c_disp", "h_dist", "v_dist", "duration"),
        title=f"NSYNC/{sync_name.upper()}",
    )
    tpr_lines = [
        f"  {attack:<11} TPR {tpr:.2f}"
        for attack, tpr in sorted(result.per_attack_tpr.items())
    ]
    print(table)
    for line in tpr_lines:
        print(line)
    if args.tables_out:
        out = Path(args.tables_out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(table + "\n" + "\n".join(tpr_lines) + "\n")
        print(f"tables written to {args.tables_out}")
    if args.bench_out:
        s = engine.stats
        _append_bench_record(args.bench_out, {
            "name": f"campaign_{args.channel}_{args.transform}_{sync_name}"
                    .replace(".", ""),
            "time": time.strftime("%Y-%m-%dT%H:%M:%S"),
            "wall_clock_s": round(wall_clock_s, 3),
            "peak_rss_mb": round(_peak_rss_mb(), 1),
            "workers": engine.workers,
            "cpu_count": os.cpu_count(),
            "simulated": s.simulated,
            "cache_hits": s.cache_hits,
            "cache_misses": s.cache_misses,
            "n_train": sizes["train"],
            "n_benign_test": sizes["test"],
            "n_attack_runs": sizes["attack_runs"],
        })
        print(f"bench record appended to {args.bench_out}")
    return 0


def cmd_faults(args: argparse.Namespace) -> int:
    import json

    from .core import SanitizePolicy
    from .faults import render_fault_table, run_fault_campaign

    setup = _setup_for(args.printer, args.height)
    engine = _engine_for(args)
    detectors = ("batch", "streaming") if args.detector == "both" \
        else (args.detector,)
    policy = SanitizePolicy(max_dark_s=args.max_dark_s)
    if not args.json:
        print(f"fault campaign ({args.printer}, {args.channel}, "
              f"{args.train} train, detectors: {', '.join(detectors)})...")
    result = run_fault_campaign(
        setup=setup,
        channel=args.channel,
        n_train=args.train,
        seed=args.seed,
        engine=engine,
        detectors=detectors,
        chunk_s=args.chunk_s,
        policy=policy,
        r=args.r,
    )
    if args.json:
        print(json.dumps(result.to_dict(), indent=2))
    else:
        _print_engine_stats(engine)
        print(render_fault_table(result))
        verdict = "all cases passed" if result.all_passed else \
            f"{result.n_failed}/{len(result.results)} cases FAILED"
        print(f"fault campaign: {verdict}")
    if args.summary:
        # One machine-greppable line; on stderr when --json owns stdout.
        line = f"{len(result.results)} cases, {result.n_failed} failed"
        print(line, file=sys.stderr if args.json else sys.stdout)
    return 0 if result.all_passed else 1


def cmd_diff(args: argparse.Namespace) -> int:
    import json

    from .eval.diff import (
        PAIRS,
        DiffReport,
        diff_pair,
        replay_bundle,
        write_bundle,
    )

    if args.replay is not None:
        report = replay_bundle(args.replay)
        reports = [report]
        seed = report.seed
        if not args.json:
            state = "DIVERGED" if not report.ok else "no divergence"
            print(f"replay {args.replay} ({report.pair}): {state}")
    else:
        pairs = list(PAIRS) if args.pair == "all" else [args.pair]
        seed = args.seed
        reports = []
        for pair in pairs:
            report = diff_pair(pair, seed=seed, examples=args.examples)
            reports.append(report)
            if not args.json:
                state = "OK" if report.ok else "DIVERGED"
                print(
                    f"{pair:<10} {report.examples} workloads "
                    f"(seed {seed}): {state}"
                )
            if not report.ok:
                path = write_bundle(
                    report, Path(args.bundle_dir) / f"bundle_{pair}.json"
                )
                if not args.json:
                    print(f"  repro bundle: {path}")
    diff_report = DiffReport(seed=seed, reports=tuple(reports))
    if args.json:
        print(json.dumps(diff_report.to_dict(), indent=2))
    elif not diff_report.ok:
        for report in reports:
            if report.divergence is not None:
                print()
                print(report.divergence.render())
    return 0 if diff_report.ok else 1


def cmd_report(args: argparse.Namespace) -> int:
    from .eval import (
        fig12_overall_accuracy,
        format_accuracy_ranking,
        format_ids_table,
        generate_campaign,
        nsync_results,
    )

    setup = _setup_for(args.printer, args.height)
    print(
        f"generating campaign and running all seven IDSs "
        f"({args.printer}; this takes a few minutes)..."
    )
    engine = _engine_for(args)
    # The report makes many evaluation passes over the same campaign.  With
    # a run cache the campaign stays a lazy view — each pass streams cached
    # payloads as memmaps and memory stays flat.  Without a cache a lazy
    # campaign would re-simulate every pass, so fall back to materializing.
    campaign = generate_campaign(
        setup,
        channels=("ACC", "MAG", "AUD", "EPT"),
        n_train=args.train,
        n_benign_test=args.test,
        n_attack_runs=args.attack_runs,
        seed=args.seed,
        engine=engine,
        materialize=engine.cache is None,
    )
    _print_engine_stats(engine)

    sections = ["# NSYNC evaluation report", ""]
    sections.append(
        f"Printer {args.printer}, object height {args.height} mm, "
        f"{args.train} training / {args.test} benign-test / "
        f"{args.attack_runs} runs per attack, seed {args.seed}."
    )

    nsync_cells = {}
    for channel in ("ACC", "MAG", "AUD", "EPT"):
        for transform in ("Raw", "Spectro."):
            key = f"{args.printer} {transform} {channel}"
            nsync_cells[key] = nsync_results(campaign, channel, transform)
    sections.append(chr(10) + "## NSYNC/DWM (Table VIII)" + chr(10))
    sections.append("```")
    sections.append(
        format_ids_table(
            nsync_cells,
            submodule_names=("c_disp", "h_dist", "v_dist", "duration"),
        )
    )
    sections.append("```")

    accuracies = fig12_overall_accuracy(campaign)
    sections.append(chr(10) + "## All seven IDSs (Fig. 12)" + chr(10))
    sections.append("```")
    sections.append(format_accuracy_ranking(accuracies))
    sections.append("```")

    from .eval import localization_rows, render_localization_table

    rows = localization_rows(campaign, channel="ACC")
    localized = [r for r in rows if r["localized"] is not None]
    hits = sum(1 for r in localized if r["localized"])
    sections.append(chr(10) + "## Alarm localization (forensics)" + chr(10))
    sections.append(
        "One probe per attack: the first alarm window is mapped back onto "
        "the G-code instruction span executing at that time and checked "
        "against the attack's ground-truth tampered span."
    )
    sections.append("")
    sections.append("```")
    sections.append(render_localization_table(rows))
    sections.append("```")
    if localized:
        sections.append(
            f"{chr(10)}Localization accuracy: {hits}/{len(localized)} "
            "detected attacks implicated an instruction span overlapping "
            "the tampered instructions."
        )

    from . import obs

    if obs.enabled():
        from .eval import render_overhead_table

        sections.append(
            chr(10) + "## Processing-time overhead (Table X-style)" + chr(10)
        )
        sections.append("```")
        sections.append(render_overhead_table(obs.snapshot()))
        sections.append("```")

    text = chr(10).join(sections) + chr(10)
    Path(args.output).write_text(text)
    engine.close()
    print(f"report written to {args.output}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    import json

    from .eval.throughput import (
        ThroughputWorkload,
        load_baseline_record,
        measure_engine_throughput,
        render_comparison,
    )

    workload = ThroughputWorkload(
        n_samples=args.samples, chunk_samples=args.chunk
    )
    if not args.json:
        print(
            f"measuring DetectionEngine throughput "
            f"({workload.n_samples} samples, chunk={workload.chunk_samples}, "
            f"{args.repeats} warm repeats)..."
        )
    record = measure_engine_throughput(workload, repeats=args.repeats)
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        baseline = load_baseline_record(Path(args.baseline))
        print(render_comparison(record, baseline))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    import asyncio
    import signal as _signal

    from .serve import FleetServer
    from .serve.model import demo_model

    model_dir = Path(args.model)
    if not (model_dir / "reference.npz").exists():
        if args.demo:
            demo_model(n_samples=args.demo_samples).save(model_dir)
            print(f"demo model written to {model_dir}/", file=sys.stderr)
        else:
            raise SystemExit(
                f"repro serve: {model_dir} has no reference.npz; train a "
                "model first ('repro train') or pass --demo"
            )
    server = FleetServer(
        model_dir,
        checkpoint_dir=args.checkpoint_dir,
        shards=args.shards,
        host=args.host,
        port=args.port,
        unix_path=args.unix,
        checkpoint_interval_s=args.checkpoint_interval,
        metrics_port=args.metrics_port,
    )

    async def _run() -> None:
        await server.start()
        where = (
            str(server.unix_path)
            if server.unix_path is not None
            else f"{server.host}:{server.port}"
        )
        mode = (
            f"{server.shards} shard worker(s)" if server.shards else "inline"
        )
        print(f"serving on {where} ({mode})", flush=True)
        loop = asyncio.get_running_loop()
        stop = asyncio.Event()
        for sig in (_signal.SIGINT, _signal.SIGTERM):
            loop.add_signal_handler(sig, stop.set)
        waiters = [asyncio.ensure_future(stop.wait())]
        if args.max_seconds is not None:
            waiters.append(
                asyncio.ensure_future(asyncio.sleep(args.max_seconds))
            )
        _, pending = await asyncio.wait(
            waiters, return_when=asyncio.FIRST_COMPLETED
        )
        for fut in pending:
            fut.cancel()
        print("draining connections, final checkpoint...", file=sys.stderr)
        await server.stop()

    asyncio.run(_run())
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    import asyncio
    import json

    from .serve.loadgen import bench_record, run_loadgen, synth_streams
    from .serve.model import ServeModel
    from .serve.protocol import read_address

    if args.unix:
        address = args.unix
    else:
        address = read_address(args.connect)
        if address is None:
            raise SystemExit(
                f"repro loadgen: --connect must be host:port, "
                f"got {args.connect!r}"
            )
    streams = synth_streams(
        args.streams,
        n_samples=args.n_samples,
        sample_rate=args.sample_rate,
    )
    verify_model = ServeModel.from_dir(args.verify) if args.verify else None
    result = asyncio.run(
        run_loadgen(
            address,
            streams,
            chunk_samples=args.chunk_samples,
            pace=args.pace,
            verify_model=verify_model,
        )
    )
    record = bench_record(
        result,
        chunk_samples=args.chunk_samples,
        pace=args.pace,
        shards=args.server_shards,
        sample_rate=args.sample_rate,
        verified=verify_model is not None,
    )
    if args.json:
        print(json.dumps(record, indent=2))
    else:
        print(result.summary())
        print(
            f"streams_per_core   {record['streams_per_core']:10.1f} "
            f"(cores_used={record['cores_used']})"
        )
    if args.bench_out:
        _append_bench_record(args.bench_out, record)
        print(f"bench record appended to {args.bench_out}", file=sys.stderr)
    if result.mismatches:
        shown = ", ".join(result.mismatches[:8])
        print(f"VERDICT MISMATCHES ({len(result.mismatches)}): {shown}",
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="NSYNC side-channel IDS for additive manufacturing "
        "(ICDCS 2021 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--printer", default="UM3", choices=["UM3", "RM3"])
        p.add_argument("--height", type=float, default=0.6,
                       help="object height in mm (default 0.6; paper: 7.5)")
        p.add_argument("--seed", type=int, default=0)

    def obs_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--trace", action="store_true",
            help="record tracing spans + pipeline metrics "
                 "(same as REPRO_TRACE=1)",
        )
        p.add_argument(
            "--metrics-out", metavar="PATH", default=None,
            help="write the metrics-registry snapshot to PATH as JSON "
                 "when the command finishes (implies --trace)",
        )
        p.add_argument(
            "--chrome-trace", metavar="PATH", default=None,
            help="capture spans as Chrome/Perfetto trace_events and write "
                 "the trace JSON to PATH on exit (implies --trace; open "
                 "at https://ui.perfetto.dev)",
        )

    def engine_opts(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--workers", type=int,
            default=max(0, (os.cpu_count() or 1) - 1),
            help="worker processes for campaign simulation "
                 "(0 = serial; default: cpu_count - 1)",
        )
        p.add_argument(
            "--cache-dir", default=os.environ.get("REPRO_CACHE_DIR"),
            help="content-addressed run cache directory "
                 "(default: $REPRO_CACHE_DIR; unset disables caching)",
        )

    p = sub.add_parser("slice", help="slice the gear into G-code")
    common(p)
    p.add_argument("--attack", default=None,
                   help="apply a Table I attack (e.g. Void, Speed0.95)")
    p.add_argument("output", help="output .gcode path")
    p.set_defaults(func=cmd_slice)

    p = sub.add_parser("simulate", help="execute G-code, record side channels")
    common(p)
    obs_opts(p)
    p.add_argument("gcode", help="input .gcode path")
    p.add_argument("output", help="output directory for channel .npz files")
    p.add_argument("--channels", default="ACC",
                   help="comma-separated channel ids (default ACC)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("train", help="train an NSYNC model from benign runs")
    common(p)
    obs_opts(p)
    p.add_argument("output", help="model output directory")
    p.add_argument("--channel", default="ACC")
    p.add_argument("--runs", type=int, default=8)
    p.add_argument("--r", type=float, default=0.3)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("detect", help="screen a recorded signal")
    obs_opts(p)
    p.add_argument("model", help="model directory from 'train'")
    p.add_argument("signal", help=".npz signal from 'simulate'")
    p.add_argument(
        "--json", action="store_true",
        help="print the full verdict (evidence arrays included) as JSON",
    )
    p.add_argument(
        "--events-out", metavar="PATH", default=None,
        help="record the decision-provenance event log (schema v1 JSONL) "
             "to PATH; feed it to 'repro explain'",
    )
    p.add_argument(
        "--stream", action="store_true",
        help="feed the signal to the detection engine in chunks (as a live "
             "DAQ would) instead of one batch call; the verdict is "
             "identical — both paths run the same incremental core",
    )
    p.add_argument(
        "--chunk-s", type=float, default=0.25, metavar="SECONDS",
        help="chunk duration for --stream (default 0.25 s)",
    )
    p.add_argument(
        "--stream-id", default=None, metavar="ID",
        help="register the stream under this id in the live telemetry "
             "registry (default: the signal file stem when telemetry is "
             "on, otherwise unregistered)",
    )
    p.add_argument(
        "--telemetry-port", type=int, default=None, metavar="PORT",
        help="serve the Prometheus/JSON telemetry endpoint on PORT while "
             "streaming (0 = ephemeral; implies --trace; try 9107 and "
             "point 'repro top' at it)",
    )
    p.add_argument(
        "--telemetry-snapshot", default=None, metavar="PATH",
        help="periodically write the telemetry snapshot to PATH "
             "(.prom = Prometheus text, else JSON for 'repro top "
             "--snapshot'); final write on completion",
    )
    p.add_argument(
        "--telemetry-interval", type=float, default=2.0, metavar="SECONDS",
        help="snapshot export interval for --telemetry-snapshot "
             "(default 2 s)",
    )
    p.add_argument(
        "--pace", type=float, default=0.0, metavar="FACTOR",
        help="replay speed relative to the DAQ real-time rate (1 = live "
             "DAQ pace, 2 = twice as fast; default 0 = no pacing) — "
             "keeps the stream alive long enough to watch with "
             "'repro top'.  Deadline-scheduled: chunk k is released at "
             "start + k/pace chunk-durations, so engine processing time "
             "does not accumulate as replay drift",
    )
    p.set_defaults(func=cmd_detect)

    p = sub.add_parser(
        "top",
        help="live terminal dashboard over the telemetry endpoint",
        description="Render one row per detection stream (ingest lag, "
        "chunk-latency p50/p99, windows scored, quarantine/SENSOR_FAULT "
        "state, alerts) from a running telemetry endpoint "
        "(detect --stream --telemetry-port PORT, or obs.serve_telemetry) "
        "or from a --telemetry-snapshot file.",
    )
    p.add_argument(
        "--url", default="http://127.0.0.1:9107",
        help="telemetry endpoint base URL "
             "(default http://127.0.0.1:9107)",
    )
    p.add_argument(
        "--snapshot", default=None, metavar="PATH",
        help="read a JSON snapshot file instead of scraping the endpoint",
    )
    p.add_argument(
        "--interval", type=float, default=2.0, metavar="SECONDS",
        help="refresh interval (default 2 s)",
    )
    p.add_argument(
        "--once", action="store_true",
        help="render a single frame and exit (status 1 if unreachable)",
    )
    p.add_argument(
        "--iterations", type=int, default=None, metavar="N",
        help="exit after N frames (default: run until Ctrl-C)",
    )
    p.set_defaults(func=cmd_top)

    p = sub.add_parser(
        "explain",
        help="turn a detect --events-out log into an incident report",
    )
    common(p)
    p.add_argument("events_jsonl", help="JSONL from 'detect --events-out'")
    p.add_argument("--attack", default=None,
                   help="Table I attack the screened run executed "
                        "(enables the ground-truth localization check)")
    p.add_argument("--gcode", default=None,
                   help="G-code the screened run executed (no ground truth)")
    p.add_argument("--output", default=None,
                   help="write the markdown report here (default: stdout)")
    p.add_argument(
        "--tolerate-torn-tail", action="store_true",
        help="accept an event log whose writer crashed mid-record: drop "
             "exactly one incomplete trailing line (with a warning) "
             "instead of failing; mid-file corruption still fails",
    )
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("report", help="full evaluation -> markdown report")
    common(p)
    engine_opts(p)
    obs_opts(p)
    p.add_argument("output", help="output .md path")
    p.add_argument("--train", type=int, default=6)
    p.add_argument("--test", type=int, default=6)
    p.add_argument("--attack-runs", type=int, default=1)
    p.set_defaults(func=cmd_report)

    p = sub.add_parser(
        "faults",
        help="chaos-test the IDS: replay the fault-injection matrix",
    )
    common(p)
    engine_opts(p)
    obs_opts(p)
    p.add_argument("--channel", default="ACC")
    p.add_argument("--train", type=int, default=4)
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument(
        "--detector", default="both", choices=["batch", "streaming", "both"],
        help="which pipeline(s) to replay the matrix against (default both)",
    )
    p.add_argument(
        "--chunk-s", type=float, default=0.25,
        help="chunk size in seconds for the streaming detector",
    )
    p.add_argument(
        "--max-dark-s", type=float, default=1.0,
        help="SanitizePolicy dark-channel limit in seconds (default 1.0)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the per-case results as JSON instead of a table",
    )
    p.add_argument(
        "--summary", action="store_true",
        help="print one 'N cases, M failed' line (stderr with --json, so "
             "stdout stays clean JSON); exit status is unchanged",
    )
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser(
        "diff",
        help="lock-step differential validation of fast vs reference paths",
        description="Run each vectorized implementation against its kept "
        "scalar reference in lock-step over hypothesis-generated workloads "
        "(see repro.eval.diff), asserting full state equality at every "
        "step.  Exits 1 on the first divergence and writes a replayable "
        "repro bundle; re-run a bundle with --replay (no hypothesis "
        "needed).",
    )
    p.add_argument(
        "--pair", default="all",
        choices=["all", "firmware", "dwm", "comparator", "engine"],
        help="which fast/reference pair to validate (default all)",
    )
    p.add_argument("--seed", type=int, default=0,
                   help="hypothesis search seed (default 0)")
    p.add_argument(
        "--examples", type=int, default=25,
        help="generated workloads per pair (default 25)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the full diff report as JSON",
    )
    p.add_argument(
        "--bundle-dir", default="diff-bundles", metavar="DIR",
        help="where to write bundle_<pair>.json on divergence "
             "(default diff-bundles/)",
    )
    p.add_argument(
        "--replay", default=None, metavar="BUNDLE",
        help="re-run the exact workload stored in a repro bundle instead "
             "of searching",
    )
    p.set_defaults(func=cmd_diff)

    p = sub.add_parser(
        "campaign",
        help="run a scaled evaluation campaign",
        description="Stream one campaign cell through the NSYNC evaluation. "
        "Runs are generated lazily and folded into streaming accumulators, "
        "so memory stays flat in the campaign size; pair with --cache-dir "
        "so repeated invocations replay cached runs instead of "
        "re-simulating.",
    )
    common(p)
    engine_opts(p)
    obs_opts(p)
    p.add_argument("--channel", default="ACC")
    p.add_argument("--transform", default="Raw", choices=["Raw", "Spectro."])
    p.add_argument(
        "--train", type=int, default=None, metavar="N",
        help="training runs (default 8; 50 under --paper-scale)",
    )
    p.add_argument(
        "--test", type=int, default=None, metavar="N",
        help="benign test runs (default 8; 100 under --paper-scale)",
    )
    p.add_argument(
        "--attack-runs", type=int, default=None, metavar="N",
        help="runs per attack class (default 2; 20 under --paper-scale)",
    )
    p.add_argument(
        "--paper-scale", action="store_true",
        help="use the paper's Table VIII/IX experiment counts "
             "(50 train / 100 benign test / 20 runs per attack) for any "
             "size flag not given explicitly",
    )
    p.add_argument(
        "--synchronizer", default="dwm", choices=["dwm", "fastdtw"],
        help="synchronizer under test: dwm (Table VIII) or fastdtw "
             "(Table IX)",
    )
    p.add_argument("--r", type=float, default=0.3)
    p.add_argument(
        "--tables-out", default=None, metavar="PATH",
        help="also write the rendered results table to this file",
    )
    p.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="append a benchmark record (wall clock, peak_rss_mb, engine "
             "stats) to this BENCH_*.json history",
    )
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser(
        "bench",
        help="measure detection-engine throughput (samples/s/core)",
    )
    p.add_argument(
        "target", choices=["throughput"],
        help="which benchmark to run (only 'throughput' for now)",
    )
    p.add_argument(
        "--samples", type=int, default=40_000,
        help="observed-signal length in samples (default 40000)",
    )
    p.add_argument(
        "--chunk", type=int, default=10,
        help="streaming push chunk size in samples (default 10)",
    )
    p.add_argument(
        "--repeats", type=int, default=3,
        help="warm repeats; the best one is reported (default 3)",
    )
    p.add_argument(
        "--baseline", default="benchmarks/results/BENCH_engine_throughput.json",
        help="BENCH_engine_throughput.json history to compare against "
             "(first record; missing file = no comparison)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the raw measurement record as JSON",
    )
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "serve",
        help="run the fleet detection service (many streams, one model)",
        description="Long-running ingest service: accepts line-delimited "
        "JSON chunk messages over TCP or a unix socket, multiplexes every "
        "printer stream over a pool of checkpointed detection engines "
        "(--shards worker processes; 0 = inline), and periodically "
        "checkpoints every live engine so a crashed worker resumes "
        "mid-run bit-identically.  Pair with 'repro loadgen'.",
    )
    p.add_argument("model", help="model directory from 'train' (or --demo)")
    p.add_argument(
        "--demo", action="store_true",
        help="synthesize the deterministic demo model into MODEL if it "
             "does not exist yet (tests/CI)",
    )
    p.add_argument(
        "--demo-samples", type=int, default=8_000,
        help="reference length for --demo (default 8000)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=int, default=9870,
        help="TCP port to listen on (0 = ephemeral; default 9870)",
    )
    p.add_argument(
        "--unix", default=None, metavar="PATH",
        help="listen on a unix socket instead of TCP",
    )
    p.add_argument(
        "--shards", type=int, default=0,
        help="detection worker processes (streams are sharded by "
             "crc32(stream_id); 0 = run engines inline; default 0)",
    )
    p.add_argument(
        "--checkpoint-dir", default=None, metavar="DIR",
        help="atomically checkpoint every live engine state into DIR "
             "(enables crash resume; unset disables checkpointing)",
    )
    p.add_argument(
        "--checkpoint-interval", type=float, default=5.0, metavar="SECONDS",
        help="checkpoint sweep period (default 5 s)",
    )
    p.add_argument(
        "--metrics-port", type=int, default=None, metavar="PORT",
        help="serve the shared telemetry /metrics endpoint on PORT "
             "(one endpoint for every stream; try 9107)",
    )
    p.add_argument(
        "--max-seconds", type=float, default=None, metavar="SECONDS",
        help="shut down gracefully after SECONDS (CI guard; default: "
             "run until SIGINT/SIGTERM)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="replay a synthetic printer fleet against 'repro serve'",
        description="One connection per printer stream, each replaying "
        "its samples as chunk messages (optionally paced against the "
        "recording's own timebase), riding out shard crashes via the "
        "checkpoint-resume protocol.  Reports p50/p99 ingest latency, "
        "aggregate samples/s, and streams/core; --verify re-runs every "
        "stream offline and fails on any non-bit-identical verdict.",
    )
    p.add_argument(
        "--connect", default="127.0.0.1:9870", metavar="HOST:PORT",
        help="service TCP address (default 127.0.0.1:9870)",
    )
    p.add_argument(
        "--unix", default=None, metavar="PATH",
        help="connect to a unix socket instead of TCP",
    )
    p.add_argument(
        "--streams", type=int, default=8,
        help="synthetic printer streams to replay (default 8)",
    )
    p.add_argument(
        "--n-samples", type=int, default=8_000,
        help="samples per stream (default 8000; must match the demo "
             "model's reference length)",
    )
    p.add_argument(
        "--sample-rate", type=float, default=200.0,
        help="stream sample rate in Hz (default 200)",
    )
    p.add_argument(
        "--chunk-samples", type=int, default=200,
        help="samples per chunk message (default 200)",
    )
    p.add_argument(
        "--pace", type=float, default=0.0, metavar="FACTOR",
        help="replay speed relative to the stream timebase (1 = real "
             "time, 2 = double speed; default 0 = unpaced)",
    )
    p.add_argument(
        "--verify", default=None, metavar="MODELDIR",
        help="re-run every stream through an offline engine built from "
             "MODELDIR and exit 1 unless all served verdicts are "
             "bit-identical",
    )
    p.add_argument(
        "--server-shards", type=int, default=0,
        help="the server's --shards value, for the streams/core "
             "accounting (default 0 = inline)",
    )
    p.add_argument(
        "--json", action="store_true",
        help="print the measurement record as JSON",
    )
    p.add_argument(
        "--bench-out", default=None, metavar="PATH",
        help="append the record to a BENCH_*.json history file "
             "(regression-gated by scripts/check_bench_regression.py)",
    )
    p.set_defaults(func=cmd_loadgen)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    _start_obs(args)
    code = args.func(args)
    _finish_obs(args)
    return code


if __name__ == "__main__":
    sys.exit(main())
