"""Lock-step differential validation of the fast/reference pairs.

PRs 1 and 6 vectorized the hot paths of the simulation and detection stack
and deliberately kept the original scalar implementations as bit-exactness
oracles.  This module is the standing safety net over those pairs: each
vectorized implementation is run against its kept reference **in lock-step
over generated workloads**, asserting full state equality at every step —
not just bit-equality of the final output.  The pattern follows
``sim_emu_cmp.py`` of timnewsham__gigaemu, which runs an emulator against a
schematic-level simulator instruction by instruction.

Four pairs are locked:

``firmware``
    ``Firmware._sample`` (batched trapezoid evaluation) against
    ``Firmware._sample_loop``, compared G-code instruction by instruction
    (positions, velocities, extrusion, command/layer tracking, fan and
    thermal tracks, all bit-exact), over generated programs including arcs, zero-length moves, retractions,
    relative modes, and look-ahead junction chains.

``dwm``
    ``StreamingDwm._step_fast`` against the kept ``_dwm_step`` reference,
    window by window: displacement, score, low-frequency track, exhaustion,
    and the cached Gaussian bias vectors (each cache entry is recomputed
    from the closed form and must match bit-exactly).

``comparator``
    ``Comparator.vertical_distances``, which scores through the
    ``window_distances`` routine the engine's compare stage also calls,
    against ``_window_distances_scalar`` per window, including
    boundary-truncated windows and degenerate (non-finite / absurd)
    displacements.

``engine``
    ``DetectionEngine`` run under two nested chunkings, diffing the full
    ``DetectorState.to_dict()`` snapshot at every shared chunk boundary;
    then one-push (batch) against chunked, final results, the engine's
    ``v_dist`` against ``Comparator.vertical_distances`` over the
    sanitized signal, and the engine against the legacy ``NsyncIds``
    facade.

Workloads are generated by `hypothesis <https://hypothesis.works>`_ (a dev
dependency) and are described by plain JSON-safe dicts, so a failing input
round-trips through a *repro bundle*: the CI ``differential`` job uploads
the bundle on divergence and ``repro diff --replay bundle.json`` re-runs it
locally — replay itself needs no hypothesis.  The first divergence is
reported structurally (pair, step index, field, both values).

``repro diff`` is the CLI front-end; the CI ``differential`` job runs
``repro diff --pair all`` on every push.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.comparator import Comparator
from ..core.engine import DetectionEngine, EngineResult
from ..core.discriminator import Thresholds
from ..core.health import sanitize_signal
from ..core.pipeline import NsyncIds
from ..signals.signal import Signal
from ..sync.dwm import DwmParams, DwmSynchronizer, StreamingDwm
from ..sync.base import SyncResult

__all__ = [
    "PAIRS",
    "BUNDLE_SCHEMA",
    "BUNDLE_VERSION",
    "Divergence",
    "PairReport",
    "DiffReport",
    "run_workload",
    "diff_pair",
    "run_diff",
    "write_bundle",
    "load_bundle",
    "replay_bundle",
]

#: The fast/reference pairs the harness locks, in report order.
PAIRS = ("firmware", "dwm", "comparator", "engine")

BUNDLE_SCHEMA = "repro.eval.diff/bundle"
BUNDLE_VERSION = 1


# ---------------------------------------------------------------------------
# Report types
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class Divergence:
    """Structured first-divergence report for one workload.

    ``step`` is the lock-step index at which the two implementations first
    disagreed: a G-code instruction index (firmware), a window index (dwm,
    comparator), or a chunk-boundary ordinal (engine).  ``field`` names the
    diverging piece of state (dotted/bracketed path for nested state).
    """

    pair: str
    step: int
    field: str
    reference: object
    fast: object
    detail: str = ""

    def to_dict(self) -> Dict[str, object]:
        return {
            "pair": self.pair,
            "step": int(self.step),
            "field": self.field,
            "reference": self.reference,
            "fast": self.fast,
            "detail": self.detail,
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Divergence":
        return cls(
            pair=str(doc["pair"]),
            step=int(doc["step"]),  # type: ignore[call-overload]
            field=str(doc["field"]),
            reference=doc["reference"],
            fast=doc["fast"],
            detail=str(doc.get("detail", "")),
        )

    def render(self) -> str:
        """One human-readable block naming the divergence."""
        lines = [
            f"DIVERGENCE in pair '{self.pair}' at step {self.step}",
            f"  field:     {self.field}",
            f"  reference: {self.reference!r}",
            f"  fast:      {self.fast!r}",
        ]
        if self.detail:
            lines.append(f"  detail:    {self.detail}")
        return "\n".join(lines)


@dataclass(frozen=True)
class PairReport:
    """Outcome of the hypothesis search over one fast/reference pair."""

    pair: str
    examples: int
    seed: int
    divergence: Optional[Divergence] = None
    #: The (shrunk) falsifying workload; replayable via :func:`run_workload`.
    workload: Optional[Dict[str, object]] = None

    @property
    def ok(self) -> bool:
        return self.divergence is None

    def to_dict(self) -> Dict[str, object]:
        return {
            "pair": self.pair,
            "examples": int(self.examples),
            "seed": int(self.seed),
            "ok": self.ok,
            "divergence": (
                None if self.divergence is None else self.divergence.to_dict()
            ),
            "workload": self.workload,
        }


@dataclass(frozen=True)
class DiffReport:
    """Everything one ``repro diff`` invocation checked."""

    seed: int
    reports: Tuple[PairReport, ...] = field(default_factory=tuple)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports)

    def to_dict(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "seed": int(self.seed),
            "pairs": [r.to_dict() for r in self.reports],
        }


# ---------------------------------------------------------------------------
# Generic lock-step diff helpers
# ---------------------------------------------------------------------------
def _json_safe(value: object) -> object:
    """Render one diverging value JSON-safe (NaN/inf become repr strings)."""
    if isinstance(value, (np.floating, np.integer)):
        value = value.item()
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, np.ndarray):
        return [_json_safe(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_json_safe(v) for v in value]
    return value


def _first_deep_diff(
    ref: object, fast: object, path: str = ""
) -> Optional[Tuple[str, object, object]]:
    """First leaf where two JSON-safe nested structures differ.

    Returns ``(field_path, reference_value, fast_value)`` or ``None``.
    Floats are compared exactly — the pairs under test promise
    bit-identical state, so any ulp is a finding, not noise.
    """
    if isinstance(ref, dict) and isinstance(fast, dict):
        for key in sorted(set(ref) | set(fast), key=str):
            sub = f"{path}.{key}" if path else str(key)
            if key not in ref:
                return (sub, "<missing>", _json_safe(fast[key]))
            if key not in fast:
                return (sub, _json_safe(ref[key]), "<missing>")
            found = _first_deep_diff(ref[key], fast[key], sub)
            if found is not None:
                return found
        return None
    if isinstance(ref, (list, tuple)) and isinstance(fast, (list, tuple)):
        if len(ref) != len(fast):
            return (f"{path}.__len__", len(ref), len(fast))
        for k, (r, f) in enumerate(zip(ref, fast)):
            found = _first_deep_diff(r, f, f"{path}[{k}]")
            if found is not None:
                return found
        return None
    if isinstance(ref, bool) or isinstance(fast, bool):
        same: bool = ref is fast or ref == fast
    else:
        same = ref == fast
    if not same:
        return (path or "<root>", _json_safe(ref), _json_safe(fast))
    return None


def _array_first_diff(ref: np.ndarray, fast: np.ndarray) -> Optional[int]:
    """Index of the first diverging row/sample of two equal-shape arrays.

    Bit-exactness with NaN counted as self-equal, so a NaN in only one of
    the two arrays *is* a divergence.
    """
    bad = ~((ref == fast) | (np.isnan(ref) & np.isnan(fast)))
    if bad.ndim > 1:
        bad = bad.reshape(bad.shape[0], -1).any(axis=1)
    hits = np.flatnonzero(bad)
    return int(hits[0]) if hits.size else None


# ---------------------------------------------------------------------------
# Pair 1: firmware — _sample vs _sample_loop, per G-code instruction
# ---------------------------------------------------------------------------
def _machine_for(workload: Dict[str, object]):
    from dataclasses import replace

    from ..printer.machine import ROSTOCK_MAX_V3, ULTIMAKER3

    base = ULTIMAKER3 if workload.get("machine", "UM3") == "UM3" else \
        ROSTOCK_MAX_V3
    return replace(base, lookahead=bool(workload.get("lookahead", False)))


def run_firmware(workload: Dict[str, object]) -> Optional[Divergence]:
    """Lock-step ``_sample`` vs ``_sample_loop`` over one G-code program.

    Every track (position/velocity/acceleration/extrusion, the
    command/layer index tracks, fan and both thermal tracks) must be
    bit-identical.  The first diverging
    sample is mapped back onto the G-code instruction executing at that
    sample, which becomes the reported ``step``.
    """
    from ..printer.arcs import segment_arcs
    from ..printer.firmware import Firmware
    from ..printer.gcode import GcodeProgram
    from ..printer.noise import NO_TIME_NOISE, TimeNoiseModel

    machine = _machine_for(workload)
    noise = TimeNoiseModel() if workload.get("noisy") else NO_TIME_NOISE
    program = segment_arcs(
        GcodeProgram.from_text("\n".join(workload["gcode"]))  # type: ignore[arg-type]
    )
    firmware = Firmware(machine, noise)
    started = noise.start(np.random.default_rng(int(workload["seed"])))  # type: ignore[arg-type]
    segments, events = firmware._schedule(program, started)

    # Generated programs may hit legitimate machine limits (e.g. a toolpath
    # outside the delta's reachable volume).  Raising is fine — but both
    # implementations must raise identically; one-sided errors diverge.
    fast_err = ref_err = None
    try:
        fast = firmware._sample(segments, events)
    except ValueError as exc:
        fast_err = f"{type(exc).__name__}: {exc}"
    try:
        ref = firmware._sample_loop(segments, events)
    except ValueError as exc:
        ref_err = f"{type(exc).__name__}: {exc}"
    if fast_err is not None or ref_err is not None:
        if fast_err == ref_err:
            return None
        return Divergence(
            pair="firmware",
            step=0,
            field="exception",
            reference=ref_err,
            fast=fast_err,
            detail="only one implementation raised",
        )

    checks = (
        "position", "velocity", "acceleration", "extrusion_rate",
        "command_index", "layer_index", "fan", "hotend_temp", "bed_temp",
    )
    first: Optional[Tuple[int, str]] = None
    for name in checks:
        r, f = getattr(ref, name), getattr(fast, name)
        if r.shape != f.shape:
            return Divergence(
                pair="firmware", step=0, field=f"{name}.shape",
                reference=list(r.shape), fast=list(f.shape),
            )
        k = _array_first_diff(
            np.asarray(r, dtype=np.float64), np.asarray(f, dtype=np.float64)
        )
        if k is not None and (first is None or k < first[0]):
            first = (k, name)
    if first is None:
        return None
    k, name = first
    # command_index addresses the arc-segmented program (G2/G3 expand to
    # G1 chains), so quote the executing line from there.
    instruction = int(ref.command_index[k])
    commands = list(program)
    line = (
        commands[instruction].to_line()
        if 0 <= instruction < len(commands)
        else "<out of range>"
    )
    r, f = getattr(ref, name), getattr(fast, name)
    return Divergence(
        pair="firmware",
        step=instruction,
        field=name,
        reference=_json_safe(r[k]),
        fast=_json_safe(f[k]),
        detail=(
            f"instruction {instruction} ({line!r}), "
            f"sample {k} at t={ref.times[k]:.4f}s"
        ),
    )


# ---------------------------------------------------------------------------
# Pair 2: dwm — StreamingDwm._step_fast vs _dwm_step, per window
# ---------------------------------------------------------------------------
def _dwm_signals(workload: Dict[str, object]) -> Tuple[Signal, np.ndarray]:
    """Deterministic (reference, observed) pair for one dwm/engine workload."""
    rng = np.random.default_rng(int(workload["seed"]))  # type: ignore[arg-type]
    rate = float(workload.get("rate", 50.0))
    n_ref = int(workload["n_ref"])  # type: ignore[arg-type]
    n_obs = int(workload["n_obs"])  # type: ignore[arg-type]
    n_ch = int(workload.get("n_channels", 1))
    t = np.arange(max(n_ref, n_obs)) / rate
    base = np.stack(
        [
            np.sin(2 * np.pi * (1.0 + c) * t)
            + 0.2 * rng.standard_normal(t.size)
            for c in range(n_ch)
        ],
        axis=1,
    )
    reference = Signal(base[:n_ref].copy(), rate)
    observed = base[:n_obs] + 0.05 * rng.standard_normal((n_obs, n_ch))
    return reference, observed


def _dwm_params(workload: Dict[str, object]) -> DwmParams:
    p = workload["params"]
    return DwmParams(
        t_win=float(p["t_win"]),  # type: ignore[index, call-overload]
        t_hop=float(p["t_hop"]),  # type: ignore[index, call-overload]
        t_ext=float(p["t_ext"]),  # type: ignore[index, call-overload]
        t_sigma=float(p["t_sigma"]),  # type: ignore[index, call-overload]
        eta=float(p.get("eta", 0.1)),  # type: ignore[union-attr]
    )


def _chunked(total: int, sizes: Sequence[int]) -> List[Tuple[int, int]]:
    """(start, stop) spans covering ``total`` samples with ``sizes`` chunks.

    The generated sizes are cycled and the tail padded, so any sizes list
    yields a full, deterministic chunking.
    """
    spans: List[Tuple[int, int]] = []
    pos = 0
    k = 0
    sizes = [max(1, int(s)) for s in sizes] or [1]
    while pos < total:
        step = min(sizes[k % len(sizes)], total - pos)
        spans.append((pos, pos + step))
        pos += step
        k += 1
    return spans


def _dwm_state_view(dwm: StreamingDwm) -> Dict[str, object]:
    """The per-window DWM state the lock-step compare diffs (JSON-safe)."""
    state = dwm._state
    return {
        "i": int(state.i),
        "h_disp": [int(v) for v in state.h_disp],
        "scores": [float(v) for v in state.scores],
        "h_disp_low": int(state.h_disp_low),
        "exhausted": bool(dwm._exhausted),
    }


def run_dwm(workload: Dict[str, object]) -> Optional[Divergence]:
    """Lock-step ``_step_fast`` vs ``_dwm_step`` over one streamed signal.

    Two cursors consume the identical chunk sequence: one pinned to the
    hoisted fast step, one pinned to the instrumented reference step.  The
    emitted ``(i, h_disp)`` pairs and the full per-window state (history,
    scores, low-frequency track, exhaustion) are compared after every
    chunk; the fast cursor's cached Gaussian bias vectors are additionally
    recomputed from the closed form and must match bit-exactly.
    """
    reference, observed = _dwm_signals(workload)
    params = _dwm_params(workload)
    fast = StreamingDwm(reference, params, use_fast=True)
    slow = StreamingDwm(reference, params, use_fast=False)

    for start, stop in _chunked(observed.shape[0], workload["chunks"]):  # type: ignore[arg-type]
        chunk = observed[start:stop]
        emitted_fast = fast.push(chunk.copy())
        emitted_slow = slow.push(chunk.copy())
        found = _first_deep_diff(
            [[int(i), float(d)] for i, d in emitted_slow],
            [[int(i), float(d)] for i, d in emitted_fast],
            "emitted",
        )
        if found is None:
            found = _first_deep_diff(
                _dwm_state_view(slow), _dwm_state_view(fast)
            )
        if found is not None:
            field_path, r, f = found
            return Divergence(
                pair="dwm",
                step=int(slow._state.i),
                field=field_path,
                reference=r,
                fast=f,
                detail=f"after pushing samples [{start}, {stop})",
            )
    # The bias cache must hold exactly the closed-form Gaussian: a stale or
    # mis-keyed entry would silently bend every subsequent window.
    for (size, centre), bias in fast._bias_cache.items():
        n = np.arange(size, dtype=np.float64)
        expect = np.exp(-0.5 * ((n - float(centre)) / fast._n_sigma) ** 2)
        k = _array_first_diff(expect, bias)
        if k is not None:
            return Divergence(
                pair="dwm",
                step=int(fast._state.i),
                field=f"bias_cache[({size}, {centre})][{k}]",
                reference=float(expect[k]),
                fast=float(bias[k]),
            )
    # Final snapshot: identical SyncResult arrays.
    r_res, f_res = slow.result(), fast.result()
    for name in ("h_disp", "scores"):
        k = _array_first_diff(getattr(r_res, name), getattr(f_res, name))
        if k is not None:
            return Divergence(
                pair="dwm",
                step=int(k),
                field=f"result.{name}",
                reference=float(getattr(r_res, name)[k]),
                fast=float(getattr(f_res, name)[k]),
            )
    return None


# ---------------------------------------------------------------------------
# Pair 3: comparator — vertical_distances vs _window_distances_scalar
# ---------------------------------------------------------------------------
def run_comparator(workload: Dict[str, object]) -> Optional[Divergence]:
    """Routine vs scalar window scoring over one synchronized pair.

    The generated ``h_disp`` deliberately includes boundary-clipping,
    non-finite, and absurdly large displacements so both the stacked fast
    path and the scalar walk-off path are exercised; every window must
    score bit-identically.
    """
    rng = np.random.default_rng(int(workload["seed"]))  # type: ignore[arg-type]
    n_ch = int(workload.get("n_channels", 1))
    n_a = int(workload["n_a"])  # type: ignore[arg-type]
    n_b = int(workload["n_b"])  # type: ignore[arg-type]
    a = Signal(rng.standard_normal((n_a, n_ch)), 10.0)
    data_b = rng.standard_normal((n_b, n_ch))
    for s0, s1 in workload.get("const_spans", ()):  # type: ignore[union-attr]
        data_b[int(s0) : int(s1)] = data_b[int(s0) % max(n_b, 1)]
    b = Signal(data_b, 10.0)
    h_disp = np.asarray(
        [float(h) for h in workload["h_disp"]], dtype=np.float64  # type: ignore[union-attr]
    )
    sync = SyncResult(
        h_disp=h_disp,
        mode="window",
        n_win=int(workload["n_win"]),  # type: ignore[arg-type]
        n_hop=int(workload["n_hop"]),  # type: ignore[arg-type]
    )
    comparator = Comparator()
    fast = comparator.vertical_distances(a, b, sync)
    ref = comparator._window_distances_scalar(a, b, sync)
    k = _array_first_diff(ref, fast)
    if k is None:
        return None
    return Divergence(
        pair="comparator",
        step=int(k),
        field="v_dist",
        reference=float(ref[k]),
        fast=float(fast[k]),
        detail=f"h_disp[{k}]={_json_safe(h_disp[k])!r}, "
               f"n_win={sync.n_win}, n_hop={sync.n_hop}",
    )


# ---------------------------------------------------------------------------
# Pair 4: engine — streaming vs batch vs legacy facade, per chunk boundary
# ---------------------------------------------------------------------------
def _engine_for_workload(
    workload: Dict[str, object], reference: Signal
) -> DetectionEngine:
    return DetectionEngine(
        reference,
        DwmSynchronizer(_dwm_params(workload)),
        thresholds=Thresholds(
            c_c=float(workload.get("c_c", 50.0)),
            h_c=float(workload.get("h_c", 25.0)),
            v_c=float(workload.get("v_c", 1.0)),
            d_c=float(workload.get("d_c", 30.0)),
        ),
    )


def _observed_with_faults(workload: Dict[str, object]) -> np.ndarray:
    """The observed stream, with generated NaN bursts and constant spans."""
    _, observed = _dwm_signals(workload)
    observed = observed.copy()
    n = observed.shape[0]
    for s0, length in workload.get("nan_spans", ()):  # type: ignore[union-attr]
        s0 = int(s0) % max(n, 1)
        observed[s0 : s0 + int(length)] = np.nan
    for s0, length in workload.get("flat_spans", ()):  # type: ignore[union-attr]
        s0 = int(s0) % max(n, 1)
        observed[s0 : s0 + int(length)] = observed[s0]
    return observed


def _result_view(result: EngineResult) -> Dict[str, object]:
    """JSON-safe view of a finalized engine's externally visible result."""
    detection = result.detection
    return {
        "alerts": [a.to_dict() for a in result.alerts],
        "quarantined": [int(i) for i in result.quarantined_windows],
        "health": dict(result.health.to_dict()),
        "h_disp": [float(v) for v in result.sync.h_disp],
        "v_dist": [float(v) for v in result.v_dist],
        "c_disp": [float(v) for v in result.features.c_disp],
        "is_intrusion": (
            None if detection is None else bool(detection.is_intrusion)
        ),
        "first_alarm_index": (
            None if detection is None else detection.first_alarm_index
        ),
    }


def run_engine(workload: Dict[str, object]) -> Optional[Divergence]:
    """Streaming-vs-batch-vs-facade lock-step over one observed stream.

    A fine-chunked and a coarse-chunked engine consume the same stream;
    the coarse boundaries are a subset of the fine ones, and at every
    coarse boundary the complete ``DetectorState.to_dict()`` snapshots
    must be identical.  At end of stream a third engine takes the whole
    signal in one push (the batch calling convention) and must land on
    the same state.  The finalized ``v_dist`` must equal
    ``Comparator.vertical_distances`` over the sanitized stream, and the
    legacy ``NsyncIds`` facade must produce the same verdict as the
    engine it wraps.
    """
    reference, _ = _dwm_signals(workload)
    observed = _observed_with_faults(workload)

    fine = _engine_for_workload(workload, reference)
    coarse = _engine_for_workload(workload, reference)
    group = max(2, int(workload.get("group", 3)))
    spans = _chunked(observed.shape[0], workload["chunks"])  # type: ignore[arg-type]

    boundary = 0
    for g0 in range(0, len(spans), group):
        batch_spans = spans[g0 : g0 + group]
        for start, stop in batch_spans:
            fine.push(observed[start:stop])
        coarse.push(observed[batch_spans[0][0] : batch_spans[-1][1]])
        found = _first_deep_diff(
            fine.state().to_dict(), coarse.state().to_dict()
        )
        if found is not None:
            field_path, r, f = found
            return Divergence(
                pair="engine",
                step=boundary,
                field=field_path,
                reference=r,
                fast=f,
                detail=(
                    f"state mismatch at chunk boundary {boundary} "
                    f"(sample {batch_spans[-1][1]}; fine vs coarse chunking)"
                ),
            )
        boundary += 1

    # Batch convention: the whole stream in one push.
    batch = _engine_for_workload(workload, reference)
    batch.push(observed)
    found = _first_deep_diff(fine.state().to_dict(), batch.state().to_dict())
    if found is not None:
        field_path, r, f = found
        return Divergence(
            pair="engine",
            step=boundary,
            field=field_path,
            reference=r,
            fast=f,
            detail="streaming-vs-batch state mismatch at end of stream",
        )

    result = batch.finalize()
    found = _first_deep_diff(_result_view(result), _result_view(fine.finalize()))
    if found is not None:
        field_path, r, f = found
        return Divergence(
            pair="engine",
            step=boundary,
            field=f"result.{field_path}",
            reference=r,
            fast=f,
            detail="finalized streaming vs batch results differ",
        )

    # The engine compares repaired samples through the routine the
    # standalone comparator runs over the sanitized signal.
    clean = sanitize_signal(Signal(observed, reference.sample_rate)).signal
    ref_v = Comparator().vertical_distances(clean, reference, result.sync)
    k = _array_first_diff(ref_v, result.v_dist)
    if k is not None:
        return Divergence(
            pair="engine",
            step=int(k),
            field="result.v_dist",
            reference=float(ref_v[k]),
            fast=float(result.v_dist[k]),
            detail="engine v_dist differs from Comparator.vertical_distances "
                   "over the sanitized signal",
        )

    # Legacy facade: NsyncIds.detect must be "one push + finalize".
    ids = NsyncIds(reference, DwmSynchronizer(_dwm_params(workload)))
    ids.thresholds = _engine_for_workload(workload, reference).thresholds
    verdict = ids.detect(Signal(observed, reference.sample_rate))
    engine = _engine_for_workload(workload, reference)
    engine.push(observed)
    expected = engine.finalize().detection
    assert expected is not None
    found = _first_deep_diff(expected.to_dict(), verdict.to_dict())
    if found is not None:
        field_path, r, f = found
        return Divergence(
            pair="engine",
            step=boundary,
            field=f"facade.{field_path}",
            reference=r,
            fast=f,
            detail="NsyncIds facade verdict differs from the engine's",
        )
    return None


_RUNNERS: Dict[str, Callable[[Dict[str, object]], Optional[Divergence]]] = {
    "firmware": run_firmware,
    "dwm": run_dwm,
    "comparator": run_comparator,
    "engine": run_engine,
}


def run_workload(workload: Dict[str, object]) -> Optional[Divergence]:
    """Replay one workload dict; return its first divergence (or ``None``).

    This is the deterministic half of the harness: it needs no hypothesis,
    so a CI repro bundle replays on any runtime install.
    """
    pair = str(workload.get("pair", ""))
    try:
        runner = _RUNNERS[pair]
    except KeyError:
        raise ValueError(
            f"unknown pair {pair!r}; expected one of {sorted(_RUNNERS)}"
        ) from None
    return runner(workload)


# ---------------------------------------------------------------------------
# Hypothesis workload strategies
# ---------------------------------------------------------------------------
def _require_hypothesis():
    try:
        import hypothesis  # noqa: F401
        from hypothesis import strategies  # noqa: F401
    except ImportError:  # pragma: no cover - dev extra present in CI
        raise RuntimeError(
            "repro diff generates workloads with hypothesis; install the "
            "dev extras (pip install -e .[dev]) or replay an existing "
            "bundle with --replay"
        ) from None
    return hypothesis


def _gcode_program_strategy():
    """Generated G-code exercising the firmware's edge cases.

    Includes arcs (G2/G3), zero-length moves, extruder-only retractions,
    relative modes, dwells, homing, resets, and thermal/fan events; paired
    with the look-ahead machine variant this also produces junction chains.
    """
    from hypothesis import strategies as st

    coord = st.integers(0, 400).map(lambda v: v / 10.0)
    feed = st.integers(60, 9000)

    def fmt(code: str, **params: object) -> str:
        return " ".join(
            [code] + [f"{k}{v}" for k, v in params.items() if v is not None]
        )

    move = st.builds(
        lambda x, y, z, e, f: fmt("G1", X=x, Y=y, Z=z, E=e, F=f),
        x=st.one_of(st.none(), coord),
        y=st.one_of(st.none(), coord),
        z=st.one_of(st.none(), coord.map(lambda v: v / 100.0)),
        e=st.one_of(st.none(), coord),
        f=st.one_of(st.none(), feed),
    )
    zero_move = st.just("G1 X0 Y0")  # zero-length in relative mode
    retraction = st.builds(lambda e: fmt("G1", E=e), e=coord)
    arc = st.builds(
        lambda code, x, y, i, j: fmt(code, X=x, Y=y, I=i, J=j),
        code=st.sampled_from(["G2", "G3"]),
        x=coord, y=coord,
        i=st.integers(1, 100).map(lambda v: v / 10.0),
        j=st.integers(-100, 100).map(lambda v: v / 10.0),
    )
    other = st.sampled_from([
        "G28",
        "G90",
        "G91",
        "M82",
        "M83",
        "G92 E0",
        "G92 X0 Y0",
        "G4 P50",
        "G4 S0.1",
        "M104 S200",
        "M140 S60",
        "M106 S128",
        "M107",
    ])
    command = st.one_of(move, move, arc, zero_move, retraction, other)
    return st.lists(command, min_size=1, max_size=18)


def _strategy_for(pair: str):
    from hypothesis import strategies as st

    chunks = st.lists(st.integers(1, 64), min_size=1, max_size=6)
    dwm_params = st.builds(
        lambda win, hop_frac, ext, sigma: {
            "t_win": win / 100.0,
            "t_hop": max(2, int(win * hop_frac)) / 100.0,
            "t_ext": ext / 100.0,
            "t_sigma": sigma / 100.0,
        },
        win=st.integers(16, 60),
        hop_frac=st.floats(0.25, 1.0),
        ext=st.integers(4, 30),
        sigma=st.integers(2, 20),
    )
    spans = st.lists(
        st.tuples(st.integers(0, 500), st.integers(1, 40)),
        max_size=2,
    )

    if pair == "firmware":
        return st.fixed_dictionaries({
            "pair": st.just("firmware"),
            "machine": st.sampled_from(["UM3", "RM3"]),
            "lookahead": st.booleans(),
            "noisy": st.booleans(),
            "seed": st.integers(0, 2**20),
            "gcode": _gcode_program_strategy(),
        })
    if pair == "dwm":
        return st.fixed_dictionaries({
            "pair": st.just("dwm"),
            "seed": st.integers(0, 2**20),
            "n_ref": st.integers(60, 400),
            "n_obs": st.integers(60, 500),
            "n_channels": st.integers(1, 2),
            "params": dwm_params,
            "chunks": chunks,
        })
    if pair == "comparator":
        # Windows long enough that summation order matters: below 8
        # samples numpy's pairwise and sequential sums agree, so a stack
        # layout that reorders a single-channel sum only shows on longer
        # windows, and only with two or more windows in one stack.  Half
        # the workloads are single-channel for that reason.
        n_win = st.integers(2, 200)
        disp = st.one_of(
            st.integers(-30, 30).map(float),
            st.floats(-20.0, 20.0, allow_nan=False),
            st.sampled_from(
                [float("nan"), float("inf"), -float("inf"), 1e300, -1e300]
            ),
        )
        return st.fixed_dictionaries({
            "pair": st.just("comparator"),
            "seed": st.integers(0, 2**20),
            "n_a": st.integers(2, 2500),
            "n_b": st.integers(2, 2500),
            "n_channels": st.one_of(st.just(1), st.integers(2, 8)),
            "n_win": n_win,
            "n_hop": st.integers(1, 120),
            "h_disp": st.lists(disp, min_size=2, max_size=16),
            "const_spans": st.lists(
                st.tuples(st.integers(0, 2000), st.integers(1, 400)).map(
                    lambda span: (span[0], span[0] + span[1])
                ),
                max_size=2,
            ),
        })
    if pair == "engine":
        return st.fixed_dictionaries({
            "pair": st.just("engine"),
            "seed": st.integers(0, 2**20),
            "n_ref": st.integers(150, 400),
            "n_obs": st.integers(120, 450),
            "n_channels": st.integers(1, 2),
            "params": dwm_params,
            "chunks": chunks,
            "group": st.integers(2, 5),
            "nan_spans": spans,
            "flat_spans": spans,
            "v_c": st.floats(0.2, 2.0),
        })
    raise ValueError(f"unknown pair {pair!r}; expected one of {sorted(PAIRS)}")


class _DivergenceFound(Exception):
    """Internal control flow: a lock-step run diverged."""


def diff_pair(pair: str, seed: int = 0, examples: int = 25) -> PairReport:
    """Hypothesis-search one pair for a divergence; report the first found.

    The search is reproducible — same ``seed`` and ``examples`` explore
    the same workloads — and a found counterexample is shrunk by
    hypothesis before being reported, so the bundled workload is minimal.
    """
    _require_hypothesis()
    from hypothesis import HealthCheck, given, settings
    from hypothesis import seed as hyp_seed

    strategy = _strategy_for(pair)
    found: Dict[str, object] = {}

    @settings(
        max_examples=examples,
        deadline=None,
        database=None,
        derandomize=False,
        suppress_health_check=list(HealthCheck),
        print_blob=False,
    )
    @hyp_seed(seed)
    @given(workload=strategy)
    def search(workload: Dict[str, object]) -> None:
        divergence = run_workload(workload)
        if divergence is not None:
            # Overwritten on every shrink attempt that still fails, so what
            # remains afterwards is the minimal falsifying workload.
            found["workload"] = workload
            found["divergence"] = divergence
            raise _DivergenceFound(divergence.render())

    try:
        search()
    except _DivergenceFound:
        pass
    return PairReport(
        pair=pair,
        examples=examples,
        seed=seed,
        divergence=found.get("divergence"),  # type: ignore[arg-type]
        workload=found.get("workload"),  # type: ignore[arg-type]
    )


def run_diff(
    pairs: Sequence[str] = PAIRS, seed: int = 0, examples: int = 25
) -> DiffReport:
    """Run :func:`diff_pair` over ``pairs`` and collect one report."""
    reports = []
    for pair in pairs:
        if pair not in _RUNNERS:
            raise ValueError(
                f"unknown pair {pair!r}; expected one of {sorted(_RUNNERS)}"
            )
        reports.append(diff_pair(pair, seed=seed, examples=examples))
    return DiffReport(seed=seed, reports=tuple(reports))


# ---------------------------------------------------------------------------
# Repro bundles
# ---------------------------------------------------------------------------
def write_bundle(report: PairReport, path: Union[str, Path]) -> Path:
    """Write a replayable divergence bundle (seed + generated input)."""
    if report.divergence is None or report.workload is None:
        raise ValueError(f"pair {report.pair!r} has no divergence to bundle")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": BUNDLE_SCHEMA,
        "version": BUNDLE_VERSION,
        "pair": report.pair,
        "seed": int(report.seed),
        "examples": int(report.examples),
        "workload": report.workload,
        "divergence": report.divergence.to_dict(),
    }
    path.write_text(json.dumps(doc, indent=2, allow_nan=False) + "\n")
    return path


def load_bundle(path: Union[str, Path]) -> Dict[str, object]:
    """Load and validate a :func:`write_bundle` document."""
    doc = json.loads(Path(path).read_text())
    if doc.get("schema") != BUNDLE_SCHEMA:
        raise ValueError(
            f"{path}: not a repro-diff bundle (schema={doc.get('schema')!r})"
        )
    if doc.get("version") != BUNDLE_VERSION:
        raise ValueError(
            f"{path}: unsupported bundle version {doc.get('version')!r}"
        )
    return doc


def replay_bundle(path: Union[str, Path]) -> PairReport:
    """Re-run a bundle's exact workload (no hypothesis involved)."""
    doc = load_bundle(path)
    workload = dict(doc["workload"])  # type: ignore[call-overload, arg-type]
    divergence = run_workload(workload)
    return PairReport(
        pair=str(workload.get("pair", doc["pair"])),
        examples=1,
        seed=int(doc["seed"]),  # type: ignore[call-overload]
        divergence=divergence,
        workload=workload,
    )
