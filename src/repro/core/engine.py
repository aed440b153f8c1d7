"""The unified NSYNC detection core: one incremental engine.

The paper's IDS (Section VII, Fig. 7) is a single algorithm; this module is
its single implementation.  :class:`DetectionEngine` consumes the observed
signal chunk by chunk and runs an explicit four-stage pipeline over every
chunk::

        chunk ──> sanitize ──> synchronize ──> compare ──> discriminate
                  (health)      (SyncCursor)   (v_dist)    (alerts)

* **sanitize** — repair non-finite samples (forward fill with cross-chunk
  seeds), track dark-channel runs on the raw data, and arm the fail-closed
  SENSOR_FAULT verdict (:mod:`repro.core.health` semantics).
* **synchronize** — feed the clean samples to a
  :class:`~repro.sync.base.SyncCursor`.  DWM streams natively; batch
  synchronizers (DTW/FastDTW) ride behind
  :class:`~repro.sync.base.BatchSyncCursor` and emit at finalization.
* **compare** — one vertical distance per emitted index (Eq. 15/16), with
  the named worst-case fallback for truncated/degenerate windows.
* **discriminate** — incremental CADHD (Eq. 17) and trailing-min filtered
  distances (Eq. 21/22) checked against the thresholds; each sub-module
  raises at most one :class:`Alert`, at its first offending index.

:meth:`DetectionEngine.finalize` flushes the cursor, applies the
end-of-run checks (duration, non-finite fraction), and assembles the
:class:`EngineResult`.  The batch :class:`~repro.core.pipeline.NsyncIds`
is "push the whole signal as one chunk, then finalize"; the streaming
:class:`~repro.core.streaming.StreamingNsyncIds` is this engine itself,
armed with DWM, fed chunks as the DAQ delivers them — batch/streaming
parity is structural, not test-enforced, because there is only one code
path.

All cross-chunk carry lives in :class:`DetectorState` (schema-versioned,
JSON-safe via ``to_dict``/``from_dict``), which is what makes
checkpoint/resume and multi-job serving possible: serialize mid-print,
restore into a fresh engine, and the remainder of the run is bit-identical
to an uninterrupted one.

This module is also the only emitter of the detection provenance events
(``window_evidence``, ``window_quarantined``, ``window_truncated``,
``alarm``, ``sensor_fault``, ``run_summary``) — exactly one emission site
per type, shared by every caller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Sequence, Set, Tuple, Union

import numpy as np

from .. import obs
from ..obs import events, telemetry
from ..signals.ringbuffer import SampleRing
from ..signals.signal import Signal
from ..sync.base import BatchSyncCursor, SyncCursor, SyncResult, Synchronizer
from .comparator import Comparator, DistanceFn, MAX_CORRELATION_DISTANCE
from .discriminator import (
    Detection,
    DetectionFeatures,
    Discriminator,
    Thresholds,
)
from .health import SENSOR_FAULT, ChannelHealth, SanitizePolicy

__all__ = [
    "Alert",
    "DetectionEngine",
    "DetectorState",
    "EngineResult",
    "STATE_SCHEMA",
    "STATE_VERSION",
    "TRUNCATED_WINDOW_DISTANCE",
]

#: Vertical distance reported for a window too short to correlate (fewer
#: than 2 overlapping samples) or synchronized by a non-finite displacement
#: estimate.  Both mean the synchronizer walked off the reference; reporting
#: the *maximum* correlation distance (2.0 — perfect anti-correlation, see
#: :data:`~repro.core.comparator.MAX_CORRELATION_DISTANCE`) makes the
#: v_dist sub-module treat it as worst-case evidence rather than silently
#: skipping the window.  Each occurrence additionally emits a
#: ``window_truncated`` event and bumps the
#: ``repro.core.engine.truncated_windows`` counter.
TRUNCATED_WINDOW_DISTANCE = MAX_CORRELATION_DISTANCE

#: ``DetectorState.to_dict()`` schema identifier and version.  Bump the
#: version whenever a field is added/renamed so a stale checkpoint fails
#: loudly instead of resuming with half-initialized state.
STATE_SCHEMA = "repro.core.engine/DetectorState"
STATE_VERSION = 1


@dataclass(frozen=True)
class Alert:
    """One threshold violation observed while the print is running.

    Each sub-module (``c_disp``, ``h_dist``, ``v_dist``, ``duration``,
    ``sensor_fault``) raises at most one alert per run, at its first
    offending index.  ``time_s`` is the alarm position in print seconds —
    the number an operator acts on without knowing the DWM window
    geometry — and is computed at every construction site (there is no
    silent ``0.0`` default).
    """

    window_index: int
    submodule: str
    value: float
    threshold: float
    time_s: float

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe rendition (used by :class:`DetectorState`)."""
        return {
            "window_index": int(self.window_index),
            "submodule": self.submodule,
            "value": float(self.value),
            "threshold": float(self.threshold),
            "time_s": float(self.time_s),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "Alert":
        """Rebuild an alert serialized by :meth:`to_dict`."""
        return cls(
            window_index=int(doc["window_index"]),  # type: ignore[call-overload]
            submodule=str(doc["submodule"]),
            value=float(doc["value"]),  # type: ignore[arg-type]
            threshold=float(doc["threshold"]),  # type: ignore[arg-type]
            time_s=float(doc["time_s"]),  # type: ignore[arg-type]
        )


def _encode_optional_floats(row: np.ndarray) -> List[Optional[float]]:
    """Per-entry float list with ``None`` standing in for NaN/inf.

    Strict JSON has no NaN literal; the only non-finite carry in the
    engine is the raw previous sample (used for dark-run continuation,
    where any non-finite value behaves identically), so the encoding is
    lossless for detection behaviour.
    """
    return [float(v) if math.isfinite(float(v)) else None for v in row]


def _decode_optional_floats(values: Sequence[Optional[float]]) -> np.ndarray:
    """Inverse of :func:`_encode_optional_floats` (``None`` becomes NaN)."""
    return np.asarray(
        [float("nan") if v is None else float(v) for v in values],
        dtype=np.float64,
    )


#: Sections a serialized ``DetectorState`` must carry, with the expected
#: container type (``from_dict`` validates before indexing anything).
_STATE_SECTIONS: Tuple[Tuple[str, type], ...] = (
    ("config", dict),
    ("progress", dict),
    ("sanitize", dict),
    ("sync", dict),
    ("evidence", dict),
    ("alerts", list),
    ("fired", list),
)

#: Required keys per dict-valued section — exactly the fields
#: :meth:`DetectionEngine.restore` indexes, so a checkpoint that passes
#: validation cannot die with a ``KeyError`` halfway through a restore.
#: (``sync`` is opaque: its layout belongs to the synchronizer cursor.)
_STATE_REQUIRED_KEYS: Dict[str, Tuple[str, ...]] = {
    "config": ("n_channels", "sample_rate", "filter_window"),
    "progress": ("samples_seen", "buf_start", "buffer", "bad"),
    "sanitize": (
        "last_good", "have_good", "prev_raw", "n_nonfinite", "run_start",
        "longest_dark", "dark_spans", "fault_fired", "fault_reasons",
        "fault_window",
    ),
    "evidence": (
        "prev_disp", "c_disp", "c_hist", "h_hist", "v_hist", "h_f", "v_f",
        "quarantined",
    ),
}

#: Required keys of each serialized alert (what ``Alert.from_dict`` reads).
_ALERT_REQUIRED_KEYS: Tuple[str, ...] = (
    "window_index", "submodule", "value", "threshold", "time_s",
)


def _validate_state_payload(doc: Dict[str, object]) -> None:
    """Check a ``to_dict`` payload is structurally complete.

    A truncated or hand-corrupted checkpoint fails here with a
    ``ValueError`` naming the missing/ill-typed field rather than
    surfacing an opaque ``KeyError`` from deep inside ``restore``.
    """
    for section, expected in _STATE_SECTIONS:
        if section not in doc:
            raise ValueError(
                f"DetectorState payload missing section {section!r}"
            )
        value = doc[section]
        if not isinstance(value, expected):
            raise ValueError(
                f"DetectorState section {section!r} must be a "
                f"{expected.__name__}, got {type(value).__name__}"
            )
    for section, keys in _STATE_REQUIRED_KEYS.items():
        body = doc[section]
        assert isinstance(body, dict)
        for key in keys:
            if key not in body:
                raise ValueError(
                    f"DetectorState payload missing field "
                    f"{section!r}.{key!r}"
                )
    alerts = doc["alerts"]
    assert isinstance(alerts, list)
    for k, alert in enumerate(alerts):
        if not isinstance(alert, dict):
            raise ValueError(
                f"DetectorState alert #{k} must be a dict, "
                f"got {type(alert).__name__}"
            )
        for key in _ALERT_REQUIRED_KEYS:
            if key not in alert:
                raise ValueError(
                    f"DetectorState alert #{k} missing field {key!r}"
                )


@dataclass(frozen=True)
class DetectorState:
    """Serializable snapshot of every piece of cross-chunk carry.

    Grouped by pipeline stage:

    - ``config`` — shape echo (``n_channels``, ``sample_rate``,
      ``filter_window``) validated on :meth:`DetectionEngine.restore` so a
      checkpoint cannot silently resume against a different setup.
    - ``progress`` — ``samples_seen``, ``buf_start``, plus the buffered
      clean-sample tail (``buffer``) and its per-row repair mask (``bad``).
    - ``sanitize`` — forward-fill seeds, dark-run bookkeeping, and the
      fail-closed sensor-fault state.
    - ``sync`` — the :meth:`~repro.sync.base.SyncCursor.state_dict` of the
      synchronizer cursor (DWM history or a batch adapter's buffer).
    - ``evidence`` — the per-index evidence tail (CADHD, raw/filtered
      distances, quarantined indexes).
    - ``alerts`` / ``fired`` — alert state, so a restored run neither
      re-raises nor forgets an alarm.

    ``to_dict``/``from_dict`` round-trip through strict JSON bit-exactly
    (floats serialize via ``repr`` shortest round-trip); this is public
    API, versioned by :data:`STATE_VERSION`.
    """

    config: Dict[str, object]
    progress: Dict[str, object]
    sanitize: Dict[str, object]
    sync: Dict[str, object]
    evidence: Dict[str, object]
    alerts: Tuple[Dict[str, object], ...]
    fired: Tuple[str, ...]
    version: int = STATE_VERSION

    def to_dict(self) -> Dict[str, object]:
        """JSON-safe dict (strict JSON: no NaN/inf anywhere)."""
        return {
            "schema": STATE_SCHEMA,
            "version": self.version,
            "config": dict(self.config),
            "progress": dict(self.progress),
            "sanitize": dict(self.sanitize),
            "sync": dict(self.sync),
            "evidence": dict(self.evidence),
            "alerts": [dict(a) for a in self.alerts],
            "fired": list(self.fired),
        }

    @classmethod
    def from_dict(cls, doc: Dict[str, object]) -> "DetectorState":
        """Validate the schema header and payload, then rebuild the state.

        Every malformed input — wrong schema, unsupported version, a
        missing or ill-typed section, a section missing one of the fields
        :meth:`DetectionEngine.restore` will index — raises a
        :class:`ValueError` naming the offending field, never a raw
        ``KeyError``.  A checkpoint store can therefore treat *any*
        ``ValueError`` as "checkpoint unusable, restart the stream from
        scratch" instead of crashing the process that loaded it.
        """
        schema = doc.get("schema")
        if schema != STATE_SCHEMA:
            raise ValueError(f"not a DetectorState payload: schema={schema!r}")
        version = doc.get("version")
        if version != STATE_VERSION:
            raise ValueError(
                f"unsupported DetectorState version {version!r} "
                f"(this build reads version {STATE_VERSION})"
            )
        _validate_state_payload(doc)
        return cls(
            config=dict(doc["config"]),  # type: ignore[call-overload, arg-type]
            progress=dict(doc["progress"]),  # type: ignore[call-overload, arg-type]
            sanitize=dict(doc["sanitize"]),  # type: ignore[call-overload, arg-type]
            sync=dict(doc["sync"]),  # type: ignore[call-overload, arg-type]
            evidence=dict(doc["evidence"]),  # type: ignore[call-overload, arg-type]
            alerts=tuple(dict(a) for a in doc["alerts"]),  # type: ignore[union-attr]
            fired=tuple(str(s) for s in doc["fired"]),  # type: ignore[union-attr]
            version=int(version),
        )


@dataclass(frozen=True)
class EngineResult:
    """Everything :meth:`DetectionEngine.finalize` derives from one run."""

    sync: SyncResult
    v_dist: np.ndarray
    features: DetectionFeatures
    health: ChannelHealth
    quarantined_windows: Tuple[int, ...]
    #: ``None`` when the engine ran un-thresholded (analyze/fit mode).
    detection: Optional[Detection]
    alerts: Tuple[Alert, ...]

    @property
    def duration_mismatch(self) -> float:
        """Window-count deviation of the observed process vs the reference."""
        return self.features.duration_mismatch


def _finite(value: float) -> Optional[float]:
    """float(value), or None when it would not survive strict JSON."""
    v = float(value)
    return v if math.isfinite(v) else None


class DetectionEngine:
    """Chunk-incremental NSYNC core shared by the batch and streaming IDS.

    Parameters
    ----------
    reference:
        The reference side-channel signal ``b``.
    synchronizer:
        Any :class:`~repro.sync.base.Synchronizer`.  One that implements
        :class:`~repro.sync.base.IncrementalSynchronizer` (DWM) streams
        natively; anything else is adapted via
        :class:`~repro.sync.base.BatchSyncCursor`.
    thresholds:
        Discriminator critical values.  ``None`` runs the engine
        un-thresholded: evidence, health, and quarantine are produced but
        no alerts, alarms, or run summary (this is what ``fit`` uses).
    metric:
        Vertical-distance metric (default the correlation distance).
    filter_window:
        Spike-suppression window for the discriminator (default 3).
    policy:
        Input-sanitization thresholds
        (:class:`~repro.core.health.SanitizePolicy`); ``None`` uses the
        defaults.
    stream_id:
        Optional stream/printer identity.  When set, the engine registers
        a live :class:`~repro.obs.telemetry.StreamHealth` row in the
        process-wide telemetry registry (ingest lag, chunk-latency
        quantiles, alert/quarantine state — what ``repro top`` and the
        Prometheus endpoint render).  Health rows update only on the
        instrumented branch of :meth:`push`: with observability disabled
        the hot path stays telemetry-free.
    """

    def __init__(
        self,
        reference: Signal,
        synchronizer: Synchronizer,
        thresholds: Optional[Thresholds] = None,
        metric: Union[str, DistanceFn] = "correlation",
        filter_window: int = 3,
        policy: Optional[SanitizePolicy] = None,
        stream_id: Optional[str] = None,
    ) -> None:
        if filter_window < 1:
            raise ValueError(f"filter_window must be >= 1, got {filter_window}")
        self.reference = reference
        self.synchronizer = synchronizer
        self.thresholds = thresholds
        self.filter_window = filter_window
        self.policy = policy if policy is not None else SanitizePolicy()
        self._comparator = Comparator(metric)
        cursor_factory = getattr(synchronizer, "cursor", None)
        if callable(cursor_factory):
            self._cursor: SyncCursor = cursor_factory(reference)
        else:
            self._cursor = BatchSyncCursor(synchronizer, reference)
        n_ch = reference.n_channels
        self._rate = float(reference.sample_rate)
        self._n_channels = int(n_ch)
        self._min_dark = self.policy.min_dark_samples(self._rate)
        self.stream_id = stream_id
        self._health_row: Union[
            telemetry.StreamHealth, telemetry.NullStreamHealth
        ] = (
            telemetry.register_stream(stream_id, self._rate)
            if stream_id is not None
            else telemetry.NULL_STREAM_HEALTH
        )
        # --- progress / buffered tail ---
        # Preallocated tail buffers (amortized O(chunk) appends, logical
        # prefix trims) shared by the sanitize and compare stages; both
        # address samples by absolute stream index.
        self._samples_seen = 0
        self._ring = SampleRing(n_ch)
        self._bad_ring = SampleRing(None, dtype=bool)
        self._finalized = False
        # --- sanitize carry (see repro.core.health) ---
        self._last_good = np.zeros(n_ch)
        self._have_good = np.zeros(n_ch, dtype=bool)
        self._prev_raw: Optional[np.ndarray] = None
        # True when the carried previous raw row has a non-finite entry;
        # lets the dark-run tracker skip the errstate-guarded path on the
        # (overwhelmingly common) all-finite chunks.
        self._prev_raw_bad = False
        self._n_nonfinite = 0
        self._run_start = np.zeros(n_ch, dtype=np.int64)
        # Scalar lower bound of _run_start (= the oldest open run): lets
        # the per-push fast path decide "no channel can close a dark span
        # here" with one int compare instead of a numpy reduction.
        self._run_start_min = 0
        self._longest_dark = 0
        self._dark_spans: List[Tuple[int, int]] = []
        self._fault_fired = False
        self._fault_reasons: List[str] = []
        self._fault_window: Optional[int] = None
        self._pending_fault: Optional[Tuple[int, int]] = None
        # --- evidence carry ---
        self._prev_disp = 0.0
        self._c_disp = 0.0
        self._c_hist: List[float] = []
        self._h_hist: List[float] = []
        self._v_hist: List[float] = []
        self._h_f: List[float] = []
        self._v_f: List[float] = []
        self._quarantined: List[int] = []
        # --- alert state ---
        self._alerts: List[Alert] = []
        self._fired: Set[str] = set()

    # ------------------------------------------------------------------
    # Public surface
    # ------------------------------------------------------------------
    @property
    def armed(self) -> bool:
        """True when thresholds are set and the engine raises alerts."""
        return self.thresholds is not None

    @property
    def alerts(self) -> List[Alert]:
        """All alerts raised so far (chronological)."""
        return list(self._alerts)

    @property
    def intrusion_detected(self) -> bool:
        """True once any sub-module (or the sensor-fault rule) fired."""
        return bool(self._alerts)

    @property
    def n_indexes(self) -> int:
        """Number of synchronized indexes evaluated so far."""
        return len(self._c_hist)

    @property
    def samples_seen(self) -> int:
        """Absolute number of samples pushed so far.

        This is the resume cursor of the checkpoint/replay contract: a
        client that re-feeds the stream from exactly this sample after a
        :meth:`restore` reproduces the uninterrupted run bit-identically.
        """
        return self._samples_seen

    @property
    def n_quarantined(self) -> int:
        """Number of indexes whose input samples had to be repaired."""
        return len(self._quarantined)

    @property
    def sensor_fault_fired(self) -> bool:
        """True once the fail-closed SENSOR_FAULT verdict fired."""
        return self._fault_fired

    def push(self, samples: np.ndarray) -> List[Alert]:
        """Feed observed samples; return alerts raised by this chunk.

        Runs ``sanitize -> synchronize -> compare -> discriminate`` over
        the chunk.  Every decision depends only on the absolute sample
        prefix seen so far — never on where chunk boundaries fall — so any
        chunking of a signal produces a bit-identical run.
        """
        if self._finalized:
            raise RuntimeError("cannot push after finalize()")
        samples = np.asarray(samples, dtype=np.float64)
        if samples.ndim == 1:
            samples = samples[:, np.newaxis]
        if samples.shape[0] == 0:
            return []
        if samples.shape[1] != self._n_channels:
            raise ValueError(
                f"expected {self._n_channels} channels, got {samples.shape[1]}"
            )
        if not obs.enabled():
            # Disabled-observability fast path: identical stage sequence,
            # but no context-manager entries or counter lookups per push —
            # at DAQ chunk sizes those null shims alone cost measurable
            # throughput (asserted < 3% overhead by
            # benchmarks/bench_engine_throughput.py).
            clean, bad_rows = self._stage_sanitize(samples)
            self._ring.append(clean)
            self._bad_ring.append(bad_rows)
            self._samples_seen += samples.shape[0]
            emitted = self._cursor.push(clean)
            new_alerts = self._ingest(emitted, v_pre=None)
            self._trim()
            return new_alerts
        t0 = time.perf_counter()
        with obs.trace("repro.core.engine.push"):
            with obs.trace("sanitize"):
                clean, bad_rows = self._stage_sanitize(samples)
            self._ring.append(clean)
            self._bad_ring.append(bad_rows)
            self._samples_seen += samples.shape[0]
            with obs.trace("synchronize"):
                emitted = self._cursor.push(clean)
            new_alerts = self._ingest(emitted, v_pre=None)
            self._trim()
        latency_s = time.perf_counter() - t0
        obs.counter("repro.core.engine.samples").inc(samples.shape[0])
        if new_alerts:
            obs.counter("repro.core.engine.alerts").inc(len(new_alerts))
        obs.histogram("repro.core.engine.chunk_latency_s").observe(latency_s)
        self._health_row.observe_chunk(
            samples.shape[0],
            latency_s,
            len(self._c_hist),
            len(self._quarantined),
            self._fault_fired,
        )
        for alert in new_alerts:
            self._health_row.note_alert(alert.submodule, alert.time_s)
        return new_alerts

    def finalize(self) -> EngineResult:
        """Flush the cursor, run the end-of-run checks, assemble the result.

        Terminal: further :meth:`push`/:meth:`finalize` calls raise.
        """
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True
        alerts_before = len(self._alerts)
        with obs.trace("repro.core.engine.finalize"):
            emitted = self._cursor.finalize()
            sync = self._cursor.result()
            v_pre: Optional[np.ndarray] = None
            if sync.mode == "point" and len(self._ring):
                with obs.trace("compare"):
                    observed = Signal(self._ring.tail(), self._rate)
                    v_pre = self._comparator.vertical_distances(
                        observed, self.reference, sync
                    )
            self._ingest(emitted, v_pre=v_pre)
            self._check_fraction_rule()
            health = self._final_health()
            features = DetectionFeatures(
                c_disp=np.asarray(self._c_hist, dtype=np.float64),
                h_dist_filtered=np.asarray(self._h_f, dtype=np.float64),
                v_dist_filtered=np.asarray(self._v_f, dtype=np.float64),
                duration_mismatch=self._duration_mismatch(sync),
            )
            v_dist = (
                v_pre
                if v_pre is not None
                else np.asarray(self._v_hist, dtype=np.float64)
            )
            detection: Optional[Detection] = None
            if self.thresholds is not None:
                with obs.trace("discriminate"):
                    detection = self._stage_discriminate_run(
                        features, sync, health
                    )
        for alert in self._alerts[alerts_before:]:
            self._health_row.note_alert(alert.submodule, alert.time_s)
        self._health_row.mark_finished(intrusion=bool(self._alerts))
        return EngineResult(
            sync=sync,
            v_dist=v_dist,
            features=features,
            health=health,
            quarantined_windows=tuple(self._quarantined),
            detection=detection,
            alerts=tuple(self._alerts),
        )

    def evidence(self) -> Dict[str, object]:
        """Snapshot of the evidence arrays accumulated so far.

        Returns a dict with one entry per evaluated index:

        - ``h_disp`` — raw horizontal displacements
          (= ``SyncResult.h_disp``).
        - ``c_disp`` — current CADHD scalar (equals ``c_disp_curve[-1]``).
        - ``c_disp_curve`` — cumulative CADHD per index
          (= ``SyncResult.cadhd()``).
        - ``h_dist_filtered`` / ``v_dist_filtered`` — trailing-min
          filtered distances, equal to the
          :class:`~repro.core.discriminator.DetectionFeatures` arrays.
        """
        return {
            "h_disp": self._cursor.result().h_disp,
            "c_disp": self._c_disp,
            "c_disp_curve": np.asarray(self._c_hist, dtype=np.float64),
            "h_dist_filtered": np.asarray(self._h_f, dtype=np.float64),
            "v_dist_filtered": np.asarray(self._v_f, dtype=np.float64),
        }

    def health_dict(self) -> Dict[str, object]:
        """JSON-safe channel-health snapshot of the run so far.

        Mirrors ``ChannelHealth.to_dict()`` plus the quarantined-index
        list; usable mid-stream and identical to the final
        ``Detection.health`` payload once the run is finalized.
        """
        total = self._samples_seen
        return {
            "n_samples": int(total),
            "n_nonfinite": int(self._n_nonfinite),
            "bad_fraction": (
                float(self._n_nonfinite / total) if total else 0.0
            ),
            "dark_spans": [[int(a), int(b)] for a, b in self._current_spans()],
            "longest_dark_s": float(self._longest_dark / self._rate),
            "sensor_fault": bool(self._fault_fired),
            "reasons": list(self._fault_reasons),
            "quarantined_windows": list(self._quarantined),
        }

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def state(self) -> DetectorState:
        """Snapshot every piece of cross-chunk carry as a
        :class:`DetectorState`.

        Call between :meth:`push` invocations (not after
        :meth:`finalize`); restoring the snapshot into a fresh engine
        built with the same configuration continues the run bit-exactly.
        """
        if self._finalized:
            raise RuntimeError("cannot snapshot a finalized engine")
        prev_raw = (
            None
            if self._prev_raw is None
            else _encode_optional_floats(self._prev_raw)
        )
        return DetectorState(
            config={
                "n_channels": self._n_channels,
                "sample_rate": self._rate,
                "filter_window": self.filter_window,
            },
            progress={
                # One C-level tolist() per array (not per-element Python
                # loops): checkpointing happens mid-stream, on the clock.
                "samples_seen": int(self._samples_seen),
                "buf_start": int(self._ring.start),
                "buffer": self._ring.tail().tolist(),
                "bad": self._bad_ring.tail().tolist(),
            },
            sanitize={
                "last_good": [float(v) for v in self._last_good],
                "have_good": [bool(b) for b in self._have_good],
                "prev_raw": prev_raw,
                "n_nonfinite": int(self._n_nonfinite),
                "run_start": [int(v) for v in self._run_start],
                "longest_dark": int(self._longest_dark),
                "dark_spans": [[int(a), int(b)] for a, b in self._dark_spans],
                "fault_fired": bool(self._fault_fired),
                "fault_reasons": list(self._fault_reasons),
                "fault_window": self._fault_window,
            },
            sync=self._cursor.state_dict(),
            evidence={
                "prev_disp": float(self._prev_disp),
                "c_disp": float(self._c_disp),
                "c_hist": [float(v) for v in self._c_hist],
                "h_hist": [float(v) for v in self._h_hist],
                "v_hist": [float(v) for v in self._v_hist],
                "h_f": [float(v) for v in self._h_f],
                "v_f": [float(v) for v in self._v_f],
                "quarantined": [int(i) for i in self._quarantined],
            },
            alerts=tuple(a.to_dict() for a in self._alerts),
            fired=tuple(sorted(self._fired)),
        )

    def restore(self, state: DetectorState) -> None:
        """Load a :meth:`state` snapshot into this (fresh) engine.

        The engine must have been constructed with the same reference,
        synchronizer type, and parameters; the configuration echo inside
        the state is validated against this engine's.
        """
        cfg = state.config
        mine = {
            "n_channels": self._n_channels,
            "sample_rate": self._rate,
            "filter_window": self.filter_window,
        }
        for key, want in mine.items():
            if cfg.get(key) != want:
                raise ValueError(
                    f"checkpoint/config mismatch on {key!r}: "
                    f"state has {cfg.get(key)!r}, engine has {want!r}"
                )
        prog = state.progress
        self._samples_seen = int(prog["samples_seen"])  # type: ignore[call-overload]
        buf_start = int(prog["buf_start"])  # type: ignore[call-overload]
        self._ring.load(
            np.asarray(prog["buffer"], dtype=np.float64), buf_start
        )
        self._bad_ring.load(np.asarray(prog["bad"], dtype=bool), buf_start)
        self._finalized = False
        san = state.sanitize
        self._last_good = np.asarray(san["last_good"], dtype=np.float64)
        self._have_good = np.asarray(san["have_good"], dtype=bool)
        raw = san["prev_raw"]
        self._prev_raw = (
            None if raw is None else _decode_optional_floats(raw)  # type: ignore[arg-type]
        )
        self._prev_raw_bad = self._prev_raw is not None and not bool(
            np.isfinite(self._prev_raw).all()
        )
        self._n_nonfinite = int(san["n_nonfinite"])  # type: ignore[call-overload]
        self._run_start = np.asarray(san["run_start"], dtype=np.int64)
        self._run_start_min = int(self._run_start.min())
        self._longest_dark = int(san["longest_dark"])  # type: ignore[call-overload]
        self._dark_spans = [
            (int(a), int(b)) for a, b in san["dark_spans"]  # type: ignore[union-attr]
        ]
        self._fault_fired = bool(san["fault_fired"])
        self._fault_reasons = [str(r) for r in san["fault_reasons"]]  # type: ignore[union-attr]
        fw = san["fault_window"]
        self._fault_window = None if fw is None else int(fw)  # type: ignore[arg-type]
        self._pending_fault = None
        self._cursor.load_state_dict(dict(state.sync))
        ev = state.evidence
        self._prev_disp = float(ev["prev_disp"])  # type: ignore[arg-type]
        self._c_disp = float(ev["c_disp"])  # type: ignore[arg-type]
        self._c_hist = [float(v) for v in ev["c_hist"]]  # type: ignore[union-attr]
        self._h_hist = [float(v) for v in ev["h_hist"]]  # type: ignore[union-attr]
        self._v_hist = [float(v) for v in ev["v_hist"]]  # type: ignore[union-attr]
        self._h_f = [float(v) for v in ev["h_f"]]  # type: ignore[union-attr]
        self._v_f = [float(v) for v in ev["v_f"]]  # type: ignore[union-attr]
        self._quarantined = [int(i) for i in ev["quarantined"]]  # type: ignore[union-attr]
        self._alerts = [Alert.from_dict(dict(a)) for a in state.alerts]
        self._fired = set(state.fired)

    # ------------------------------------------------------------------
    # Stage 1: sanitize
    # ------------------------------------------------------------------
    def _stage_sanitize(
        self, raw: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Repair one chunk; returns ``(clean, bad_rows)``.

        Mirrors :func:`repro.core.health.sanitize_signal` with all state
        carried across chunk boundaries: the last finite value per channel
        seeds the forward fill, and dark runs continue through chunk edges
        so a disconnect spanning many small chunks is still one long run.
        """
        n = raw.shape[0]
        bad = ~np.isfinite(raw)
        bad_rows: np.ndarray = bad.any(axis=1)
        has_bad = bool(bad_rows.any())
        if has_bad:
            self._n_nonfinite += int(np.count_nonzero(bad_rows))
        self._track_dark_runs(raw, bad, has_bad)

        if not has_bad:
            self._last_good = raw[-1].copy()
            self._have_good[:] = True
            return raw, bad_rows
        # Forward fill, seeded by the last finite value seen in earlier
        # chunks (0.0 when a channel has been broken since the start).
        seed = np.where(self._have_good, self._last_good, 0.0)
        ext = np.concatenate([seed[np.newaxis, :], raw], axis=0)
        ext_bad = np.concatenate(
            [np.zeros((1, raw.shape[1]), dtype=bool), bad], axis=0
        )
        idx = np.where(~ext_bad, np.arange(n + 1)[:, np.newaxis], 0)
        np.maximum.accumulate(idx, axis=0, out=idx)
        clean = np.take_along_axis(ext, idx, axis=0)[1:]
        self._last_good = clean[-1].copy()
        self._have_good |= (~bad).any(axis=0)
        return clean, bad_rows

    def _track_dark_runs(
        self, raw: np.ndarray, bad: np.ndarray, has_bad: bool
    ) -> None:
        """Continue per-channel constant/non-finite runs through this chunk.

        Works on the *raw* data (forward-filling first would turn every
        NaN burst into a constant run and double-count it), records the
        closed maximal runs that qualify as dark spans, and — when the
        policy is armed — pins the exact absolute sample at which a run
        first reaches the dark limit, so the fail-closed verdict fires at
        the same sample no matter how the stream was chunked.
        """
        n = raw.shape[0]
        offset = self._samples_seen
        eps = self.policy.dark_eps
        if has_bad or self._prev_raw_bad:
            extend = np.zeros_like(bad)
            if self._prev_raw is not None:
                prev_bad = ~np.isfinite(self._prev_raw)
                with np.errstate(invalid="ignore"):
                    extend[0] = np.abs(raw[0] - self._prev_raw) <= eps
                extend[0] |= bad[0] | prev_bad
            if n > 1:
                with np.errstate(invalid="ignore"):
                    extend[1:] = np.abs(np.diff(raw, axis=0)) <= eps
                extend[1:] |= bad[1:] | bad[:-1]
        else:
            # All-finite chunk with an all-finite carry: the non-finite
            # terms above are identically False and the subtractions
            # cannot trip the invalid-FP guard, so skip the errstate
            # context managers and mask work entirely.
            extend = np.empty_like(bad)
            if self._prev_raw is not None:
                extend[0] = np.abs(raw[0] - self._prev_raw) <= eps
            else:
                extend[0] = False
            if n > 1:
                extend[1:] = np.abs(np.diff(raw, axis=0)) <= eps
        self._prev_raw_bad = has_bad and bool(bad[-1].any())
        if not extend.any():
            # Every run resets at every sample of this chunk: all run
            # lengths are 1, so at most one span per channel can close
            # (the carried run ending at this chunk's first sample), no
            # dark-limit crossing is possible (the limit is >= 2), and
            # the per-channel boundary scan below collapses to O(C).
            # This is the steady-state path for healthy, textured input.
            if offset - self._run_start_min >= self._min_dark:
                carry0 = offset - self._run_start
                for c in np.flatnonzero(carry0 >= self._min_dark):
                    self._dark_spans.append(
                        (int(self._run_start[c]), int(offset))
                    )
            self._run_start[:] = offset + n - 1
            self._run_start_min = offset + n - 1
            self._longest_dark = max(self._longest_dark, 1)
            self._prev_raw = raw[-1].copy()
            return
        idx = np.arange(n)[:, np.newaxis]
        carry = (offset - self._run_start).astype(np.int64)
        reset = np.where(~extend, idx, -1)
        np.maximum.accumulate(reset, axis=0, out=reset)
        run = np.where(reset >= 0, idx - reset + 1, idx + 1 + carry)
        # Close the maximal runs ending inside this chunk (span bookkeeping
        # identical to health._run_bounds over the whole signal).
        for c in range(raw.shape[1]):
            bnd = np.flatnonzero(~extend[:, c])
            if not bnd.size:
                continue
            starts = np.concatenate(
                [[int(self._run_start[c])], offset + bnd[:-1]]
            )
            ends = offset + bnd
            for k in np.flatnonzero(ends - starts >= self._min_dark):
                self._dark_spans.append((int(starts[k]), int(ends[k])))
            self._run_start[c] = int(offset + bnd[-1])
        self._run_start_min = int(self._run_start.min())
        if (
            self.policy.enabled
            and not self._fault_fired
            and self._pending_fault is None
        ):
            hit = np.flatnonzero((run >= self._min_dark).any(axis=1))
            if hit.size:
                r = int(hit[0])
                longest_at_t = max(
                    self._longest_dark, int(run[: r + 1].max())
                )
                self._pending_fault = (offset + r + 1, longest_at_t)
        self._longest_dark = max(self._longest_dark, int(run.max()))
        self._prev_raw = raw[-1].copy()

    def _current_spans(self) -> Tuple[Tuple[int, int], ...]:
        """Dark spans so far: closed runs plus qualifying open runs."""
        spans = list(self._dark_spans)
        for c in range(self._n_channels):
            start = int(self._run_start[c])
            if self._samples_seen - start >= self._min_dark:
                spans.append((start, self._samples_seen))
        return tuple(sorted(set(spans)))

    def _final_health(self) -> ChannelHealth:
        """Freeze the sanitize stage's verdict for the whole run."""
        n = self._samples_seen
        return ChannelHealth(
            n_samples=n,
            n_nonfinite=self._n_nonfinite,
            dark_spans=self._current_spans(),
            longest_dark_s=self._longest_dark / self._rate if n else 0.0,
            sensor_fault=self._fault_fired,
            reasons=tuple(self._fault_reasons),
        )

    def _check_fraction_rule(self) -> None:
        """End-of-run rule: too many non-finite samples overall.

        Evaluated at finalization (like the batch sanitizer always did) so
        the verdict depends on run totals, never on chunk boundaries.
        """
        total = self._samples_seen
        if not self.policy.enabled or not total:
            return
        if self._n_nonfinite / total <= self.policy.max_bad_fraction:
            return
        if not self._fault_fired:
            sink: List[Alert] = []
            self._fire_sensor_fault(
                sink, ("nonfinite_fraction",), total, self._longest_dark
            )
            self._alerts.extend(sink)
        elif "nonfinite_fraction" not in self._fault_reasons:
            self._fault_reasons.append("nonfinite_fraction")

    def _fire_sensor_fault(
        self,
        sink: List[Alert],
        reasons: Tuple[str, ...],
        t_sample: int,
        longest_at_t: int,
    ) -> None:
        """Fail closed: the sensor went away, so the IDS must scream.

        ``t_sample`` is the absolute sample at which the rule crossed;
        the alert anchors at the count of indexes evaluated up to that
        sample, which is chunking-invariant by construction.
        """
        self._fault_fired = True
        self._fault_reasons = list(reasons)
        window = len(self._c_hist)
        self._fault_window = window
        if not self.armed:
            return
        time_s = t_sample / self._rate
        longest_s = longest_at_t / self._rate
        alert = Alert(
            window, SENSOR_FAULT, longest_s, self.policy.max_dark_s, time_s
        )
        sink.append(alert)
        self._fired.add(SENSOR_FAULT)
        if obs.enabled():
            obs.counter("repro.core.engine.sensor_faults").inc()
        if events.enabled():
            events.log().emit(
                "sensor_fault",
                reason=",".join(reasons),
                window=window,
                time_s=float(time_s),
                longest_dark_s=float(longest_s),
            )
            self._emit_alarm(alert)

    # ------------------------------------------------------------------
    # Stages 2-4: synchronize / compare / discriminate per index
    # ------------------------------------------------------------------
    def _ingest(
        self,
        emitted: Sequence[Tuple[int, float]],
        v_pre: Optional[np.ndarray],
    ) -> List[Alert]:
        """Evaluate newly synchronized indexes, interleaving the pending
        sensor fault at its exact crossing sample."""
        new_alerts: List[Alert] = []
        v_batch: Optional[Dict[int, float]] = None
        if v_pre is None and len(emitted) > 1:
            v_batch = self._batch_compare(emitted)
        for i, disp in emitted:
            if self._pending_fault is not None:
                stop = i * self._cursor.n_hop + self._cursor.n_win
                if stop > self._pending_fault[0]:
                    self._fire_sensor_fault(
                        new_alerts, ("dark_channel",), *self._pending_fault
                    )
                    self._pending_fault = None
            self._evaluate_index(
                int(i), float(disp), v_pre, v_batch, new_alerts
            )
        if self._pending_fault is not None:
            self._fire_sensor_fault(
                new_alerts, ("dark_channel",), *self._pending_fault
            )
            self._pending_fault = None
        self._alerts.extend(new_alerts)
        return new_alerts

    def _batch_compare(
        self, emitted: Sequence[Tuple[int, float]]
    ) -> Optional[Dict[int, float]]:
        """Pre-score the clean full windows of one push in a single call.

        Gathers every emitted window that lies fully inside both the
        buffered tail and the reference (finite displacement, no boundary
        clipping) into one ``(k, n_win, c)`` stack and scores it with one
        :meth:`~repro.core.comparator.Comparator.pair_distances` call —
        bit-identical to the per-window scalar path.  Windows that need
        the worst-case fallback are deliberately left out: they emit
        ``window_truncated`` events from inside the per-index loop, and
        pre-scoring them here would reorder the event stream relative to
        a differently-chunked run.
        """
        if self._cursor.mode != "window":
            return None
        n_win, n_hop = self._cursor.n_win, self._cursor.n_hop
        n_ref = self.reference.n_samples
        ref = self.reference.data
        idxs: List[int] = []
        stack_a: List[np.ndarray] = []
        stack_b: List[np.ndarray] = []
        for i, disp in emitted:
            if not math.isfinite(disp):
                continue
            start = int(i) * n_hop
            b0 = start + int(round(disp))
            if b0 < 0 or b0 + n_win > n_ref:
                continue
            if start + n_win > self._ring.end:
                continue
            idxs.append(int(i))
            stack_a.append(self._ring.view(start, start + n_win))
            stack_b.append(ref[b0 : b0 + n_win])
        if not idxs:
            return None
        vals = self._comparator.pair_distances(
            np.stack(stack_a), np.stack(stack_b)
        )
        return {i: float(v) for i, v in zip(idxs, vals)}

    def _evaluate_index(
        self,
        i: int,
        disp: float,
        v_pre: Optional[np.ndarray],
        v_batch: Optional[Dict[int, float]],
        sink: List[Alert],
    ) -> None:
        """Compare + discriminate one synchronized index (window or point).

        This is the single implementation of the per-index evidence math:
        incremental CADHD (Eq. 17), trailing-min filtered horizontal and
        vertical distances (Eq. 19-22), quarantine flagging, and the
        first-crossing alert per sub-module.
        """
        t = self.thresholds
        n_win, n_hop = self._cursor.n_win, self._cursor.n_hop
        time_s = i * n_hop / self._rate

        # A synchronizer emitting a non-finite displacement would poison
        # the cumulative CADHD for the rest of the print; hold the previous
        # estimate for the c/h sub-modules and report worst-case vertical
        # evidence for this index instead.
        degenerate = not math.isfinite(disp)
        if degenerate:
            disp = self._prev_disp

        # Sub-module 1: CADHD, updated incrementally (Eq. 17).
        self._c_disp += abs(disp - self._prev_disp)
        self._prev_disp = disp
        self._c_hist.append(self._c_disp)

        # Sub-module 2: filtered horizontal distance (Eq. 19, 21).
        self._h_hist.append(abs(disp))
        h_f = min(self._h_hist[-self.filter_window:])
        self._h_f.append(h_f)

        # Sub-module 3: filtered vertical distance (Eq. 20, 22).
        v = self._stage_compare(i, disp, degenerate, v_pre, v_batch)
        self._quarantine_check(i, n_win, n_hop)
        self._v_hist.append(v)
        v_f = min(self._v_hist[-self.filter_window:])
        self._v_f.append(v_f)

        if events.enabled():
            events.log().emit(
                "window_evidence",
                window=i,
                h_disp=float(disp),
                c_disp=float(self._c_disp),
                h_dist_f=float(h_f),
                v_dist_f=float(v_f),
            )
        if t is None:
            return
        for submodule, value, threshold in (
            ("c_disp", self._c_disp, t.c_c),
            ("h_dist", h_f, t.h_c),
            ("v_dist", v_f, t.v_c),
        ):
            if submodule in self._fired or not value > threshold:
                continue
            self._fired.add(submodule)
            alert = Alert(i, submodule, value, threshold, time_s)
            sink.append(alert)
            if events.enabled():
                self._emit_alarm(alert)

    def _stage_compare(
        self,
        i: int,
        disp: float,
        degenerate: bool,
        v_pre: Optional[np.ndarray],
        v_batch: Optional[Dict[int, float]],
    ) -> float:
        """Vertical distance for one index, with the worst-case fallback."""
        if not degenerate:
            if v_pre is not None:
                # Point mode: distances were computed wholesale over the
                # warping path (Eq. 15); nothing to window out.
                return float(v_pre[i])
            if v_batch is not None:
                v = v_batch.get(i)
                if v is not None:
                    return v
        n_win, n_hop = self._cursor.n_win, self._cursor.n_hop
        start = i * n_hop
        wa = self._ring.view(start, start + n_win)
        offset = int(round(disp))
        wb = self.reference.slice(
            start + offset, start + offset + n_win
        ).data
        n = min(wa.shape[0], wb.shape[0])
        if n >= 2 and not degenerate:
            return self._comparator.pair_distance(wa[:n], wb[:n])
        if obs.enabled():
            obs.counter("repro.core.engine.truncated_windows").inc()
        if events.enabled():
            events.log().emit("window_truncated", window=i, n=int(n))
        return TRUNCATED_WINDOW_DISTANCE

    def _quarantine_check(self, i: int, n_win: int, n_hop: int) -> None:
        """Flag an index whose input samples had to be repaired."""
        if self._n_nonfinite == 0:
            # Nothing was ever repaired, so no window can be quarantined;
            # skip the per-window mask scan on healthy streams.
            return
        if self._cursor.mode == "window":
            start = i * n_hop
            n_bad = int(
                np.count_nonzero(self._bad_ring.view(start, start + n_win))
            )
        else:
            n_bad = (
                1
                if (i < self._bad_ring.end and bool(self._bad_ring.view(i, i + 1)[0]))
                else 0
            )
        if not n_bad:
            return
        self._quarantined.append(i)
        if obs.enabled():
            obs.counter("repro.core.engine.quarantined_windows").inc()
        if events.enabled():
            events.log().emit("window_quarantined", window=i, n_bad=n_bad)

    def _emit_alarm(self, alert: Alert) -> None:
        """The one ``alarm`` emission site (sub-module, duration, fault)."""
        events.log().emit(
            "alarm",
            window=int(alert.window_index),
            submodule=alert.submodule,
            value=float(alert.value),
            threshold=float(alert.threshold),
            time_s=float(alert.time_s),
        )

    def _trim(self) -> None:
        """Drop the buffered prefix every evaluated window has consumed."""
        low = len(self._c_hist) * self._cursor.n_hop
        self._ring.trim_to(low)
        self._bad_ring.trim_to(low)

    # ------------------------------------------------------------------
    # End-of-run discrimination
    # ------------------------------------------------------------------
    def _duration_mismatch(self, sync: SyncResult) -> float:
        """Deviation between observed and reference process lengths.

        Measured in analysis windows (window mode) or samples (point
        mode).  Covers both directions: the observed print ending
        early/late relative to the reference, and the synchronizer walking
        off the reference before the observation ended.
        """
        if sync.mode == "window":
            n = self._samples_seen
            n_obs = (
                0 if n < sync.n_win else 1 + (n - sync.n_win) // sync.n_hop
            )
            n_ref = self.reference.n_windows(sync.n_win, sync.n_hop)
        else:
            n_obs = self._samples_seen
            n_ref = self.reference.n_samples
        return float(max(abs(n_obs - n_ref), n_obs - sync.n_indexes))

    def _stage_discriminate_run(
        self,
        features: DetectionFeatures,
        sync: SyncResult,
        health: ChannelHealth,
    ) -> Detection:
        """Apply the run-level checks and assemble the final verdict."""
        t = self.thresholds
        assert t is not None
        verdict = Discriminator(t, self.filter_window).detect_features(
            features
        )
        if verdict.duration_fired:
            alert = Alert(
                sync.n_indexes,
                "duration",
                features.duration_mismatch,
                t.d_c,
                self._samples_seen / self._rate,
            )
            self._alerts.append(alert)
            self._fired.add("duration")
            if events.enabled():
                self._emit_alarm(alert)
        first = verdict.first_alarm_index
        if self._fault_fired:
            fault_at = self._fault_window if self._fault_window is not None else 0
            first = fault_at if first is None else min(first, fault_at)
            verdict = replace(
                verdict, is_intrusion=True, sensor_fault_fired=True
            )
        if first is not None:
            verdict = replace(
                verdict,
                first_alarm_index=int(first),
                first_alarm_time=first * sync.n_hop / self._rate,
            )
        verdict = replace(
            verdict,
            health={
                **health.to_dict(),
                "quarantined_windows": list(self._quarantined),
            },
        )
        if events.enabled():
            events.log().emit(
                "run_summary",
                is_intrusion=verdict.is_intrusion,
                fired=list(verdict.fired_submodules()),
                n_windows=int(sync.n_indexes),
                first_alarm_index=verdict.first_alarm_index,
                first_alarm_time=verdict.first_alarm_time,
                # inf (= sub-module disabled) is not valid strict JSON: map
                # to None so the JSONL sink stays loadable everywhere.
                thresholds={
                    "c_c": _finite(t.c_c), "h_c": _finite(t.h_c),
                    "v_c": _finite(t.v_c), "d_c": _finite(t.d_c),
                },
                mode=sync.mode,
                n_win=int(sync.n_win),
                n_hop=int(sync.n_hop),
                sample_rate=self._rate,
            )
        return verdict
