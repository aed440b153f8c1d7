"""The unified NSYNC detection core: one incremental engine.

The paper's IDS (Section VII, Fig. 7) is a single algorithm; this module is
its single implementation.  :class:`DetectionEngine` consumes the observed
signal chunk by chunk and runs an explicit four-stage pipeline over every
chunk::

        chunk ──> sanitize ──> synchronize ──> compare ──> discriminate
                 (Sanitizer)   (SyncCursor)    (v_dist)    (EvidenceAccumulator)

* **sanitize** — repair non-finite samples (forward fill with cross-chunk
  seeds), track dark-channel runs on the raw data, and arm the fail-closed
  SENSOR_FAULT verdict (:class:`~repro.core.health.Sanitizer`).
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

Each stage object owns its cross-chunk carry and the matching section of
:class:`DetectorState` (schema-versioned, JSON-safe via
``to_dict``/``from_dict``): ``sanitize`` is the sanitizer's, ``sync`` the
cursor's, ``evidence``/``alerts``/``fired`` the evidence accumulator's; the
engine itself writes ``config`` and ``progress`` (the buffered clean tail
the compare stage reads).  That snapshot is what makes checkpoint/resume
and multi-job serving possible: serialize mid-print, restore into a fresh
engine, and the remainder of the run is bit-identical to an uninterrupted
one.

This module is also the only emitter of the detection provenance events
(``window_evidence``, ``window_quarantined``, ``window_truncated``,
``alarm``, ``sensor_fault``, ``run_summary``) — exactly one emission site
per type, shared by every caller.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, fields, replace
from typing import (
    Any, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union,
)

import numpy as np

from .. import obs
from ..obs import events
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
from .health import SENSOR_FAULT, ChannelHealth, SanitizePolicy, Sanitizer

__all__ = [
    "Alert",
    "DetectionEngine",
    "DetectorState",
    "EngineResult",
    "EvidenceAccumulator",
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


def _emit_alarm(alert: Alert) -> None:
    """The one ``alarm`` emission site (sub-module, duration, fault)."""
    events.log().emit(
        "alarm",
        window=int(alert.window_index),
        submodule=alert.submodule,
        value=float(alert.value),
        threshold=float(alert.threshold),
        time_s=float(alert.time_s),
    )


class EvidenceAccumulator:
    """The discriminate stage's carry: per-index evidence and alert state.

    Holds incremental CADHD (Eq. 17), the five per-index histories
    (CADHD curve, raw and trailing-min filtered horizontal and vertical
    distances, Eq. 19-22), the quarantined indexes, the alerts raised so
    far, and the sub-modules that already fired (each raises at most one
    alert, at its first offending index).

    Owns the ``evidence``, ``alerts`` and ``fired`` sections of a
    :class:`DetectorState` (:attr:`KEYS`, :meth:`state_dict`,
    :meth:`load_state_dict`).
    """

    #: Fields of the ``evidence`` state section, in write order.
    KEYS: Tuple[str, ...] = (
        "prev_disp", "c_disp", "c_hist", "h_hist", "v_hist", "h_f", "v_f",
        "quarantined",
    )

    def __init__(
        self, thresholds: Optional[Thresholds], filter_window: int
    ) -> None:
        self.thresholds = thresholds
        self.filter_window = filter_window
        self.prev_disp = 0.0
        self.c_disp = 0.0
        self.c_hist: List[float] = []
        self.h_hist: List[float] = []
        self.v_hist: List[float] = []
        self.h_f: List[float] = []
        self.v_f: List[float] = []
        self.quarantined: List[int] = []
        self.alerts: List[Alert] = []
        self.fired: Set[str] = set()

    def add(
        self, i: int, disp: float, v: float, time_s: float, sink: List[Alert]
    ) -> None:
        """Fold index ``i`` (displacement ``disp``, vertical distance ``v``)
        into the evidence and raise the sub-modules it crosses first."""
        self.c_disp += abs(disp - self.prev_disp)
        self.prev_disp = disp
        self.c_hist.append(self.c_disp)
        self.h_hist.append(abs(disp))
        h_f = min(self.h_hist[-self.filter_window:])
        self.h_f.append(h_f)
        self.v_hist.append(v)
        v_f = min(self.v_hist[-self.filter_window:])
        self.v_f.append(v_f)
        if events.enabled():
            events.log().emit(
                "window_evidence",
                window=i,
                h_disp=float(disp),
                c_disp=float(self.c_disp),
                h_dist_f=float(h_f),
                v_dist_f=float(v_f),
            )
        t = self.thresholds
        if t is None:
            return
        for submodule, value, threshold in (
            ("c_disp", self.c_disp, t.c_c),
            ("h_dist", h_f, t.h_c),
            ("v_dist", v_f, t.v_c),
        ):
            if submodule not in self.fired and value > threshold:
                self.raise_alert(
                    Alert(i, submodule, value, threshold, time_s), sink
                )

    def raise_alert(self, alert: Alert, sink: List[Alert]) -> None:
        """Latch ``alert``'s sub-module, append it to ``sink``, emit it."""
        self.fired.add(alert.submodule)
        sink.append(alert)
        if events.enabled():
            _emit_alarm(alert)

    def state_dict(self) -> Dict[str, object]:
        """The ``evidence``, ``alerts`` and ``fired`` state sections."""
        return {
            "evidence": {
                "prev_disp": float(self.prev_disp),
                "c_disp": float(self.c_disp),
                "c_hist": [float(v) for v in self.c_hist],
                "h_hist": [float(v) for v in self.h_hist],
                "v_hist": [float(v) for v in self.v_hist],
                "h_f": [float(v) for v in self.h_f],
                "v_f": [float(v) for v in self.v_f],
                "quarantined": [int(i) for i in self.quarantined],
            },
            "alerts": tuple(a.to_dict() for a in self.alerts),
            "fired": tuple(sorted(self.fired)),
        }

    def load_state_dict(self, state: "DetectorState") -> None:
        """Restore the sections :meth:`state_dict` wrote."""
        ev: Mapping[str, Any] = state.evidence
        self.prev_disp = float(ev["prev_disp"])
        self.c_disp = float(ev["c_disp"])
        self.c_hist = [float(v) for v in ev["c_hist"]]
        self.h_hist = [float(v) for v in ev["h_hist"]]
        self.v_hist = [float(v) for v in ev["v_hist"]]
        self.h_f = [float(v) for v in ev["h_f"]]
        self.v_f = [float(v) for v in ev["v_f"]]
        self.quarantined = [int(i) for i in ev["quarantined"]]
        self.alerts = [Alert.from_dict(dict(a)) for a in state.alerts]
        self.fired = set(state.fired)


#: Fields of the engine's own ``config`` and ``progress`` sections.
_CONFIG_KEYS = ("n_channels", "sample_rate", "filter_window")
_PROGRESS_KEYS = ("samples_seen", "buf_start", "buffer", "bad")

#: Sections a serialized ``DetectorState`` must carry: container type and,
#: for dict sections, the fields their owner's restore reads.  (``sync`` is
#: opaque: its layout belongs to the synchronizer cursor.)
_STATE_SECTIONS: Tuple[Tuple[str, type, Tuple[str, ...]], ...] = (
    ("config", dict, _CONFIG_KEYS),
    ("progress", dict, _PROGRESS_KEYS),
    ("sanitize", dict, Sanitizer.KEYS),
    ("sync", dict, ()),
    ("evidence", dict, EvidenceAccumulator.KEYS),
    ("alerts", list, ()),
    ("fired", list, ()),
)


def _validate_state_payload(doc: Dict[str, object]) -> None:
    """Check a ``to_dict`` payload is structurally complete.

    A truncated or hand-corrupted checkpoint fails here with a
    ``ValueError`` naming the missing/ill-typed field rather than
    surfacing an opaque ``KeyError`` from deep inside ``restore``.
    """
    for section, expected, keys in _STATE_SECTIONS:
        if section not in doc:
            raise ValueError(
                f"DetectorState payload missing section {section!r}"
            )
        body: Any = doc[section]
        if not isinstance(body, expected):
            raise ValueError(
                f"DetectorState section {section!r} must be a "
                f"{expected.__name__}, got {type(body).__name__}"
            )
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
        for f in fields(Alert):
            if f.name not in alert:
                raise ValueError(
                    f"DetectorState alert #{k} missing field {f.name!r}"
                )


@dataclass(frozen=True)
class DetectorState:
    """Serializable snapshot of every piece of cross-chunk carry.

    Grouped by pipeline stage, each section written and read by its owner:

    - ``config`` — shape echo (``n_channels``, ``sample_rate``,
      ``filter_window``) validated on :meth:`DetectionEngine.restore` so a
      checkpoint cannot silently resume against a different setup.
    - ``progress`` — ``samples_seen``, ``buf_start``, plus the engine's
      buffered clean-sample tail (``buffer``) and its per-row repair mask
      (``bad``).
    - ``sanitize`` — the :class:`~repro.core.health.Sanitizer`'s
      forward-fill seeds, dark-run bookkeeping, and fail-closed
      sensor-fault state.
    - ``sync`` — the :meth:`~repro.sync.base.SyncCursor.state_dict` of the
      synchronizer cursor (DWM history or a batch adapter's buffer).
    - ``evidence`` — the :class:`EvidenceAccumulator`'s per-index evidence
      tail (CADHD, raw/filtered distances, quarantined indexes).
    - ``alerts`` / ``fired`` — its alert state, so a restored run neither
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

    Composes the stage objects — :class:`~repro.core.health.Sanitizer`,
    the synchronizer's :class:`~repro.sync.base.SyncCursor` and
    :class:`EvidenceAccumulator` — around the buffered tail of clean
    samples the compare stage reads, and runs them in order.

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
    """

    def __init__(
        self,
        reference: Signal,
        synchronizer: Synchronizer,
        thresholds: Optional[Thresholds] = None,
        metric: Union[str, DistanceFn] = "correlation",
        filter_window: int = 3,
        policy: Optional[SanitizePolicy] = None,
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
        # Preallocated tail buffers (amortized O(chunk) appends, logical
        # prefix trims) of clean samples and their per-row repair mask,
        # read by the compare stage and the quarantine check; both address
        # samples by absolute stream index.
        self._ring = SampleRing(n_ch)
        self._bad_ring = SampleRing(None, dtype=bool)
        self._finalized = False
        self._sanitizer = Sanitizer(n_ch, self._rate, self.policy)
        self._evidence = EvidenceAccumulator(thresholds, filter_window)

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
        return list(self._evidence.alerts)

    @property
    def intrusion_detected(self) -> bool:
        """True once any sub-module (or the sensor-fault rule) fired."""
        return bool(self._evidence.alerts)

    @property
    def n_indexes(self) -> int:
        """Number of synchronized indexes evaluated so far."""
        return len(self._evidence.c_hist)

    @property
    def samples_seen(self) -> int:
        """Absolute number of samples pushed so far.

        This is the resume cursor of the checkpoint/replay contract: a
        client that re-feeds the stream from exactly this sample after a
        :meth:`restore` reproduces the uninterrupted run bit-identically.
        """
        return self._sanitizer.n_samples

    @property
    def n_quarantined(self) -> int:
        """Number of indexes whose input samples had to be repaired."""
        return len(self._evidence.quarantined)

    @property
    def sensor_fault_fired(self) -> bool:
        """True once the fail-closed SENSOR_FAULT verdict fired."""
        return self._sanitizer.fault_fired

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
            clean, bad_rows = self._sanitizer.push(samples)
            self._ring.append(clean)
            self._bad_ring.append(bad_rows)
            emitted = self._cursor.push(clean)
            new_alerts = self._ingest(emitted, v_pre=None)
            self._trim()
            return new_alerts
        t0 = time.perf_counter()
        with obs.trace("repro.core.engine.push"):
            with obs.trace("sanitize"):
                clean, bad_rows = self._sanitizer.push(samples)
            self._ring.append(clean)
            self._bad_ring.append(bad_rows)
            with obs.trace("synchronize"):
                emitted = self._cursor.push(clean)
            new_alerts = self._ingest(emitted, v_pre=None)
            self._trim()
        latency_s = time.perf_counter() - t0
        obs.counter("repro.core.engine.samples").inc(samples.shape[0])
        if new_alerts:
            obs.counter("repro.core.engine.alerts").inc(len(new_alerts))
        obs.histogram("repro.core.engine.chunk_latency_s").observe(latency_s)
        return new_alerts

    def finalize(self) -> EngineResult:
        """Flush the cursor, run the end-of-run checks, assemble the result.

        Terminal: further :meth:`push`/:meth:`finalize` calls raise.
        """
        if self._finalized:
            raise RuntimeError("finalize() may only be called once")
        self._finalized = True
        ev = self._evidence
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
            san = self._sanitizer
            if san.fraction_rule():
                self._fire_sensor_fault(
                    ev.alerts, ("nonfinite_fraction",), san.n_samples,
                    san.longest_dark,
                )
            features = DetectionFeatures(
                c_disp=np.asarray(ev.c_hist, dtype=np.float64),
                h_dist_filtered=np.asarray(ev.h_f, dtype=np.float64),
                v_dist_filtered=np.asarray(ev.v_f, dtype=np.float64),
                duration_mismatch=self._duration_mismatch(sync),
            )
            v_dist = (
                v_pre
                if v_pre is not None
                else np.asarray(ev.v_hist, dtype=np.float64)
            )
            detection: Optional[Detection] = None
            if self.thresholds is not None:
                with obs.trace("discriminate"):
                    detection = self._stage_discriminate_run(features, sync)
        return EngineResult(
            sync=sync,
            v_dist=v_dist,
            features=features,
            health=san.health(),
            quarantined_windows=tuple(ev.quarantined),
            detection=detection,
            alerts=tuple(ev.alerts),
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
        ev = self._evidence
        return {
            "h_disp": self._cursor.result().h_disp,
            "c_disp": ev.c_disp,
            "c_disp_curve": np.asarray(ev.c_hist, dtype=np.float64),
            "h_dist_filtered": np.asarray(ev.h_f, dtype=np.float64),
            "v_dist_filtered": np.asarray(ev.v_f, dtype=np.float64),
        }

    def health_dict(self) -> Dict[str, object]:
        """JSON-safe channel-health snapshot of the run so far.

        ``ChannelHealth.to_dict()`` plus the quarantined-index list;
        usable mid-stream, and the final ``Detection.health`` payload once
        the run is finalized.
        """
        return {
            **self._sanitizer.health().to_dict(),
            "quarantined_windows": list(self._evidence.quarantined),
        }

    # ------------------------------------------------------------------
    # Checkpoint / resume
    # ------------------------------------------------------------------
    def _config(self) -> Dict[str, object]:
        return {
            "n_channels": self._n_channels,
            "sample_rate": self._rate,
            "filter_window": self.filter_window,
        }

    def state(self) -> DetectorState:
        """Snapshot every piece of cross-chunk carry as a
        :class:`DetectorState`.

        Call between :meth:`push` invocations (not after
        :meth:`finalize`); restoring the snapshot into a fresh engine
        built with the same configuration continues the run bit-exactly.
        """
        if self._finalized:
            raise RuntimeError("cannot snapshot a finalized engine")
        return DetectorState(
            config=self._config(),
            progress={
                # One C-level tolist() per array (not per-element Python
                # loops): checkpointing happens mid-stream, on the clock.
                "samples_seen": int(self.samples_seen),
                "buf_start": int(self._ring.start),
                "buffer": self._ring.tail().tolist(),
                "bad": self._bad_ring.tail().tolist(),
            },
            sanitize=self._sanitizer.state_dict(),
            sync=self._cursor.state_dict(),
            **self._evidence.state_dict(),  # type: ignore[arg-type]
        )

    def restore(self, state: DetectorState) -> None:
        """Load a :meth:`state` snapshot into this (fresh) engine.

        The engine must have been constructed with the same reference,
        synchronizer type, and parameters; the configuration echo inside
        the state is validated against this engine's.
        """
        for key, want in self._config().items():
            if state.config.get(key) != want:
                raise ValueError(
                    f"checkpoint/config mismatch on {key!r}: "
                    f"state has {state.config.get(key)!r}, engine has {want!r}"
                )
        prog: Mapping[str, Any] = state.progress
        buf_start = int(prog["buf_start"])
        self._ring.load(
            np.asarray(prog["buffer"], dtype=np.float64), buf_start
        )
        self._bad_ring.load(np.asarray(prog["bad"], dtype=bool), buf_start)
        self._finalized = False
        self._sanitizer.load_state_dict(state.sanitize, prog["samples_seen"])
        self._cursor.load_state_dict(dict(state.sync))
        self._evidence.load_state_dict(state)

    # ------------------------------------------------------------------
    # Stages 2-4: synchronize / compare / discriminate per index
    # ------------------------------------------------------------------
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
        window = self.n_indexes
        self._sanitizer.fire(reasons, window)
        if not self.armed:
            return
        time_s = t_sample / self._rate
        longest_s = longest_at_t / self._rate
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
        self._evidence.raise_alert(
            Alert(window, SENSOR_FAULT, longest_s, self.policy.max_dark_s, time_s),
            sink,
        )

    def _ingest(
        self,
        emitted: Sequence[Tuple[int, float]],
        v_pre: Optional[np.ndarray],
    ) -> List[Alert]:
        """Evaluate newly synchronized indexes, interleaving the pending
        sensor fault at its exact crossing sample.  Compare scores the
        whole batch first; events are then emitted in index order."""
        new_alerts: List[Alert] = []
        san = self._sanitizer
        if emitted:
            n_win, n_hop = self._cursor.n_win, self._cursor.n_hop
            for i, disp, v, n in zip(*self._stage_compare(emitted, v_pre)):
                pending = san.pending_fault
                if pending is not None and i * n_hop + n_win > pending[0]:
                    san.pending_fault = None
                    self._fire_sensor_fault(
                        new_alerts, ("dark_channel",), *pending
                    )
                if n is not None:
                    if obs.enabled():
                        obs.counter("repro.core.engine.truncated_windows").inc()
                    if events.enabled():
                        events.log().emit("window_truncated", window=i, n=n)
                self._quarantine_check(i)
                time_s = i * n_hop / self._rate
                self._evidence.add(i, disp, v, time_s, new_alerts)
        if san.pending_fault is not None:
            pending, san.pending_fault = san.pending_fault, None
            self._fire_sensor_fault(new_alerts, ("dark_channel",), *pending)
        self._evidence.alerts.extend(new_alerts)
        return new_alerts

    def _stage_compare(
        self,
        emitted: Sequence[Tuple[int, float]],
        v_pre: Optional[np.ndarray],
    ) -> Tuple[List[int], List[float], List[float], List[Optional[int]]]:
        """Vertical distances for one batch of emitted indexes.

        Returns, per index, the index, the displacement the evidence folds
        in, the vertical distance, and the overlap ``n`` of a walked-off
        window (else ``None``).  A non-finite displacement would poison
        the cumulative CADHD for the rest of the print, so the previous
        estimate is held and the index reports worst-case vertical
        evidence.  Window mode (Eq. 16) scores the batch in one
        :meth:`~repro.core.comparator.Comparator.window_distances` call;
        point mode (Eq. 15) reads the distances computed over the warping
        path and windows only a degenerate index.
        """
        idx: List[int] = []
        disps: List[float] = []
        held: List[int] = []
        prev = self._evidence.prev_disp
        for j, (i, disp) in enumerate(emitted):
            if math.isfinite(disp):
                prev = float(disp)
            else:
                held.append(j)
            idx.append(int(i))
            disps.append(prev)
        tail, start = self._ring.tail(), self._ring.start
        ref = self.reference.data
        n_win, n_hop = self._cursor.n_win, self._cursor.n_hop
        if v_pre is None:
            pos: Sequence[int] = range(len(idx))
            dist, overlap = self._comparator.window_distances(
                tail, start, ref, idx, disps, n_win, n_hop
            )
        else:
            pos = held
            dist = [float(v_pre[i]) for i in idx]
            _, overlap = self._comparator.window_distances(
                tail, start, ref, [idx[j] for j in held],
                [disps[j] for j in held], n_win, n_hop,
            )
        cut: List[Optional[int]] = [None] * len(idx)
        for j, n in zip(pos, overlap):
            if n < 2 or j in held:
                cut[j], dist[j] = n, TRUNCATED_WINDOW_DISTANCE
        return idx, disps, dist, cut

    def _quarantine_check(self, i: int) -> None:
        """Flag an index whose input samples had to be repaired."""
        if self._sanitizer.n_nonfinite == 0:
            # Nothing was ever repaired, so no window can be quarantined;
            # skip the per-window mask scan on healthy streams.
            return
        if self._cursor.mode == "window":
            start = i * self._cursor.n_hop
            n_win = self._cursor.n_win
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
        self._evidence.quarantined.append(i)
        if obs.enabled():
            obs.counter("repro.core.engine.quarantined_windows").inc()
        if events.enabled():
            events.log().emit("window_quarantined", window=i, n_bad=n_bad)

    def _trim(self) -> None:
        """Drop the buffered prefix every evaluated window has consumed."""
        low = self.n_indexes * self._cursor.n_hop
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
        n = self.samples_seen
        if sync.mode == "window":
            n_obs = (
                0 if n < sync.n_win else 1 + (n - sync.n_win) // sync.n_hop
            )
            n_ref = self.reference.n_windows(sync.n_win, sync.n_hop)
        else:
            n_obs = n
            n_ref = self.reference.n_samples
        return float(max(abs(n_obs - n_ref), n_obs - sync.n_indexes))

    def _stage_discriminate_run(
        self,
        features: DetectionFeatures,
        sync: SyncResult,
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
                self.samples_seen / self._rate,
            )
            self._evidence.raise_alert(alert, self._evidence.alerts)
        first = verdict.first_alarm_index
        if self._sanitizer.fault_fired:
            fault_at = self._sanitizer.fault_window or 0
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
        verdict = replace(verdict, health=self.health_dict())
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
