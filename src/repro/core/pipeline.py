"""The NSYNC IDS pipeline (paper Section VII, Fig. 7) — batch facade.

All detection math lives in :class:`repro.core.engine.DetectionEngine`;
:class:`NsyncIds` is the batch calling convention over it: feed the whole
observed signal as one chunk, finalize, return the result.  The streaming
detector (:class:`repro.core.streaming.StreamingNsyncIds`) is the same
engine fed chunk by chunk, so batch/streaming parity is structural — there
is only one implementation to agree with itself.

Typical usage::

    ids = NsyncIds(reference, DwmSynchronizer(UM3_DWM_PARAMS))
    ids.fit(benign_signals, r=0.3)
    verdict = ids.detect(observed_signal)
    if verdict.is_intrusion:
        stop_the_printer()
"""

from __future__ import annotations

from typing import Iterable, Optional, Union

from .. import obs
from ..signals.signal import Signal
from ..sync.base import Synchronizer
from .comparator import DistanceFn
from .discriminator import Detection, Thresholds
from .engine import DetectionEngine, EngineResult
from .health import SanitizePolicy
from .occ import OneClassTrainer

__all__ = ["AnalysisResult", "NsyncIds"]

#: What :meth:`NsyncIds.analyze` returns: the finalized, un-thresholded
#: :class:`~repro.core.engine.EngineResult` (``detection`` is ``None``).
AnalysisResult = EngineResult


class NsyncIds:
    """A complete NSYNC intrusion-detection system for one reference signal.

    Parameters
    ----------
    reference:
        The reference side-channel signal ``b``, recorded from (or simulated
        for) a known-benign printing process.
    synchronizer:
        Any :class:`~repro.sync.base.Synchronizer`; the paper evaluates
        :class:`~repro.sync.dwm.DwmSynchronizer` and
        :class:`~repro.sync.fastdtw.FastDtwSynchronizer`.
    metric:
        Vertical-distance metric (default the correlation distance).
    filter_window:
        Spike-suppression window for the discriminator (default 3).
    policy:
        Input-sanitization thresholds (see
        :class:`~repro.core.health.SanitizePolicy`).  ``None`` uses the
        defaults; pass ``SanitizePolicy(enabled=False)`` to disable the
        fail-closed sensor-fault verdict (non-finite samples are still
        repaired and health still reported).
    """

    def __init__(
        self,
        reference: Signal,
        synchronizer: Synchronizer,
        metric: Union[str, DistanceFn] = "correlation",
        filter_window: int = 3,
        policy: Optional[SanitizePolicy] = None,
    ) -> None:
        self.reference = reference
        self.synchronizer = synchronizer
        self.filter_window = filter_window
        self.policy = policy if policy is not None else SanitizePolicy()
        self.thresholds: Optional[Thresholds] = None
        self._metric = metric

    # ------------------------------------------------------------------
    def engine(self, armed: bool = True) -> DetectionEngine:
        """Open a fresh :class:`~repro.core.engine.DetectionEngine`.

        With ``armed=True`` (the default) the engine carries this IDS's
        learned thresholds and raises alerts; this is the handle to use
        for chunked ingestion (the CLI's ``detect --stream`` path) or for
        checkpoint/resume via ``DetectorState``.
        """
        return DetectionEngine(
            self.reference,
            self.synchronizer,
            thresholds=self.thresholds if armed else None,
            metric=self._metric,
            filter_window=self.filter_window,
            policy=self.policy,
        )

    def _run(self, observed: Signal, armed: bool) -> EngineResult:
        """Feed the whole signal as one chunk and finalize."""
        if observed.sample_rate != self.reference.sample_rate:
            raise ValueError(
                f"sample rates differ: a={observed.sample_rate}, "
                f"b={self.reference.sample_rate}"
            )
        eng = self.engine(armed=armed)
        with obs.trace("repro.core.pipeline.analyze"):
            eng.push(observed.data)
            return eng.finalize()

    def analyze(self, observed: Signal) -> EngineResult:
        """Sanitize, synchronize, compare, and featurize one signal.

        Degenerate input (NaN/inf samples) is repaired before any
        detection math runs, so the returned evidence arrays are always
        finite; the affected windows are flagged as quarantined and the
        channel-health verdict rides along on the result.
        """
        return self._run(observed, armed=False)

    def fit(self, benign_signals: Iterable[Signal], r: float = 0.3) -> Thresholds:
        """Learn the discriminator thresholds from benign runs (Eq. 23-28).

        A training run that trips the sanitization stage's sensor-fault
        verdict is rejected outright — thresholds learned from a dark or
        NaN-flooded channel would be meaningless and silently permissive.
        """
        trainer = OneClassTrainer(r=r)
        for k, signal in enumerate(benign_signals):
            analysis = self.analyze(signal)
            if analysis.health.sensor_fault:
                raise ValueError(
                    f"training run {k} failed input sanitization "
                    f"({', '.join(analysis.health.reasons)}); refusing to "
                    "learn thresholds from a faulty channel"
                )
            trainer.add_run(analysis.features)
        self.thresholds = trainer.thresholds()
        return self.thresholds

    def detect(self, observed: Signal) -> Detection:
        """Full pipeline: analyze the signal and apply the discriminator.

        The returned verdict carries ``first_alarm_time`` (seconds into the
        print), derived from the synchronizer's window geometry, plus the
        channel-health report of the sanitization stage.  A sensor-fault
        verdict is **fail-closed**: it raises the intrusion flag even when
        no content sub-module fired.
        """
        if self.thresholds is None:
            raise RuntimeError("call fit() (or set thresholds) before detect()")
        result = self._run(observed, armed=True)
        verdict = result.detection
        assert verdict is not None
        return verdict
