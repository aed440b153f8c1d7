"""Real-time NSYNC: intrusion detection while the print is still running.

The batch :class:`~repro.core.pipeline.NsyncIds` analyzes a finished
recording; :class:`StreamingNsyncIds` consumes the observed signal in
chunks as the data-acquisition system delivers it.  It *is* a
:class:`~repro.core.engine.DetectionEngine` — armed, with streaming DWM as
the synchronizer — which evaluates all three discriminator sub-modules
incrementally, raising an :class:`~repro.core.engine.Alert` at the first
window whose evidence crosses a threshold — the point at which a
deployment would stop the printer.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

from ..signals.signal import Signal
from ..sync.dwm import DwmParams, DwmSynchronizer
from .comparator import DistanceFn
from .discriminator import Thresholds
from .engine import (  # noqa: F401  (Alert/TRUNCATED_WINDOW_DISTANCE re-export)
    Alert,
    DetectionEngine,
    TRUNCATED_WINDOW_DISTANCE,
)
from .health import SanitizePolicy

__all__ = ["Alert", "StreamingNsyncIds", "TRUNCATED_WINDOW_DISTANCE"]


class StreamingNsyncIds(DetectionEngine):
    """Chunk-by-chunk NSYNC with DWM as the synchronizer.

    Parameters mirror :class:`~repro.core.pipeline.NsyncIds`, except the
    synchronizer is built from DWM ``params`` and the thresholds must
    already be known (learn them offline with the batch pipeline, then
    deploy here).  Everything else — ``push``, ``finalize``, ``alerts``,
    ``evidence``, ``state``/``restore`` — is the engine's own surface.
    """

    def __init__(
        self,
        reference: Signal,
        params: DwmParams,
        thresholds: Thresholds,
        metric: Union[str, DistanceFn] = "correlation",
        filter_window: int = 3,
        policy: Optional[SanitizePolicy] = None,
    ) -> None:
        super().__init__(
            reference,
            DwmSynchronizer(params),
            thresholds=thresholds,
            metric=metric,
            filter_window=filter_window,
            policy=policy,
        )

    @property
    def engine(self) -> DetectionEngine:
        """This detector itself — it *is* the engine — for ``.engine``
        call sites such as checkpoint/resume code."""
        return self

    def health(self) -> Dict[str, object]:
        """Channel-health snapshot; alias of :meth:`health_dict`."""
        return self.health_dict()
