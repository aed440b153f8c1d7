"""Comparator: vertical-distance calculation (paper Section VII-A).

Given two signals and the horizontal displacements produced by a dynamic
synchronizer, the comparator computes the *vertical distance* array
``v_dist``: one distance per synchronized window (Eq. 16, DWM) or per
synchronized point (Eq. 15, DTW).  NSYNC defaults to the correlation
distance because it is insensitive to per-run gain changes.
"""

from __future__ import annotations

import math
from typing import Callable, Union

import numpy as np

from .. import obs
from ..signals.metrics import _EPS as _METRIC_EPS
from ..signals.metrics import DISTANCE_METRICS, correlation_distance
from ..signals.signal import Signal
from ..sync.base import SyncResult

__all__ = [
    "Comparator",
    "vertical_distances",
    "stack_axis",
    "MAX_CORRELATION_DISTANCE",
]

DistanceFn = Callable[[np.ndarray, np.ndarray], float]

#: Worst-case correlation distance (Eq. 14): ``1 - r`` with ``r in [-1, 1]``
#: tops out at 2.0 (perfect anti-correlation).  Used as the pessimistic
#: fallback whenever a window pair is too short to correlate (< 2 samples)
#: or the synchronizer hands over a non-finite displacement — both mean it
#: has walked off the reference — and the discriminator must see the worst
#: value, not a silent skip (and never a NaN, which would compare as benign
#: against every threshold).
MAX_CORRELATION_DISTANCE = 2.0

#: Amplitude spread below which a window counts as constant (zero-variance);
#: matches the ``_EPS`` guard inside :mod:`repro.signals.metrics`.
_CONSTANT_EPS = 1e-12


def stack_axis(n_channels: int) -> int:
    """Window axis of a window-pair stack bit-identical to the scalar path.

    The scalar :meth:`Comparator.pair_distance` reduces each ``(n, c)``
    window over axis 0.  For ``c >= 2`` numpy adds the rows in sequence,
    and so it does over axis 0 of a window-major ``(n, k, c)`` stack, whose
    inner loops are then ``k * c`` wide: returns 0.  For ``c == 1`` the
    window is one contiguous run that numpy sums *pairwise*; only a
    pair-major ``(k, n, 1)`` stack, reduced over axis 1, keeps that order:
    returns 1.
    """
    return 0 if n_channels > 1 else 1


def _is_constant(window: np.ndarray) -> bool:
    """True when every channel of the window has zero amplitude spread."""
    return bool(np.all(np.ptp(window, axis=0) <= _CONSTANT_EPS))


def _resolve_metric(metric: Union[str, DistanceFn]) -> DistanceFn:
    if callable(metric):
        return metric
    try:
        return DISTANCE_METRICS[metric]
    except KeyError:
        raise ValueError(
            f"unknown distance metric {metric!r}; "
            f"expected one of {sorted(DISTANCE_METRICS)}"
        ) from None


class Comparator:
    """Computes vertical distances between synchronized signals.

    Parameters
    ----------
    metric:
        A distance-metric name from
        :data:`repro.signals.metrics.DISTANCE_METRICS` or a callable
        ``d(u, v) -> float``.  Default: ``"correlation"`` (Eq. 14).
    """

    def __init__(self, metric: Union[str, DistanceFn] = "correlation") -> None:
        self.metric = _resolve_metric(metric)
        # The zero-variance special cases below only make sense for the
        # correlation distance (Pearson's r is undefined on a constant
        # window); other metrics remain well-defined there and are left
        # alone.
        self._correlation_like = self.metric is correlation_distance

    def vertical_distances(
        self, a: Signal, b: Signal, sync: SyncResult
    ) -> np.ndarray:
        """Vertical distance array ``v_dist`` for a synchronized pair.

        Window mode pairs ``a{i}`` with ``b{i; h_disp[i]}`` (Eq. 16); the
        pair is truncated to the shorter of the two when a window is clipped
        by a signal boundary.  Point mode evaluates ``d(a[i], b[j])`` over
        the warping path and averages duplicates (Eq. 15).
        """
        if sync.mode == "window":
            return self._window_distances(a, b, sync)
        return self._point_distances(a, b, sync)

    # ------------------------------------------------------------------
    def pair_distance(self, wa: np.ndarray, wb: np.ndarray) -> float:
        """Distance between one already-truncated window pair, never NaN.

        Adds two guard layers on top of the raw metric:

        * **Zero-variance windows** (correlation metric only): Pearson's r
          is undefined on a constant window.  A constant window matched
          against a varying one means the observed content bears no
          resemblance to the reference (e.g. a frozen printhead), so it
          maps to :data:`MAX_CORRELATION_DISTANCE`; two constant windows
          with identical values are indistinguishable and map to ``0.0``
          (two *different* constants still map to the maximum).
        * **Finiteness**: whatever the metric returns, a non-finite value
          is clamped to :data:`MAX_CORRELATION_DISTANCE` — NaN compares
          ``False`` against every threshold, which would make the IDS fail
          open on degenerate input.
        """
        if self._correlation_like:
            ca, cb = _is_constant(wa), _is_constant(wb)
            if ca or cb:
                if ca and cb and np.array_equal(wa[:1], wb[:1]):
                    return 0.0
                return MAX_CORRELATION_DISTANCE
        value = float(self.metric(wa, wb))
        return value if math.isfinite(value) else MAX_CORRELATION_DISTANCE

    def pair_distances(
        self, wa: np.ndarray, wb: np.ndarray, axis: int = 1
    ) -> np.ndarray:
        """Batched :meth:`pair_distance` over stacked window pairs.

        ``axis`` is the stacks' window (sample) axis and the reduction
        axis; the other of axes 0 and 1 indexes the pairs, and channels
        come last.  ``axis=1`` takes pair-major ``(k, n, c)`` stacks,
        ``axis=0`` window-major ``(n, k, c)`` ones, whose reductions run
        ``k * c`` wide.  :func:`stack_axis` names the layout that makes the
        result bit-identical to calling :meth:`pair_distance` on each pair
        in turn: the batched reductions then add the same float64 values in
        the same order as the scalar reference (differential-tested).  Only
        the correlation metric vectorizes — any other metric is an opaque
        ``d(u, v) -> float`` callable and falls back to the per-pair loop.
        """
        wa = np.asarray(wa, dtype=np.float64)
        wb = np.asarray(wb, dtype=np.float64)
        if wa.ndim != 3 or wa.shape != wb.shape:
            raise ValueError(
                f"expected matching 3-D window stacks, "
                f"got {wa.shape} vs {wb.shape}"
            )
        if axis not in (0, 1):
            raise ValueError(f"window axis must be 0 or 1, got {axis!r}")
        pairs = 1 - axis
        k = wa.shape[pairs]
        out = np.empty(k)
        if k == 0:
            return out
        if not self._correlation_like:
            for j in range(k):
                out[j] = self.pair_distance(
                    np.take(wa, j, pairs), np.take(wb, j, pairs)
                )
            return out
        # Per-pair, per-channel summaries come out (k, c) in either layout.
        ca = np.all(np.ptp(wa, axis=axis) <= _CONSTANT_EPS, axis=1)
        cb = np.all(np.ptp(wb, axis=axis) <= _CONSTANT_EPS, axis=1)
        special = ca | cb
        if special.any():
            out[special] = MAX_CORRELATION_DISTANCE
            both = ca & cb
            if both.any():
                first_a, first_b = np.take(wa, 0, axis), np.take(wb, 0, axis)
                same = both & np.all(first_a == first_b, axis=1)
                out[same] = 0.0
        rest = ~special
        if rest.any():
            u, v = wa, wb
            if not rest.all():
                u, v = np.compress(rest, wa, pairs), np.compress(rest, wb, pairs)
            du = u - u.mean(axis=axis, keepdims=True)
            dv = v - v.mean(axis=axis, keepdims=True)
            # np.linalg.norm is sqrt(add.reduce(d * d)); one scratch array
            # holds each product in turn.
            prod = du * dv
            num = np.add.reduce(prod, axis=axis)
            np.multiply(du, du, out=prod)
            den = np.sqrt(np.add.reduce(prod, axis=axis))
            np.multiply(dv, dv, out=prod)
            den *= np.sqrt(np.add.reduce(prod, axis=axis))
            scores = np.where(
                den > _METRIC_EPS, num / np.maximum(den, _METRIC_EPS), 0.0
            )
            vals = 1.0 - scores.mean(axis=1)
            out[rest] = np.where(
                np.isfinite(vals), vals, MAX_CORRELATION_DISTANCE
            )
        return out

    def _window_distances(
        self, a: Signal, b: Signal, sync: SyncResult
    ) -> np.ndarray:
        """Vertical distances for every synchronized window (Eq. 16).

        Fast path: all windows that lie fully inside both signals with a
        finite displacement are gathered into one stack, laid out as
        :func:`stack_axis` says, and scored by a single
        :meth:`pair_distances` call.  Boundary-clipped, degenerate, or
        non-finitely-displaced windows take the scalar per-window route,
        which owns the walk-off accounting.
        """
        n_win, n_hop = sync.n_win, sync.n_hop
        k = sync.n_indexes
        if k == 0 or n_win < 2 or not self._correlation_like:
            return self._window_distances_scalar(a, b, sync)
        h = np.asarray(sync.h_disp, dtype=np.float64)
        starts = np.arange(k, dtype=np.float64) * n_hop
        # Eligibility is decided in float64 so absurd displacements (1e300
        # from a walked-off synchronizer) cannot overflow an int cast; the
        # ineligible windows fall through to the scalar path, which works
        # in exact Python ints.
        b0f = starts + np.round(h)
        eligible = (
            np.isfinite(h)
            & (b0f >= 0.0)
            & (b0f + n_win <= b.n_samples)
            & (starts + n_win <= a.n_samples)
        )
        out = np.empty(k)
        idx = np.flatnonzero(eligible)
        if idx.size:
            axis = stack_axis(a.n_channels)
            span = np.expand_dims(np.arange(n_win), 1 - axis)
            a0 = np.expand_dims(idx * n_hop, axis)
            b0 = np.expand_dims(b0f[idx].astype(np.int64), axis)
            out[idx] = self.pair_distances(
                a.data[a0 + span, :], b.data[b0 + span, :], axis
            )
        for i in np.flatnonzero(~eligible):
            out[i] = self._one_window_distance(a, b, sync, int(i))
        return out

    def _window_distances_scalar(
        self, a: Signal, b: Signal, sync: SyncResult
    ) -> np.ndarray:
        """Reference implementation: one :meth:`pair_distance` per window.

        Kept verbatim as the bit-exactness oracle for the vectorized
        :meth:`_window_distances` (differential-tested), and used directly
        for non-correlation metrics and sub-2-sample windows.
        """
        out = np.empty(sync.n_indexes)
        for i in range(sync.n_indexes):
            out[i] = self._one_window_distance(a, b, sync, i)
        return out

    def _one_window_distance(
        self, a: Signal, b: Signal, sync: SyncResult, i: int
    ) -> float:
        n_win, n_hop = sync.n_win, sync.n_hop
        h = float(sync.h_disp[i])
        if not math.isfinite(h):
            # A non-finite displacement estimate is a synchronizer
            # walk-off, not a crash: int(round(nan)) would raise
            # mid-detection.  Score the window as worst-case instead.
            self._note_walkoff(i, 0)
            return MAX_CORRELATION_DISTANCE
        disp = int(round(h))
        wa = a.window(i, n_win, n_hop).data
        wb = b.window(i, n_win, n_hop, offset=disp).data
        n = min(wa.shape[0], wb.shape[0])
        if n < 2:
            # A vanishing window means the synchronizer walked off the
            # reference (overrun, or an offset so negative the window
            # clamps to nothing); report the worst correlation distance
            # so the discriminator sees it.
            self._note_walkoff(i, n)
            return MAX_CORRELATION_DISTANCE
        return self.pair_distance(wa[:n], wb[:n])

    @staticmethod
    def _note_walkoff(window: int, n: int) -> None:
        """Account one walked-off window.

        Counter only: the ``window_truncated`` *event* is emitted solely by
        the detection engine (:mod:`repro.core.engine`), which owns all
        provenance emission; the standalone comparator API keeps the metric
        so direct callers still see walk-offs in the metrics snapshot.
        """
        if obs.enabled():
            obs.counter("repro.core.comparator.truncated_windows").inc()

    def _point_distances(self, a: Signal, b: Signal, sync: SyncResult) -> np.ndarray:
        if sync.pairs is None:
            raise ValueError("point-mode SyncResult is missing its warping path")
        sums = np.zeros(a.n_samples)
        counts = np.zeros(a.n_samples)
        for i, j in sync.pairs:
            if i >= a.n_samples or j >= b.n_samples:
                continue
            # A point's channel vector plays the role of the 1-D input.
            sums[i] += self.metric(a.data[i, :], b.data[j, :])
            counts[i] += 1
        out = np.zeros(a.n_samples)
        mask = counts > 0
        out[mask] = sums[mask] / counts[mask]
        return out


def vertical_distances(
    a: Signal,
    b: Signal,
    sync: SyncResult,
    metric: Union[str, DistanceFn] = "correlation",
) -> np.ndarray:
    """Functional shortcut for :meth:`Comparator.vertical_distances`."""
    return Comparator(metric).vertical_distances(a, b, sync)
