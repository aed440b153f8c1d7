"""Comparator: vertical-distance calculation (paper Section VII-A).

Given two signals and the horizontal displacements produced by a dynamic
synchronizer, the comparator computes the *vertical distance* array
``v_dist``: one distance per synchronized window (Eq. 16, DWM) or per
synchronized point (Eq. 15, DTW).  NSYNC defaults to the correlation
distance because it is insensitive to per-run gain changes.
"""

from __future__ import annotations

import math
from typing import Callable, List, Sequence, Tuple, Union

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
        if sync.mode != "window":
            return self._point_distances(a, b, sync)
        dist, n = self.window_distances(
            a.data, 0, b.data, range(sync.n_indexes), sync.h_disp,
            sync.n_win, sync.n_hop,
        )
        # Counted, never emitted: the detection engine owns every
        # ``window_truncated`` event; direct callers see walk-offs in the
        # metrics snapshot.
        walkoffs = sum(m < 2 for m in n)
        if walkoffs and obs.enabled():
            obs.counter("repro.core.comparator.truncated_windows").inc(walkoffs)
        return np.array(dist)

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

    def window_distances(
        self,
        a: np.ndarray,
        a_start: int,
        b: np.ndarray,
        index: Sequence[int],
        disp: Sequence[float],
        n_win: int,
        n_hop: int,
    ) -> Tuple[List[float], List[int]]:
        """Score windows ``a{i}`` against ``b{i; disp}`` (Eq. 16).

        ``a`` is an observed block whose first row is absolute sample
        ``a_start`` (a whole signal at 0, or the engine's buffered tail).
        Window ``index[j]`` starts at sample ``index[j] * n_hop`` of ``a``
        and at that plus ``round(disp[j])`` of the reference ``b``; a pair
        clipped by a signal boundary is cut to its overlap ``n``.  Returns
        each window's distance and ``n``: ``n < 2`` scores
        :data:`MAX_CORRELATION_DISTANCE`, as does a non-finite displacement
        (``n`` 0).  Nothing is counted or emitted; callers account
        walk-offs in their own order.

        The pairs that lie fully inside both signals are gathered in the
        :func:`stack_axis` layout and scored by one :meth:`pair_distances`
        call, bit-identical per pair to :meth:`pair_distance`, which scores
        clipped pairs, other metrics and a lone window (the cheaper call).
        """
        k = len(index)
        n_a, n_b = a.shape[0], b.shape[0]
        dist = [MAX_CORRELATION_DISTANCE] * k
        n = [0] * k
        batch = k > 1 and n_win >= 2 and self._correlation_like
        full: List[int] = []
        a0: List[int] = []
        b0: List[int] = []
        for j in range(k):
            h = float(disp[j])
            if not math.isfinite(h):
                # A synchronizer walk-off, not a crash: int(round(nan))
                # would raise mid-detection.
                continue
            s = int(index[j]) * n_hop
            lo = s + int(round(h))
            s -= a_start
            if s < 0:
                raise IndexError(
                    f"window {index[j]} starts before sample {a_start}"
                )
            if batch and lo >= 0 and lo + n_win <= n_b and s + n_win <= n_a:
                full.append(j)
                a0.append(s)
                b0.append(lo)
                continue
            wa = a[s : s + n_win]
            wb = b[min(max(lo, 0), n_b) : max(lo + n_win, 0)]
            n[j] = m = min(wa.shape[0], wb.shape[0])
            if m == n_win:  # skip re-slicing a lone whole pair
                dist[j] = self.pair_distance(wa, wb)
            elif m >= 2:
                dist[j] = self.pair_distance(wa[:m], wb[:m])
        if full:
            axis = stack_axis(a.shape[1])
            span = np.arange(n_win)[:, np.newaxis]
            wa, wb = (
                np.take(x, (span + rows).T if axis else span + rows, axis=0)
                for x, rows in ((a, a0), (b, b0))
            )
            scores = self.pair_distances(wa, wb, axis)
            for j, v in zip(full, scores.tolist()):
                dist[j], n[j] = v, n_win
        return dist, n

    def _window_distances_scalar(
        self, a: Signal, b: Signal, sync: SyncResult
    ) -> np.ndarray:
        """Reference implementation: one :meth:`pair_distance` per window.

        Kept as the bit-exactness oracle for :meth:`window_distances`
        (differential-tested, and the reference of ``repro diff --pair
        comparator``).
        """
        n_win, n_hop = sync.n_win, sync.n_hop
        out = np.empty(sync.n_indexes)
        for i in range(sync.n_indexes):
            h = float(sync.h_disp[i])
            if not math.isfinite(h):
                out[i] = MAX_CORRELATION_DISTANCE
                continue
            wa = a.window(i, n_win, n_hop).data
            wb = b.window(i, n_win, n_hop, offset=int(round(h))).data
            n = min(wa.shape[0], wb.shape[0])
            out[i] = (
                self.pair_distance(wa[:n], wb[:n])
                if n >= 2
                else MAX_CORRELATION_DISTANCE
            )
        return out

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
