"""Time Delay Estimation by the sliding method (paper Section V-B).

TDE finds the best location of a short signal ``y`` inside a longer signal
``x`` by sliding ``y`` across ``x`` and scoring each position with a
similarity function (Eq. 1-2).  TDEB (Time Delay Estimation with Bias,
Section VI-B and Fig. 5) multiplies the similarity array by a Gaussian
window so that, when the content is periodic or noisy and several delays
score equally well, the estimate stays near the centre — i.e. near the
previous window's displacement.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .. import obs
from ..signals.metrics import correlation_similarity

__all__ = ["TdeResult", "tde", "tdeb", "similarity_profile", "correlation_profile"]

SimilarityFn = Callable[[np.ndarray, np.ndarray], float]

# Cached lazy import: correlation_profile sits in DWM's inner loop, and
# re-resolving the scipy import on every call costs a dict lookup chain
# per window.  Resolve once, keep module start-up light.
_FFTCONVOLVE = None


def _get_fftconvolve():
    global _FFTCONVOLVE
    if _FFTCONVOLVE is None:
        from scipy.signal import fftconvolve

        _FFTCONVOLVE = fftconvolve
    return _FFTCONVOLVE


@dataclass(frozen=True)
class TdeResult:
    """Outcome of a TDE run.

    ``delay`` is ``n_delay`` of Eq. (2): the sample offset in ``x`` at which
    ``y`` matches best.  ``score`` is the (possibly biased) similarity at
    that offset, and ``scores`` the full similarity array ``s[n]``.
    """

    delay: int
    score: float
    scores: np.ndarray


def _as_2d(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    return a[:, np.newaxis] if a.ndim == 1 else a


#: Crossover (in multiply-adds, ``n_shifts * n_y * n_channels``) between
#: the direct cross-correlation and scipy's fftconvolve.  Below this, the
#: O(n*m) direct product beats the FFT because scipy's per-call
#: dispatch/padding overhead (~0.5 ms) dwarfs the arithmetic — and DWM's
#: streaming search windows sit far below it at DAQ sample rates.  Above
#: it, the O(n log n) FFT wins as before.  The direct branch is always
#: bit-identical to a per-channel ``np.correlate(..., "valid")`` loop; see
#: :func:`_direct_cross` for how it batches many channels.
_DIRECT_CROSS_MAX_OPS = 2_000_000

#: Below this many channels the per-channel ``np.correlate`` loop is
#: cheaper than the batched setup (one-channel fleet streams, 6-axis ACC).
_BATCH_CROSS_MIN_CHANNELS = 16

#: Longest template numpy's ``correlate`` handles with its small-kernel
#: loop; longer ones go to BLAS ``ddot``.
_SMALL_KERNEL_MAX_LEN = 11


def _direct_cross(x2: np.ndarray, y2: np.ndarray, n_shifts: int) -> np.ndarray:
    """``cross[n, c] = sum_j x2[n + j, c] * y2[j, c]`` as a C-ordered array.

    Bit-identical to ``np.correlate(x2[:, c], y2[:, c], "valid")`` per
    channel, because each branch repeats numpy's own arithmetic:

    * up to 11 taps numpy sums ``0 + x[n]*y[0] + x[n+1]*y[1] + ...`` in tap
      order, so one multiply-add per tap over all (shift, channel) pairs
      does the same;
    * beyond that numpy calls ``ddot`` once per shift on contiguous copies,
      which ``np.vecdot`` over a unit-stride window view of the transposed
      signal reaches too (a strided ``ddot`` is a different kernel).

    ``cross`` stays C-ordered so the channel mean later sums in the same
    order.
    """
    n_y, n_ch = y2.shape
    if n_ch < _BATCH_CROSS_MIN_CHANNELS:
        cross = np.empty((n_shifts, n_ch))
        for c in range(n_ch):
            cross[:, c] = np.correlate(x2[:, c], y2[:, c], mode="valid")
    elif n_y <= _SMALL_KERNEL_MAX_LEN:
        cross = np.zeros((n_shifts, n_ch))
        term = np.empty_like(cross)
        for j in range(n_y):
            np.multiply(x2[j : j + n_shifts], y2[j], out=term)
            cross += term
    else:
        cross = np.empty((n_shifts, n_ch))
        windows = np.lib.stride_tricks.sliding_window_view(
            np.ascontiguousarray(x2.T), n_y, axis=1
        )
        np.vecdot(
            windows, np.ascontiguousarray(y2.T)[:, np.newaxis, :], out=cross.T
        )
    return cross


def correlation_profile(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized sliding correlation coefficient, channel-averaged.

    Computes ``s[n] = corr(x[n : n + N_y], y)`` for every admissible shift
    using running sums and a cross-correlation — direct for small
    problems, FFT for large ones (see
    :data:`_DIRECT_CROSS_MAX_OPS`) — instead of recomputing Eq. (3) per
    shift.  This is what makes DWM run orders of magnitude faster than DTW
    in practice.
    """
    x2, y2 = _as_2d(x), _as_2d(y)
    n_x, n_y, n_ch = x2.shape[0], y2.shape[0], x2.shape[1]
    n_shifts = n_x - n_y + 1
    eps = 1e-12

    # Cross terms for every channel at once: correlation along the time
    # axis is convolution with the time-reversed template.
    if n_shifts * n_y * n_ch <= _DIRECT_CROSS_MAX_OPS:
        cross = _direct_cross(x2, y2, n_shifts)
    else:
        fftconvolve = _get_fftconvolve()
        cross = fftconvolve(x2, y2[::-1, :], mode="valid", axes=0)  # (shifts, C)

    # Sliding window sums of x and x^2 via cumulative sums (O(n) each).
    cs1 = np.cumsum(np.concatenate([np.zeros((1, n_ch)), x2]), axis=0)
    cs2 = np.cumsum(np.concatenate([np.zeros((1, n_ch)), x2 * x2]), axis=0)
    s1 = cs1[n_y:] - cs1[:-n_y]  # (shifts, C)
    s2 = cs2[n_y:] - cs2[:-n_y]

    y_mean = y2.mean(axis=0, keepdims=True)           # (1, C)
    y_energy = np.sum((y2 - y_mean) ** 2, axis=0)     # (C,)

    num = cross - s1 * y_mean
    var_x = np.maximum(s2 - s1 * s1 / n_y, 0.0)
    den = np.sqrt(var_x * y_energy[np.newaxis, :])
    scores = np.where(den > eps, num / np.maximum(den, eps), 0.0)
    return scores.mean(axis=1)


def similarity_profile(
    x: np.ndarray,
    y: np.ndarray,
    similarity: SimilarityFn = correlation_similarity,
) -> np.ndarray:
    """Similarity array ``s[n] = f(x[n : n + N_y], y)`` (Eq. 1).

    ``x`` and ``y`` may be 1-D or ``(n, c)`` arrays with matching channel
    counts; ``x`` must be at least as long as ``y``.  The default
    correlation similarity takes a vectorized fast path; any custom
    similarity function falls back to an explicit sliding loop.
    """
    x2, y2 = _as_2d(x), _as_2d(y)
    if x2.shape[1] != y2.shape[1]:
        raise ValueError(
            f"channel mismatch: x has {x2.shape[1]}, y has {y2.shape[1]}"
        )
    n_x, n_y = x2.shape[0], y2.shape[0]
    if n_y == 0:
        raise ValueError("y must be non-empty")
    if n_x < n_y:
        raise ValueError(f"x (len {n_x}) is shorter than y (len {n_y})")
    if similarity is correlation_similarity:
        return correlation_profile(x2, y2)
    # Custom similarity: one preallocated strided view over all shifts
    # (shape (n_shifts, n_y, c), zero copies) instead of slicing x2 per
    # shift — the O(n * window) slicing overhead dominated this fallback.
    windows = np.lib.stride_tricks.sliding_window_view(
        x2, n_y, axis=0
    ).transpose(0, 2, 1)
    scores = np.empty(n_x - n_y + 1)
    for n in range(scores.size):
        scores[n] = similarity(windows[n], y2)
    return scores


def tde(
    x: np.ndarray,
    y: np.ndarray,
    similarity: SimilarityFn = correlation_similarity,
) -> TdeResult:
    """Plain sliding-method TDE: the argmax of the similarity array (Eq. 2)."""
    scores = similarity_profile(x, y, similarity)
    delay = int(np.argmax(scores))
    return TdeResult(delay=delay, score=float(scores[delay]), scores=scores)


def tdeb(
    x: np.ndarray,
    y: np.ndarray,
    sigma: float,
    similarity: SimilarityFn = correlation_similarity,
    centre: Optional[int] = None,
) -> TdeResult:
    """TDE with a Gaussian bias towards the centre of the search range.

    ``sigma`` is the Gaussian's standard deviation in samples (the paper's
    ``n_sigma``).  By default the bias is centred on the middle of the
    similarity array, which for DWM's symmetric extended window corresponds
    to "no change from the previous displacement".

    The returned ``score`` is the *unbiased* similarity at the biased argmax,
    so callers can still reason about how well the windows actually matched;
    ``scores`` is the biased array used for the argmax.
    """
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    with obs.trace("similarity_profile"):
        raw = similarity_profile(x, y, similarity)
    if obs.enabled():
        obs.counter("repro.sync.tde.tdeb_calls").inc()
        obs.histogram("repro.sync.tde.search_shifts").observe(raw.size)
    if centre is None:
        centre_f = (raw.size - 1) / 2.0
    else:
        centre_f = float(centre)
    n = np.arange(raw.size, dtype=np.float64)
    bias = np.exp(-0.5 * ((n - centre_f) / sigma) ** 2)
    # Shift scores to be non-negative before applying the multiplicative
    # bias: the correlation similarity can be negative, and multiplying a
    # negative score by a small Gaussian tail would *raise* it, inverting
    # the intended bias direction.
    shifted = raw - raw.min()
    biased = shifted * bias
    delay = int(np.argmax(biased))
    return TdeResult(delay=delay, score=float(raw[delay]), scores=biased)
