"""Input sanitization and channel-health tracking (graceful degradation).

The paper pitches NSYNC as *practical*: an IDS screening a live DAQ for the
whole print.  Real acquisition paths misbehave in ways a simulator never
does — frames drop, ADCs saturate, cables disconnect — and the resulting
degenerate samples are poison for the detection math: a single NaN turns
``correlation_distance`` into NaN, ``NaN > threshold`` is ``False``, and
the IDS silently fails *open*.  This module is the input-sanitization stage
that runs before any detection math sees a sample: :class:`Sanitizer`,
chunk by chunk inside :class:`~repro.core.engine.DetectionEngine`, and
:func:`sanitize_signal` over one whole signal.

* **Non-finite samples** (NaN/inf) are replaced by holding the last finite
  value per channel (0.0 when the signal *starts* broken) so downstream
  arithmetic stays finite, and the affected sample positions are recorded
  so the analysis windows that cover them can be flagged and quarantined
  (``window_quarantined`` event + counter).
* **Dark channels** — a stretch where a channel repeats the exact same
  value (a dead sensor, an unplugged DAQ input, a gap of zeros) or emits
  nothing but non-finite garbage — are detected by run length.  A channel
  that stays dark longer than :attr:`SanitizePolicy.max_dark_s` trips a
  **fail-closed** :data:`SENSOR_FAULT` alarm: an intrusion detector whose
  sensor went away must scream, not stay silent.

The thresholds live in :class:`SanitizePolicy`; the per-run findings in
:class:`ChannelHealth`, which every detection verdict carries through
``Detection.to_dict()`` / ``repro detect --json``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from ..signals.signal import Signal

__all__ = [
    "SENSOR_FAULT",
    "SanitizePolicy",
    "ChannelHealth",
    "Sanitized",
    "Sanitizer",
    "sanitize_signal",
]

#: Sub-module name under which fail-closed sensor alarms are reported; sits
#: alongside the paper's ``c_disp`` / ``h_dist`` / ``v_dist`` / ``duration``.
SENSOR_FAULT = "sensor_fault"


@dataclass(frozen=True)
class SanitizePolicy:
    """Thresholds for the input-sanitization stage.

    Parameters
    ----------
    max_dark_s:
        A channel repeating the exact same value (or emitting only
        non-finite samples) for at least this long counts as *dark* and
        trips a fail-closed :data:`SENSOR_FAULT`.  Any physical sensor
        carries noise, so a perfectly constant second of samples means the
        acquisition path died, not that the printer went quiet.
    max_bad_fraction:
        Fraction of non-finite samples above which the whole run is
        declared faulty even if no single dark stretch is long enough.
    dark_eps:
        Two consecutive samples closer than this count as "the same value"
        for dark-run purposes.  The default ``0.0`` requires exact
        repetition, which is what dead ADCs produce and what quantized but
        healthy channels do not sustain.
    enabled:
        ``False`` disables the fail-closed verdict: non-finite samples are
        still repaired and health is still reported, but ``sensor_fault``
        never trips.
    """

    max_dark_s: float = 1.0
    max_bad_fraction: float = 0.25
    dark_eps: float = 0.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.max_dark_s <= 0:
            raise ValueError(f"max_dark_s must be positive, got {self.max_dark_s}")
        if not 0 < self.max_bad_fraction <= 1:
            raise ValueError(
                f"max_bad_fraction must be in (0, 1], got {self.max_bad_fraction}"
            )
        if self.dark_eps < 0:
            raise ValueError(f"dark_eps must be non-negative, got {self.dark_eps}")

    def min_dark_samples(self, sample_rate: float) -> int:
        """Run length (in samples) at which a constant stretch counts dark."""
        return max(2, int(math.ceil(self.max_dark_s * sample_rate)))


@dataclass(frozen=True)
class ChannelHealth:
    """What the sanitization stage found in one observed signal.

    ``dark_spans`` are ``[start, stop)`` sample spans where some channel
    stayed constant/non-finite past the policy's run-length threshold.
    ``sensor_fault`` is the fail-closed verdict; ``reasons`` names which
    rule(s) tripped it (``"dark_channel"``, ``"nonfinite_fraction"``).
    """

    n_samples: int
    n_nonfinite: int
    dark_spans: Tuple[Tuple[int, int], ...]
    longest_dark_s: float
    sensor_fault: bool
    reasons: Tuple[str, ...]

    @property
    def bad_fraction(self) -> float:
        """Fraction of samples with at least one non-finite channel."""
        return self.n_nonfinite / self.n_samples if self.n_samples else 0.0

    @property
    def is_clean(self) -> bool:
        """True when nothing at all was flagged."""
        return not self.n_nonfinite and not self.dark_spans

    def to_dict(self) -> dict:
        """JSON-safe rendition for ``Detection.to_dict`` / ``--json``."""
        return {
            "n_samples": int(self.n_samples),
            "n_nonfinite": int(self.n_nonfinite),
            "bad_fraction": float(self.bad_fraction),
            "dark_spans": [[int(a), int(b)] for a, b in self.dark_spans],
            "longest_dark_s": float(self.longest_dark_s),
            "sensor_fault": bool(self.sensor_fault),
            "reasons": list(self.reasons),
        }


@dataclass(frozen=True)
class Sanitized:
    """Result of :func:`sanitize_signal`.

    ``signal`` is safe for detection math (every sample finite);
    ``bad_samples`` marks, per time index, whether any channel had to be
    repaired — the pipelines map these onto analysis windows to quarantine
    them.  When the input was already clean, ``signal`` *is* the input
    (no copy).
    """

    signal: Signal
    bad_samples: np.ndarray
    health: ChannelHealth


class Sanitizer:
    """The detection engine's sanitize stage, one chunk at a time.

    Repairs non-finite samples by forward fill, tracks dark runs on the
    raw data, and arms the fail-closed verdict.  All state is carried
    across chunk boundaries: the last finite value per channel seeds the
    forward fill, and a dark run continues through chunk edges, so a
    disconnect spanning many small chunks is still one long run and any
    chunking of a signal yields the same repair and the same verdict.

    When a run first reaches the dark limit, :meth:`push` records it in
    :attr:`pending_fault` as ``(crossing sample, longest run at it)``.
    The engine fires it (:meth:`fire`) between the synchronized indexes
    it evaluates, and emits the alarm; this class emits nothing.

    The stage owns the ``sanitize`` section of a
    :class:`~repro.core.engine.DetectorState` (:attr:`KEYS`,
    :meth:`state_dict`, :meth:`load_state_dict`).  :attr:`n_samples` is
    the ``progress.samples_seen`` cursor, written by the engine.
    """

    #: Fields of the ``sanitize`` state section, in write order.
    KEYS: Tuple[str, ...] = (
        "last_good", "have_good", "prev_raw", "n_nonfinite", "run_start",
        "longest_dark", "dark_spans", "fault_fired", "fault_reasons",
        "fault_window",
    )

    def __init__(
        self, n_channels: int, sample_rate: float, policy: SanitizePolicy
    ) -> None:
        self.policy = policy
        self.sample_rate = float(sample_rate)
        self._min_dark = policy.min_dark_samples(self.sample_rate)
        self.n_samples = 0
        self.n_nonfinite = 0
        self._last_good = np.zeros(n_channels)
        self._have_good = np.zeros(n_channels, dtype=bool)
        self._prev_raw: Optional[np.ndarray] = None
        # True when the carried previous raw row has a non-finite entry;
        # lets the dark-run tracker skip the errstate-guarded path on the
        # (overwhelmingly common) all-finite chunks.
        self._prev_raw_bad = False
        self._run_start = np.zeros(n_channels, dtype=np.int64)
        # Scalar lower bound of _run_start (= the oldest open run): lets
        # the per-push fast path decide "no channel can close a dark span
        # here" with one int compare instead of a numpy reduction.
        self._run_start_min = 0
        self.longest_dark = 0
        self._dark_spans: List[Tuple[int, int]] = []
        self.fault_fired = False
        self.fault_reasons: List[str] = []
        self.fault_window: Optional[int] = None
        self.pending_fault: Optional[Tuple[int, int]] = None

    def push(self, raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Repair one ``(n, channels)`` chunk; returns ``(clean, bad_rows)``.

        ``clean`` is ``raw`` itself when nothing needed repair.
        """
        n = raw.shape[0]
        bad = ~np.isfinite(raw)
        bad_rows: np.ndarray = bad.any(axis=1)
        if not n:
            return raw, bad_rows
        has_bad = bool(bad_rows.any())
        if has_bad:
            self.n_nonfinite += int(np.count_nonzero(bad_rows))
        self._track_dark_runs(raw, bad, has_bad)
        self.n_samples += n

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
        offset = self.n_samples
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
            self.longest_dark = max(self.longest_dark, 1)
            self._prev_raw = raw[-1].copy()
            return
        idx = np.arange(n)[:, np.newaxis]
        carry = (offset - self._run_start).astype(np.int64)
        reset = np.where(~extend, idx, -1)
        np.maximum.accumulate(reset, axis=0, out=reset)
        run = np.where(reset >= 0, idx - reset + 1, idx + 1 + carry)
        # Close the maximal runs ending inside this chunk.
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
            and not self.fault_fired
            and self.pending_fault is None
        ):
            hit = np.flatnonzero((run >= self._min_dark).any(axis=1))
            if hit.size:
                r = int(hit[0])
                longest_at_t = max(
                    self.longest_dark, int(run[: r + 1].max())
                )
                self.pending_fault = (offset + r + 1, longest_at_t)
        self.longest_dark = max(self.longest_dark, int(run.max()))
        self._prev_raw = raw[-1].copy()

    def fire(self, reasons: Tuple[str, ...], window: Optional[int]) -> None:
        """Latch the fail-closed verdict, anchored at index ``window``."""
        self.fault_fired = True
        self.fault_reasons = list(reasons)
        self.fault_window = window

    def fraction_rule(self) -> bool:
        """End-of-run rule: too many non-finite samples overall.

        Evaluated once the run is complete, so the verdict depends on run
        totals, never on chunk boundaries.  Returns True when the rule
        trips and no fault has fired yet (the caller fires it); a fault
        that already fired just gains the ``nonfinite_fraction`` reason.
        """
        n = self.n_samples
        if not self.policy.enabled or not n:
            return False
        if self.n_nonfinite / n <= self.policy.max_bad_fraction:
            return False
        if not self.fault_fired:
            return True
        if "nonfinite_fraction" not in self.fault_reasons:
            self.fault_reasons.append("nonfinite_fraction")
        return False

    def health(self) -> ChannelHealth:
        """The stage's verdict over every sample pushed so far.

        Dark spans are the closed runs plus the open runs already past
        the dark limit.
        """
        n = self.n_samples
        spans = set(self._dark_spans)
        for start in self._run_start.tolist():
            if n - start >= self._min_dark:
                spans.add((start, n))
        return ChannelHealth(
            n_samples=n,
            n_nonfinite=self.n_nonfinite,
            dark_spans=tuple(sorted(spans)),
            longest_dark_s=self.longest_dark / self.sample_rate if n else 0.0,
            sensor_fault=self.fault_fired,
            reasons=tuple(self.fault_reasons),
        )

    def state_dict(self) -> Dict[str, object]:
        """The ``sanitize`` state section (strict JSON).

        The only non-finite carry is the raw previous row, used for
        dark-run continuation where any non-finite value behaves alike;
        it is written with ``None`` for NaN/inf, losslessly for detection.
        """
        prev_raw = self._prev_raw
        return {
            "last_good": self._last_good.tolist(),
            "have_good": self._have_good.tolist(),
            "prev_raw": None if prev_raw is None else [
                v if math.isfinite(v) else None for v in prev_raw.tolist()
            ],
            "n_nonfinite": int(self.n_nonfinite),
            "run_start": self._run_start.tolist(),
            "longest_dark": int(self.longest_dark),
            "dark_spans": [[a, b] for a, b in self._dark_spans],
            "fault_fired": bool(self.fault_fired),
            "fault_reasons": list(self.fault_reasons),
            "fault_window": self.fault_window,
        }

    def load_state_dict(self, doc: Mapping[str, Any], n_samples: int) -> None:
        """Restore a :meth:`state_dict` section at stream position
        ``n_samples``."""
        self.n_samples = int(n_samples)
        self._last_good = np.asarray(doc["last_good"], dtype=np.float64)
        self._have_good = np.asarray(doc["have_good"], dtype=bool)
        raw = doc["prev_raw"]
        # ``None`` entries become NaN.
        self._prev_raw = None if raw is None else np.asarray(raw, dtype=np.float64)
        self._prev_raw_bad = self._prev_raw is not None and not bool(
            np.isfinite(self._prev_raw).all()
        )
        self.n_nonfinite = int(doc["n_nonfinite"])
        self._run_start = np.asarray(doc["run_start"], dtype=np.int64)
        self._run_start_min = int(self._run_start.min())
        self.longest_dark = int(doc["longest_dark"])
        self._dark_spans = [(int(a), int(b)) for a, b in doc["dark_spans"]]
        self.fault_fired = bool(doc["fault_fired"])
        self.fault_reasons = [str(r) for r in doc["fault_reasons"]]
        fw = doc["fault_window"]
        self.fault_window = None if fw is None else int(fw)
        self.pending_fault = None


def sanitize_signal(
    signal: Signal, policy: SanitizePolicy = SanitizePolicy()
) -> Sanitized:
    """Run the input-sanitization stage over one whole observed signal.

    One push through a fresh :class:`Sanitizer`, then the end-of-run
    rules.  Returns the repaired signal (identical object when already
    clean), the per-sample bad mask, and the :class:`ChannelHealth`
    verdict including the fail-closed ``sensor_fault`` flag.
    """
    stage = Sanitizer(signal.n_channels, signal.sample_rate, policy)
    clean, bad_samples = stage.push(signal.data)
    if stage.pending_fault is not None:
        stage.fire(("dark_channel",), None)
    if stage.fraction_rule():
        stage.fire(("nonfinite_fraction",), None)
    if clean is not signal.data:
        signal = signal.with_data(clean)
    return Sanitized(signal=signal, bad_samples=bad_samples, health=stage.health())
