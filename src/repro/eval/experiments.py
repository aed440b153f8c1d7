"""Experiment drivers: one function per table/figure of the evaluation.

Each driver consumes a :class:`~repro.eval.dataset.Campaign` (the simulated
testbed) and returns plain data structures that the benchmark harness and
the reporting module format into the paper's tables:

========  ===========================================================
Artifact  Driver
========  ===========================================================
Fig. 1    :func:`fig1_time_noise`
Fig. 2    :func:`fig2_unsynced_distances`
Fig. 6    :func:`fig6_parametric_analysis`
Fig. 10   :func:`fig10_hdisp_consistency`
Table V   :func:`baseline_results` with Moore/Gao
Table VI  :func:`baseline_results` with Bayens (AUD only)
Table VII :func:`baseline_results` with Gatlin
Table VIII:func:`nsync_results` with DWM
Table IX  :func:`nsync_results` with FastDTW (spectrograms only)
Fig. 11   :func:`fig11_time_ratio`
Fig. 12   :func:`fig12_overall_accuracy`
========  ===========================================================
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..baselines.base import BaselineIds, ProcessRecording
from ..baselines.bayens import BayensIds
from ..baselines.belikovetsky import BelikovetskyIds
from ..baselines.gao import GaoIds
from ..baselines.gatlin import GatlinIds
from ..baselines.moore import MooreIds
from ..core.discriminator import DetectionFeatures, Thresholds
from ..core.occ import OneClassTrainer
from ..core.pipeline import NsyncIds
from ..signals.signal import Signal
from ..signals.spectrogram import scaled_spectrogram_config, spectrogram
from ..sync.base import Synchronizer
from ..sync.dwm import DwmParams, DwmSynchronizer
from ..sync.fastdtw import FastDtwSynchronizer
from .dataset import Campaign, ProcessRun
from .metrics import DetectionStats, IdsAccumulator

__all__ = [
    "transform_signal",
    "IdsResult",
    "nsync_results",
    "baseline_results",
    "fig1_time_noise",
    "fig2_unsynced_distances",
    "fig6_parametric_analysis",
    "fig10_hdisp_consistency",
    "fig11_time_ratio",
    "fig12_overall_accuracy",
    "BASELINE_FACTORIES",
]

RAW = "Raw"
SPECTRO = "Spectro."


def transform_signal(signal: Signal, channel: str, transform: str) -> Signal:
    """Apply the paper's per-channel transform (raw or Table III STFT)."""
    if transform == RAW:
        return signal
    if transform == SPECTRO:
        config = scaled_spectrogram_config(channel, signal.sample_rate)
        return spectrogram(signal, config)
    raise ValueError(f"unknown transform {transform!r}; expected Raw/Spectro.")


# ---------------------------------------------------------------------------
# NSYNC (Tables VIII and IX)
# ---------------------------------------------------------------------------
@dataclass
class IdsResult:
    """Evaluation outcome of one IDS on one (channel, transform) cell."""

    overall: DetectionStats
    submodules: Dict[str, DetectionStats] = field(default_factory=dict)
    per_attack_tpr: Dict[str, float] = field(default_factory=dict)

    def cell(self) -> str:
        """The paper's "FPR / TPR" format for the overall result."""
        return self.overall.as_pair()


def _submodule_flags(
    features: DetectionFeatures, thresholds: Thresholds
) -> Dict[str, bool]:
    """Would each sub-module fire *alone* on these features?"""
    c = bool(features.c_disp.size and features.c_disp.max() > thresholds.c_c)
    h = bool(
        features.h_dist_filtered.size
        and features.h_dist_filtered.max() > thresholds.h_c
    )
    v = bool(
        features.v_dist_filtered.size
        and features.v_dist_filtered.max() > thresholds.v_c
    )
    d = features.duration_mismatch > thresholds.d_c
    return {"c_disp": c, "h_dist": h, "v_dist": v, "duration": d}


def nsync_results(
    campaign: Campaign,
    channel: str,
    transform: str = RAW,
    synchronizer: Optional[Synchronizer] = None,
    r: float = 0.3,
) -> IdsResult:
    """Evaluate NSYNC with the given synchronizer on one campaign cell.

    Default synchronizer: DWM with the campaign printer's Table IV
    parameters (Table VIII); pass ``FastDtwSynchronizer()`` for Table IX.

    The evaluation is a single pass over :meth:`Campaign.iter_runs` folded
    through an :class:`~repro.eval.metrics.IdsAccumulator`: the stream
    yields the reference first and finishes training before the first test
    run, so at no point is more than one run's signal resident.  On a lazy
    (plan-backed) campaign this evaluates arbitrarily large campaigns in
    O(1) run memory; on a materialized campaign the verdicts — confusion
    counts are commutative sums — are float-for-float the same.
    """
    if synchronizer is None:
        synchronizer = DwmSynchronizer(campaign.setup.dwm_params)

    def signal_of(run: ProcessRun) -> Signal:
        return transform_signal(run.signals[channel], channel, transform)

    ids: Optional[NsyncIds] = None

    def features_of(signal: Signal) -> DetectionFeatures:
        return ids.analyze(signal).features

    trainer = OneClassTrainer(r=r)
    thresholds: Optional[Thresholds] = None
    acc = IdsAccumulator(
        submodule_names=("c_disp", "h_dist", "v_dist", "duration")
    )

    for role, run in campaign.iter_runs():
        if role == "reference":
            ids = NsyncIds(signal_of(run), synchronizer)
            continue
        if ids is None:
            raise ValueError(
                "campaign stream yielded runs before the reference"
            )
        if role == "training":
            trainer.add_run(features_of(signal_of(run)))
            continue
        if thresholds is None:
            # The stream is ordered reference -> training -> tests, so the
            # first test run marks the training set complete.
            thresholds = trainer.thresholds()
            ids.thresholds = thresholds
        features = features_of(signal_of(run))
        acc.record(
            run.label,
            run.is_malicious,
            _submodule_flags(features, thresholds),
        )

    return IdsResult(
        overall=acc.overall,
        submodules=acc.submodules,
        per_attack_tpr=acc.per_attack_tpr,
    )


# ---------------------------------------------------------------------------
# Baselines (Tables V, VI, VII and the Belikovetsky paragraph)
# ---------------------------------------------------------------------------
BASELINE_FACTORIES: Dict[str, Callable[[], BaselineIds]] = {
    "moore": MooreIds,
    "gao": GaoIds,
    "bayens": BayensIds,
    "belikovetsky": BelikovetskyIds,
    "gatlin": GatlinIds,
}


def baseline_results(
    campaign: Campaign,
    ids: BaselineIds,
    channel: str,
    transform: str = RAW,
) -> IdsResult:
    """Evaluate a prior-work IDS on one campaign cell.

    Consumes the campaign as a single run stream.  The ``BaselineIds.fit``
    API takes the training recordings as a batch, so the (single-channel)
    training recordings are buffered until the first test run arrives and
    released immediately after fitting — test runs then stream through one
    at a time.
    """

    def recording_of(run: ProcessRun) -> ProcessRecording:
        return ProcessRecording(
            signal=transform_signal(run.signals[channel], channel, transform),
            layer_times=run.layer_times,
        )

    reference: Optional[ProcessRecording] = None
    training: List[ProcessRecording] = []
    fitted = False
    acc = IdsAccumulator()

    def fit() -> None:
        nonlocal fitted, training
        ids.fit(reference, training)
        fitted = True
        training = []

    for role, run in campaign.iter_runs():
        if role == "reference":
            reference = recording_of(run)
            continue
        if reference is None:
            raise ValueError(
                "campaign stream yielded runs before the reference"
            )
        if role == "training":
            training.append(recording_of(run))
            continue
        if not fitted:
            fit()
        detection = ids.detect(recording_of(run))
        acc.record(
            run.label,
            run.is_malicious,
            dict(detection.submodules),
            fired=detection.is_intrusion,
        )
    if not fitted and reference is not None:
        fit()  # no test runs: leave the caller's IDS fitted regardless

    return IdsResult(
        overall=acc.overall,
        submodules=acc.submodules,
        per_attack_tpr=acc.per_attack_tpr,
    )


# ---------------------------------------------------------------------------
# Fig. 1: time noise makes identical prints end at different times
# ---------------------------------------------------------------------------
def fig1_time_noise(campaign: Campaign) -> Dict[str, object]:
    """Durations of repeated identical prints (the Fig. 1 misalignment).

    Returns the per-run durations and their spread; with time noise the
    spread is orders of magnitude above the sampling period.
    """
    durations = [campaign.reference.duration]
    durations += [run.duration for run in campaign.training]
    durations += [run.duration for run in campaign.benign_test]
    durations_arr = np.asarray(durations)
    return {
        "durations": durations_arr,
        "spread": float(durations_arr.max() - durations_arr.min()),
        "mean": float(durations_arr.mean()),
    }


# ---------------------------------------------------------------------------
# Fig. 2: distances without synchronization
# ---------------------------------------------------------------------------
def fig2_unsynced_distances(
    campaign: Campaign, channel: str = "ACC", transform: str = RAW
) -> Dict[str, np.ndarray]:
    """Window-by-window correlation distances with NO synchronization.

    Reproduces Fig. 2: a benign process scores distances as large as a
    malicious one because time noise destroys the pointwise alignment.
    """
    from ..core.comparator import Comparator
    from ..sync.base import SyncResult

    params = campaign.setup.dwm_params

    def unsynced_vdist(run: ProcessRun) -> np.ndarray:
        obs = transform_signal(run.signals[channel], channel, transform)
        ref = transform_signal(
            campaign.reference.signals[channel], channel, transform
        )
        n_win = params.n_win(obs.sample_rate)
        n_hop = params.n_hop(obs.sample_rate)
        n = min(obs.n_windows(n_win, n_hop), ref.n_windows(n_win, n_hop))
        sync = SyncResult(
            h_disp=np.zeros(n), mode="window", n_win=n_win, n_hop=n_hop
        )
        return Comparator().vertical_distances(obs, ref, sync)

    benign = unsynced_vdist(campaign.benign_test[0])
    first_attack = next(iter(campaign.malicious_test.values()))[0]
    malicious = unsynced_vdist(first_attack)
    return {"benign": benign, "malicious": malicious}


# ---------------------------------------------------------------------------
# Fig. 6: parametric analysis of t_sigma, t_win, eta
# ---------------------------------------------------------------------------
def fig6_parametric_analysis(
    campaign: Campaign,
    channel: str = "ACC",
    transform: str = RAW,
    t_sigma_values: Sequence[float] = (0.25, 0.5, 1.0, 2.0),
    t_win_values: Sequence[float] = (1.0, 2.0, 4.0, 8.0),
    eta_values: Sequence[float] = (0.05, 0.1, 0.3, 0.9),
) -> Dict[str, Dict[float, np.ndarray]]:
    """h_disp as each DWM parameter sweeps (one benign observation)."""
    base = campaign.setup.dwm_params
    obs = transform_signal(
        campaign.benign_test[0].signals[channel], channel, transform
    )
    ref = transform_signal(
        campaign.reference.signals[channel], channel, transform
    )

    def h_disp_for(params: DwmParams) -> np.ndarray:
        return DwmSynchronizer(params).synchronize(obs, ref).h_disp

    from dataclasses import replace

    out: Dict[str, Dict[float, np.ndarray]] = {
        "t_sigma": {}, "t_win": {}, "eta": {},
    }
    for value in t_sigma_values:
        params = replace(base, t_sigma=value, t_ext=2.0 * value)
        out["t_sigma"][value] = h_disp_for(params)
    for value in t_win_values:
        params = replace(base, t_win=value, t_hop=value / 2.0)
        out["t_win"][value] = h_disp_for(params)
    for value in eta_values:
        out["eta"][value] = h_disp_for(replace(base, eta=value))
    return out


# ---------------------------------------------------------------------------
# Fig. 10: h_disp consistency across side channels
# ---------------------------------------------------------------------------
def fig10_hdisp_consistency(
    campaign: Campaign,
    channels: Optional[Sequence[str]] = None,
    transforms: Sequence[str] = (RAW, SPECTRO),
) -> Dict[Tuple[str, str], np.ndarray]:
    """h_disp per (channel, transform) for one benign run, resampled to a
    common length so their shapes can be compared directly.

    The paper's finding: channels strongly correlated with printer state
    (ACC, AUD, spectrogram-EPT) produce near-identical h_disp; TMP and PWR
    produce noise.
    """
    from ..signals.filters import resample_linear

    channels = tuple(channels) if channels else campaign.channels
    run = campaign.benign_test[0]
    out: Dict[Tuple[str, str], np.ndarray] = {}
    for channel in channels:
        for transform in transforms:
            obs = transform_signal(run.signals[channel], channel, transform)
            ref = transform_signal(
                campaign.reference.signals[channel], channel, transform
            )
            sync = DwmSynchronizer(campaign.setup.dwm_params).synchronize(
                obs, ref
            )
            # Convert to seconds so different sampling rates are comparable.
            h_seconds = sync.h_disp / obs.sample_rate
            out[(channel, transform)] = (
                resample_linear(h_seconds, 50) if h_seconds.size else h_seconds
            )
    return out


# ---------------------------------------------------------------------------
# Fig. 11: time to synchronize one second of spectrogram
# ---------------------------------------------------------------------------
def fig11_time_ratio(
    campaign: Campaign,
    channel: str = "ACC",
    fastdtw_radius: int = 1,
) -> Dict[str, float]:
    """Wall-clock seconds needed to synchronize 1 s of spectrogram.

    The paper's Fig. 11: DWM is dramatically cheaper than (Fast)DTW.  The
    comparison is made at the paper's *temporal* resolution (Table III's
    delta_t, i.e. 80-240 frames/s): DTW's cost is driven by the frame count,
    and the scaled-rate spectrograms used elsewhere have so few frames that
    any synchronizer is trivially fast on them.
    """
    from ..signals.spectrogram import (
        PAPER_SPECTROGRAMS,
        SpectrogramConfig,
        scaled_spectrogram_config,
    )

    def paper_rate_spectrogram(run: ProcessRun) -> Signal:
        signal = run.signals[channel]
        scaled = scaled_spectrogram_config(channel, signal.sample_rate)
        config = SpectrogramConfig(
            delta_f=scaled.delta_f,
            delta_t=PAPER_SPECTROGRAMS[channel].delta_t,
            window=scaled.window,
        )
        return spectrogram(signal, config)

    obs = paper_rate_spectrogram(campaign.benign_test[0])
    ref = paper_rate_spectrogram(campaign.reference)
    # 30 s of signal is plenty to stabilise a per-second cost estimate.
    obs = obs.slice_seconds(0.0, min(30.0, obs.duration))
    ref = ref.slice_seconds(0.0, min(30.0, ref.duration))
    seconds = obs.duration

    # Warm both synchronizers untimed on a short slice: the first FFT-path
    # DWM window pays scipy.signal's one-off lazy import (~0.6 s), which is
    # start-up cost, not cost per second of signal.
    params = campaign.setup.dwm_params
    warm = min(params.t_win + 2 * params.t_ext, seconds)
    warm_obs = obs.slice_seconds(0.0, warm)
    warm_ref = ref.slice_seconds(0.0, warm)
    DwmSynchronizer(params).synchronize(warm_obs, warm_ref)
    FastDtwSynchronizer(radius=fastdtw_radius).synchronize(warm_obs, warm_ref)

    t0 = time.perf_counter()
    DwmSynchronizer(params).synchronize(obs, ref)
    dwm_time = time.perf_counter() - t0

    t0 = time.perf_counter()
    FastDtwSynchronizer(radius=fastdtw_radius).synchronize(obs, ref)
    dtw_time = time.perf_counter() - t0

    # The paper ran the standard pure-Python FastDTW; its per-cell constant
    # is what Fig. 11 actually measures.  The algorithm is linear, so a
    # shorter slice gives the same per-second cost.
    from ..sync.fastdtw_reference import ReferenceFastDtwSynchronizer

    obs_short = obs.slice_seconds(0.0, min(8.0, obs.duration))
    ref_short = ref.slice_seconds(0.0, min(8.0, ref.duration))
    t0 = time.perf_counter()
    ReferenceFastDtwSynchronizer(radius=fastdtw_radius).synchronize(
        obs_short, ref_short
    )
    dtw_ref_time_ratio = (time.perf_counter() - t0) / obs_short.duration

    return {
        "dwm_time_ratio": dwm_time / seconds,
        "dtw_time_ratio": dtw_time / seconds,
        "dtw_reference_time_ratio": dtw_ref_time_ratio,
        "speedup": dtw_time / dwm_time if dwm_time > 0 else float("inf"),
        "reference_speedup": (
            dtw_ref_time_ratio * seconds / dwm_time
            if dwm_time > 0
            else float("inf")
        ),
    }


# ---------------------------------------------------------------------------
# Fig. 12: average accuracy of the seven IDSs
# ---------------------------------------------------------------------------
def fig12_overall_accuracy(
    campaign: Campaign,
    channels: Optional[Sequence[str]] = None,
    nsync_transforms: Sequence[str] = (RAW, SPECTRO),
) -> Dict[str, float]:
    """Average accuracy of all seven IDSs over channels and transforms.

    Audio-only IDSs (Bayens, Belikovetsky) are evaluated on AUD, as in the
    paper; NSYNC/DTW only on spectrograms (raw DTW "took forever").
    """
    channels = tuple(channels) if channels else campaign.channels
    accuracies: Dict[str, List[float]] = {}

    def add(name: str, result: IdsResult) -> None:
        accuracies.setdefault(name, []).append(result.overall.accuracy)

    for channel in channels:
        for transform in (RAW, SPECTRO):
            if channel == "EPT" and transform == RAW:
                continue  # dropped in the paper (60 Hz hum dominates)
            add("moore", baseline_results(campaign, MooreIds(), channel, transform))
            add("gao", baseline_results(campaign, GaoIds(), channel, transform))
            add(
                "gatlin",
                baseline_results(campaign, GatlinIds(), channel, transform),
            )
            if transform in nsync_transforms:
                add(
                    "nsync_dwm",
                    nsync_results(campaign, channel, transform),
                )
        add(
            "nsync_dtw",
            nsync_results(
                campaign, channel, SPECTRO, synchronizer=FastDtwSynchronizer()
            ),
        )
    if "AUD" in channels:
        add("bayens", baseline_results(campaign, BayensIds(), "AUD", RAW))
        add(
            "belikovetsky",
            baseline_results(campaign, BelikovetskyIds(), "AUD", RAW),
        )
    return {name: float(np.mean(values)) for name, values in accuracies.items()}
