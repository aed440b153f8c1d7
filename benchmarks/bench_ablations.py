"""Ablations of NSYNC's design choices (DESIGN.md's ablation list).

Each test switches off one stabiliser the paper argues for and shows the
resulting degradation on the UM3 campaign:

* TDEB's Gaussian bias (Fig. 5) — without it, periodic/noisy windows make
  the synchronizer jumpy, inflating benign CADHD.
* The spike-suppression minimum filter (Eq. 21-22) — without it, isolated
  time-noise spikes raise the learned thresholds and/or fire false alarms.
* The OCC margin r (Section VII-C) — the FPR/TPR trade-off.
"""

from dataclasses import replace

import numpy as np

from conftest import run_once
from repro.eval import nsync_results
from repro.eval.experiments import transform_signal
from repro.sync import DwmSynchronizer


def _benign_cadhd(campaign, params):
    """Final CADHD of every benign test run under the given DWM params."""
    reference = transform_signal(
        campaign.reference.signals["ACC"], "ACC", "Raw"
    )
    sync = DwmSynchronizer(params)
    out = []
    for run in campaign.benign_test:
        observed = transform_signal(run.signals["ACC"], "ACC", "Raw")
        result = sync.synchronize(observed, reference)
        out.append(float(result.cadhd()[-1]) if result.n_indexes else 0.0)
    return np.asarray(out)


def test_ablation_tdeb_bias(benchmark, um3_campaign, report):
    """Remove the Gaussian bias (t_sigma -> huge): benign CADHD inflates."""
    params = um3_campaign.setup.dwm_params

    def evaluate():
        biased = _benign_cadhd(um3_campaign, params)
        # t_sigma >> t_ext makes the Gaussian flat across the search range,
        # i.e. plain unbiased TDE.
        unbiased = _benign_cadhd(
            um3_campaign, replace(params, t_sigma=1e6)
        )
        return biased, unbiased

    biased, unbiased = run_once(benchmark, evaluate)
    report(
        "ablation_tdeb_bias",
        "Ablation — TDEB Gaussian bias (benign CADHD, UM3/ACC raw)\n"
        f"  with bias    : median {np.median(biased):8.0f}  max {biased.max():8.0f}\n"
        f"  without bias : median {np.median(unbiased):8.0f}  max {unbiased.max():8.0f}\n"
        f"  inflation    : {np.median(unbiased)/max(np.median(biased),1e-9):.1f}x",
    )
    assert np.median(unbiased) >= np.median(biased)


def test_ablation_spike_filter(benchmark, um3_campaign, report):
    """Disable the min-filter: the v_dist threshold inflates."""

    def evaluate():
        from repro.core import Comparator, NsyncIds, OneClassTrainer
        from repro.core.discriminator import detection_features

        reference = transform_signal(
            um3_campaign.reference.signals["ACC"], "ACC", "Raw"
        )
        ids = NsyncIds(reference, DwmSynchronizer(um3_campaign.setup.dwm_params))
        comparator = Comparator()

        thresholds = {}
        for window in (1, 3):
            trainer = OneClassTrainer(r=0.3)
            for run in um3_campaign.training:
                observed = transform_signal(run.signals["ACC"], "ACC", "Raw")
                sync = ids.synchronizer.synchronize(observed, reference)
                v = comparator.vertical_distances(observed, reference, sync)
                trainer.add_run(detection_features(sync, v, filter_window=window))
            thresholds[window] = trainer.thresholds()
        return thresholds

    thresholds = run_once(benchmark, evaluate)
    report(
        "ablation_spike_filter",
        "Ablation — spike-suppression min filter (UM3/ACC raw)\n"
        f"  filter window 3 (paper): v_c = {thresholds[3].v_c:.3f}, "
        f"h_c = {thresholds[3].h_c:.1f}\n"
        f"  filter window 1 (off)  : v_c = {thresholds[1].v_c:.3f}, "
        f"h_c = {thresholds[1].h_c:.1f}\n"
        "  higher thresholds = less sensitive discriminator",
    )
    # Without the filter the learned thresholds can only grow.
    assert thresholds[1].v_c >= thresholds[3].v_c
    assert thresholds[1].h_c >= thresholds[3].h_c


def test_ablation_occ_margin(benchmark, um3_campaign, report):
    """Sweep r: FPR falls (and eventually TPR) as the margin widens."""

    def evaluate():
        return {
            r: nsync_results(um3_campaign, "ACC", "Raw", r=r)
            for r in (0.0, 0.3, 1.0, 3.0)
        }

    sweep = run_once(benchmark, evaluate)
    lines = ["Ablation — OCC margin r (UM3/ACC raw)"]
    for r, result in sorted(sweep.items()):
        lines.append(
            f"  r={r:<4}: FPR={result.overall.fpr:.2f} "
            f"TPR={result.overall.tpr:.2f} acc={result.overall.accuracy:.2f}"
        )
    report("ablation_occ_margin", "\n".join(lines))

    fprs = [sweep[r].overall.fpr for r in sorted(sweep)]
    assert fprs == sorted(fprs, reverse=True), "FPR must fall as r grows"
    tprs = [sweep[r].overall.tpr for r in sorted(sweep)]
    assert tprs == sorted(tprs, reverse=True), "TPR must not rise as r grows"


def test_ablation_fusion_policy(benchmark, um3_campaign, report):
    """Fuse three channels: the policy trades FPR against TPR."""
    from repro.core import MultiChannelNsyncIds
    from repro.eval.metrics import DetectionStats

    channels = ("ACC", "MAG", "AUD")

    def evaluate():
        reference = {
            cid: um3_campaign.reference.signals[cid] for cid in channels
        }
        training = [
            {cid: run.signals[cid] for cid in channels}
            for run in um3_campaign.training
        ]
        stats = {}
        for policy in ("any", "majority", 3):
            ids = MultiChannelNsyncIds(
                reference,
                synchronizer_factory=lambda: DwmSynchronizer(
                    um3_campaign.setup.dwm_params
                ),
                policy=policy,
            )
            ids.fit(training, r=0.3)
            s = DetectionStats()
            for run in um3_campaign.benign_test:
                observed = {cid: run.signals[cid] for cid in channels}
                s.record(False, ids.detect(observed).is_intrusion)
            for run in um3_campaign.all_malicious():
                observed = {cid: run.signals[cid] for cid in channels}
                s.record(True, ids.detect(observed).is_intrusion)
            stats[str(policy)] = s
        return stats

    stats = run_once(benchmark, evaluate)
    lines = ["Ablation — multi-channel fusion policy (UM3, ACC+MAG+AUD raw)"]
    for policy, s in stats.items():
        lines.append(
            f"  {policy:<9}: FPR={s.fpr:.2f} TPR={s.tpr:.2f} "
            f"acc={s.accuracy:.2f}"
        )
    report("ablation_fusion_policy", "\n".join(lines))

    # Sensitivity ordering: any >= majority >= unanimity in TPR,
    # and the reverse (weakly) in FPR.
    assert stats["any"].tpr >= stats["majority"].tpr >= stats["3"].tpr
    assert stats["any"].fpr >= stats["majority"].fpr >= stats["3"].fpr
    # Fusion at 'majority' keeps the headline accuracy.
    assert stats["majority"].accuracy >= 0.85


def test_ablation_online_dtw(benchmark, um3_campaign, report):
    """Streaming banded DTW as the synchronizer: usable, still below DWM."""
    from repro.eval import nsync_results
    from repro.sync import OnlineDtwSynchronizer

    def evaluate():
        online = nsync_results(
            um3_campaign,
            "ACC",
            "Spectro.",
            synchronizer=OnlineDtwSynchronizer(band=32),
        )
        dwm = nsync_results(um3_campaign, "ACC", "Spectro.")
        return online, dwm

    online, dwm = run_once(benchmark, evaluate)
    report(
        "ablation_online_dtw",
        "Ablation — online (streaming) DTW vs DWM (UM3/ACC spectrogram)\n"
        f"  online DTW: {online.cell()}  acc={online.overall.accuracy:.2f}\n"
        f"  DWM       : {dwm.cell()}  acc={dwm.overall.accuracy:.2f}",
    )
    assert online.overall.tpr >= 0.5  # it does work as a synchronizer
    assert dwm.overall.accuracy >= online.overall.accuracy - 0.05


def test_ablation_lookahead_planner(benchmark, report):
    """Swap the stop-to-stop planner for junction look-ahead: NSYNC/DWM must
    keep working on the smoother (less burst-rich) signals."""
    from dataclasses import replace

    from repro.eval import default_setup, generate_campaign, nsync_results

    def evaluate():
        base_setup = default_setup("UM3", object_height=0.6)
        smooth_setup = replace(
            base_setup, machine=replace(base_setup.machine, lookahead=True)
        )
        results = {}
        for name, setup in (("stop-to-stop", base_setup),
                            ("lookahead", smooth_setup)):
            campaign = generate_campaign(
                setup,
                channels=("ACC",),
                n_train=6,
                n_benign_test=6,
                n_attack_runs=1,
                seed=5,
            )
            results[name] = (
                nsync_results(campaign, "ACC", "Raw"),
                campaign.reference.duration,
            )
        return results

    results = run_once(benchmark, evaluate)
    lines = ["Ablation — motion planner (UM3/ACC raw, NSYNC/DWM)"]
    for name, (result, duration) in results.items():
        lines.append(
            f"  {name:<13}: print {duration:5.1f} s, "
            f"{result.cell()}  acc={result.overall.accuracy:.2f}"
        )
    report("ablation_lookahead", "\n".join(lines))

    # Look-ahead shortens the print...
    assert results["lookahead"][1] < results["stop-to-stop"][1]
    # ...and NSYNC still detects attacks on the smoother signal.
    assert results["lookahead"][0].overall.tpr >= 0.8
