"""Golden ``DetectorState`` snapshots of three detection-engine streams.

Each stream is pushed in uneven chunks; at every boundary in
``BOUNDARIES`` the engine's ``state().to_dict()`` is dumped with
``json.dumps``, and after the last sample the finalized result is dumped
too.  One ``golden/engine_<name>.jsonl`` file holds those lines in order,
so a refactor of the engine's internals can be held to the byte:

* ``demo0`` — demo fleet stream 0 (:func:`repro.serve.model.demo_model`),
  one channel at 200 Hz, armed DWM;
* ``dwm3`` — a three-channel armed DWM stream with NaN bursts (quarantined
  windows) and a frozen channel that trips ``SENSOR_FAULT`` mid-stream;
* ``fastdtw`` — an un-armed FastDTW engine (point mode behind
  :class:`~repro.sync.base.BatchSyncCursor`) with a NaN burst.

Regenerate (only when the state layout is meant to change) with::

    PYTHONPATH=src python tests/core/engine_goldens.py
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.core import DetectionEngine, Thresholds
from repro.serve.model import demo_model, demo_observed
from repro.signals import Signal
from repro.sync import DwmParams, DwmSynchronizer, FastDtwSynchronizer

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"

#: Chunk boundaries (absolute sample index) at which the state is dumped.
BOUNDARIES: Dict[str, Tuple[int, ...]] = {
    "demo0": (1237, 3001, 5555, 7999),
    "dwm3": (333, 777, 1050, 1311),
    "fastdtw": (150, 320, 555),
}


def _textured(n: int, channels: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    base = np.cumsum(rng.standard_normal((n, channels)), axis=0)
    return base - np.linspace(0, 1, n)[:, np.newaxis] * base[-1]


def _demo0() -> Tuple[Callable[[], DetectionEngine], np.ndarray]:
    model = demo_model()
    return model.build_engine, demo_observed(0)


def _dwm3() -> Tuple[Callable[[], DetectionEngine], np.ndarray]:
    fs = 100.0
    reference = Signal(_textured(1500, 3, seed=1), fs)
    noise = np.random.default_rng(2).standard_normal((1500, 3))
    observed = reference.data + 0.3 * noise
    observed[400:430, 1] = np.nan     # one-channel burst: quarantined
    observed[900:905, :] = np.inf     # whole-row burst
    observed[1000:1200, 2] = observed[999, 2]  # 2 s frozen: SENSOR_FAULT
    params = DwmParams(t_win=1.0, t_hop=0.5, t_ext=0.5, t_sigma=0.25, eta=0.2)
    thresholds = Thresholds(c_c=50.0, h_c=20.0, v_c=0.5)

    def build() -> DetectionEngine:
        return DetectionEngine(
            reference, DwmSynchronizer(params), thresholds=thresholds
        )

    return build, observed


def _fastdtw() -> Tuple[Callable[[], DetectionEngine], np.ndarray]:
    reference = Signal(_textured(600, 1, seed=3), 100.0)
    observed = _textured(600, 1, seed=3) + 0.2 * np.random.default_rng(
        4
    ).standard_normal((600, 1))
    observed[200:212] = np.nan

    def build() -> DetectionEngine:
        return DetectionEngine(reference, FastDtwSynchronizer())

    return build, observed


STREAMS: Dict[str, Callable[[], Tuple[Callable[[], DetectionEngine], np.ndarray]]] = {
    "demo0": _demo0,
    "dwm3": _dwm3,
    "fastdtw": _fastdtw,
}


def chunks_between(lo: int, hi: int, seed: int) -> List[Tuple[int, int]]:
    """Uneven ``[a, b)`` spans tiling ``[lo, hi)`` (1-97 samples each)."""
    rng = np.random.default_rng(seed)
    spans = []
    while lo < hi:
        b = min(hi, lo + int(rng.integers(1, 98)))
        spans.append((lo, b))
        lo = b
    return spans


def final_payload(engine: DetectionEngine) -> str:
    """``json.dumps`` of everything ``finalize()`` hands back."""
    result = engine.finalize()
    f = result.features
    return json.dumps({
        "detection": (
            None if result.detection is None else result.detection.to_dict()
        ),
        "health": result.health.to_dict(),
        "quarantined_windows": list(result.quarantined_windows),
        "alerts": [a.to_dict() for a in result.alerts],
        "v_dist": np.asarray(result.v_dist, dtype=float).tolist(),
        "c_disp": f.c_disp.tolist(),
        "h_dist_filtered": f.h_dist_filtered.tolist(),
        "v_dist_filtered": f.v_dist_filtered.tolist(),
        "duration_mismatch": float(f.duration_mismatch),
    })


def record(name: str) -> List[str]:
    """The golden lines of one stream: a state per boundary, then final."""
    build, observed = STREAMS[name]()
    engine = build()
    lines: List[str] = []
    lo = 0
    for k, hi in enumerate(BOUNDARIES[name]):
        for a, b in chunks_between(lo, hi, seed=k):
            engine.push(observed[a:b])
        lines.append(json.dumps(engine.state().to_dict()))
        lo = hi
    for a, b in chunks_between(lo, observed.shape[0], seed=99):
        engine.push(observed[a:b])
    lines.append(final_payload(engine))
    return lines


def golden_path(name: str) -> Path:
    return GOLDEN_DIR / f"engine_{name}.jsonl"


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in STREAMS:
        path = golden_path(name)
        path.write_text("\n".join(record(name)) + "\n")
        print(f"{path}: {path.stat().st_size} bytes")


if __name__ == "__main__":
    main()
