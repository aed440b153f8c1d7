"""A fresh simulation worker imports no scipy.

``scipy.signal`` alone costs most of a second and tens of MB per process,
and every fresh ``CampaignEngine`` worker would pay it on its first run.
The firmware, sensors and DAQ therefore stay numpy-only; one new lazy
import anywhere on ``run_process``'s path would bring the cost back, so a
clean interpreter runs one short job per printer over every channel and
reports what it imported.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

_PROBE = """
import sys
from repro.eval.dataset import default_setup, run_process

channels = ("ACC", "MAG", "AUD", "EPT", "TMP")
for printer in ("UM3", "RM3"):
    setup = default_setup(printer, object_height=0.2)
    run = run_process(setup, setup.job(), "probe", False, 1, channels=channels)
    assert sorted(run.signals) == sorted(channels), sorted(run.signals)
print(sorted(name for name in sys.modules if name.startswith("scipy")))
"""


def test_run_process_imports_no_scipy():
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run(
        [sys.executable, "-c", _PROBE],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]", proc.stdout
