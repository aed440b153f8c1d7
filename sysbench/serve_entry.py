"""The traced fleet server: ``repro serve`` with the ledger installed.

    python3 sysbench/serve_entry.py <summary.json> serve <model> [options]

Installs :func:`sysbench.ledger.install_serve` and enables the program's
own observability (its engine stage spans), then runs the unchanged
``repro`` command line.  On exit it writes the layer summary of the
window between the client's two ``ping`` marks to ``<summary.json>`` and
every span to ``spans/<pid>.jsonl`` beside it.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.dont_write_bytecode = True
_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]


def main() -> int:
    from repro import obs
    from repro.cli import main as repro_main
    from sysbench.ledger import Ledger, install_serve, stage_deltas, summarize

    summary_path = Path(sys.argv[1])
    ledger = Ledger(summary_path.parent / "spans")
    install_serve(ledger)
    obs.enable()
    code = repro_main(sys.argv[2:])
    marks = ledger.marks
    summary = {
        "marks": len(marks),
        "layers": summarize(ledger.spans, *ledger.window()),
        "stages": stage_deltas(marks[0]["obs"], marks[-1]["obs"]) if len(marks) >= 2 else {},
        "maxima": ledger.maxima,
    }
    summary_path.write_text(json.dumps(summary) + "\n")
    ledger.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
