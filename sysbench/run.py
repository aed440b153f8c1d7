"""Run one workload of the system benchmark and print its metrics.

    python3 sysbench/run.py --workload W --seed S --seconds T --trace 0|1

The last stdout line is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with ``--trace 0``,
the per-layer ledger with ``--trace 1``).  Lines before it starting with
``#`` are informational.  Any correctness failure or invalid run exits
non-zero without a result line.  See README.md.
"""

from __future__ import annotations

import argparse
import os
import shutil
import signal
import sys
from pathlib import Path

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"

_ROOT = Path(__file__).resolve().parent.parent
if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
    sys.exit(f"sysbench: no program to measure: {_ROOT / 'src' / 'repro'} is missing")
sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]

from sysbench import campaign, fleet  # noqa: E402
from sysbench.common import (  # noqa: E402
    E2E_METRICS,
    LAYER_METRICS,
    OUT,
    WORKLOADS,
    BenchError,
    result_line,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    # A terminated run still unwinds, so its server processes are stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    shutil.rmtree(OUT, ignore_errors=True)
    OUT.mkdir(parents=True)
    module = fleet if args.workload.startswith("fleet") else campaign
    try:
        if args.trace:
            values, attempted, failed, correct = module.run_traced(
                args.workload, args.seed, args.seconds
            )
            declared = LAYER_METRICS
        else:
            values, attempted, failed, correct = module.run(
                args.workload, args.seed, args.seconds
            )
            declared = E2E_METRICS
        line = result_line(correct, attempted, failed, values, declared)
    except BenchError as exc:
        print(f"sysbench: {args.workload}: {exc}", file=sys.stderr)
        return 1
    if not correct:
        print(f"sysbench: {args.workload}: outputs are wrong", file=sys.stderr)
        return 1
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
