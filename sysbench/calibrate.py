"""Repeat the benchmark and report each metric's median, quartiles, spread.

    python3 sysbench/calibrate.py --repeat 10 [--workload W ...] [--seconds 20] [--json OUT]

Runs ``run.py`` untraced with seeds 0 .. repeat-1, once per workload,
cycling through the workloads seed by seed so slow drift on the machine
spreads over all of them, and prints per workload and metric the median,
the quartiles and the spread ``(q3 - q1) / median`` -- the figure each
end-to-end metric's bound in BENCHMARK.json must cover.  Also reports
each run's wall time, which the whole benchmark's time budget is made of.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from sysbench.common import WORKLOADS, quartile_spread  # noqa: E402


def run_once(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=str(HERE.parent),
        capture_output=True,
        text=True,
        timeout=900,
    )
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(
            f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stdout}{proc.stderr}"
        )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--repeat", type=int, default=5)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--json", type=Path, default=None)
    args = parser.parse_args(argv)
    workloads = args.workload or list(WORKLOADS)

    runs: Dict[str, List[Dict[str, object]]] = {w: [] for w in workloads}
    for seed in range(args.repeat):
        for workload in workloads:
            result = run_once(workload, seed, args.seconds)
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {result['wall_s']:.1f} s", file=sys.stderr)

    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload, results in runs.items():
        print(f"\n{workload} ({len(results)} runs)")
        print(f"  {'metric':34s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>7s}")
        names = list(results[0]["metrics"]) + ["wall_s"]
        summary[workload] = {}
        for name in names:
            values = [
                r["wall_s"] if name == "wall_s" else r["metrics"][name]["value"]
                for r in results
            ]
            q1, med, q3, spread = quartile_spread(values) if len(values) > 1 else (
                values[0], values[0], values[0], 0.0
            )
            summary[workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "values": values
            }
            print(f"  {name:34s} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:7.3f}")
    if args.json is not None:
        args.json.write_text(json.dumps(summary, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
