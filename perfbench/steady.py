"""Steadiness check: run each workload repeatedly, each run in its own process.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workload NAME ...] [--runs 10] [--first-seed 1]

Runs ``perfbench/run.py --trace 0`` once per seed and prints, for every
end-to-end metric, the median, the first and third quartiles, and the spread
``(q3 - q1) / median`` next to the metric's bound in ``BENCHMARK.json``, plus
the share of failed operations.  Exits 1 when a run exits with an error,
reports an incorrect answer or fails any operation, or when a spread other
than ``setup_s``'s exceeds its bound.  ``setup_s``'s spread is printed but
not held to its bound: one set-up is dominated by starting a process, whose
time varies by up to a tenth of a second, so the bound on ``setup_s`` guards
the drift of its median between two sets of runs instead.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = parser.parse_args(argv)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    steady = True
    for workload in args.workload or [w["name"] for w in spec["workloads"]]:
        values: dict[str, list[float]] = {name: [] for name in bounds}
        shares = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            command = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            started = time.monotonic()
            done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=900)
            wall = time.monotonic() - started
            if done.returncode != 0:
                print(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
                return 1
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if result["failed"]:
                print(f"{workload} seed {seed}: {result['failed']} failed\n{done.stderr}", file=sys.stderr)
            steady &= result["correct"] and not result["failed"]
            shares.append(result["failed"] / result["attempted"])
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed} ({wall:.0f} s): " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds), flush=True)
        print(f"{workload}: failed share {sorted(set(shares))}")
        for name, series in values.items():
            q1, median, q3 = statistics.quantiles(series, n=4)
            spread = (q3 - q1) / median
            within = name == "setup_s" or spread <= bounds[name]
            steady &= within
            print(f"  {name:16s} median {median:10.4g}  q1 {q1:10.4g}  q3 {q3:10.4g}  "
                  f"spread {spread:6.3f}  bound {bounds[name]:.3f}  {'ok' if within else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
