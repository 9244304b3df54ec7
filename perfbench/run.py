"""The repository's benchmark: one workload per run, one JSON line of metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload exact-cold --seed 1 --seconds 20 --trace 0

``--trace 0`` times the workload untraced and reports the end-to-end
metrics; ``--trace 1`` reports the per-layer metrics instead (see README.md).
The last line of standard output is ``{"correct", "attempted", "failed",
"metrics"}``.  Exits 2 without a result when the program's sources are not
next to the benchmark.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Every run times at least this many operations, so that ten or more
#: samples lie beyond the 90th percentile.
MIN_OPS = 100

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: A run stops after the round that crosses this many seconds even if it
#: has not reached MIN_OPS, so it always ends well within its time limit.
HARD_LIMIT_S = 120.0


def _parse(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def measure(workload, seconds: float, tracer) -> dict:
    """Run whole rounds until ``seconds`` and MIN_OPS are both reached.

    Traced runs alternate a disarmed and an armed round, run at least four
    and end on an armed one, so both halves time the same operations.
    """
    from workloads import Clock

    round_ops = workload.operations()
    records, errors = [], []
    attempted = rounds = 0
    start = time.perf_counter()
    while True:
        armed = tracer is not None and rounds % 2 == 1
        for op in round_ops:
            clock = Clock(attempted, tracer if armed else None)
            attempted += 1
            try:
                record = op(clock)
            except Exception as error:  # noqa: BLE001 - a failed operation is counted, not fatal
                errors.append(f"operation {clock.op}: {error!r}")
                continue
            record.update(seconds=clock.seconds, armed=armed, op=clock.op)
            records.append(record)
        rounds += 1
        elapsed = time.perf_counter() - start
        if tracer is not None and (rounds % 2 or rounds < 4):
            continue
        if (elapsed >= seconds and attempted >= MIN_OPS) or elapsed >= HARD_LIMIT_S:
            break
    return {"records": records, "errors": errors, "attempted": attempted, "wall": elapsed}


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(run: dict, setup_times: list[float], peak_kb: int) -> dict:
    latencies = [record["seconds"] * 1000.0 for record in run["records"]]
    return {
        "latency_ms_p50": _metric(statistics.median(latencies), "ms"),
        "latency_ms_p90": _metric(statistics.quantiles(latencies, n=10)[8], "ms"),
        "ops_per_s": _metric(len(latencies) / run["wall"], "1/s"),
        "setup_s": _metric(statistics.median(setup_times), "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources at {ROOT / 'src'}; run it from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from checks import CheckFailed
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    run_dir = ROOT / ".bench_run" / f"{args.workload}-{args.seed}-{time.time_ns()}"
    run_dir.mkdir(parents=True)
    workload = None
    try:
        setup_times = []
        for repeat in range(SETUP_REPEATS):
            if workload is not None:
                # Each set-up starts from a fresh workload and a collected
                # heap, so earlier set-ups neither share its memory nor
                # leave garbage for it to collect.
                workload.teardown()
                workload = None
                gc.collect()
            workload = WORKLOADS[args.workload](args.seed, run_dir, bool(args.trace))
            last = repeat == SETUP_REPEATS - 1
            if tracer is not None and last:
                tracer.begin("setup")
            started = time.perf_counter()
            workload.setup()
            setup_times.append(time.perf_counter() - started)
            if tracer is not None and last:
                tracer.end()
        workload.prepare_checks()
        # Move the inputs, the live set-up state and the checks' edge lists
        # into the permanent generation.  Otherwise every full collection in
        # the timed phase traverses them: on approx-large such collections
        # took up to 0.2 s each, a cost of the benchmark's own copies, which
        # landed on random operations and widened the percentiles.
        gc.collect()
        gc.freeze()
        run = measure(workload, args.seconds, tracer)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + workload.extra_peak_rss_kb()
    finally:
        if workload is not None:
            workload.teardown()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            run_dir.parent.rmdir()
        except OSError:  # another run still uses it
            pass

    failed = len(run["errors"])
    correct = True
    for record in run["records"]:
        try:
            workload.check(record)
        except CheckFailed as error:
            failed += 1
            correct = False
            run["errors"].append(f"operation {record['op']}: {error}")
    for message in run["errors"]:
        print(f"perfbench: {message}", file=sys.stderr)

    if tracer is None:
        metrics = end_to_end(run, setup_times, peak_kb)
    else:
        from layers import per_layer

        metrics = per_layer(run["records"], tracer.spans, workload.remote_spans, len(workload.operations()))
    print(json.dumps({"correct": correct, "attempted": run["attempted"], "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
