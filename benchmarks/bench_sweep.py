"""Sweep-engine benchmarks and the parallel/caching regression gate.

Measures the experiment harness's execution engine itself, on a fixed
mid-size grid (the Figure 1 locate-free sweep -- CPU-bound, uniform
points, no shared state):

* ``serial_seconds``    -- the grid inline, ``jobs=1``, no cache.
* ``parallel_seconds``  -- the same grid, ``jobs=min(4, cpus)``.
* ``speedup``           -- serial / parallel.  Gated by a floor that
  scales with the cores actually available (2x on a 4-core runner,
  parity on a single-core box -- process fan-out cannot beat physics).
* ``warm_seconds``      -- a rerun against the populated result cache.
* ``warm_fraction``     -- warm / cold (cold = cache-populating run).
  Gated hard at 10 %: a warm rerun must be near-instant regardless of
  machine speed.
* ``hit_latency_ms``    -- per-point cache-hit cost.

Ratios, not wall-clocks, are gated, so the committed baseline
(``benchmarks/BENCH_sweep.json``) stays meaningful across machines; the
raw timings ride along for the record.

Usage::

    python benchmarks/bench_sweep.py                      # print + emit
    python benchmarks/bench_sweep.py --json out.json
    python benchmarks/bench_sweep.py \
        --check benchmarks/BENCH_sweep.json --tolerance 0.25

Also collected by pytest (``pytest benchmarks/bench_sweep.py``) as a
smoke test asserting the warm-cache floor.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
import tempfile
import time
from typing import Dict

from repro.harness import sweep
from repro.harness.cache import ResultCache
from repro.harness.sweep import SweepPoint

if __package__:
    from .bench_hotpath import environment_warnings
else:  # run as a script, so benchmarks/ is sys.path[0]
    from bench_hotpath import environment_warnings

#: Bump when the metric set or workload shapes change incompatibly.
SCHEMA = 1

#: A warm-cache rerun must cost at most this fraction of the cold run.
WARM_FRACTION_CEILING = 0.10

#: The grid: every (disk, free-fraction) locate-free point of Figure 1,
#: at enough trials that each point dwarfs process fan-out overhead.
FRACTIONS = [0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9]
TRIALS = 200


def usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def speedup_floor(cpus: int) -> float:
    """Minimum serial/parallel ratio the gate demands on this machine."""
    if cpus >= 4:
        return 2.0
    if cpus >= 2:
        return 1.25
    # Single core: only bound the engine's own overhead.  Points are
    # batched into a few tasks per worker, so the bound can sit near
    # parity (observed 0.84-1.04 across runs); per-point tasks used to
    # need 0.60 here.
    return 0.65


def _grid():
    return [
        SweepPoint(
            "repro.harness.experiments:_point_locate_free",
            {"disk_name": disk, "free_fraction": p, "trials": TRIALS},
            seed=1,
        )
        for disk in ("hp97560", "st19101")
        for p in FRACTIONS
    ]


def _timed_sweep(jobs: int, cache) -> float:
    points = _grid()
    start = time.perf_counter()
    sweep.run_sweep(points, jobs=jobs, cache=cache)
    return time.perf_counter() - start


def run_suite() -> Dict:
    """Run every metric; returns the BENCH_sweep.json payload."""
    cpus = usable_cpus()
    jobs = min(4, max(2, cpus)) if cpus > 1 else 2
    points = len(_grid())

    serial_seconds = min(_timed_sweep(jobs=1, cache=None) for _ in range(2))
    sweep.reset_stats()
    parallel_runs = 2
    parallel_seconds = min(
        _timed_sweep(jobs=jobs, cache=None) for _ in range(parallel_runs)
    )
    parallel_stats = sweep.reset_stats()

    cache_dir = tempfile.mkdtemp(prefix="bench-sweep-cache-")
    try:
        cache = ResultCache(cache_dir)
        cold_seconds = _timed_sweep(jobs=jobs, cache=cache)
        warm_seconds = min(
            _timed_sweep(jobs=jobs, cache=cache) for _ in range(3)
        )
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    return {
        "schema": SCHEMA,
        "grid_points": points,
        "jobs": jobs,
        "cpus": cpus,
        # Chunked submission: the whole grid rides in a few pool tasks
        # (several points each), not one task per point.
        "pool_tasks_per_run": parallel_stats.pool_tasks // parallel_runs,
        "seconds": {
            "serial": serial_seconds,
            "parallel": parallel_seconds,
            "cold_cached": cold_seconds,
            "warm_cached": warm_seconds,
        },
        "speedup": serial_seconds / parallel_seconds,
        "speedup_floor": speedup_floor(cpus),
        "warm_fraction": warm_seconds / cold_seconds,
        "hit_latency_ms": warm_seconds / points * 1e3,
        "environment": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
    }


def compare_to_baseline(
    result: Dict, baseline: Dict, tolerance: float
) -> list:
    """Return a list of human-readable failures (empty == gate passes)."""
    failures = []
    if baseline.get("schema") != result["schema"]:
        failures.append(
            f"schema mismatch: baseline {baseline.get('schema')} vs "
            f"current {result['schema']} -- re-record the baseline"
        )
        return failures
    floor = speedup_floor(result["cpus"])
    if result["speedup"] < floor:
        failures.append(
            f"parallel speedup {result['speedup']:.2f}x fell below the "
            f"{floor:.2f}x floor for {result['cpus']} usable core(s)"
        )
    ceiling = WARM_FRACTION_CEILING
    baseline_fraction = baseline.get("warm_fraction")
    if baseline_fraction is not None:
        ceiling = max(ceiling, baseline_fraction * (1.0 + tolerance))
    if result["warm_fraction"] > ceiling:
        failures.append(
            f"warm-cache rerun took {result['warm_fraction']:.1%} of the "
            f"cold run (ceiling {ceiling:.1%})"
        )
    return failures


def _print_report(result: Dict) -> None:
    seconds = result["seconds"]
    print(
        f"grid: {result['grid_points']} locate-free points, "
        f"jobs={result['jobs']} on {result['cpus']} usable core(s)"
    )
    for name in ("serial", "parallel", "cold_cached", "warm_cached"):
        print(f"{name:<14} {seconds[name]:>8.3f}s")
    print(
        f"speedup {result['speedup']:.2f}x "
        f"(floor {result['speedup_floor']:.2f}x); "
        f"warm rerun {result['warm_fraction']:.1%} of cold "
        f"({result['hit_latency_ms']:.2f} ms/point hit latency)"
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json",
        default="BENCH_sweep.json",
        help="where to write the results payload",
    )
    parser.add_argument(
        "--check",
        metavar="BASELINE",
        help="compare against a committed baseline and exit nonzero on "
        "regression",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional regression on the warm-cache ratio",
    )
    args = parser.parse_args(argv)

    result = run_suite()
    _print_report(result)
    with open(args.json, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote {args.json}")

    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        for warning in environment_warnings(result, baseline):
            print(f"PERF WARNING: {warning}", file=sys.stderr)
        failures = compare_to_baseline(result, baseline, args.tolerance)
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print(
            f"perf gate passed (tolerance {args.tolerance:.0%} vs "
            f"{args.check})"
        )
    return 0


# ----------------------------------------------------------------------
# pytest entry point (collected when running `pytest benchmarks/`)
# ----------------------------------------------------------------------


def test_sweep_engine_gate(benchmark):
    """Warm-cache reruns must stay near-instant; parallel fan-out must
    clear the per-machine speedup floor."""
    from .conftest import run_once

    result = run_once(benchmark, run_suite)
    _print_report(result)
    assert result["warm_fraction"] <= WARM_FRACTION_CEILING
    assert result["speedup"] >= speedup_floor(result["cpus"])


if __name__ == "__main__":
    sys.exit(main())
