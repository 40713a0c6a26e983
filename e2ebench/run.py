"""End-to-end benchmark: simulator speed and modelled sync-write latency.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload ufs-vld-sync --seed 1 \\
        --seconds 12 --trace 0

A run repeats *rounds* of the chosen workload until ``--seconds`` of host
time have passed.  A round builds the stack and brings it to its start
state (timed as ``setup_s``), generates its seeded op stream, runs it (the
timed phases), then checks every read against an in-memory oracle and runs
the structural checkers.  A run uses :data:`SIM_ROUNDS` independent
streams derived from ``--seed`` and cycles through them; the simulated
metrics pool one round of each stream, and host-time metrics are medians
over all rounds.

``--trace 1`` first makes the untraced run, then one traced round of each
stream, and reports the per-layer metrics instead of the end-to-end ones.
The timed spans of the first traced round are written as JSON to
``e2ebench/out/``.

Human-readable lines go first; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 1 when any correctness check failed and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import sys
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: End-to-end metrics: name -> unit.  ``write_p50_ms``, ``write_p99_ms``
#: and ``error_rate`` are printed but are not driver metrics; see the
#: README for why.
END_TO_END = {
    "setup_s": "s",
    "host_ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "write_mean_ms": "ms",
    "read_p50_ms": "ms",
    "read_p99_ms": "ms",
}
REPORTED_ONLY = {
    "write_p50_ms": "ms",
    "write_p99_ms": "ms",
    "error_rate": "ratio",
}


def percentile(samples: List[float], fraction: float) -> float:
    """Nearest-rank percentile; needs at least ten samples beyond it."""
    ordered = sorted(samples)
    rank = math.ceil(fraction * len(ordered))
    if len(ordered) - rank < 10:
        raise ValueError(
            f"{len(ordered)} samples leave fewer than ten beyond "
            f"p{fraction * 100:g}"
        )
    return ordered[rank - 1]


#: Independent op streams per run, and so the fewest rounds a run makes.
#: Round ``r`` replays stream ``r % SIM_ROUNDS``; every later round must
#: reproduce its stream's latencies exactly.
SIM_ROUNDS = 3


#: Host speed drifts by tens of percent over minutes on a shared machine,
#: so host-time metrics are normalised by a fixed pure-Python calibration
#: loop (the one ``benchmarks/bench_hotpath.py`` uses, copied so that this
#: yardstick never changes) run after every round for CAL_SHARE of the
#: round's time.  They are reported as if on a host that runs the loop at
#: REFERENCE_RATE iterations per second.
CAL_SHARE = 0.1
CAL_CHUNK = 50_000
REFERENCE_RATE = 1e7


def calibrate(seconds: float) -> Tuple[int, float]:
    """Run the calibration loop for at least ``seconds``; returns
    (iterations, elapsed seconds)."""
    iterations = 0
    start = perf_counter()
    while True:
        acc = 0
        for i in range(CAL_CHUNK):
            acc = (acc + i * i) & 0xFFFFFFFF
        iterations += CAL_CHUNK
        elapsed = perf_counter() - start
        if elapsed >= seconds:
            return iterations, elapsed


def stream_seed(seed: int, stream: int) -> int:
    """The seed one stream of a run generates its inputs from."""
    return seed * SIM_ROUNDS + stream


@dataclass
class Round:
    stream: int
    setup_s: float
    timed_s: float
    ops: int
    attempted: int
    failures: List[str]
    write_lat: List[float]
    read_lat: List[float]
    layers: Dict[str, float] = field(default_factory=dict)
    consistency: List[str] = field(default_factory=list)
    spans: Optional[list] = None
    cal_iterations: int = 0
    cal_s: float = 0.0


def _counters(stack) -> Dict[str, float]:
    """Raw layer counters; the per-layer metrics are their deltas over
    the timed window."""
    disk = stack.disk
    c = {
        "disk.reads": disk.counters.reads,
        "disk.writes": disk.counters.writes,
        "disk.sectors_written": disk.counters.sectors_written,
        "disk.busy_s": disk.counters.busy_time,
        "disk.tb_hits": disk.cache.hits,
        "disk.tb_misses": disk.cache.misses,
        "sched.serviced": stack.scheduler.serviced,
        "sched.response_sum": stack.scheduler.response_times.sum,
        "sched.service_sum": stack.scheduler.service_times.sum,
    }
    fs = stack.fs
    if fs is not None:
        layer = type(fs).__name__.lower()  # "ufs" or "lfs"
        c[f"{layer}.cache_hits"] = fs.cache.hits
        c[f"{layer}.cache_misses"] = fs.cache.misses
        if layer == "lfs":
            c["lfs.segments_cleaned"] = fs.cleaner.segments_cleaned
            c["lfs.blocks_copied"] = fs.cleaner.blocks_copied
    vld = stack.vld
    if vld is not None:
        c["vlog.fallbacks"] = (
            vld.allocator.fallbacks + vld.map_allocator.fallbacks
        )
        c["vlog.appends"] = vld.vlog.appends
        c["vlog.relocations"] = vld.vlog.relocations
        c["vlog.blocks_moved"] = vld.compactor.blocks_moved
    wal = stack.nvwal
    if wal is not None:
        stats = wal.stats()
        for key in ("absorbed_writes", "bypassed_writes", "destaged_blocks",
                    "pressure_destages"):
            c[f"nvm.{key}"] = stats[key]
    return c


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer, spans, before, after, stack, verdict) -> Dict[str, float]:
    """The per-layer metrics of one traced round: each layer's self time,
    then the layers' counts, ratios and simulated breakdowns."""
    d = {k: after[k] - before[k] for k in after}
    g = d.get
    count = tracer.count
    m = {
        f"{layer}.self_s": seconds
        for layer, seconds in tracer.self_times(spans).items()
    }
    m.update({
        "ufs.bitmap.calls": count(spans, "Bitmap.find_free_run")
        + count(spans, "Bitmap.find_frag_run"),
        "ufs.buffer_cache.hit_ratio": _ratio(
            g("ufs.cache_hits", 0),
            g("ufs.cache_hits", 0) + g("ufs.cache_misses", 0),
        ),
        "lfs.file_cache.hit_ratio": _ratio(
            g("lfs.cache_hits", 0),
            g("lfs.cache_hits", 0) + g("lfs.cache_misses", 0),
        ),
        "lfs.cleaner.segments_cleaned": g("lfs.segments_cleaned", 0),
        "lfs.cleaner.blocks_copied_per_segment": _ratio(
            g("lfs.blocks_copied", 0), g("lfs.segments_cleaned", 0)
        ),
        "vlog.allocator.calls": count(spans, "EagerAllocator.allocate")
        + count(spans, "EagerAllocator.allocate_run"),
        "vlog.allocator.fallbacks": g("vlog.fallbacks", 0),
        "vlog.log.appends": g("vlog.appends", 0),
        "vlog.log.relocations": g("vlog.relocations", 0),
        "vlog.compactor.blocks_moved": g("vlog.blocks_moved", 0),
        "disk.reads": d["disk.reads"],
        "disk.writes": d["disk.writes"],
        "disk.sectors_written_per_user_byte": _ratio(
            d["disk.sectors_written"], verdict.user_bytes_written
        ),
        "disk.busy_s": d["disk.busy_s"],
        "disk.track_buffer.hit_ratio": _ratio(
            d["disk.tb_hits"], d["disk.tb_hits"] + d["disk.tb_misses"]
        ),
        "sched.serviced": d["sched.serviced"],
        "sched.max_outstanding": stack.scheduler.max_outstanding,
        "sched.satf_pick.calls": count(spans, "SATFPolicy.pick"),
        "sched.wait_ms": 1e3 * _ratio(
            d["sched.response_sum"] - d["sched.service_sum"],
            d["sched.serviced"],
        ),
        "nvm.absorbed_writes": g("nvm.absorbed_writes", 0),
        "nvm.destaged_blocks": g("nvm.destaged_blocks", 0),
        "nvm.pressure_destages": g("nvm.pressure_destages", 0),
    })
    writes = len(verdict.write_lat)
    for part, seconds in verdict.write_parts.items():
        m[f"disk.write.{part}_ms"] = 1e3 * _ratio(seconds, writes)
    return m


def consistency(tracer, spans, before, after, stack) -> List[str]:
    """Span counts against the layers' own counters over the same window;
    returns one message per disagreement."""
    d = {k: after[k] - before[k] for k in after}
    count = tracer.count
    checks = {
        "disk.reads": (count(spans, "Disk.read"), d["disk.reads"]),
        "disk.writes": (
            count(spans, "Disk.write", not_parent="Disk.write_run")
            + count(spans, "Disk.write_run"),
            d["disk.writes"],
        ),
    }
    if "lfs.segments_cleaned" in d:
        checks["Cleaner.segments_cleaned"] = (
            count(spans, "LFS.copy_live_blocks"), d["lfs.segments_cleaned"]
        )
    if "vlog.blocks_moved" in d:
        checks["FreeSpaceCompactor.blocks_moved"] = (
            count(spans, "VirtualLogDisk.move_block",
                  ancestor="FreeSpaceCompactor.run_for"),
            d["vlog.blocks_moved"],
        )
    if "nvm.absorbed_writes" in d:
        checks["NVWal.absorbed_writes"] = (
            count(spans, "NVWal.write_blocks") - d["nvm.bypassed_writes"],
            d["nvm.absorbed_writes"],
        )
        checks["NVWal.destaged_blocks"] = (
            count(spans, "VirtualLogDisk.write_blocks",
                  parent="NVWal._destage"),
            d["nvm.destaged_blocks"],
        )
        checks["NVWal.pressure_destages"] = (
            count(spans, "NVWal._destage", parent="NVWal.write_blocks"),
            d["nvm.pressure_destages"],
        )
    return [
        f"{name}: spans say {spans_n}, counter says {counter_n}"
        for name, (spans_n, counter_n) in checks.items()
        if spans_n != counter_n
    ]


def run_round(workload, seed: int, stream: int, tracer=None,
              keep_spans: bool = False) -> Round:
    """Set up, run and check one stream; with a tracer, also attribute
    the round's host time to layers."""
    from workloads import run_ops, verify

    sub_seed = stream_seed(seed, stream)
    gc.collect()
    if tracer is not None:
        tracer.install()
    try:
        if tracer is not None:
            tracer.request = -1
            tracer.active = True
        start = perf_counter()
        stack = workload.setup(sub_seed)
        setup_s = perf_counter() - start
        if tracer is not None:
            tracer.active = False
            setup_spans = tracer.take()
            before = _counters(stack)
        phases = workload.phases(stack, sub_seed)
        timed_s = 0.0
        results = []
        checks = []
        first_op = 0
        for index, ops in enumerate(phases):
            if tracer is not None:
                tracer.active = True
            start = perf_counter()
            results.append(run_ops(stack, ops, first_op, tracer))
            timed_s += perf_counter() - start
            if tracer is not None:
                tracer.active = False
            first_op += len(ops)
            checks.extend(workload.between(stack, index))
    finally:
        if tracer is not None:
            tracer.active = False
            tracer.uninstall()
    if tracer is not None:
        after = _counters(stack)
    checks.extend(workload.check(stack))
    verdict = verify(stack, phases, results)
    result = Round(
        stream=stream,
        setup_s=setup_s,
        timed_s=timed_s,
        ops=first_op,
        attempted=first_op + len(checks),
        failures=verdict.failures + [
            f"{name}: {error}" for name, error in checks if error
        ],
        write_lat=verdict.write_lat,
        read_lat=verdict.read_lat,
    )
    result.cal_iterations, result.cal_s = calibrate(
        CAL_SHARE * (setup_s + timed_s)
    )
    if tracer is not None:
        spans = tracer.take()
        result.layers = layer_metrics(
            tracer, spans, before, after, stack, verdict
        )
        for layer, seconds in tracer.self_times(setup_spans).items():
            result.layers[f"setup.{layer}.self_s"] = seconds
        result.consistency = consistency(tracer, spans, before, after, stack)
        if keep_spans:
            result.spans = spans
    return result


def measure(workload, seed: int, seconds: float) -> List[Round]:
    """Untraced rounds until ``seconds`` have passed (at least one of
    each stream)."""
    rounds: List[Round] = []
    start = perf_counter()
    while len(rounds) < SIM_ROUNDS or perf_counter() - start < seconds:
        rounds.append(run_round(workload, seed, len(rounds) % SIM_ROUNDS))
    return rounds


def simulated(rounds: List[Round]) -> Dict[str, float]:
    """Simulated-time metrics over the pooled latencies of one round of
    each stream."""
    writes = [x for r in rounds[:SIM_ROUNDS] for x in r.write_lat]
    reads = [x for r in rounds[:SIM_ROUNDS] for x in r.read_lat]
    return {
        "write_mean_ms": 1e3 * statistics.fmean(writes),
        "write_p50_ms": 1e3 * percentile(writes, 0.50),
        "write_p99_ms": 1e3 * percentile(writes, 0.99),
        "read_p50_ms": 1e3 * percentile(reads, 0.50),
        "read_p99_ms": 1e3 * percentile(reads, 0.99),
    }


def problems(rounds: List[Round], reference: List[Round]) -> List[str]:
    """Failures, consistency breaks, and any round whose simulated
    latencies differ from its stream's reference round (the model is
    deterministic given the seed)."""
    found: List[str] = []
    for i, r in enumerate(rounds):
        found.extend(f"round {i}: {f}" for f in r.failures)
        found.extend(f"round {i}: {c}" for c in r.consistency)
        ref = reference[r.stream]
        if (r.write_lat, r.read_lat) != (ref.write_lat, ref.read_lat):
            found.append(
                f"round {i}: simulated latencies differ from the first "
                f"round of stream {r.stream}"
            )
    return found


def host_speed(rounds: List[Round]) -> float:
    """This host's speed over the rounds, relative to the reference."""
    rate = sum(r.cal_iterations for r in rounds) / sum(r.cal_s for r in rounds)
    return rate / REFERENCE_RATE


def _ops_per_s(rounds: List[Round]) -> float:
    """Normalised timed ops per second.  Total over total, not a median of
    rounds: the mean over the whole run averages the host's drift best."""
    ops_per_s = sum(r.ops for r in rounds) / sum(r.timed_s for r in rounds)
    return ops_per_s / host_speed(rounds)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"e2ebench: library sources not found at {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, HERE]
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(
            f"unknown workload {args.workload!r}; "
            f"choose from {', '.join(WORKLOADS)}"
        )
    workload = WORKLOADS[args.workload]

    rounds = measure(workload, args.seed, args.seconds)
    found = problems(rounds, rounds)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(len(r.failures) for r in rounds)
    untraced_ops_per_s = _ops_per_s(rounds)

    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        traced = [
            run_round(workload, args.seed, stream, tracer,
                      keep_spans=stream == 0)
            for stream in range(SIM_ROUNDS)
        ]
        found.extend(problems(traced, rounds))
        attempted += sum(r.attempted for r in traced)
        failed += sum(len(r.failures) for r in traced)
        metrics = {
            name: statistics.median(r.layers[name] for r in traced)
            for name in traced[0].layers
        }
        metrics["bench.trace_overhead_frac"] = (
            1.0 - _ops_per_s(traced) / untraced_ops_per_s
        )
        path = _write_spans(
            args.workload, args.seed, tracer, traced[0].spans, metrics
        )
        print(f"spans: {len(traced[0].spans)} written to "
              f"{os.path.relpath(path, ROOT)}")
        units = {name: _layer_unit(name) for name in metrics}
    else:
        metrics = simulated(rounds)
        metrics["setup_s"] = (
            statistics.median(r.setup_s for r in rounds) * host_speed(rounds)
        )
        metrics["host_ops_per_s"] = untraced_ops_per_s
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        )
        metrics["error_rate"] = failed / attempted
        units = {**END_TO_END, **REPORTED_ONLY}

    print(f"workload {args.workload}  seed {args.seed}  rounds "
          f"{len(rounds)}  ops/round {rounds[0].ops}  host speed "
          f"{host_speed(rounds):.4f} of the reference")
    for name, unit in units.items():
        print(f"  {name:40s} {metrics[name]:16.6f} {unit}")
    # Standard error too, so that a log keeping only its tail shows why.
    for stream in (sys.stdout, sys.stderr):
        for problem in found[:20]:
            print(f"FAILED: {problem}", file=stream)
        if len(found) > 20:
            print(f"FAILED: ... {len(found) - 20} more", file=stream)
    report = {
        "correct": not found,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name not in REPORTED_ONLY
        },
    }
    print(json.dumps(report))
    return 0 if not found else 1


def _layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_ratio", "_frac")):
        return "ratio"
    if name.endswith("per_user_byte"):
        return "sectors/B"
    if name.endswith("per_segment"):
        return "blocks"
    return "count"


def _write_spans(workload: str, seed: int, tracer, spans, metrics) -> str:
    """Write one traced round's spans as columnar JSON: ``spans`` holds
    parallel lists, times are integer nanoseconds from the first span's
    start, and ``name`` indexes ``names``."""
    from tracing import END, NAME, PARENT, REQUEST, START

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"spans-{workload}-seed{seed}.json")
    origin = spans[0][START] if spans else 0.0
    columns = {
        "name": [r[NAME] for r in spans],
        "start": [round((r[START] - origin) * 1e9) for r in spans],
        "end": [round((r[END] - origin) * 1e9) for r in spans],
        "parent": [r[PARENT] for r in spans],
        "request": [r[REQUEST] for r in spans],
    }
    with open(path, "w") as handle:
        json.dump(
            {
                "workload": workload,
                "seed": seed,
                "time_unit": "ns",
                "bench.trace_overhead_frac":
                    metrics["bench.trace_overhead_frac"],
                "names": [
                    {"layer": layer, "name": name}
                    for layer, name in tracer.names
                ],
                "spans": columns,
            },
            handle,
            separators=(",", ":"),
        )
    return path


if __name__ == "__main__":
    sys.exit(main())
