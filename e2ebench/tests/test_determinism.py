"""The simulated results and per-layer counts depend on the seed only:
not on the process, its hash seed, or the tracer."""

import json
import os
import subprocess
import sys

import pytest

from conftest import E2E, SRC
from run import stream_seed
from workloads import WORKLOADS

#: Prints one stream's simulated latencies and per-layer counts as JSON.
FINGERPRINT = """
import json, sys
sys.path[:0] = [{src!r}, {e2e!r}]
import run
from tracing import Tracer
from workloads import WORKLOADS

workload = WORKLOADS[{workload!r}]
plain = run.run_round(workload, {seed}, 0)
traced = run.run_round(workload, {seed}, 0, Tracer())
counts = {{k: v for k, v in traced.layers.items() if not k.endswith("_s")}}
print(json.dumps({{
    "writes": plain.write_lat,
    "reads": plain.read_lat,
    "traced_equal": (traced.write_lat, traced.read_lat)
    == (plain.write_lat, plain.read_lat),
    "counts": counts,
    "failures": plain.failures + traced.failures + traced.consistency,
}}))
"""


def fingerprint(workload: str, seed: int, hash_seed: str) -> dict:
    code = FINGERPRINT.format(src=SRC, e2e=E2E, workload=workload, seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env, capture_output=True, text=True, timeout=300, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_results_across_hash_seeds(workload):
    first = fingerprint(workload, 5, "0")
    second = fingerprint(workload, 5, "4242")
    assert first["failures"] == [] and second["failures"] == []
    assert first["traced_equal"] and second["traced_equal"]
    assert first["writes"] == second["writes"]
    assert first["reads"] == second["reads"]
    assert first["counts"] == second["counts"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_seed_selects_the_op_stream(workload):
    w = WORKLOADS[workload]
    one, two = stream_seed(1, 0), stream_seed(2, 0)
    stack = w.setup(one)
    assert w.phases(stack, one) == w.phases(stack, one)
    assert w.phases(stack, one) != w.phases(stack, two)
