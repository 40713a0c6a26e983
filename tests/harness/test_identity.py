"""The depth-1 identity pin: engine path == synchronous path, bytewise.

The event engine refactor is only allowed to *reorganize* time, not to
change it.  The proof obligation: one closed-loop host at queue depth 1
under fifo must replay the synchronous
:func:`~repro.harness.runner.simulate_queued_workload` run exactly --
the same disk calls, in the same order, at the same clock instants, and
therefore bit-identical figure outputs.  These tests diff both: the full
``(op, sector, count, start, end)`` disk call sequence via a recording
shim on :class:`~repro.disk.disk.Disk`, and every scalar the figure
pipeline consumes.

CI runs this file as the dedicated figure-identity gate.
"""

import pytest

from repro.disk.disk import Disk
from repro.disk.specs import DISKS
from repro.harness.experiments import _point_multihost, _point_qdepth
from repro.harness.runner import simulate_queued_workload
from repro.hosts.multihost import run_multihost

SPEC = DISKS["st19101"]
REQUESTS = 120
WORKLOADS = ["random-update", "sequential", "mixed"]

#: Scalars produced by both paths and consumed by the figures.
FIGURE_KEYS = [
    "elapsed_seconds",
    "mean_service_ms",
    "p50_service_ms",
    "p95_service_ms",
    "p99_service_ms",
    "p999_service_ms",
    "mean_response_ms",
    "p99_response_ms",
    "p999_response_ms",
    "requests_per_second",
    "max_outstanding",
]


@pytest.fixture
def record_disk_calls(monkeypatch):
    """Shim Disk.read/write to log (op, sector, count, start, end)."""
    calls = []
    real_read, real_write = Disk.read, Disk.write

    def read(self, sector, count=1, *args, **kwargs):
        start = self.clock.now
        result = real_read(self, sector, count, *args, **kwargs)
        calls.append(("read", sector, count, start, self.clock.now))
        return result

    def write(self, sector, count=1, *args, **kwargs):
        start = self.clock.now
        result = real_write(self, sector, count, *args, **kwargs)
        calls.append(("write", sector, count, start, self.clock.now))
        return result

    monkeypatch.setattr(Disk, "read", read)
    monkeypatch.setattr(Disk, "write", write)
    return calls


@pytest.mark.parametrize("workload", WORKLOADS)
def test_disk_call_sequence_identical(record_disk_calls, workload):
    """The strongest form: every disk call, in order, with its exact
    service interval, matches between the two paths."""
    simulate_queued_workload(
        SPEC,
        queue_depth=1,
        policy="fifo",
        workload=workload,
        requests=REQUESTS,
        seed=3,
    )
    synchronous = list(record_disk_calls)
    record_disk_calls.clear()
    run_multihost(
        SPEC,
        hosts=1,
        disks=1,
        requests_per_host=REQUESTS,
        workload=workload,
        policy="fifo",
        seed=3,
    )
    engine = list(record_disk_calls)
    assert len(synchronous) == REQUESTS
    assert engine == synchronous  # op, sector, count, start, end -- all of it


@pytest.mark.parametrize("workload", WORKLOADS)
def test_figure_scalars_identical(workload):
    """Everything the qdepth/multihost figures plot is byte-identical
    (plain ==, no tolerance) at the depth-1 fifo point."""
    synchronous = simulate_queued_workload(
        SPEC,
        queue_depth=1,
        policy="fifo",
        workload=workload,
        requests=REQUESTS,
        seed=3,
    )
    engine = run_multihost(
        SPEC,
        hosts=1,
        disks=1,
        requests_per_host=REQUESTS,
        workload=workload,
        policy="fifo",
        seed=3,
    )
    for key in FIGURE_KEYS:
        assert engine[key] == synchronous[key], key


def test_sweep_point_functions_agree():
    """The exact functions the figures sweep: the qdepth point at depth 1
    and the multihost point at one host report the same scalars."""
    qdepth = _point_qdepth(
        seed=3,
        disk_name="st19101",
        queue_depth=1,
        policy="fifo",
        workload="random-update",
        requests=REQUESTS,
        think_us=200.0,
    )
    multihost = _point_multihost(
        seed=3,
        disk_name="st19101",
        hosts=1,
        disks=1,
        requests_per_host=REQUESTS,
        workload="random-update",
        policy="fifo",
        think_us=200.0,
    )
    for key in set(FIGURE_KEYS) & set(qdepth):
        assert multihost[key] == qdepth[key], key


def test_nvm_disabled_builds_no_wal_layer():
    """NVM off must be *free*: with the default nvm setting, neither
    build_device_stack nor the harness config path constructs an NVWal
    anywhere in the device chain -- the existing figures cannot change
    because the tier's code never runs.  (The byte-identity of the full
    quick figure set is checked by CI regenerating the harness output;
    this pins the structural half locally.)"""
    from repro.blockdev.interpose import build_device_stack
    from repro.harness.configs import STACKS, StackOverrides, build_stack
    from repro.nvm import NVWal

    def layers(device):
        seen = []
        while device is not None and len(seen) < 12:
            seen.append(device)
            device = getattr(device, "inner", None)
        return seen

    disk = Disk(DISKS["st19101"], num_cylinders=4)
    stack = build_device_stack(disk, "vld")
    assert not any(isinstance(layer, NVWal) for layer in layers(stack))
    # The harness path: a run without stack flags applies the default
    # overrides, which must leave the config -- and so the stack -- alone.
    config = STACKS["ufs-vld"]
    assert StackOverrides().apply(config) == config
    _fs, _disk, harness_stack = build_stack(StackOverrides().apply(config))
    assert not any(
        isinstance(layer, NVWal) for layer in layers(harness_stack)
    )

    # ... and the assertion has teeth: asking for the tier produces it.
    disk2 = Disk(DISKS["st19101"], num_cylinders=4)
    armed = build_device_stack(disk2, "vld", nvm="nvdimm")
    assert any(isinstance(layer, NVWal) for layer in layers(armed))
