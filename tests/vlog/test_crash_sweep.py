"""Crash-point sweep: kill the VLD at *every* physical write of a
workload and verify recovery (Section 3.2's atomicity/durability claims).

The :class:`~repro.blockdev.interpose.DiskFaultInjector` sits below the
logical layer, so the crash lands inside the VLD's internal data-write /
map-append sequence -- between the eager data write and the commit, on
the commit itself, or on a torn data write.  After every crash point:

* every acknowledged logical write reads back its exact payload;
* the interrupted write is atomic: its block reads entirely-old or
  entirely-new, never a mixture;
* the rebuilt indirection map is stable -- a second crash + recovery
  reproduces it identically.
"""

import random

import pytest

from repro.blockdev.interpose import DeviceCrashed, DiskFaultInjector
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.vlog.vld import VirtualLogDisk

_BLOCK = 4096
_WRITES = 12
_LBA_SPACE = 16  # small, to exercise rewrites (displacement + recycling)


def _payload(step: int, lba: int) -> bytes:
    return bytes([(37 * step + lba) % 251 + 1]) * _BLOCK


def _run_workload(vld):
    """Replay the deterministic workload to completion."""
    rng = random.Random(0xC4A5)
    for step in range(_WRITES):
        lba = rng.randrange(_LBA_SPACE)
        vld.write_block(lba, _payload(step, lba))


def _clean_run_write_count() -> int:
    disk = Disk(ST19101, num_cylinders=2)
    vld = VirtualLogDisk(disk)
    before = disk.counters.writes
    _run_workload(vld)
    return disk.counters.writes - before


def _sweep_points():
    return range(1, _clean_run_write_count() + 1)


@pytest.mark.parametrize("crash_at", list(_sweep_points()))
def test_recovery_is_consistent_at_every_crash_point(crash_at):
    disk = Disk(ST19101, num_cylinders=2)
    vld = VirtualLogDisk(disk)
    injector = DiskFaultInjector(
        crash_after_writes=crash_at, torn=True
    ).install(disk)

    rng = random.Random(0xC4A5)
    acked = {}
    in_flight = None
    crashed = False
    for step in range(_WRITES):
        lba = rng.randrange(_LBA_SPACE)
        payload = _payload(step, lba)
        try:
            vld.write_block(lba, payload)
        except DeviceCrashed:
            in_flight = (lba, payload, acked.get(lba))
            crashed = True
            break
        acked[lba] = payload
    injector.uninstall(disk)
    assert crashed, "sweep point beyond the workload's write count"

    vld.crash()
    outcome = vld.recover()
    assert outcome.scanned  # no power-down record was ever written

    # Durability: everything acknowledged reads back exactly.
    for lba, payload in acked.items():
        data, _ = vld.read_block(lba)
        assert data == payload, f"acked write to lba {lba} lost"

    # Atomicity: the interrupted write is all-old or all-new.
    lba, new, old = in_flight
    if lba not in acked:
        data, _ = vld.read_block(lba)
        before = old if old is not None else bytes(_BLOCK)
        assert data in (before, new), (
            f"torn state visible at lba {lba} after recovery"
        )

    vld.vlog.check_invariants()

    # Stability: a second crash + recovery rebuilds the identical map.
    first_map = dict(vld.imap.items())
    vld.crash()
    vld.recover()
    assert dict(vld.imap.items()) == first_map


def test_sweep_covers_multiple_writes_per_logical_write():
    # The VLD pays at least a data write and a map append per logical
    # write, so the sweep has strictly more crash points than the
    # workload has writes -- i.e. it really does land *inside* the
    # internal sequences.
    assert _clean_run_write_count() > _WRITES
