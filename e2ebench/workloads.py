"""The benchmark's three workloads: stacks, seeded op streams, oracle checks.

Every workload is a :class:`Workload` with three steps:

* ``setup(seed)`` builds the stack through the library's public API and
  brings it to its start state (fill or scatter-fill).  The caller times
  it as ``setup_s``.
* ``phases(stack, seed)`` returns the timed op stream, generated from the
  seed before timing starts, as a list of phases.  Between phases the
  runner calls untimed hooks (cache drops, checkers).
* ``check(stack)`` runs the structural checkers after the timed window.

Ops are plain tuples ``(kind, lba, count, arg)``; ``lba`` is a file block
index for the file-system workloads and a device block for the block-level
one.  Every written block carries a unique payload tagged with its op index
and block number, so a read-back mismatch names the write it lost.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import Disk, ReadAheadPolicy, ST19101, VirtualLogDisk
from repro.harness.configs import StackConfig, build_stack
from repro.nvm import NVWal
from repro.sim.stats import COMPONENTS
from repro.ufs.fsck import fsck
from repro.vlog import vlfsck

BLOCK = 4096

WRITE, READ, IDLE, POWER_DOWN, CRASH, RECOVER = range(6)
KIND_NAMES = ("write", "read", "idle", "power_down", "crash", "recover")

_TAG = struct.Struct("<8sqqq")
_REPEAT = BLOCK // _TAG.size
#: Op index stamped on blocks written while setting up (not a timed op).
SETUP_OP = -1


def payload(seed: int, op: int, lba: int) -> bytes:
    """One block, unique to (seed, op index, block number)."""
    return _TAG.pack(b"e2ebench", seed, op, lba) * _REPEAT


def seed_tag(seed: int) -> int:
    """The seed as a signed 64-bit payload field."""
    return seed & 0x7FFF_FFFF_FFFF_FFFF


def _disk_bytes() -> int:
    spec = ST19101
    return (
        spec.sim_cylinders
        * spec.tracks_per_cylinder
        * spec.sectors_per_track
        * spec.sector_bytes
    )


@dataclass
class Stack:
    """A built stack plus the handles the runner and tracer read.

    ``read``/``write``/``idle`` look their target method up on every call,
    so wrappers the tracer installs on the classes are seen."""

    read: Callable[[int, int], Tuple[bytes, object]]
    write: Callable[[int, int, bytes], object]
    idle: Callable[[float], object]
    disk: object
    scheduler: object
    fs: object = None
    vld: object = None
    nvwal: object = None
    #: Expected contents after setup: block -> payload (absent = zeros).
    oracle: Dict[int, bytes] = field(default_factory=dict)
    #: Blocks the read-back phases cover.
    blocks: int = 0


#: One checker run: (checker name, error summary or None when clean).
Check = Tuple[str, Optional[str]]


class Workload:
    name = ""

    def setup(self, seed: int) -> Stack:
        raise NotImplementedError

    def phases(self, stack: Stack, seed: int) -> List[List[tuple]]:
        raise NotImplementedError

    def between(self, stack: Stack, index: int) -> List[Check]:
        """Untimed hook after phase ``index``; returns the checks it ran."""
        return []

    def check(self, stack: Stack) -> List[Check]:
        """Structural checkers after the timed window."""
        return []


def _readback(blocks: int, run: int) -> List[tuple]:
    return [
        (READ, lba, min(run, blocks - lba), None)
        for lba in range(0, blocks, run)
    ]


def _vlfsck(vld) -> Check:
    report = vlfsck(vld)
    return ("vlfsck", None if report.ok else report.summary())


class FileBursts(Workload):
    """Bursts of random synchronous 4 KB updates to one file filling ~80%
    of the disk, idle gaps between them, then a read-back of the file."""

    PATH = "/update"
    UTILIZATION = 0.8
    FILL_CHUNK = 64
    #: Read-back request size in blocks: after the updates, most 16 KB
    #: pieces of the file are fragmented, so reads take real positioning.
    READBACK_RUN = 4

    def __init__(self, name, config, bursts, burst_writes, idle_s):
        self.name = name
        self.config = config
        self.bursts = bursts
        self.burst_writes = burst_writes
        self.idle_s = idle_s

    def setup(self, seed: int) -> Stack:
        fs, disk, device = build_stack(self.config)
        blocks = int(self.UTILIZATION * _disk_bytes()) // BLOCK
        tag = seed_tag(seed)
        oracle = {lba: payload(tag, SETUP_OP, lba) for lba in range(blocks)}
        fs.create(self.PATH)
        for lba in range(0, blocks, self.FILL_CHUNK):
            end = min(blocks, lba + self.FILL_CHUNK)
            fs.write(
                self.PATH,
                lba * BLOCK,
                b"".join(oracle[b] for b in range(lba, end)),
            )
        fs.sync()
        fs.drop_caches()
        path = self.PATH
        return Stack(
            read=lambda lba, count: fs.read(path, lba * BLOCK, count * BLOCK),
            write=lambda lba, count, data: fs.write(
                path, lba * BLOCK, data, sync=True
            ),
            idle=lambda seconds: fs.idle(seconds),
            disk=disk,
            scheduler=device.scheduler,
            fs=fs,
            vld=device if isinstance(device, VirtualLogDisk) else None,
            oracle=oracle,
            blocks=blocks,
        )

    def phases(self, stack: Stack, seed: int) -> List[List[tuple]]:
        rng = random.Random(f"{self.name}:{seed}")
        tag = seed_tag(seed)
        updates: List[tuple] = []
        for _ in range(self.bursts):
            for _ in range(self.burst_writes):
                lba = rng.randrange(stack.blocks)
                updates.append(
                    (WRITE, lba, 1, payload(tag, len(updates), lba))
                )
            updates.append((IDLE, 0, 0, self.idle_s))
        readback = _readback(stack.blocks, self.READBACK_RUN)
        rng.shuffle(readback)
        return [updates, readback]

    def between(self, stack: Stack, index: int) -> List[Check]:
        # The read-back must come from the disk, not the host cache.
        stack.fs.drop_caches()
        return []

    def check(self, stack: Stack) -> List[Check]:
        checks: List[Check] = []
        if self.config.fs_type == "ufs":
            report = fsck(stack.fs)
            checks.append(("fsck", None if report.ok else report.summary()))
        if stack.vld is not None:
            checks.append(_vlfsck(stack.vld))
        return checks


class NVMMixed(Workload):
    """Block-level mixed reads and synchronous writes through an NVDIMM
    write-ahead tier over a scatter-filled depth-4 SATF VLD, ending in
    power_down -> crash -> recover and a full read-back."""

    name = "nvm-vld-mixed"
    FILL = 0.7
    OPS = 2400
    MAX_BLOCKS = 8
    IDLE_EVERY = 32
    IDLE_S = 0.05
    READBACK_RUN = 8

    def setup(self, seed: int) -> Stack:
        disk = Disk(ST19101, readahead=ReadAheadPolicy.FULL_TRACK)
        vld = VirtualLogDisk(disk, queue_depth=4, sched="satf")
        rng = random.Random(f"{self.name}:fill:{seed}")
        tag = seed_tag(seed)
        oracle: Dict[int, bytes] = {}
        for lba in rng.sample(range(vld.num_blocks), int(self.FILL * vld.num_blocks)):
            data = payload(tag, SETUP_OP, lba)
            vld.write_block(lba, data)
            oracle[lba] = data
        wal = NVWal(vld)
        return Stack(
            read=lambda lba, count: wal.read_blocks(lba, count),
            write=lambda lba, count, data: wal.write_blocks(lba, count, data),
            idle=lambda seconds: wal.idle(seconds),
            disk=disk,
            scheduler=vld.scheduler,
            vld=vld,
            nvwal=wal,
            oracle=oracle,
            blocks=vld.num_blocks,
        )

    def phases(self, stack: Stack, seed: int) -> List[List[tuple]]:
        rng = random.Random(f"{self.name}:{seed}")
        tag = seed_tag(seed)
        mixed: List[tuple] = []
        for i in range(self.OPS):
            count = rng.randint(1, self.MAX_BLOCKS)
            lba = rng.randrange(stack.blocks - count + 1)
            if rng.random() < 0.5:
                data = b"".join(
                    payload(tag, i, lba + k) for k in range(count)
                )
                mixed.append((WRITE, lba, count, data))
            else:
                mixed.append((READ, lba, count, None))
            if i % self.IDLE_EVERY == self.IDLE_EVERY - 1:
                mixed.append((IDLE, 0, 0, self.IDLE_S))
        return [
            mixed,
            [(POWER_DOWN, 0, 0, None)],
            [(CRASH, 0, 0, None), (RECOVER, 0, 0, None)]
            + _readback(stack.blocks, self.READBACK_RUN),
        ]

    def between(self, stack: Stack, index: int) -> List[Check]:
        # After the orderly power-down the VLD is quiescent: check it
        # before the crash throws its volatile state away.
        return [_vlfsck(stack.vld)] if index == 1 else []

    def check(self, stack: Stack) -> List[Check]:
        return [_vlfsck(stack.vld)]


#: The burst and idle shapes follow the paper's Figures 11 (UFS on the VLD,
#: idle gaps for the compactor) and 10 (LFS with NVRAM; each 8 MB burst
#: overflows the 6.1 MB NVRAM, so flushes and cleaning are timed).  Every
#: stream has over a thousand writes and reads, so p99 has ten samples
#: beyond it.
WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        FileBursts(
            "ufs-vld-sync",
            StackConfig("ufs-vld", "ufs", "vld"),
            bursts=24,
            burst_writes=64,
            idle_s=0.1,
        ),
        FileBursts(
            "lfs-nvram-sync",
            StackConfig("lfs-nvram", "lfs", "regular", nvram=True),
            bursts=3,
            burst_writes=2048,
            idle_s=2.0,
        ),
        NVMMixed(),
    )
}


# ----------------------------------------------------------------------
# Running a phase and checking its results
# ----------------------------------------------------------------------


def run_ops(stack: Stack, ops: List[tuple], first_op: int,
            tracer=None) -> List[object]:
    """Run ``ops`` in order; returns one result per op (the op's return
    value, or the exception it raised).  ``tracer.request`` is set to the
    op index so spans group by request."""
    results: List[object] = [None] * len(ops)
    read, write, idle = stack.read, stack.write, stack.idle
    target = stack.nvwal
    for i, (kind, lba, count, arg) in enumerate(ops):
        if tracer is not None:
            tracer.request = first_op + i
        try:
            if kind == WRITE:
                results[i] = write(lba, count, arg)
            elif kind == READ:
                results[i] = read(lba, count)
            elif kind == IDLE:
                results[i] = idle(arg)
            elif kind == POWER_DOWN:
                results[i] = target.power_down()
            elif kind == CRASH:
                results[i] = target.crash()
            else:
                results[i] = target.recover()
        except Exception as exc:  # an op that raises counts as failed
            results[i] = exc
    return results


@dataclass
class Verdict:
    """Per-op outcome of the oracle check over one round."""

    failures: List[str] = field(default_factory=list)
    write_lat: List[float] = field(default_factory=list)
    read_lat: List[float] = field(default_factory=list)
    #: Summed simulated breakdown of the writes, per latency component.
    write_parts: Dict[str, float] = field(default_factory=dict)
    user_bytes_written: int = 0


def _describe(block: bytes) -> str:
    """Which write a block's payload came from."""
    if len(block) == BLOCK and block[:8] == b"e2ebench":
        _magic, _seed, op, lba = _TAG.unpack_from(block)
        writer = "the fill" if op == SETUP_OP else f"op {op}"
        return f"the payload {writer} wrote to block {lba}"
    if block == bytes(len(block)):
        return "zeros"
    return "unrecognised bytes"


def _first_mismatch(data: bytes, expected: bytes, lba: int) -> str:
    """The first wrong block of a read, and whose payload it holds."""
    k = next(
        k for k in range(0, max(len(data), len(expected)), BLOCK)
        if data[k:k + BLOCK] != expected[k:k + BLOCK]
    )
    return (
        f"block {lba + k // BLOCK} holds "
        f"{_describe(data[k:k + BLOCK])}, expected "
        f"{_describe(expected[k:k + BLOCK])}"
    )


def verify(stack: Stack, phases: List[List[tuple]],
           results: List[List[object]]) -> Verdict:
    """Replay the op stream against an in-memory oracle and compare every
    read; collect the simulated latencies of reads and writes."""
    oracle = dict(stack.oracle)
    zero = bytes(BLOCK)
    verdict = Verdict(write_parts=dict.fromkeys(COMPONENTS, 0.0))
    op = 0
    for ops, outs in zip(phases, results):
        for (kind, lba, count, arg), out in zip(ops, outs):
            if isinstance(out, Exception):
                verdict.failures.append(
                    f"op {op} {KIND_NAMES[kind]}: {type(out).__name__}: {out}"
                )
            elif kind == WRITE:
                for k in range(count):
                    oracle[lba + k] = arg[k * BLOCK:(k + 1) * BLOCK]
                verdict.user_bytes_written += len(arg)
                verdict.write_lat.append(out.total)
                for part in verdict.write_parts:
                    verdict.write_parts[part] += getattr(out, part)
            elif kind == READ:
                data, cost = out
                verdict.read_lat.append(cost.total)
                expected = b"".join(
                    oracle.get(lba + k, zero) for k in range(count)
                )
                if data != expected:
                    verdict.failures.append(
                        f"op {op} read of {count} block(s) at {lba} does not "
                        f"match the oracle: {_first_mismatch(data, expected, lba)}"
                    )
            op += 1
    return verdict
