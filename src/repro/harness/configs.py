"""Stack configurations: the four file system / disk combinations of
Figure 5, on either drive and either host.

A :class:`StackConfig` is the one description of a harness stack, and
every stack is built from it through
:func:`~repro.blockdev.interpose.build_device_stack`, so any
configuration can carry interposers -- tracing, metrics, fault
injection -- without the experiments knowing.  The command-line
harness's stack flags arrive as one frozen :class:`StackOverrides`
value, which the figures carry in their sweep points' parameters (so it
is part of each cache key and reaches the worker processes) and apply
to each config just before :func:`build_stack`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.blockdev.interface import BlockDevice
from repro.blockdev.interpose import FaultPlan, build_device_stack
from repro.blockdev.nvm import NVMSpec
from repro.disk.cache import ReadAheadPolicy
from repro.disk.disk import Disk
from repro.disk.specs import DISKS, DiskSpec
from repro.fs.api import FileSystem
from repro.hosts.specs import HOSTS, HostSpec
from repro.lfs.lfs import LFS
from repro.ufs.ufs import UFS


@dataclass(frozen=True)
class StackConfig:
    """One experimental configuration."""

    name: str
    fs_type: str = "ufs"  # "ufs" | "lfs"
    device_type: str = "regular"  # "regular" | "vld"
    disk_name: str = "st19101"
    host_name: str = "sparc10"
    nvram: bool = False
    num_cylinders: int = 0  # 0 = the spec's simulated default
    # Request-queue settings for the core device's internal scheduler.
    # Depth 1 + FIFO is the unscheduled baseline (byte-identical figures).
    queue_depth: int = 1
    sched: str = "fifo"
    # NVM write-ahead tier in front of the core device: False (off),
    # True (default NVDIMM part), a part name from NVM_SPECS, or an
    # NVMSpec.
    nvm: object = False
    # Interposers: trace is False, True (an in-memory ring), or a path
    # each device operation is appended to as one JSONL record.
    trace: object = False
    metrics: bool = False
    faults: Optional[FaultPlan] = None

    def with_platform(self, disk_name: str, host_name: str) -> "StackConfig":
        return replace(self, disk_name=disk_name, host_name=host_name)


@dataclass(frozen=True)
class StackOverrides:
    """The harness CLI's stack flags (``--queue-depth``/``--sched``,
    ``--nvm*``, ``--trace``, ``--metrics``, ``--faults``), applied to
    every stack a figure builds.

    :meth:`to_params` gives the JSON form a sweep point carries and
    :meth:`from_params` rebuilds the value inside the point.
    """

    queue_depth: int = 1
    sched: str = "fifo"
    nvm: Optional[NVMSpec] = None
    trace: Optional[str] = None  # JSONL path
    metrics: bool = False
    faults: Optional[FaultPlan] = None

    def to_params(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_params(cls, params: Dict[str, Any]) -> "StackOverrides":
        nvm, faults = params["nvm"], params["faults"]
        return cls(**{
            **params,
            "nvm": NVMSpec(**nvm) if nvm else None,
            "faults": FaultPlan(**faults) if faults else None,
        })

    def apply(self, config: StackConfig) -> StackConfig:
        """``config`` under these overrides: the queue and NVM settings
        replace only the baseline values (depth-1 FIFO, no NVM tier), and
        the interposer flags are OR-ed with the config's own."""
        queue = (config.queue_depth, config.sched)
        if queue == (1, "fifo"):
            queue = (self.queue_depth, self.sched)
        return replace(
            config,
            queue_depth=queue[0],
            sched=queue[1],
            nvm=config.nvm or self.nvm or False,
            trace=config.trace or self.trace or False,
            metrics=config.metrics or self.metrics,
            faults=config.faults or self.faults,
        )


#: The paper's four standard stacks (Figure 5), on the default platform
#: (Seagate disk, SPARCstation-10 host -- Section 5's stated default).
STACKS = {
    "ufs-regular": StackConfig("ufs-regular", "ufs", "regular"),
    "ufs-vld": StackConfig("ufs-vld", "ufs", "vld"),
    "lfs-regular": StackConfig("lfs-regular", "lfs", "regular"),
    "lfs-vld": StackConfig("lfs-vld", "lfs", "vld"),
}


def build_stack(config: StackConfig) -> Tuple[FileSystem, Disk, BlockDevice]:
    """Instantiate (file system, disk, device) for a configuration.

    ``device`` is the *outermost* layer of the device stack; with
    interposers enabled that is a wrapper, and
    :func:`~repro.blockdev.interpose.find_layer` fishes out a specific
    layer (e.g. the :class:`MetricsDevice` feeding the Figure 9 report).
    """
    spec: DiskSpec = DISKS[config.disk_name]
    host: HostSpec = HOSTS[config.host_name]
    if config.device_type == "vld":
        # The paper's VLD read-ahead fix: prefetch whole tracks and retain.
        disk = Disk(
            spec,
            num_cylinders=config.num_cylinders,
            readahead=ReadAheadPolicy.FULL_TRACK,
        )
    elif config.device_type == "regular":
        disk = Disk(spec, num_cylinders=config.num_cylinders)
    else:
        raise ValueError(f"unknown device type {config.device_type!r}")
    device = build_device_stack(
        disk,
        config.device_type,
        trace=bool(config.trace),
        trace_sink=config.trace if isinstance(config.trace, str) else None,
        metrics=config.metrics,
        faults=config.faults,
        nvm=config.nvm,
        queue_depth=config.queue_depth,
        sched=config.sched,
    )
    if config.fs_type == "ufs":
        fs: FileSystem = UFS(device, host)
    elif config.fs_type == "lfs":
        fs = LFS(device, host, nvram=config.nvram)
    else:
        raise ValueError(f"unknown fs type {config.fs_type!r}")
    return fs, disk, device


def build_sharded_volume(
    shards: int = 3,
    disk_name: str = "st19101",
    stripe_blocks: int = 8,
    num_cylinders: int = 6,
    queue_depth: int = 1,
    sched: str = "fifo",
    fault_plans: Optional[dict] = None,
    retry_policy: Optional[object] = None,
    hedge_reads: bool = True,
):
    """Instantiate a :class:`~repro.volume.ShardedVolume` over ``shards``
    complete VLD stacks.

    Encodes the construction discipline the volume requires: every
    shard's disk shares ONE :class:`~repro.sim.clock.SimClock`, so
    degraded-mode backoff, fail-slow surplus, and hedged reads all spend
    the same simulated time (per-disk clocks would let a limping shard
    fall out of sync with its siblings).  ``fault_plans`` maps shard
    index to a :class:`FaultPlan`; those shards get a
    :class:`~repro.blockdev.interpose.FaultDevice` wrapper (the layer
    ``crash()``/fail-slow windows act on).

    Returns ``(volume, devices, disks)`` -- ``devices[i]`` is shard
    ``i``'s outermost layer, ``disks[i]`` its raw disk (the place to
    hang a :class:`~repro.disk.faults.DiskFaultInjector`).
    """
    # Imported lazily: repro.volume sits above this module in the layer
    # order, and only volume experiments should pay for it.
    from repro.blockdev.interpose import FaultDevice
    from repro.sim.clock import SimClock
    from repro.vlog.vld import VirtualLogDisk
    from repro.volume import ShardedVolume

    if shards <= 0:
        raise ValueError("shard count must be positive")
    spec: DiskSpec = DISKS[disk_name]
    clock = SimClock()
    disks = [
        Disk(spec, clock=clock, num_cylinders=num_cylinders)
        for _ in range(shards)
    ]
    devices: List[BlockDevice] = []
    for index, disk in enumerate(disks):
        vld: BlockDevice = VirtualLogDisk(
            disk, queue_depth=queue_depth, sched=sched
        )
        plan = (fault_plans or {}).get(index)
        if plan is not None:
            vld = FaultDevice(vld, plan)
        devices.append(vld)
    volume = ShardedVolume(
        devices,
        stripe_blocks=stripe_blocks,
        retry_policy=retry_policy,
        hedge_reads=hedge_reads,
    )
    return volume, devices, disks


def utilization_of(fs: FileSystem, device: BlockDevice) -> float:
    """Space utilization as the paper's ``df`` reading would report it."""
    if isinstance(fs, UFS):
        free_frags, _ = fs.alloc.free_space()
        total = (
            fs.layout.sb.num_groups
            * fs.layout.sb.blocks_per_group
            * fs.layout.frags_per_block
        )
        return (total - free_frags) / total
    if isinstance(fs, LFS):
        # Count NVRAM-resident dirty data as used space too -- it is live
        # file content that simply has not reached the log yet.
        live = sum(fs.segusage.live_bytes)
        buffered = fs.cache.dirty_blocks * fs.block_size
        total = fs.layout.sb.num_segments * fs.layout.segment_bytes
        return min(1.0, (live + buffered) / total)
    raise TypeError(f"unknown file system {type(fs)!r}")
