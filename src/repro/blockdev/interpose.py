"""Composable block-device interposers: tracing, metrics, fault injection.

Any :class:`~repro.blockdev.interface.BlockDevice` can be wrapped by an
:class:`InterposedDevice`, which forwards the whole device interface to an
inner device while exposing a hook per operation.  Wrappers compose::

    TracingDevice(MetricsDevice(FaultDevice(RegularDisk(disk), plan)))

and are **transparent**: a wrapped device returns byte-identical data and
identical latency breakdowns (the interposers consume zero simulated
time), so they can be left in a stack without perturbing an experiment.
Unknown attributes delegate to the inner device, so code that reaches for
``device.disk``, ``device.vlog`` or ``device.trim`` keeps working through
any number of layers.

Three concrete layers:

* :class:`TracingDevice` -- structured per-operation event records (op,
  lba, count, latency breakdown, simulated timestamp) into a bounded ring
  buffer, optionally mirrored to a JSONL sink;
* :class:`MetricsDevice` -- op/block counters and per-component latency
  histograms from which the Figure 9 breakdown report can be regenerated,
  including host time inferred from the simulated-clock gaps between
  device operations;
* :class:`FaultDevice` -- deterministic, seeded injection of torn writes,
  dropped writes, read errors, and crash-after-N-operations.

For faults *below* the logical layer (killing a Virtual Log Disk in the
middle of its internal write sequence), :class:`DiskFaultInjector`
installs on the raw :class:`~repro.disk.disk.Disk` and crashes on the
N-th physical write -- the crash-point methodology the recovery tests
sweep.

:func:`build_device_stack` is the single factory every consumer builds
its stack through (the harness, the examples, the file systems).
"""

from __future__ import annotations

import json
import random
from collections import deque
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Set, Tuple, Type

from repro.blockdev.interface import BlockDevice
from repro.blockdev.regular import RegularDisk
from repro.sim.engine import IntervalRecorder
from repro.sim.metrics import LatencyHistogram
from repro.sim.stats import COMPONENTS, Breakdown

_UNSET = object()


class DeviceFault(Exception):
    """Base class for injected device failures.

    Carries structured context so that observers (tracing, metrics, the
    retry machinery) can record *what* failed without parsing message
    strings: the logical operation, the logical block / physical sector it
    targeted, the run length, and -- when a retry policy is replaying the
    operation -- which attempt this was.  ``shard`` identifies the fault
    domain inside a sharded volume (``None`` for a single-device stack);
    the volume layer stamps it onto faults escaping a shard, so torture
    artifacts and retry logs name the failing domain.  All fields are
    optional; raisers fill in what they know.
    """

    def __init__(
        self,
        message: str = "",
        *,
        op: Optional[str] = None,
        lba: Optional[int] = None,
        sector: Optional[int] = None,
        count: Optional[int] = None,
        attempt: Optional[int] = None,
        shard: Optional[int] = None,
    ) -> None:
        super().__init__(message)
        self.op = op
        self.lba = lba
        self.sector = sector
        self.count = count
        self.attempt = attempt
        self.shard = shard

    def context(self) -> Dict[str, object]:
        """The non-``None`` structured fields, for trace records."""
        fields = {
            "op": self.op,
            "lba": self.lba,
            "sector": self.sector,
            "count": self.count,
            "attempt": self.attempt,
            "shard": self.shard,
        }
        return {k: v for k, v in fields.items() if v is not None}


class DeviceCrashed(DeviceFault):
    """The device lost power mid-operation; volatile state is gone.

    The disk image below the crash point survives (possibly with a torn
    final write); callers model recovery by invoking the wrapped device's
    ``crash()``/``recover()`` machinery.
    """


class InjectedReadError(DeviceFault):
    """An unrecoverable media error on a read, injected by a fault plan."""


# ======================================================================
# The wrapper base
# ======================================================================

class InterposedDevice(BlockDevice):
    """A block device that forwards every operation to an inner device.

    Subclasses observe (or perturb) operations by overriding the
    interface methods; the base class is a pure pass-through.  Attribute
    access falls through to the inner device, which keeps device-specific
    surface (``.disk``, ``.vlog``, ``.trim``, ``.utilization``, ...)
    reachable through a stack of wrappers.
    """

    def __init__(self, inner: BlockDevice) -> None:
        self.inner = inner

    # ``block_size``/``num_blocks`` are declared (not set) on BlockDevice,
    # so they must delegate explicitly rather than via ``__getattr__``.
    @property
    def block_size(self) -> int:  # type: ignore[override]
        return self.inner.block_size

    @property
    def num_blocks(self) -> int:  # type: ignore[override]
        return self.inner.num_blocks

    def __getattr__(self, name: str):
        if name == "inner":  # guard: __init__ not yet run
            raise AttributeError(name)
        return getattr(self.inner, name)

    # -- the BlockDevice interface, delegated --------------------------

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        return self.inner.read_block(lba)

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        return self.inner.write_block(lba, data)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        return self.inner.read_blocks(lba, count)

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        return self.inner.write_blocks(lba, count, data)

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        return self.inner.write_partial(lba, offset, data)

    def idle(self, seconds: float) -> None:
        self.inner.idle(seconds)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.inner!r})"


def layers(device: BlockDevice) -> Iterator[BlockDevice]:
    """Yield every layer of a device stack, outermost first."""
    while True:
        yield device
        if not isinstance(device, InterposedDevice):
            return
        device = device.inner


def core_device(device: BlockDevice) -> BlockDevice:
    """The innermost (unwrapped) device of a stack."""
    for layer in layers(device):
        pass
    return layer


def find_layer(device: BlockDevice, cls: Type) -> Optional[BlockDevice]:
    """The outermost layer of type ``cls`` in a stack, or ``None``."""
    for layer in layers(device):
        if isinstance(layer, cls):
            return layer
    return None


class ObservingDevice(InterposedDevice):
    """An interposer that observes completed operations without changing
    them.  Subclasses implement :meth:`_note`; when ``enabled`` is False
    every operation short-circuits to plain delegation (the zero-cost-
    when-disabled contract).

    Operations that *fail* (the wrapped device raises a
    :class:`DeviceFault` mid-operation) are routed to :meth:`_note_fault`
    before the exception propagates, so observers never lose the event or
    leave a half-recorded operation behind.
    """

    def __init__(self, inner: BlockDevice) -> None:
        super().__init__(inner)
        self.enabled = True

    def _clock_now(self) -> float:
        clock = getattr(getattr(self.inner, "disk", None), "clock", None)
        return clock.now if clock is not None else 0.0

    def _take_slow_delta(self) -> Tuple[int, float]:
        """(ops, seconds) of fail-slow surplus since the last call.

        Observers sit *above* the fault layer, so a slowed op reaches
        them as an ordinary completion with a stretched breakdown; the
        only way to attribute the stretch is to diff the fault layer's
        cumulative slow counters across each op.  Uses ``__dict__``
        directly: a missing attribute here must not fall through
        ``__getattr__`` to an inner observer's cache.
        """
        cache = self.__dict__.get("_slow_source", _UNSET)
        if cache is _UNSET:
            cache = find_layer(self.inner, FaultDevice)
            self.__dict__["_slow_source"] = cache
        if cache is None:
            return 0, 0.0
        cursor = self.__dict__.get("_slow_cursor", (0, 0.0))
        now = (cache.ops_slowed, cache.slow_extra_seconds)
        self.__dict__["_slow_cursor"] = now
        return now[0] - cursor[0], now[1] - cursor[1]

    def _note(
        self,
        op: str,
        lba: int,
        count: int,
        breakdown: Breakdown,
        start: float,
    ) -> None:
        raise NotImplementedError  # pragma: no cover - abstract hook

    def _note_fault(
        self,
        op: str,
        lba: int,
        count: int,
        fault: DeviceFault,
        start: float,
    ) -> None:
        pass

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        if not self.enabled:
            return self.inner.read_block(lba)
        start = self._clock_now()
        try:
            data, breakdown = self.inner.read_block(lba)
        except DeviceFault as fault:
            self._note_fault("read", lba, 1, fault, start)
            raise
        self._note("read", lba, 1, breakdown, start)
        return data, breakdown

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        if not self.enabled:
            return self.inner.write_block(lba, data)
        start = self._clock_now()
        try:
            breakdown = self.inner.write_block(lba, data)
        except DeviceFault as fault:
            self._note_fault("write", lba, 1, fault, start)
            raise
        self._note("write", lba, 1, breakdown, start)
        return breakdown

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        if not self.enabled:
            return self.inner.read_blocks(lba, count)
        start = self._clock_now()
        try:
            data, breakdown = self.inner.read_blocks(lba, count)
        except DeviceFault as fault:
            self._note_fault("read", lba, count, fault, start)
            raise
        self._note("read", lba, count, breakdown, start)
        return data, breakdown

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        if not self.enabled:
            return self.inner.write_blocks(lba, count, data)
        start = self._clock_now()
        try:
            breakdown = self.inner.write_blocks(lba, count, data)
        except DeviceFault as fault:
            self._note_fault("write", lba, count, fault, start)
            raise
        self._note("write", lba, count, breakdown, start)
        return breakdown

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        if not self.enabled:
            return self.inner.write_partial(lba, offset, data)
        start = self._clock_now()
        try:
            breakdown = self.inner.write_partial(lba, offset, data)
        except DeviceFault as fault:
            self._note_fault("write_partial", lba, 1, fault, start)
            raise
        self._note("write_partial", lba, 1, breakdown, start)
        return breakdown

    def idle(self, seconds: float) -> None:
        self.inner.idle(seconds)
        if self.enabled:
            self._note_idle(seconds)

    def _note_idle(self, seconds: float) -> None:
        pass


# ======================================================================
# Tracing
# ======================================================================

@dataclass
class TraceEvent:
    """One logical device operation, as the host saw it.

    ``fault`` names the :class:`DeviceFault` subclass when the operation
    failed instead of completing (``fault_context`` carries its structured
    fields); the breakdown is then empty, since the device never reported
    a latency for an operation it aborted.  ``slow_extra`` is the seconds
    of fail-slow surplus a fault layer injected into this op (already
    inside the breakdown; recorded so slow ops are identifiable).
    """

    seq: int
    op: str
    lba: int
    count: int
    start: float
    breakdown: Breakdown
    fault: Optional[str] = None
    fault_context: Optional[Dict[str, object]] = None
    slow_extra: float = 0.0

    @property
    def elapsed(self) -> float:
        return self.breakdown.total

    def as_dict(self) -> Dict[str, object]:
        record: Dict[str, object] = {
            "seq": self.seq,
            "op": self.op,
            "lba": self.lba,
            "count": self.count,
            "start": self.start,
            "elapsed": self.elapsed,
            "breakdown": self.breakdown.as_dict(),
        }
        if self.fault is not None:
            record["fault"] = self.fault
            record["fault_context"] = self.fault_context or {}
        if self.slow_extra:
            record["slow_extra"] = self.slow_extra
        return record


class TracingDevice(ObservingDevice):
    """Records a structured event per operation into a ring buffer.

    Args:
        inner: The wrapped device.
        capacity: Ring-buffer depth (oldest events are evicted).
        sink: Optional JSONL destination -- a path (opened lazily,
            append mode) or any object with a ``write`` method.
    """

    def __init__(
        self,
        inner: BlockDevice,
        capacity: int = 4096,
        sink: Optional[object] = None,
    ) -> None:
        super().__init__(inner)
        if capacity <= 0:
            raise ValueError("trace capacity must be positive")
        self.events: deque = deque(maxlen=capacity)
        self.total_events = 0
        self._sink_spec = sink
        self._sink = sink if sink is None or hasattr(sink, "write") else None
        self._owns_sink = False

    def _note(self, op, lba, count, breakdown, start) -> None:
        slowed, slow_extra = self._take_slow_delta()
        self._emit(TraceEvent(
            seq=self.total_events,
            op=op,
            lba=lba,
            count=count,
            start=start,
            breakdown=breakdown.copy(),
            slow_extra=slow_extra if slowed else 0.0,
        ))

    def _note_fault(self, op, lba, count, fault, start) -> None:
        # A failed operation is still an event the host saw; record it
        # instead of letting the unwinding exception erase it from the
        # trace (the classic "the log ends right before the interesting
        # part" failure mode).
        self._emit(TraceEvent(
            seq=self.total_events,
            op=op,
            lba=lba,
            count=count,
            start=start,
            breakdown=Breakdown(),
            fault=type(fault).__name__,
            fault_context=fault.context(),
        ))

    def _emit(self, event: TraceEvent) -> None:
        self.total_events += 1
        self.events.append(event)
        sink = self._open_sink()
        if sink is not None:
            sink.write(json.dumps(event.as_dict()) + "\n")

    def _open_sink(self):
        if self._sink is None and self._sink_spec is not None:
            self._sink = open(str(self._sink_spec), "a")
            self._owns_sink = True
        return self._sink

    def close(self) -> None:
        """Flush and close a path-opened sink (no-op otherwise)."""
        if self._sink is not None:
            if hasattr(self._sink, "flush"):
                self._sink.flush()
            if self._owns_sink:
                self._sink.close()
                self._sink = None
                self._owns_sink = False

    def reset(self) -> None:
        self.events.clear()
        self.total_events = 0


# ======================================================================
# Metrics
# ======================================================================

class MetricsDevice(ObservingDevice):
    """Counts operations and histograms latencies per component.

    Beyond the device-visible components (``scsi``, ``transfer``,
    ``locate``), host processing time is inferred from the simulated
    clock: any time that passes *between* two device operations (and is
    not declared idle via :meth:`idle`) must have been spent above the
    device -- system call, file system code, driver.  That inferred time
    is reported as the ``other`` component, which is how the Figure 9
    breakdown is regenerated from this layer's data alone.

    The inference is queue-aware: once the wrapped device runs a request
    scheduler with outstanding requests, the time between two completions
    is the *device* draining its queue, not host compute.  Gaps that open
    while requests were outstanding are therefore accumulated separately
    (``overlapped_seconds``) instead of being double-counted as host time.
    The depth observed after each operation also feeds a queue-depth
    sample histogram, and per-op service-time percentiles
    (p50/p95/p99/p999) are available from the latency histograms.

    When the stack runs under an :class:`~repro.sim.engine.EventEngine`
    (the stack clock is engine-bound), :meth:`report` stops inferring:
    host, device, and overlap time come from the *real* think/service
    intervals the engine processes recorded, computed by exact interval
    intersection.  Each completed op's own real span is always noted in
    :attr:`intervals` (kind ``"op"``, keyed by op name), engine or not.
    """

    def __init__(self, inner: BlockDevice) -> None:
        super().__init__(inner)
        self.reset()

    def reset(self) -> None:
        self.ops: Dict[str, int] = {}
        self.blocks: Dict[str, int] = {}
        #: Real [start, end) spans of completed ops, by op name.
        self.intervals = IntervalRecorder()
        self.op_latency: Dict[str, LatencyHistogram] = {}
        self.component_hist: Dict[str, LatencyHistogram] = {
            name: LatencyHistogram() for name in COMPONENTS
        }
        #: Operations the wrapped device aborted with a DeviceFault, per
        #: op name, and the simulated time those aborted operations
        #: consumed before failing.  Kept apart from the completed-op
        #: counters and histograms so injected faults cannot skew them.
        self.faulted: Dict[str, int] = {}
        self.faulted_seconds = 0.0
        #: Completed ops a fault layer stretched with a fail-slow window,
        #: per op name, and the injected surplus seconds.  The surplus is
        #: already inside the op's breakdown (honest latency), so these
        #: sit beside the faulted accounting for attribution only --
        #: host_seconds is never inflated by them.
        self.slowed: Dict[str, int] = {}
        self.slow_seconds = 0.0
        self._take_slow_delta()  # re-anchor the cursor past old surplus
        self.host_seconds = 0.0
        self.idle_seconds = 0.0
        #: Clock gaps that opened while the device still had queued
        #: requests outstanding: device overlap, not host compute.
        self.overlapped_seconds = 0.0
        #: Queue depth observed after each operation -> sample count.
        self.queue_depth_samples: Dict[int, int] = {}
        self.max_outstanding = 0
        self._last_end: Optional[float] = self._clock_now()
        self._last_outstanding = self._outstanding_now()

    def _outstanding_now(self) -> int:
        """Requests currently queued below us (0 for unscheduled devices).

        Duck-typed: any wrapped device exposing a ``scheduler`` with an
        ``outstanding`` count participates; plain devices never overlap.
        """
        scheduler = getattr(self.inner, "scheduler", None)
        if scheduler is None:
            return 0
        return int(getattr(scheduler, "outstanding", 0))

    def _attribute_gap(self, start: float) -> None:
        if self._last_end is not None and start > self._last_end:
            gap = start - self._last_end
            if self._last_outstanding > 0:
                self.overlapped_seconds += gap
            else:
                self.host_seconds += gap

    def _sample_queue(self) -> None:
        depth = self._outstanding_now()
        self._last_outstanding = depth
        self.queue_depth_samples[depth] = (
            self.queue_depth_samples.get(depth, 0) + 1
        )
        if depth > self.max_outstanding:
            self.max_outstanding = depth

    def _note(self, op, lba, count, breakdown, start) -> None:
        self.ops[op] = self.ops.get(op, 0) + 1
        self.blocks[op] = self.blocks.get(op, 0) + count
        self.op_latency.setdefault(op, LatencyHistogram()).record(
            breakdown.total
        )
        for name in COMPONENTS:
            self.component_hist[name].record(getattr(breakdown, name))
        slowed, slow_extra = self._take_slow_delta()
        if slowed:
            self.slowed[op] = self.slowed.get(op, 0) + slowed
            self.slow_seconds += slow_extra
        self._attribute_gap(start)
        self._last_end = self._clock_now()
        self.intervals.note("op", op, start, self._last_end)
        self._sample_queue()

    def _note_fault(self, op, lba, count, fault, start) -> None:
        # Without this hook a mid-operation fault left the op half
        # recorded: no counter, no histogram sample, and -- worse -- a
        # stale ``_last_end``, so the *next* operation's clock gap
        # silently absorbed the faulted op's device time into
        # ``host_seconds``.  Record the event in its own bucket and
        # advance the gap origin past whatever time the aborted operation
        # consumed.
        self.faulted[op] = self.faulted.get(op, 0) + 1
        self._attribute_gap(start)
        end = self._clock_now()
        if end > start:
            self.faulted_seconds += end - start
        self._last_end = end
        self._last_outstanding = self._outstanding_now()

    def _note_idle(self, seconds: float) -> None:
        # Idle time is neither device nor host work; advance the gap
        # origin past it so it is not misread as host processing.
        self.idle_seconds += seconds
        self._last_end = self._clock_now()
        self._last_outstanding = self._outstanding_now()

    # -- reporting -----------------------------------------------------

    @property
    def total_ops(self) -> int:
        return sum(self.ops.values())

    def component_totals(self, include_host: bool = True) -> Dict[str, float]:
        """Seconds per component, ``other`` inferred from clock gaps."""
        totals = {
            name: self.component_hist[name].sum for name in COMPONENTS
        }
        if include_host:
            totals["other"] += self.host_seconds
        return totals

    def component_fractions(self, include_host: bool = True) -> Dict[str, float]:
        """Each component as a fraction of total time (Figure 9 bars)."""
        totals = self.component_totals(include_host)
        whole = sum(totals.values())
        if whole <= 0.0:
            return {name: 0.0 for name in COMPONENTS}
        return {name: totals[name] / whole for name in COMPONENTS}

    def device_seconds(self) -> float:
        return sum(self.component_hist[name].sum for name in COMPONENTS)

    def queue_stats(self) -> Dict[str, float]:
        """Queue-depth accounting: mean/max observed depth and the time
        that passed under outstanding requests."""
        samples = sum(self.queue_depth_samples.values())
        weighted = sum(
            depth * n for depth, n in self.queue_depth_samples.items()
        )
        return {
            "mean_depth": weighted / samples if samples else 0.0,
            "max_depth": float(self.max_outstanding),
            "overlapped_seconds": self.overlapped_seconds,
        }

    def service_percentiles(self, op: Optional[str] = None) -> Dict[str, float]:
        """p50/p95/p99/p999 of per-op service time, one op or all merged."""
        if op is not None:
            hist = self.op_latency.get(op)
            return hist.percentiles() if hist else LatencyHistogram().percentiles()
        merged = LatencyHistogram()
        for hist in self.op_latency.values():
            merged.merge(hist)
        return merged.percentiles()

    def _engine_intervals(self) -> Optional[IntervalRecorder]:
        """The engine's interval recorder when the stack clock is bound
        to an event engine, else ``None`` (gap attribution applies)."""
        clock = getattr(getattr(self.inner, "disk", None), "clock", None)
        engine = getattr(clock, "engine", None)
        return engine.intervals if engine is not None else None

    def report(self) -> Dict[str, object]:
        """Structured metrics report.

        Time attribution is exact under an event engine -- host time is
        the measure of the recorded think intervals, device time the
        measure of this disk's service intervals, and overlap their
        per-host intersection -- and falls back to the clock-gap
        heuristic on the synchronous path (``attribution`` says which).
        Percentiles include the p99/p999 tail.
        """
        recorder = self._engine_intervals()
        if recorder is not None:
            scheduler = getattr(self.inner, "scheduler", None)
            key = getattr(scheduler, "name", None)
            device = recorder.total("service", key)
            host = recorder.total("think")
            overlap = recorder.per_key_overlap("think", "service")
            attribution = "intervals"
        else:
            device = self.device_seconds()
            host = self.host_seconds
            overlap = self.overlapped_seconds
            attribution = "clock-gap"
        return {
            "attribution": attribution,
            "ops": dict(self.ops),
            "blocks": dict(self.blocks),
            "device_seconds": device,
            "host_seconds": host,
            "overlapped_seconds": overlap,
            "idle_seconds": self.idle_seconds,
            "component_totals": self.component_totals(),
            "service_percentiles": self.service_percentiles(),
            "queue": self.queue_stats(),
            "faulted": dict(self.faulted),
            "faulted_seconds": self.faulted_seconds,
            "slowed": dict(self.slowed),
            "slow_seconds": self.slow_seconds,
        }

    def summary(self) -> str:
        """One-line human-readable summary (latencies in milliseconds)."""
        ops = " ".join(
            f"{op}={self.ops[op]}({self.blocks[op]}blk)"
            for op in sorted(self.ops)
        )
        fractions = self.component_fractions()
        parts = " ".join(
            f"{k}={v * 100:.0f}%" for k, v in fractions.items()
        )
        line = (
            f"ops[{ops}] device={self.device_seconds() * 1e3:.3f}ms "
            f"host={self.host_seconds * 1e3:.3f}ms [{parts}]"
        )
        if self.max_outstanding:
            line += (
                f" queue[max={self.max_outstanding}"
                f" overlap={self.overlapped_seconds * 1e3:.3f}ms]"
            )
        if self.faulted:
            faults = " ".join(
                f"{op}={self.faulted[op]}" for op in sorted(self.faulted)
            )
            line += (
                f" faulted[{faults}]"
                f"={self.faulted_seconds * 1e3:.3f}ms"
            )
        if self.slowed:
            slows = " ".join(
                f"{op}={self.slowed[op]}" for op in sorted(self.slowed)
            )
            line += (
                f" slowed[{slows}]"
                f"={self.slow_seconds * 1e3:.3f}ms"
            )
        return line


# ======================================================================
# Fault injection
# ======================================================================

@dataclass(frozen=True)
class FaultPlan:
    """A deterministic, seeded description of what to break.

    Rates are per-operation probabilities drawn from a private
    ``random.Random(seed)`` stream, so a plan misbehaves identically on
    every run.  ``crash_after_ops`` counts host-visible operations
    (reads and writes, not idle); the N-th operation raises
    :class:`DeviceCrashed` without reaching the inner device.

    The *fail-slow* family models a degraded-but-working device: every
    operation inside a window of host-visible ops takes
    ``slow_factor`` times its normal latency (the surplus charged as
    ``locate`` -- a stalling mechanism, not a bigger transfer).  The
    window starts at op ``slow_after_ops`` and lasts
    ``slow_duration_ops`` ops (open-ended when ``None``); with
    ``slow_factor > 1`` but no explicit onset, the onset and duration
    are drawn from the plan's seed, so a seeded plan gets a seeded
    window.
    """

    seed: int = 0
    read_error_rate: float = 0.0
    torn_write_rate: float = 0.0
    dropped_write_rate: float = 0.0
    crash_after_ops: Optional[int] = None
    slow_factor: float = 1.0
    slow_after_ops: Optional[int] = None
    slow_duration_ops: Optional[int] = None

    def __post_init__(self) -> None:
        for name in ("read_error_rate", "torn_write_rate",
                     "dropped_write_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1]")
        if self.crash_after_ops is not None and self.crash_after_ops <= 0:
            raise ValueError("crash_after_ops must be positive")
        if self.slow_factor < 1.0:
            raise ValueError("slow_factor must be at least 1")
        if self.slow_after_ops is not None and self.slow_after_ops <= 0:
            raise ValueError("slow_after_ops must be positive")
        if self.slow_duration_ops is not None and self.slow_duration_ops <= 0:
            raise ValueError("slow_duration_ops must be positive")

    def slow_window(self) -> Optional[Tuple[int, Optional[int]]]:
        """The fail-slow window as ``(first_op, end_op)`` in 1-based
        host-visible op ordinals (``end_op`` exclusive, ``None`` = open),
        or ``None`` when the plan never slows.  Unspecified bounds are
        drawn deterministically from the plan's seed -- the "seeded
        onset/duration" contract."""
        if self.slow_factor <= 1.0:
            return None
        if self.slow_after_ops is not None:
            first = self.slow_after_ops
            rng = None
        else:
            rng = random.Random(self.seed ^ 0x510B)
            first = rng.randrange(1, 33)
        if self.slow_duration_ops is not None:
            return first, first + self.slow_duration_ops
        if self.slow_after_ops is None:
            assert rng is not None
            return first, first + rng.randrange(16, 129)
        return first, None

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from ``key=value`` pairs, e.g.
        ``"crash_after=40,torn=0.05,drop=0.02,read_err=0.01,seed=7"``
        or ``"slow_factor=8,slow_after=20,slow_ops=60"``."""
        keys = {
            "seed": ("seed", int),
            "read_err": ("read_error_rate", float),
            "torn": ("torn_write_rate", float),
            "drop": ("dropped_write_rate", float),
            "crash_after": ("crash_after_ops", int),
            "slow_factor": ("slow_factor", float),
            "slow_after": ("slow_after_ops", int),
            "slow_ops": ("slow_duration_ops", int),
        }
        kwargs = {}
        for pair in filter(None, (p.strip() for p in spec.split(","))):
            key, _, value = pair.partition("=")
            if key not in keys or not value:
                raise ValueError(
                    f"bad fault spec {pair!r}; known keys: "
                    f"{', '.join(sorted(keys))}"
                )
            name, convert = keys[key]
            kwargs[name] = convert(value)
        return cls(**kwargs)


class FaultDevice(InterposedDevice):
    """Injects faults at the logical-block layer, per a :class:`FaultPlan`.

    * **read error**: the read raises :class:`InjectedReadError` before
      touching the inner device;
    * **torn write**: only a prefix of the written blocks reaches the
      inner device; the caller is told the write succeeded (the classic
      power-loss tear, discovered only on later reads);
    * **dropped write**: nothing reaches the inner device at all (a
      lying write cache);
    * **crash after N ops**: the N-th host-visible operation raises
      :class:`DeviceCrashed`;
    * **fail-slow window**: operations inside the plan's slow window
      complete correctly but take ``slow_factor`` times as long -- the
      surplus is charged to the breakdown's ``locate`` component and the
      simulated clock advances by it, so the host genuinely waits.

    A hedging layer above (the sharded volume) can bound the surplus a
    single operation may suffer by setting :attr:`hedge_cap` -- the model
    of a duplicate request racing the slow one: past the cap, the hedge
    wins and the caller stops paying for the stall.
    """

    def __init__(self, inner: BlockDevice, plan: FaultPlan) -> None:
        super().__init__(inner)
        self.plan = plan
        self.rng = random.Random(plan.seed)
        self.ops_seen = 0
        self.reads_failed = 0
        self.writes_torn = 0
        self.writes_dropped = 0
        self.crashed = False
        self._slow_window = plan.slow_window()
        self.ops_slowed = 0
        self.slow_extra_seconds = 0.0
        #: Upper bound (seconds) on the per-op slow surplus; ``None``
        #: means uncapped.  Set transiently by hedged readers.
        self.hedge_cap: Optional[float] = None

    def slow_active(self) -> bool:
        """Whether the *current* op (the one :meth:`_tick` just counted)
        falls inside the plan's fail-slow window."""
        if self._slow_window is None:
            return False
        first, end = self._slow_window
        if self.ops_seen < first:
            return False
        return end is None or self.ops_seen < end

    def _maybe_slow(self, breakdown: Breakdown) -> Breakdown:
        """Stretch a completed op's latency by the plan's slow factor.

        The surplus is charged as ``locate`` (the device is stalling, not
        transferring more data) and pushed onto the simulated clock, so
        the caller's elapsed time and the breakdown stay equal -- metrics
        layers above see an honest, if slow, operation.
        """
        if not self.slow_active():
            return breakdown
        extra = breakdown.total * (self.plan.slow_factor - 1.0)
        if self.hedge_cap is not None:
            extra = min(extra, self.hedge_cap)
        if extra <= 0.0:
            return breakdown
        breakdown.charge("locate", extra)
        clock = getattr(getattr(self.inner, "disk", None), "clock", None)
        if clock is not None:
            clock.advance(extra)
        self.ops_slowed += 1
        self.slow_extra_seconds += extra
        return breakdown

    def _tick(self, op: str, lba: int, count: int) -> None:
        if self.crashed:
            raise DeviceCrashed(
                "device already crashed", op=op, lba=lba, count=count
            )
        self.ops_seen += 1
        crash_at = self.plan.crash_after_ops
        if crash_at is not None and self.ops_seen >= crash_at:
            self.crashed = True
            raise DeviceCrashed(
                f"injected crash at operation {self.ops_seen}",
                op=op,
                lba=lba,
                count=count,
            )

    def _fire(self, rate: float) -> bool:
        return rate > 0.0 and self.rng.random() < rate

    def _check_read(self, lba: int, count: int) -> None:
        self._tick("read", lba, count)
        if self._fire(self.plan.read_error_rate):
            self.reads_failed += 1
            raise InjectedReadError(
                f"injected media error reading blocks [{lba}, {lba + count})",
                op="read",
                lba=lba,
                count=count,
            )

    def read_block(self, lba: int) -> Tuple[bytes, Breakdown]:
        self._check_read(lba, 1)
        data, breakdown = self.inner.read_block(lba)
        return data, self._maybe_slow(breakdown)

    def read_blocks(self, lba: int, count: int) -> Tuple[bytes, Breakdown]:
        self._check_read(lba, count)
        data, breakdown = self.inner.read_blocks(lba, count)
        return data, self._maybe_slow(breakdown)

    def write_block(self, lba: int, data: Optional[bytes] = None) -> Breakdown:
        return self.write_blocks(lba, 1, data)

    def write_blocks(
        self, lba: int, count: int, data: Optional[bytes] = None
    ) -> Breakdown:
        self._tick("write", lba, count)
        if self._fire(self.plan.dropped_write_rate):
            self.writes_dropped += 1
            self.check_lba(lba, count)
            self.check_data(data, count)
            return Breakdown()
        if self._fire(self.plan.torn_write_rate):
            self.writes_torn += 1
            self.check_lba(lba, count)
            data = self.check_data(data, count)
            keep = self.rng.randrange(count)  # 0..count-1 blocks survive
            if keep == 0:
                return Breakdown()
            return self._maybe_slow(self.inner.write_blocks(
                lba, keep, data[: keep * self.block_size]
            ))
        return self._maybe_slow(self.inner.write_blocks(lba, count, data))

    def write_partial(self, lba: int, offset: int, data: bytes) -> Breakdown:
        self._tick("write_partial", lba, 1)
        if self._fire(self.plan.dropped_write_rate):
            self.writes_dropped += 1
            return Breakdown()
        # A sub-block write is a single sector run; tearing it degenerates
        # to dropping it.
        if self._fire(self.plan.torn_write_rate):
            self.writes_torn += 1
            return Breakdown()
        return self._maybe_slow(self.inner.write_partial(lba, offset, data))


class DiskFaultInjector:
    """Crashes the raw :class:`~repro.disk.disk.Disk` on the N-th
    physical write -- *below* the logical layer, so a Virtual Log Disk is
    killed in the middle of its internal data-write / map-append
    sequence (the crash points Section 4's recovery must survive).

    ``torn=True`` applies the first half of the fatal write's sectors
    before crashing (a sector-granular tear); a one-sector write tears to
    nothing, i.e. it is dropped entirely.

    Media degradation is modelled at sector granularity:

    * ``flaky_sectors`` maps sector numbers to per-attempt failure
      probabilities -- a *transient* media error the drive's read-retry
      machinery can recover from (each replay re-rolls the seeded RNG);
    * ``bad_sectors`` fail every read that touches them -- the grown
      defects a resilience layer must quarantine and remap around;
    * ``read_error_rate`` remains the uncorrelated transient noise floor.

    Writes never fault (grown defects here are discovered on read, the
    common ECC story); only the crash machinery interrupts writes.
    """

    def __init__(
        self,
        crash_after_writes: Optional[int] = None,
        torn: bool = True,
        read_error_rate: float = 0.0,
        seed: int = 0,
        bad_sectors: Optional[Set[int]] = None,
        flaky_sectors: Optional[Dict[int, float]] = None,
    ) -> None:
        self.crash_after_writes = crash_after_writes
        self.torn = torn
        self.read_error_rate = read_error_rate
        self.rng = random.Random(seed)
        self.bad_sectors: Set[int] = set(bad_sectors or ())
        self.flaky_sectors: Dict[int, float] = dict(flaky_sectors or {})
        self.writes_seen = 0
        self.reads_seen = 0
        self.read_errors_raised = 0
        self.crashed = False

    def install(self, disk) -> "DiskFaultInjector":
        disk.fault_injector = self
        return self

    def uninstall(self, disk) -> None:
        if disk.fault_injector is self:
            disk.fault_injector = None

    def before_write(self, disk, sector: int, count: int, data) -> None:
        if self.crashed:
            raise DeviceCrashed(
                "disk already crashed", op="write", sector=sector, count=count
            )
        self.writes_seen += 1
        at = self.crash_after_writes
        if at is not None and self.writes_seen >= at:
            self.crashed = True
            if self.torn and data is not None and count > 1:
                keep = count // 2
                if getattr(disk, "_data", None) is not None:
                    disk.poke(sector, data[: keep * disk.sector_bytes])
            raise DeviceCrashed(
                f"injected power loss at physical write {self.writes_seen} "
                f"(sector {sector}, {count} sectors)",
                op="write",
                sector=sector,
                count=count,
            )

    def before_read(self, disk, sector: int, count: int) -> None:
        if self.crashed:
            raise DeviceCrashed(
                "disk already crashed", op="read", sector=sector, count=count
            )
        self.reads_seen += 1
        run = range(sector, sector + count)
        if self.bad_sectors:
            for s in run:
                if s in self.bad_sectors:
                    self.read_errors_raised += 1
                    raise InjectedReadError(
                        f"unrecoverable media error at sector {s}",
                        op="read",
                        sector=s,
                        count=count,
                    )
        if self.flaky_sectors:
            for s in run:
                rate = self.flaky_sectors.get(s)
                if rate is not None and self.rng.random() < rate:
                    self.read_errors_raised += 1
                    raise InjectedReadError(
                        f"transient media error at sector {s}",
                        op="read",
                        sector=s,
                        count=count,
                    )
        if self.read_error_rate > 0.0 and (
            self.rng.random() < self.read_error_rate
        ):
            self.read_errors_raised += 1
            raise InjectedReadError(
                f"injected media error at sector {sector}",
                op="read",
                sector=sector,
                count=count,
            )


# ======================================================================
# The stack factory
# ======================================================================

@dataclass(frozen=True)
class InterposeOptions:
    """Which interposers :func:`build_device_stack` should thread in."""

    trace: bool = False
    trace_capacity: int = 4096
    trace_sink: Optional[object] = None
    metrics: bool = False
    faults: Optional[FaultPlan] = None

    @property
    def any_enabled(self) -> bool:
        return self.trace or self.metrics or self.faults is not None


def wrap_device(
    device: BlockDevice, options: Optional[InterposeOptions]
) -> BlockDevice:
    """Apply the requested interposers around an existing device.

    Layer order, innermost out: faults (so observers see the faulty
    behaviour the host sees), then metrics, then tracing.  With no
    options enabled the device is returned untouched -- the disabled
    stack costs nothing.
    """
    if options is None or not options.any_enabled:
        return device
    if options.faults is not None:
        device = FaultDevice(device, options.faults)
    if options.metrics:
        device = MetricsDevice(device)
    if options.trace:
        device = TracingDevice(
            device,
            capacity=options.trace_capacity,
            sink=options.trace_sink,
        )
    return device


def build_device_stack(
    disk,
    device_type: str = "regular",
    block_size: int = 4096,
    *,
    trace: bool = False,
    trace_capacity: int = 4096,
    trace_sink: Optional[object] = None,
    metrics: bool = False,
    faults: Optional[FaultPlan] = None,
    device_factory: Optional[Callable] = None,
    nvm=None,
    **device_kwargs,
) -> BlockDevice:
    """Build a core device over ``disk`` and wrap it with interposers.

    ``device_type`` selects the core: ``"regular"`` (update-in-place
    identity mapping) or ``"vld"`` (the Virtual Log Disk); a custom
    ``device_factory(disk, block_size=..., **device_kwargs)`` overrides
    both.  ``nvm`` threads an NVM write-ahead tier between the core and
    the interposers: pass ``True`` for the default NVDIMM spec, a part
    name from :data:`~repro.blockdev.nvm.NVM_SPECS`, or an
    :class:`~repro.blockdev.nvm.NVMSpec`.  The keyword flags pick the
    interposers.  This is the single entry point the harness and the
    examples build stacks through.
    """
    if device_factory is not None:
        device: BlockDevice = device_factory(
            disk, block_size=block_size, **device_kwargs
        )
    elif device_type == "regular":
        device = RegularDisk(disk, block_size=block_size, **device_kwargs)
    elif device_type == "vld":
        from repro.vlog.vld import VirtualLogDisk

        device = VirtualLogDisk(disk, block_size=block_size, **device_kwargs)
    else:
        raise ValueError(f"unknown device type {device_type!r}")
    if nvm:
        from repro.blockdev.nvm import NVM_SPECS, NVMSpec
        from repro.nvm import NVWal

        if nvm is True:
            spec = None
        elif isinstance(nvm, NVMSpec):
            spec = nvm
        else:
            spec = NVM_SPECS[nvm]
        device = NVWal(device, spec=spec)
    return wrap_device(device, InterposeOptions(
        trace=trace,
        trace_capacity=trace_capacity,
        trace_sink=trace_sink,
        metrics=metrics,
        faults=faults,
    ))
