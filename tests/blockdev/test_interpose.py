"""The interposer stack: delegation, tracing, metrics, fault injection,
and the build_device_stack factory."""

import io
import json

import pytest

from repro.blockdev.interpose import (
    DeviceCrashed,
    DiskFaultInjector,
    FaultDevice,
    FaultPlan,
    InjectedReadError,
    InterposedDevice,
    InterposeOptions,
    MetricsDevice,
    TracingDevice,
    build_device_stack,
    core_device,
    find_layer,
    layers,
    wrap_device,
)
from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.sim.stats import COMPONENTS
from repro.vlog.vld import VirtualLogDisk


@pytest.fixture
def disk():
    return Disk(ST19101, num_cylinders=2)


@pytest.fixture
def device(disk):
    return RegularDisk(disk)


PAYLOAD = b"\xAB" * 4096


class TestInterposedDevice:
    def test_pure_passthrough_roundtrip(self, device):
        wrapped = InterposedDevice(device)
        wrapped.write_block(5, PAYLOAD)
        data, _ = wrapped.read_block(5)
        assert data == PAYLOAD

    def test_geometry_properties_delegate(self, device):
        wrapped = InterposedDevice(device)
        assert wrapped.block_size == device.block_size
        assert wrapped.num_blocks == device.num_blocks

    def test_unknown_attributes_fall_through(self, device):
        wrapped = InterposedDevice(InterposedDevice(device))
        assert wrapped.disk is device.disk
        assert wrapped.sectors_per_block == device.sectors_per_block

    def test_missing_attribute_raises(self, device):
        with pytest.raises(AttributeError):
            InterposedDevice(device).definitely_not_an_attribute

    def test_layers_outermost_first(self, device):
        stack = TracingDevice(MetricsDevice(device))
        kinds = [type(layer) for layer in layers(stack)]
        assert kinds == [TracingDevice, MetricsDevice, RegularDisk]

    def test_core_device_unwraps_fully(self, device):
        stack = TracingDevice(MetricsDevice(device))
        assert core_device(stack) is device
        assert core_device(device) is device

    def test_find_layer(self, device):
        stack = TracingDevice(MetricsDevice(device))
        assert isinstance(find_layer(stack, MetricsDevice), MetricsDevice)
        assert find_layer(stack, FaultDevice) is None

    def test_vld_surface_reachable_through_wrappers(self, disk):
        stack = TracingDevice(MetricsDevice(VirtualLogDisk(disk)))
        stack.write_block(3, PAYLOAD)
        stack.vlog.check_invariants()  # reaches the VLD through two layers
        assert stack.imap is core_device(stack).imap


class TestTracingDevice:
    def test_records_one_event_per_operation(self, device):
        traced = TracingDevice(device)
        traced.write_block(1, PAYLOAD)
        traced.write_blocks(2, 2, PAYLOAD * 2)
        traced.read_block(1)
        assert [e.op for e in traced.events] == ["write", "write", "read"]
        assert [e.count for e in traced.events] == [1, 2, 1]
        assert [e.seq for e in traced.events] == [0, 1, 2]
        assert traced.total_events == 3

    def test_event_carries_timestamp_and_breakdown(self, device):
        traced = TracingDevice(device)
        clock = device.disk.clock
        before = clock.now
        breakdown = traced.write_block(9, PAYLOAD)
        event = traced.events[-1]
        assert event.start == before
        assert event.breakdown == breakdown
        assert event.breakdown is not breakdown  # a snapshot, not a ref
        assert event.elapsed == breakdown.total

    def test_ring_buffer_evicts_oldest(self, device):
        traced = TracingDevice(device, capacity=4)
        for lba in range(10):
            traced.write_block(lba, PAYLOAD)
        assert len(traced.events) == 4
        assert [e.lba for e in traced.events] == [6, 7, 8, 9]
        assert traced.total_events == 10

    def test_jsonl_sink_mirrors_events(self, device):
        sink = io.StringIO()
        traced = TracingDevice(device, sink=sink)
        traced.write_block(4, PAYLOAD)
        traced.read_block(4)
        records = [json.loads(line) for line in
                   sink.getvalue().splitlines()]
        assert [r["op"] for r in records] == ["write", "read"]
        assert records[0]["lba"] == 4
        assert set(records[0]["breakdown"]) == set(COMPONENTS)

    def test_path_sink_opened_lazily_and_closed(self, device, tmp_path):
        path = tmp_path / "trace.jsonl"
        traced = TracingDevice(device, sink=str(path))
        assert not path.exists()
        traced.write_block(0, PAYLOAD)
        traced.close()
        assert len(path.read_text().splitlines()) == 1

    def test_disabled_records_nothing(self, device):
        traced = TracingDevice(device)
        traced.enabled = False
        traced.write_block(1, PAYLOAD)
        assert traced.total_events == 0

    def test_rejects_nonpositive_capacity(self, device):
        with pytest.raises(ValueError):
            TracingDevice(device, capacity=0)


class TestMetricsDevice:
    def test_counts_ops_and_blocks(self, device):
        metered = MetricsDevice(device)
        metered.write_blocks(0, 3, PAYLOAD * 3)
        metered.write_block(8, PAYLOAD)
        metered.read_block(8)
        assert metered.ops == {"write": 2, "read": 1}
        assert metered.blocks == {"write": 4, "read": 1}
        assert metered.total_ops == 3

    def test_component_totals_match_breakdowns(self, device):
        metered = MetricsDevice(device)
        expected = {name: 0.0 for name in COMPONENTS}
        for lba in (3, 200, 41):
            breakdown = metered.write_block(lba, PAYLOAD)
            for name in COMPONENTS:
                expected[name] += getattr(breakdown, name)
        totals = metered.component_totals(include_host=False)
        for name in COMPONENTS:
            assert totals[name] == pytest.approx(expected[name])

    def test_host_time_inferred_from_clock_gaps(self, device):
        metered = MetricsDevice(device)
        clock = device.disk.clock
        metered.write_block(0, PAYLOAD)
        clock.advance(0.25)  # host-side work between device ops
        metered.write_block(1, PAYLOAD)
        assert metered.host_seconds == pytest.approx(0.25)
        assert metered.component_totals()["other"] == pytest.approx(
            0.25, abs=1e-9
        )

    def test_idle_time_not_misread_as_host_time(self, device):
        metered = MetricsDevice(device)
        metered.write_block(0, PAYLOAD)
        metered.idle(5.0)
        metered.write_block(1, PAYLOAD)
        assert metered.idle_seconds == pytest.approx(5.0)
        assert metered.host_seconds == pytest.approx(0.0)

    def test_fractions_sum_to_one(self, device):
        metered = MetricsDevice(device)
        for lba in range(5):
            metered.write_block(lba * 30, PAYLOAD)
        fractions = metered.component_fractions()
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_fractions_empty_when_nothing_recorded(self, device):
        metered = MetricsDevice(device)
        assert metered.component_fractions() == {
            name: 0.0 for name in COMPONENTS
        }

    def test_reset_clears_everything(self, device):
        metered = MetricsDevice(device)
        metered.write_block(0, PAYLOAD)
        device.disk.clock.advance(1.0)
        metered.reset()
        assert metered.total_ops == 0
        assert metered.host_seconds == 0.0
        assert metered.device_seconds() == 0.0
        # The gap origin moved to "now": pre-reset time is not counted.
        metered.write_block(1, PAYLOAD)
        assert metered.host_seconds == pytest.approx(0.0)

    def test_summary_mentions_ops_and_components(self, device):
        metered = MetricsDevice(device)
        metered.write_block(0, PAYLOAD)
        text = metered.summary()
        assert "write=1(1blk)" in text
        assert "locate=" in text


class _StubScheduler:
    """Wraps the device's real scheduler but reports a scripted
    ``outstanding`` count, so the tests control the probe directly."""

    def __init__(self, real) -> None:
        self._real = real
        self.outstanding = 0

    def __getattr__(self, name):
        return getattr(self._real, name)


class TestQueueAwareMetrics:
    """Clock-gap attribution once the wrapped device runs a queue.

    The seed read *every* inter-op gap as host compute; under a queue the
    gap between two completions is the device draining its backlog, and
    counting it as host time double-counts it (it is already inside the
    queued ops' service times).
    """

    def test_depth_one_gaps_still_host_time(self, device):
        device.scheduler = _StubScheduler(device.scheduler)
        metered = MetricsDevice(device)
        clock = device.disk.clock
        metered.write_block(0, PAYLOAD)
        clock.advance(0.25)
        metered.write_block(1, PAYLOAD)
        assert metered.host_seconds == pytest.approx(0.25)
        assert metered.overlapped_seconds == 0.0

    def test_no_host_time_while_requests_outstanding(self, device):
        device.scheduler = _StubScheduler(device.scheduler)
        metered = MetricsDevice(device)
        clock = device.disk.clock
        device.scheduler.outstanding = 3
        metered.write_block(0, PAYLOAD)
        clock.advance(0.25)  # the queue draining, not host compute
        metered.write_block(1, PAYLOAD)
        assert metered.host_seconds == pytest.approx(0.0)
        assert metered.overlapped_seconds == pytest.approx(0.25)
        # Back at depth 0 the old inference applies again.
        device.scheduler.outstanding = 0
        metered.write_block(2, PAYLOAD)
        clock.advance(0.1)
        metered.write_block(3, PAYLOAD)
        assert metered.host_seconds == pytest.approx(0.1)
        assert metered.overlapped_seconds == pytest.approx(0.25)

    def test_queue_depth_sampled_per_op(self, device):
        device.scheduler = _StubScheduler(device.scheduler)
        metered = MetricsDevice(device)
        device.scheduler.outstanding = 2
        metered.write_block(0, PAYLOAD)
        device.scheduler.outstanding = 4
        metered.write_block(1, PAYLOAD)
        device.scheduler.outstanding = 0
        metered.write_block(2, PAYLOAD)
        stats = metered.queue_stats()
        assert metered.queue_depth_samples == {2: 1, 4: 1, 0: 1}
        assert stats["max_depth"] == 4.0
        assert stats["mean_depth"] == pytest.approx(2.0)
        assert "queue[max=4" in metered.summary()

    def test_unscheduled_devices_never_overlap(self, device):
        metered = MetricsDevice(device)
        clock = device.disk.clock
        metered.write_block(0, PAYLOAD)
        clock.advance(0.5)
        metered.write_block(1, PAYLOAD)
        assert metered.overlapped_seconds == 0.0
        assert metered.host_seconds == pytest.approx(0.5)
        assert metered.queue_depth_samples == {0: 2}

    def test_service_percentiles_from_op_latencies(self, device):
        metered = MetricsDevice(device)
        for lba in range(8):
            metered.write_block(lba * 16, PAYLOAD)
        pct = metered.service_percentiles("write")
        assert pct["p50"] > 0.0
        assert pct["p50"] <= pct["p95"] <= pct["p99"]
        assert metered.service_percentiles() == pct
        # No reads recorded: every quantile is NaN ("no data"), never a
        # lying 0.0 that reads as "instantaneous".
        import math

        empty = metered.service_percentiles("read")
        assert set(empty) == {"p50", "p95", "p99", "p999"}
        assert all(math.isnan(v) for v in empty.values())

    def test_real_scheduler_depth_four_reports_overlap(self, disk):
        device = RegularDisk(disk, queue_depth=4, sched="satf")
        metered = MetricsDevice(device)
        for lba in range(10):
            metered.write_block(lba * 16, PAYLOAD)
        # Steady state keeps depth-1 requests pending after each submit.
        assert max(metered.queue_depth_samples) == 3
        assert metered.queue_stats()["max_depth"] == 3.0
        # Inter-op gaps while the queue is busy count as overlap, not
        # host compute.
        disk.clock.advance(0.05)
        metered.write_block(200, PAYLOAD)
        assert metered.overlapped_seconds == pytest.approx(0.05)
        assert metered.host_seconds == 0.0
        metered.idle(0.0)  # drains: the queue empties
        disk.clock.advance(0.01)
        metered.write_block(201, PAYLOAD)
        assert metered.host_seconds == pytest.approx(0.01)

    def test_real_scheduler_depth_one_never_overlaps(self, disk):
        device = RegularDisk(disk)  # depth 1, FIFO: the baseline
        metered = MetricsDevice(device)
        metered.write_block(0, PAYLOAD)
        disk.clock.advance(0.02)
        metered.write_block(1, PAYLOAD)
        assert metered.overlapped_seconds == 0.0
        assert metered.host_seconds == pytest.approx(0.02)
        assert set(metered.queue_depth_samples) == {0}


class TestFaultPlan:
    def test_parse_full_spec(self):
        plan = FaultPlan.parse(
            "crash_after=40,torn=0.05,drop=0.02,read_err=0.01,seed=7"
        )
        assert plan.crash_after_ops == 40
        assert plan.torn_write_rate == 0.05
        assert plan.dropped_write_rate == 0.02
        assert plan.read_error_rate == 0.01
        assert plan.seed == 7

    def test_parse_rejects_unknown_key(self):
        with pytest.raises(ValueError):
            FaultPlan.parse("explode=1")

    def test_rejects_out_of_range_rate(self):
        with pytest.raises(ValueError):
            FaultPlan(torn_write_rate=1.5)
        with pytest.raises(ValueError):
            FaultPlan(crash_after_ops=0)


class TestFaultDevice:
    def test_crash_after_n_ops(self, device):
        faulty = FaultDevice(device, FaultPlan(crash_after_ops=3))
        faulty.write_block(0, PAYLOAD)
        faulty.read_block(0)
        with pytest.raises(DeviceCrashed):
            faulty.write_block(1, PAYLOAD)
        # The device stays dead.
        with pytest.raises(DeviceCrashed):
            faulty.read_block(0)
        assert faulty.crashed

    def test_crashed_op_never_reaches_inner_device(self, device):
        device.write_block(2, PAYLOAD)
        faulty = FaultDevice(device, FaultPlan(crash_after_ops=1))
        with pytest.raises(DeviceCrashed):
            faulty.write_block(2, b"\xCD" * 4096)
        assert device.read_block(2)[0] == PAYLOAD

    def test_read_errors_are_deterministic(self, disk):
        outcomes = []
        for _ in range(2):
            dev = RegularDisk(Disk(ST19101, num_cylinders=2))
            faulty = FaultDevice(
                dev, FaultPlan(seed=11, read_error_rate=0.3)
            )
            run = []
            for lba in range(30):
                try:
                    faulty.read_block(lba)
                    run.append(True)
                except InjectedReadError:
                    run.append(False)
            outcomes.append(run)
        assert outcomes[0] == outcomes[1]
        assert False in outcomes[0] and True in outcomes[0]

    def test_dropped_write_leaves_old_data(self, device):
        device.write_block(6, PAYLOAD)
        faulty = FaultDevice(device, FaultPlan(dropped_write_rate=1.0))
        breakdown = faulty.write_block(6, b"\x11" * 4096)
        assert breakdown.total == 0.0
        assert faulty.writes_dropped == 1
        assert device.read_block(6)[0] == PAYLOAD

    def test_torn_write_keeps_only_a_prefix(self, device):
        old = bytes([7]) * (4 * 4096)
        new = bytes([9]) * (4 * 4096)
        device.write_blocks(20, 4, old)
        faulty = FaultDevice(
            device, FaultPlan(seed=3, torn_write_rate=1.0)
        )
        faulty.write_blocks(20, 4, new)
        assert faulty.writes_torn == 1
        data, _ = device.read_blocks(20, 4)
        blocks = [data[i * 4096: (i + 1) * 4096] for i in range(4)]
        survived = sum(b == new[:4096] for b in blocks)
        assert survived < 4  # never the whole write
        # The survivors form a prefix: no new-data block after an old one.
        flags = [b == new[:4096] for b in blocks]
        assert flags == sorted(flags, reverse=True)

    def test_single_block_torn_write_is_dropped(self, device):
        device.write_block(1, PAYLOAD)
        faulty = FaultDevice(device, FaultPlan(torn_write_rate=1.0))
        faulty.write_block(1, b"\x55" * 4096)
        assert device.read_block(1)[0] == PAYLOAD


class TestDiskFaultInjector:
    def test_crashes_on_nth_physical_write(self, disk):
        device = RegularDisk(disk)
        injector = DiskFaultInjector(crash_after_writes=2).install(disk)
        device.write_block(0, PAYLOAD)
        with pytest.raises(DeviceCrashed):
            device.write_block(1, PAYLOAD)
        injector.uninstall(disk)
        assert disk.fault_injector is None
        # After uninstall the disk works again.
        device.write_block(1, PAYLOAD)

    def test_fatal_write_is_torn_at_sector_granularity(self, disk):
        device = RegularDisk(disk)
        device.write_block(5, bytes([1]) * 4096)
        DiskFaultInjector(crash_after_writes=1, torn=True).install(disk)
        with pytest.raises(DeviceCrashed):
            device.write_block(5, bytes([2]) * 4096)
        disk.fault_injector = None
        sector = 5 * device.sectors_per_block
        assert disk.peek(sector, 4) == bytes([2]) * (4 * 512)  # first half
        assert disk.peek(sector + 4, 4) == bytes([1]) * (4 * 512)

    def test_kills_vld_inside_internal_sequence(self, disk):
        vld = VirtualLogDisk(disk)
        vld.write_block(0, PAYLOAD)
        clean_writes = disk.counters.writes
        injector = DiskFaultInjector(crash_after_writes=1).install(disk)
        with pytest.raises(DeviceCrashed):
            vld.write_block(1, PAYLOAD)
        injector.uninstall(disk)
        # The VLD issues several physical writes per logical write; the
        # injector fired inside that sequence.
        assert disk.counters.writes == clean_writes


class TestWrapDeviceAndFactory:
    def test_no_options_returns_bare_device(self, disk):
        device = build_device_stack(disk, "regular")
        assert isinstance(device, RegularDisk)
        assert wrap_device(device, None) is device
        assert wrap_device(device, InterposeOptions()) is device

    def test_layer_order_fault_innermost_trace_outermost(self, disk):
        device = build_device_stack(
            disk, "regular",
            trace=True, metrics=True, faults=FaultPlan(seed=1),
        )
        kinds = [type(layer) for layer in layers(device)]
        assert kinds == [
            TracingDevice, MetricsDevice, FaultDevice, RegularDisk
        ]

    def test_builds_vld_core(self, disk):
        device = build_device_stack(disk, "vld", metrics=True)
        assert isinstance(core_device(device), VirtualLogDisk)
        device.write_block(0, PAYLOAD)
        assert find_layer(device, MetricsDevice).total_ops == 1

    def test_custom_device_factory(self, disk):
        calls = {}

        def factory(d, block_size):
            calls["block_size"] = block_size
            return RegularDisk(d, block_size=block_size)

        device = build_device_stack(
            disk, block_size=8192, device_factory=factory
        )
        assert calls["block_size"] == 8192
        assert device.block_size == 8192

    def test_unknown_device_type_rejected(self, disk):
        with pytest.raises(ValueError):
            build_device_stack(disk, "mystery")

    def test_wrapped_stack_is_transparent(self, disk):
        bare_disk = Disk(ST19101, num_cylinders=2)
        bare = RegularDisk(bare_disk)
        stacked = build_device_stack(disk, "regular", trace=True,
                                     metrics=True)
        for lba in (0, 17, 300):
            b1 = bare.write_block(lba, PAYLOAD)
            b2 = stacked.write_block(lba, PAYLOAD)
            assert b1 == b2
            assert bare.read_block(lba)[0] == stacked.read_block(lba)[0]
        assert bare_disk.clock.now == disk.clock.now


class TestDeviceFaultContext:
    def test_structured_fields_and_context(self):
        fault = InjectedReadError(
            "boom", op="read", lba=7, sector=56, count=2, attempt=3
        )
        assert fault.op == "read"
        assert fault.context() == {
            "op": "read", "lba": 7, "sector": 56, "count": 2, "attempt": 3
        }

    def test_context_drops_unset_fields(self):
        fault = DeviceCrashed("gone", op="write", count=4)
        assert fault.context() == {"op": "write", "count": 4}

    def test_injectors_fill_fields(self, disk):
        DiskFaultInjector(bad_sectors={80}).install(disk)
        with pytest.raises(InjectedReadError) as excinfo:
            disk.read(80, 1)
        assert excinfo.value.sector == 80
        assert excinfo.value.op == "read"


class TestTracingFaultEvents:
    def test_faulted_op_still_traced(self, device):
        traced = TracingDevice(
            FaultDevice(device, FaultPlan(read_error_rate=1.0))
        )
        with pytest.raises(InjectedReadError):
            traced.read_block(3)
        assert len(traced.events) == 1
        event = traced.events[0]
        assert event.fault == "InjectedReadError"
        assert event.fault_context["lba"] == 3
        assert event.elapsed == 0.0

    def test_fault_event_serializes_to_jsonl(self, device):
        sink = io.StringIO()
        traced = TracingDevice(
            FaultDevice(device, FaultPlan(read_error_rate=1.0)), sink=sink
        )
        with pytest.raises(InjectedReadError):
            traced.read_block(9)
        record = json.loads(sink.getvalue())
        assert record["fault"] == "InjectedReadError"
        assert record["fault_context"]["op"] == "read"


class TestMetricsFaultedBucket:
    def test_faults_land_in_their_own_bucket(self, device):
        metrics = MetricsDevice(
            FaultDevice(device, FaultPlan(read_error_rate=1.0))
        )
        metrics.write_block(1, PAYLOAD)
        with pytest.raises(InjectedReadError):
            metrics.read_block(1)
        assert metrics.faulted == {"read": 1}
        assert metrics.ops == {"write": 1}  # completed ops unpolluted
        assert "read" not in metrics.op_latency

    def test_faulted_device_time_not_misread_as_host_time(self, disk):
        """A faulted operation that consumed simulated time (VLD read
        retries with backoff before escalating) must charge that time to
        the faulted bucket, not leak it into the next op's host gap."""
        from repro.vlog.resilience import MediaError

        vld = VirtualLogDisk(disk)
        vld.write_block(0, PAYLOAD)
        sector = vld.imap.get(0) * vld.sectors_per_block
        metrics = MetricsDevice(vld)
        DiskFaultInjector(bad_sectors={sector}).install(disk)
        with pytest.raises(MediaError):
            metrics.read_block(0)
        assert metrics.faulted == {"read": 1}
        assert metrics.faulted_seconds > 0.0
        host_before = metrics.host_seconds
        metrics.write_block(1, PAYLOAD)
        # Back-to-back ops: no host gap should have been inferred.
        assert metrics.host_seconds == pytest.approx(host_before)


class TestSectorGranularInjection:
    def test_bad_sectors_fail_every_touching_read(self, disk):
        DiskFaultInjector(bad_sectors={100}).install(disk)
        for _ in range(3):
            with pytest.raises(InjectedReadError):
                disk.read(96, 8)
        data, _ = disk.read(104, 8)  # a run that avoids the defect
        assert len(data) == 8 * disk.sector_bytes

    def test_flaky_sectors_reroll_per_attempt(self, disk):
        injector = DiskFaultInjector(
            flaky_sectors={100: 1.0}, seed=0
        ).install(disk)
        with pytest.raises(InjectedReadError):
            disk.read(100, 1)
        injector.flaky_sectors[100] = 0.0  # transient: next attempt clean
        data, _ = disk.read(100, 1)
        assert len(data) == disk.sector_bytes
        assert injector.read_errors_raised == 1

    def test_writes_never_fault_on_degraded_sectors(self, disk):
        DiskFaultInjector(
            bad_sectors={100}, flaky_sectors={101: 1.0}
        ).install(disk)
        disk.write(100, 2, b"\x77" * 2 * disk.sector_bytes)  # no raise
