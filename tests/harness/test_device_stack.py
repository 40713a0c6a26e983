"""build_stack's interposer threading: config flags, the CLI's stack
overrides, and metrics-vs-recorder agreement on the Figure 9 breakdown."""

import gc

import pytest

from repro.blockdev.interpose import (
    FaultDevice,
    FaultPlan,
    MetricsDevice,
    TracingDevice,
    core_device,
    find_layer,
)
from repro.blockdev.nvm import NVM_SPECS
from repro.blockdev.regular import RegularDisk
from repro.harness import experiments
from repro.harness.configs import StackConfig, StackOverrides, build_stack
from repro.nvm import NVWal
from repro.sim.stats import COMPONENTS
from repro.vlog.vld import VirtualLogDisk
from repro.workloads.random_update import prepare_file, run_random_updates


def _config(**kwargs):
    return StackConfig(
        "ufs-regular", "ufs", "regular", num_cylinders=2, **kwargs
    )


class TestConfigFlags:
    def test_no_flags_builds_bare_device(self):
        _fs, _disk, device = build_stack(_config())
        assert isinstance(device, RegularDisk)

    def test_metrics_flag_wraps(self):
        _fs, _disk, device = build_stack(_config(metrics=True))
        assert isinstance(device, MetricsDevice)

    def test_trace_and_fault_flags(self):
        config = _config(trace=True, faults=FaultPlan(seed=1))
        _fs, _disk, device = build_stack(config)
        assert isinstance(device, TracingDevice)
        assert find_layer(device, FaultDevice) is not None
        assert find_layer(device, MetricsDevice) is None

    def test_trace_path_is_the_sink(self, tmp_path):
        path = tmp_path / "ops.jsonl"
        fs, _disk, device = build_stack(_config(trace=str(path)))
        fs.create("/f")
        fs.write("/f", 0, b"payload", sync=True)
        device.close()
        assert path.read_text().count("\n") == device.total_events > 0

    def test_vld_config_keeps_vld_core(self):
        config = StackConfig(
            "ufs-vld", "ufs", "vld", num_cylinders=2, metrics=True
        )
        _fs, _disk, device = build_stack(config)
        assert isinstance(core_device(device), VirtualLogDisk)

    def test_fs_still_works_through_the_stack(self):
        fs, _disk, device = build_stack(_config(metrics=True, trace=True))
        fs.create("/f")
        fs.write("/f", 0, b"payload", sync=True)
        data, _ = fs.read("/f", 0, 7)
        assert data == b"payload"
        assert find_layer(device, MetricsDevice).total_ops > 0


class TestStackOverrides:
    def test_no_overrides_leave_the_config_alone(self):
        config = _config()
        assert StackOverrides().apply(config) == config

    def test_overrides_reach_the_built_stack(self):
        overrides = StackOverrides(
            queue_depth=4, sched="satf", nvm=NVM_SPECS["slow-pcm"],
            metrics=True,
        )
        _fs, _disk, device = build_stack(overrides.apply(_config()))
        assert isinstance(device, MetricsDevice)
        wal = find_layer(device, NVWal)
        assert wal is not None and wal.spec == NVM_SPECS["slow-pcm"]
        assert core_device(device).scheduler.queue_depth == 4

    def test_queue_and_nvm_replace_only_baseline_values(self):
        config = _config(queue_depth=2, sched="scan", nvm="nvdimm")
        applied = StackOverrides(
            queue_depth=8, sched="satf", nvm=NVM_SPECS["slow-pcm"]
        ).apply(config)
        assert (applied.queue_depth, applied.sched) == (2, "scan")
        assert applied.nvm == "nvdimm"

    def test_interposer_flags_are_ored(self):
        plan = FaultPlan(seed=1)
        applied = StackOverrides(metrics=True).apply(
            _config(trace=True, faults=plan)
        )
        assert applied.trace is True and applied.metrics
        assert applied.faults == plan
        assert StackOverrides().apply(_config(metrics=True)).metrics

    def test_params_round_trip(self):
        overrides = StackOverrides(
            queue_depth=4, sched="satf",
            nvm=NVM_SPECS["nvdimm"].with_overrides(store_latency=3e-6),
            trace="ops.jsonl", metrics=True,
            faults=FaultPlan(seed=7, torn_write_rate=0.05),
        )
        params = overrides.to_params()
        assert StackOverrides.from_params(params) == overrides
        assert StackOverrides.from_params(StackOverrides().to_params()) \
            == StackOverrides()


def test_table2_leaves_no_metrics_device_alive():
    """The stacks a figure builds die with its points: nothing in the
    process keeps a MetricsDevice (and the stack under it) alive."""
    experiments.table2(utilization=0.4, updates=10, warmup=5)
    gc.collect()
    assert not [
        obj for obj in gc.get_objects() if isinstance(obj, MetricsDevice)
    ]


class TestFigure9FromHistograms:
    def test_metrics_fractions_match_recorder_fractions(self):
        """The Figure 9 breakdown regenerated from the MetricsDevice's
        histograms agrees with the workload's own per-call accounting."""
        config = StackConfig(
            "ufs-vld", "ufs", "vld", num_cylinders=2, metrics=True
        )
        fs, _disk, device = build_stack(config)
        metrics = find_layer(device, MetricsDevice)
        file_bytes = 64 * 4096
        prepare_file(fs, "/target", file_bytes)
        recorder = run_random_updates(
            fs, "/target", file_bytes, updates=40, warmup=10,
            on_measure_start=metrics.reset,
        )
        from_metrics = metrics.component_fractions()
        from_recorder = recorder.component_fractions()
        for name in COMPONENTS:
            assert from_metrics[name] == pytest.approx(
                from_recorder[name], abs=1e-6
            )
        # And the absolute time agrees, not just the shape.
        assert sum(metrics.component_totals().values()) == pytest.approx(
            recorder.total_time
        )
