"""The traced run agrees with the layers' own counters, changes only host
time, and shows the bypass pattern each workload was chosen for."""

import pytest

import run
from tracing import BOUNDARIES, Tracer
from workloads import WORKLOADS


@pytest.fixture(scope="module")
def rounds():
    """One untraced and one traced round of stream 0 per workload."""
    return {
        name: (run.run_round(w, 3, 0), run.run_round(w, 3, 0, Tracer()))
        for name, w in WORKLOADS.items()
    }


def _layer(metrics, prefix):
    return {
        k: v for k, v in metrics.items()
        if k.startswith(prefix + ".") and not k.startswith("setup.")
    }


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_spans_match_layer_counters(rounds, workload):
    plain, traced = rounds[workload]
    assert plain.failures == [] and traced.failures == []
    assert traced.consistency == []


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_tracing_changes_only_host_time(rounds, workload):
    plain, traced = rounds[workload]
    assert traced.write_lat == plain.write_lat
    assert traced.read_lat == plain.read_lat


def test_tracer_restores_every_boundary():
    before = [
        cls.__dict__[m] for _layer_name, cls, methods, _u in BOUNDARIES
        for m in methods
    ]
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    after = [
        cls.__dict__[m] for _layer_name, cls, methods, _u in BOUNDARIES
        for m in methods
    ]
    assert all(a is b for a, b in zip(before, after))


def test_bypass_predictions(rounds):
    ufs = rounds["ufs-vld-sync"][1].layers
    lfs = rounds["lfs-nvram-sync"][1].layers
    nvm = rounds["nvm-vld-mixed"][1].layers
    # Layers a workload never reaches read exactly zero.
    for prefix in ("ufs", "lfs"):
        assert not any(_layer(nvm, prefix).values()), prefix
    assert not any(_layer(ufs, "lfs").values())
    for prefix in ("vlog", "ufs", "nvm"):
        assert not any(_layer(lfs, prefix).values()), prefix
    for layers in (ufs, lfs):
        assert not any(_layer(layers, "nvm").values())
        assert not any(_layer(layers, "sched.satf_pick").values())
    # ... and the layers each workload was chosen for do work.
    assert all(v > 0 for v in _layer(nvm, "nvm").values())
    assert all(v > 0 for v in _layer(nvm, "sched.satf_pick").values())
    assert ufs["ufs.self_s"] > 0 and ufs["vlog.compactor.blocks_moved"] > 0
    assert lfs["lfs.cleaner.segments_cleaned"] > 0
    assert lfs["lfs.file_cache.self_s"] > 0
    assert ufs["setup.ufs.bitmap.self_s"] > 0


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    nid = {name: i for i, (_layer_name, name) in enumerate(tracer.names)}
    spans = [
        [nid["UFS.write"], 0.0, 10.0, -1, 0, 1],
        [nid["VirtualLogDisk.write_blocks"], 1.0, 7.0, 0, 0, 1],
        [nid["Disk.write"], 2.0, 5.0, 1, 0, 1],
        [nid["Disk.write"], 8.0, 9.0, 0, 0, 1],
    ]
    selfs = tracer.self_times(spans)
    assert selfs["ufs"] == pytest.approx(3.0)
    assert selfs["vlog"] == pytest.approx(3.0)
    assert selfs["disk"] == pytest.approx(4.0)
    assert tracer.count(spans, "Disk.write", parent="UFS.write") == 1
    assert tracer.count(spans, "Disk.write", ancestor="UFS.write") == 2
