"""``benchmarks/bench_sweep.py --check`` reports interpreter drift."""

import json
import platform

from benchmarks import bench_sweep


def _result(python):
    return {
        "schema": bench_sweep.SCHEMA,
        "grid_points": 20,
        "jobs": 2,
        "cpus": 2,
        "pool_tasks_per_run": 4,
        "seconds": {
            "serial": 1.0,
            "parallel": 0.5,
            "cold_cached": 1.0,
            "warm_cached": 0.001,
        },
        "speedup": 2.0,
        "speedup_floor": bench_sweep.speedup_floor(2),
        "warm_fraction": 0.001,
        "hit_latency_ms": 0.05,
        "environment": {
            "python": python,
            "implementation": platform.python_implementation(),
            "machine": platform.machine(),
        },
    }


def _check(tmp_path, monkeypatch, baseline_python):
    here = platform.python_version()
    monkeypatch.setattr(bench_sweep, "run_suite", lambda: _result(here))
    baseline = tmp_path / "BENCH_sweep.json"
    baseline.write_text(json.dumps(_result(baseline_python)))
    return bench_sweep.main([
        "--json", str(tmp_path / "out.json"), "--check", str(baseline),
    ])


def test_check_warns_on_a_baseline_from_another_python(
    tmp_path, monkeypatch, capsys
):
    assert _check(tmp_path, monkeypatch, "2.7.18") == 0
    err = capsys.readouterr().err
    assert (
        "PERF WARNING: interpreter drift: baseline was recorded on 2.7.18, "
        f"this run is {platform.python_version()}"
    ) in err


def test_check_is_quiet_on_the_same_python(tmp_path, monkeypatch, capsys):
    assert _check(tmp_path, monkeypatch, platform.python_version()) == 0
    assert "PERF WARNING" not in capsys.readouterr().err
