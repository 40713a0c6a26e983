"""The harness command line: flag checking and the documented forms."""

import re
import shlex
from pathlib import Path

import pytest

from repro.blockdev.nvm import NVM_SPECS
from repro.harness import __main__ as cli
from repro.harness import experiments

README = Path(__file__).resolve().parents[2] / "README.md"


def _documented_commands():
    """Every ``$ python -m repro.harness ...`` line of the README, with
    its backslash continuations joined and its comment dropped."""
    commands, pending = [], None
    for line in README.read_text().splitlines():
        if pending is None:
            match = re.match(r"\$ python -m repro\.harness(.*)", line)
            if match is None:
                continue
            pending = match.group(1)
        else:
            pending += " " + line
        if pending.rstrip().endswith("\\"):
            pending = pending.rstrip()[:-1]
            continue
        commands.append(shlex.split(pending, comments=True))
        pending = None
    return commands


def _check(argv):
    """Check ``argv``'s flags without running anything: ``--list``
    returns right after the flags are checked."""
    assert cli.main([*argv, "--list"]) == 0


@pytest.mark.parametrize(
    "argv", _documented_commands(), ids=lambda argv: " ".join(argv)
)
def test_documented_commands_parse(argv):
    _check(argv)


def test_documented_nvm_form_reaches_the_figure(monkeypatch):
    """``--nvm PART`` takes exactly one value, so the experiment name
    after it stays an experiment, and the figure gets the tier."""
    seen = {}

    def fake_table2(**kwargs):
        seen.update(kwargs)
        return {}

    monkeypatch.setattr(experiments, "table2", fake_table2)
    assert cli.main(["--nvm", "nvdimm", "--no-cache", "table2"]) == 0
    assert seen["overrides"].nvm == NVM_SPECS["nvdimm"]


def test_nvm_requires_a_part():
    with pytest.raises(SystemExit) as exc:
        _check(["--nvm", "table2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("flags", [
    ["--nvm", "nvdimm"],
    ["--nvm", "nvdimm", "--nvm-lat", "3e-6"],
    ["--queue-depth", "4"],
    ["--sched", "satf"],
    ["--faults", "crash_after=40"],
    ["--metrics"],
    ["--trace", "ops.jsonl"],
])
def test_torture_rejects_stack_flags(flags, capsys):
    with pytest.raises(SystemExit) as exc:
        _check(["--torture", *flags])
    assert exc.value.code == 2
    assert "--torture does not take" in capsys.readouterr().err


@pytest.mark.parametrize("shard", ["2", "5", "-1"])
def test_shard_slow_shard_must_exist(shard, capsys):
    with pytest.raises(SystemExit) as exc:
        _check(["--shards", "2", "--shard-slow", f"shard={shard},factor=8",
                "figure_multihost"])
    assert exc.value.code == 2
    assert "--shard-slow: shard must lie in [0, 2)" in capsys.readouterr().err
