"""Golden outputs: quick-scale figures must reproduce byte for byte.

Each file under ``tests/golden/`` is the harness's standard output for one
figure at quick scale, with the ``[NAME regenerated in Ns wall]`` line
removed.  A refactor that changes any number fails here.  To regenerate
a file after an intended change, run::

    PYTHONPATH=src python -m repro.harness --no-cache figure10 \\
        | grep -Ev '^\\[figure10 regenerated in [0-9.]+s wall\\]$' \\
        > tests/golden/figure10.txt

and say in the change log why the numbers moved.
"""

import difflib
import re
from pathlib import Path

import pytest

from repro.harness import __main__ as cli

GOLDEN = Path(__file__).resolve().parents[1] / "golden"

_WALL_LINE = re.compile(r"^\[\w+ regenerated in [0-9.]+s wall\]\n", re.M)


@pytest.mark.parametrize(
    "name", ["figure6", "figure8", "figure10", "figure11", "table2"]
)
def test_quick_figure_matches_golden(name, capsys):
    assert cli.main(["--no-cache", name]) == 0
    produced = _WALL_LINE.sub("", capsys.readouterr().out)
    expected = (GOLDEN / f"{name}.txt").read_text()
    diff = "".join(difflib.unified_diff(
        expected.splitlines(keepends=True),
        produced.splitlines(keepends=True),
        fromfile=f"golden/{name}.txt",
        tofile=f"{name} (this tree)",
    ))
    assert produced == expected, diff
