"""Library defects the benchmark's oracle check has found, pinned until a
library fix lands.  Each test is a strict xfail: once the defect is fixed
the test passes, strict mode turns that into a failure, and the marker
must go."""

import pytest

import run
from workloads import WORKLOADS


@pytest.mark.xfail(
    strict=True,
    reason=(
        "LFS loses an indirect-table update: staging the table can "
        "open a segment, which runs the cleaner, which re-points blocks in "
        "that table in the cache; the older copy goes to the log and the "
        "newer one is then marked clean and later dropped (see README)"
    ),
)
def test_lfs_nvram_seed_12_stream_0_reads_back_what_it_wrote():
    # Seed 12, stream 0 (stream seed 36): 49 blocks of file blocks
    # 4121-4489, all under one double-indirect table, read back the
    # payload of other blocks or the fill's stale payload.
    result = run.run_round(WORKLOADS["lfs-nvram-sync"], 12, 0)
    assert result.failures == []
