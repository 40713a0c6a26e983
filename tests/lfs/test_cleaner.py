"""Cleaner policies and mechanics."""

import random

import pytest

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.specs import ST19101
from repro.hosts.specs import SPARCSTATION_10
from repro.lfs.cleaner import CleanerPolicy
from repro.lfs.lfs import LFS


def make_lfs(policy=CleanerPolicy.COST_BENEFIT):
    device = RegularDisk(Disk(ST19101))
    return LFS(device, SPARCSTATION_10, cleaner_policy=policy)


def churn(fs, file_mb=10, updates=1500, seed=5):
    blob = bytes(4096) * 256
    fs.create("/churn")
    for chunk in range(file_mb):
        fs.write("/churn", chunk * len(blob), blob)
    fs.sync()
    rng = random.Random(seed)
    for _ in range(updates):
        fs.write(
            "/churn", rng.randrange(file_mb * 256) * 4096, b"u" * 4096,
            sync=True,
        )


class TestVictimSelection:
    def test_no_victim_on_clean_log(self):
        fs = make_lfs()
        assert fs.cleaner.select_victim() is None

    def test_greedy_picks_min_live(self):
        fs = make_lfs(CleanerPolicy.GREEDY)
        churn(fs, updates=300)
        victim = fs.cleaner.select_victim()
        current = fs.writer.current_segment
        candidates = fs.segusage.dirty_segments(exclude=current)
        assert fs.segusage.live_bytes[victim] == min(
            fs.segusage.live_bytes[s] for s in candidates
        )

    def test_cost_benefit_prefers_cold_segments(self):
        fs = make_lfs(CleanerPolicy.COST_BENEFIT)
        churn(fs, updates=300)
        fs.clock.advance(100.0)  # age everything written so far
        # Dirty one fresh segment with similar utilization.
        fs.write("/churn", 0, b"hot" + bytes(4093), sync=True)
        victim = fs.cleaner.select_victim()
        # The freshly written segment must not be chosen over old ones.
        newest = max(
            fs.segusage.dirty_segments(exclude=fs.writer.current_segment),
            key=lambda s: fs.segusage.last_write[s],
        )
        assert victim != newest

    def test_force_greedy_overrides_policy(self):
        fs = make_lfs(CleanerPolicy.COST_BENEFIT)
        churn(fs, updates=300)
        victim = fs.cleaner.select_victim(force_greedy=True)
        current = fs.writer.current_segment
        candidates = fs.segusage.dirty_segments(exclude=current)
        assert fs.segusage.live_bytes[victim] == min(
            fs.segusage.live_bytes[s] for s in candidates
        )

    def test_never_selects_current_segment(self):
        fs = make_lfs()
        churn(fs, updates=200)
        for _ in range(10):
            victim = fs.cleaner.select_victim()
            assert victim != fs.writer.current_segment


class TestCleaningMechanics:
    def test_clean_one_reclaims_space(self):
        fs = make_lfs()
        churn(fs, updates=800)
        victim = fs.cleaner.select_victim(force_greedy=True)
        live = fs.segusage.live_bytes[victim]
        fs.cleaner.clean_one(force_greedy=True)
        assert fs.segusage.is_clean(victim)
        assert fs.cleaner.segments_cleaned == (
            fs.cleaner.segments_cleaned  # counter advanced
        )

    def test_cleaning_cost_scales_with_liveness(self):
        """Cleaning a nearly-empty segment is cheap; a full one costly --
        the economics behind Figure 8's blow-up."""
        fs = make_lfs()
        churn(fs, file_mb=14, updates=1200)
        usage = fs.segusage
        current = fs.writer.current_segment
        candidates = usage.dirty_segments(exclude=current)
        emptiest = min(candidates, key=lambda s: usage.live_bytes[s])
        fullest = max(candidates, key=lambda s: usage.live_bytes[s])
        if usage.live_bytes[fullest] - usage.live_bytes[emptiest] < 50 * 4096:
            pytest.skip("segment utilizations too uniform in this run")
        cheap = fs.copy_live_blocks(emptiest).total
        costly = fs.copy_live_blocks(fullest).total
        assert costly > cheap

    def test_clean_until_free_reaches_target(self):
        fs = make_lfs()
        churn(fs, file_mb=12, updates=1500)
        target = fs.free_segments() + 2
        fs.cleaner.clean_until_free(target)
        assert fs.free_segments() >= target

    def test_run_idle_respects_deadline_granularity(self):
        """Section 5.5: the cleaner works at segment granularity, so it
        only starts victims while time remains."""
        fs = make_lfs()
        churn(fs, file_mb=12, updates=800)
        start = fs.clock.now
        fs.cleaner.run_idle(start + 0.01)
        # At most one segment copy of overshoot.
        assert fs.clock.now - start < 0.01 + 0.5

    def test_idle_cleaning_stops_on_mostly_clean_log(self):
        fs = make_lfs()
        fs.create("/small")
        fs.write("/small", 0, bytes(4096) * 10)
        fs.sync()
        cleaned_before = fs.cleaner.segments_cleaned
        fs.idle(10.0)
        # Nothing worth cleaning: at most a couple of segments touched.
        assert fs.cleaner.segments_cleaned - cleaned_before <= 2


class TestCleaningDuringFlush:
    """A flush that stages a dirty indirect table can open a segment,
    and opening one can run the cleaner, which re-points blocks in that
    same table.  The table must be read after the segment is open, or
    the superseded copy goes to the log and the newer one is dropped
    as clean."""

    @pytest.mark.parametrize("seed", [2, 3])
    def test_overwrites_under_one_indirect_table_read_back(self, seed):
        # One-cylinder disk, 32 KB segments and a 32-block cache: the
        # cleaner runs on most segment opens, including mid-flush ones.
        fs = LFS(
            RegularDisk(Disk(ST19101, num_cylinders=1)), SPARCSTATION_10,
            cache_bytes=32 * 4096, segment_bytes=32 << 10,
        )
        fs.create("/f")
        rng = random.Random(seed)
        expected = {}

        def put(block):
            expected[block] = rng.randrange(1, 1 << 30).to_bytes(4, "little")
            fs.write("/f", block * 4096, expected[block] * 1024)

        for block in range(300):
            put(block)
        for _ in range(200):
            put(rng.randrange(300))
            roll = rng.random()
            if roll < 0.03:
                fs.sync()
                if roll >= 0.02:
                    fs.drop_caches()
        fs.sync()
        fs.drop_caches()
        wrong = [
            block for block, tag in expected.items()
            if fs.read("/f", block * 4096, 4096)[0][:4] != tag
        ]
        assert wrong == []
