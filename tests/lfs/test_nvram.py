import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lfs.nvram import FileCache

from .scan_file_cache import FileCache as ScanFileCache


@pytest.fixture
def cache():
    return FileCache(capacity_bytes=16 * 4096, block_size=4096)


class TestBasics:
    def test_miss_returns_none(self, cache):
        assert cache.get((1, 0)) is None
        assert cache.misses == 1

    def test_put_get(self, cache):
        cache.put_clean((1, 0), b"a" * 4096)
        assert cache.get((1, 0)) == b"a" * 4096
        assert cache.hits == 1

    def test_dirty_tracking(self, cache):
        cache.put_dirty((1, 0), b"d" * 4096)
        assert cache.dirty_blocks == 1
        cache.mark_clean((1, 0))
        assert cache.dirty_blocks == 0

    def test_clean_put_never_clobbers_dirty(self, cache):
        cache.put_dirty((1, 0), b"new" + bytes(4093))
        cache.put_clean((1, 0), b"old" + bytes(4093))
        assert cache.get((1, 0)).startswith(b"new")

    def test_dirty_put_overwrites(self, cache):
        cache.put_clean((1, 0), b"old" + bytes(4093))
        cache.put_dirty((1, 0), b"new" + bytes(4093))
        assert cache.get((1, 0)).startswith(b"new")

    def test_forget(self, cache):
        cache.put_dirty((1, 0), bytes(4096))
        cache.forget((1, 0))
        assert (1, 0) not in cache

    def test_forget_inode(self, cache):
        cache.put_dirty((1, 0), bytes(4096))
        cache.put_dirty((1, 5), bytes(4096))
        cache.put_dirty((2, 0), bytes(4096))
        cache.forget_inode(1)
        assert (1, 0) not in cache
        assert (2, 0) in cache

    def test_dirty_items_for(self, cache):
        cache.put_dirty((1, 0), bytes(4096))
        cache.put_dirty((2, 0), bytes(4096))
        items = cache.dirty_items_for(1)
        assert [key for key, _ in items] == [(1, 0)]


class TestCapacity:
    def test_clean_evicted_under_pressure(self, cache):
        for i in range(20):
            cache.put_clean((1, i), bytes(4096))
        assert cache.total_blocks <= cache.capacity_blocks

    def test_would_overflow_counts_dirty_only(self, cache):
        for i in range(10):
            cache.put_clean((1, i), bytes(4096))
        assert not cache.would_overflow(1)
        for i in range(16):
            cache.put_dirty((2, i), bytes(4096))
        assert cache.would_overflow(1)

    def test_dirty_never_evicted_by_clean_pressure(self, cache):
        cache.put_dirty((9, 9), b"keep" + bytes(4092))
        for i in range(40):
            cache.put_clean((1, i), bytes(4096))
        assert cache.get((9, 9)).startswith(b"keep")


class TestCrashSemantics:
    def test_dram_loses_everything(self):
        cache = FileCache(nvram=False)
        cache.put_dirty((1, 0), bytes(4096))
        cache.crash()
        assert cache.total_blocks == 0

    def test_nvram_survives(self):
        cache = FileCache(nvram=True)
        cache.put_dirty((1, 0), b"safe" + bytes(4092))
        cache.crash()
        assert cache.get((1, 0)).startswith(b"safe")

    def test_drop_clean_spares_dirty(self, cache):
        cache.put_clean((1, 0), bytes(4096))
        cache.put_dirty((1, 1), bytes(4096))
        cache.drop_clean()
        assert (1, 0) not in cache
        assert (1, 1) in cache

    def test_paper_capacity(self):
        cache = FileCache()  # defaults: 6.1 MB of 4 KB blocks
        assert cache.capacity_blocks == int(6.1 * 2**20) // 4096


class TestEvictionOrder:
    @pytest.mark.parametrize("insert", ["put_clean", "put_dirty"])
    def test_overflowed_cache_evicts_oldest_clean_first(self, insert):
        """put_dirty may overflow the cache; once some of those blocks are
        flushed, the next insert evicts exactly the oldest clean ones."""
        cache = FileCache(capacity_bytes=4 * 4096, block_size=4096)
        for i in range(6):
            cache.put_dirty((1, i), bytes([i]))
        assert cache.total_blocks == 6 and cache.dirty_blocks == 6
        for i in (5, 1, 4, 3):
            cache.mark_clean((1, i))
        assert cache.dirty_blocks == 2
        getattr(cache, insert)((2, 0), b"new")
        # Three victims make room: clean (1, 1), (1, 3) and (1, 4) are the
        # oldest; clean (1, 5) and the dirty (1, 0) and (1, 2) stay.
        assert list(cache) == [(1, 0), (1, 2), (1, 5), (2, 0)]
        assert cache.dirty_blocks == 2 + (insert == "put_dirty")


_INODES = (1, 2, 3)
_keys = st.tuples(st.sampled_from(_INODES), st.integers(0, 5))
_ops = st.one_of(
    st.tuples(st.just("get"), _keys),
    st.tuples(st.just("put_clean"), _keys),
    st.tuples(st.just("put_dirty"), _keys),
    st.tuples(st.just("mark_clean"), _keys),
    st.tuples(st.just("forget"), _keys),
    st.tuples(st.just("forget_inode"), st.sampled_from(_INODES)),
    st.tuples(st.just("drop_clean")),
    st.tuples(st.just("crash")),
)


def _observe(cache):
    return {
        "keys": list(cache),
        "dirty_blocks": cache.dirty_blocks,
        "total_blocks": cache.total_blocks,
        "full": cache.full,
        "would_overflow": [
            cache.would_overflow(k) for k in range(cache.capacity_blocks + 2)
        ],
        "dirty_items": cache.dirty_items(),
        "dirty_items_for": [cache.dirty_items_for(i) for i in _INODES],
        "hits": cache.hits,
        "misses": cache.misses,
    }


class TestScanOracle:
    """The counter-based cache against the scan-based one it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        capacity=st.integers(2, 16),
        nvram=st.booleans(),
        ops=st.lists(_ops, max_size=80),
    )
    def test_random_ops_match_scan_oracle(self, capacity, nvram, ops):
        fast = FileCache(capacity * 4096, 4096, nvram=nvram)
        slow = ScanFileCache(capacity * 4096, 4096, nvram=nvram)
        for step, (name, *args) in enumerate(ops):
            if name.startswith("put_"):
                args.append(step.to_bytes(2, "little"))
            assert getattr(fast, name)(*args) == getattr(slow, name)(*args)
            assert _observe(fast) == _observe(slow), (step, name, args)
