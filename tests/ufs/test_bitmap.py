import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ufs.bitmap import Bitmap

from .byte_bitmap import Bitmap as ByteBitmap


class TestBasics:
    def test_starts_all_free(self):
        bitmap = Bitmap(100)
        assert bitmap.free_count == 100
        assert not bitmap.test(0)

    def test_set_clear(self):
        bitmap = Bitmap(10)
        bitmap.set(3)
        assert bitmap.test(3)
        assert bitmap.free_count == 9
        bitmap.clear(3)
        assert not bitmap.test(3)
        assert bitmap.free_count == 10

    def test_idempotent(self):
        bitmap = Bitmap(10)
        bitmap.set(3)
        bitmap.set(3)
        assert bitmap.free_count == 9
        bitmap.clear(3)
        bitmap.clear(3)
        assert bitmap.free_count == 10

    def test_bounds(self):
        bitmap = Bitmap(10)
        with pytest.raises(IndexError):
            bitmap.test(10)
        with pytest.raises(IndexError):
            bitmap.set(-1)
        bitmap.set(4)
        packed = bitmap.pack()
        for op, index, count in (
            (bitmap.set, 8, 3),  # crosses nbits
            (bitmap.clear, 9, 2),
            (bitmap.set, 10, 1),  # starts at nbits
            (bitmap.clear, -1, 2),  # starts below 0
            (bitmap.set, -3, 5),
            (bitmap.clear, 0, 11),  # longer than the map
        ):
            with pytest.raises(IndexError):
                op(index, count)
            assert bitmap.free_count == 9
            assert bitmap.pack() == packed
        with pytest.raises(ValueError):
            bitmap.set(0, 0)

    def test_pack_load_roundtrip(self):
        bitmap = Bitmap(77)
        for i in (0, 13, 76):
            bitmap.set(i)
        reloaded = Bitmap(77, bitmap.pack())
        assert reloaded.free_count == 74
        for i in (0, 13, 76):
            assert reloaded.test(i)


class TestFindFree:
    def test_finds_from_goal(self):
        bitmap = Bitmap(16)
        bitmap.set(5)
        assert bitmap.find_free(5) == 6

    def test_wraps(self):
        bitmap = Bitmap(8)
        for i in range(4, 8):
            bitmap.set(i)
        assert bitmap.find_free(6) == 0

    def test_full_returns_none(self):
        bitmap = Bitmap(4)
        for i in range(4):
            bitmap.set(i)
        assert bitmap.find_free() is None


class TestFindFreeRun:
    def test_aligned_run(self):
        bitmap = Bitmap(32)
        bitmap.set(0)  # blocks run at 0
        assert bitmap.find_free_run(4, align=4) == 4

    def test_run_needs_contiguity(self):
        bitmap = Bitmap(16)
        bitmap.set(2)
        bitmap.set(6)
        bitmap.set(10)
        bitmap.set(14)
        assert bitmap.find_free_run(4, align=4) is None
        assert bitmap.find_free_run(2, align=1) is not None

    def test_goal_rounds_to_alignment(self):
        bitmap = Bitmap(32)
        assert bitmap.find_free_run(4, align=4, goal=5) == 4

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            Bitmap(8).find_free_run(0)


class TestFragRun:
    def test_prefers_partially_used_blocks(self):
        """Classic FFS: keep fragments together so whole blocks survive."""
        bitmap = Bitmap(16)  # 4 blocks x 4 frags
        bitmap.set(4)  # block 1 partially used
        assert bitmap.find_frag_run(2, 4) in (5, 6)

    def test_falls_back_to_fresh_block(self):
        bitmap = Bitmap(16)
        assert bitmap.find_frag_run(3, 4) == 0

    def test_never_spans_blocks(self):
        bitmap = Bitmap(8)  # 2 blocks x 4 frags
        # Block 0: frags 0,1 used; block 1: frags 6,7 used.
        for i in (0, 1, 6, 7):
            bitmap.set(i)
        # A 3-frag run exists only spanning 3..5, which crosses blocks.
        assert bitmap.find_frag_run(3, 4) is None
        assert bitmap.find_frag_run(2, 4) in (2, 4)

    def test_run_too_big_rejected(self):
        with pytest.raises(ValueError):
            Bitmap(16).find_frag_run(5, 4)


@st.composite
def _bitmap_case(draw):
    """A bitmap shape, optional raw contents and a random op sequence.

    ``nbits`` is often not a multiple of 8 or of ``frags_per_block``, raw
    input may be longer than needed and carry nonzero pad bits, and goals
    reach past ``nbits``."""
    nbits = draw(st.integers(1, 80))
    fpb = draw(st.integers(1, 8))
    nbytes = (nbits + 7) // 8
    raw = draw(st.none() | st.binary(min_size=nbytes, max_size=nbytes + 3))
    index = st.integers(0, nbits - 1)
    goal = st.integers(0, nbits + 10)
    op = st.one_of(
        st.tuples(st.sampled_from(["set", "clear"]), index,
                  st.integers(1, 8)),
        st.tuples(st.just("find_free"), goal),
        st.tuples(st.just("find_free_run"), st.integers(1, 10),
                  st.integers(1, 8), goal),
        st.tuples(st.just("find_frag_run"), st.integers(1, fpb)),
    )
    return nbits, fpb, raw, draw(st.lists(op, max_size=40))


def _observe(bitmap):
    return (
        [bitmap.test(i) for i in range(bitmap.nbits)],
        bitmap.free_count,
        bitmap.pack(),
    )


class TestByteOracle:
    """The integer-mask bitmap against the byte-array one it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(case=_bitmap_case())
    def test_random_ops_match_byte_oracle(self, case):
        nbits, fpb, raw, ops = case
        fast = Bitmap(nbits, raw)
        slow = ByteBitmap(nbits, raw)
        assert _observe(fast) == _observe(slow)
        for step, (name, *args) in enumerate(ops):
            if name in ("set", "clear"):
                # The oracle has no run length: apply the run bit by bit.
                index, count = args
                count = min(count, nbits - index)
                getattr(fast, name)(index, count)
                for k in range(count):
                    getattr(slow, name)(index + k)
            elif name == "find_frag_run":
                found = fast.find_frag_run(args[0], fpb)
                assert found == slow.find_frag_run(args[0], fpb), step
                if found is not None:  # allocate it, as UFSAllocator does
                    fast.set(found, args[0])
                    for k in range(args[0]):
                        slow.set(found + k)
            else:
                assert getattr(fast, name)(*args) == getattr(slow, name)(
                    *args
                ), (step, name, args)
            assert _observe(fast) == _observe(slow), (step, name, args)
