"""Allocation bitmaps (inodes, fragments) for the UFS cylinder groups.

Each bitmap is one int, bit ``i`` set = item ``i`` in use (the byte order
:meth:`Bitmap.pack` writes); its queries run on the disk free map's
integer-mask primitives instead of looping over bits.
"""

from __future__ import annotations

from typing import Optional

from repro.disk.freemap import (
    aligned_starts_mask,
    fold_free_runs,
    lowest_set_bit,
    nearest_set_bit,
    popcount,
)


class Bitmap:
    """A bitmap over ``nbits`` items; bit set = in use."""

    def __init__(self, nbits: int, raw: Optional[bytes] = None) -> None:
        if nbits <= 0:
            raise ValueError("bitmap must cover at least one bit")
        self.nbits = nbits
        self._nbytes = (nbits + 7) // 8
        self._full = (1 << nbits) - 1
        if raw is None:
            self._used = 0
        else:
            if len(raw) < self._nbytes:
                raise ValueError("raw bitmap too short")
            # Pad bits past ``nbits`` are kept so pack() returns them.
            self._used = int.from_bytes(raw[: self._nbytes], "little")
        self._free = nbits - popcount(self._used & self._full)

    def _run(self, index: int, count: int) -> int:
        if count <= 0:
            raise ValueError("count must be positive")
        if not 0 <= index <= self.nbits - count:
            raise IndexError(f"bits {index}..{index + count - 1} out of range")
        return ((1 << count) - 1) << index

    def test(self, index: int) -> bool:
        if not 0 <= index < self.nbits:
            raise IndexError(f"bit {index} out of range")
        return bool((self._used >> index) & 1)

    def set(self, index: int, count: int = 1) -> None:
        """Mark ``index .. index+count-1`` in use."""
        run = self._run(index, count)
        self._free -= popcount(run & ~self._used)
        self._used |= run

    def clear(self, index: int, count: int = 1) -> None:
        """Mark ``index .. index+count-1`` free."""
        run = self._run(index, count)
        self._free += popcount(run & self._used)
        self._used &= ~run

    @property
    def free_count(self) -> int:
        return self._free

    def _free_mask(self) -> int:
        return ~self._used & self._full

    def find_free(self, goal: int = 0) -> Optional[int]:
        """First free bit at/after ``goal``, wrapping; None when full."""
        return nearest_set_bit(self._free_mask(), self.nbits, goal % self.nbits)

    def find_free_run(
        self, count: int, align: int = 1, goal: int = 0
    ) -> Optional[int]:
        """First aligned run of ``count`` free bits at/after ``goal``."""
        if count <= 0 or align <= 0:
            raise ValueError("count and align must be positive")
        if self._free < count:
            return None
        starts = fold_free_runs(self._free_mask(), count)
        starts &= aligned_starts_mask(self.nbits, align)
        return nearest_set_bit(starts, self.nbits, (goal // align) * align)

    def find_frag_run(self, count: int, frags_per_block: int) -> Optional[int]:
        """A run of ``count`` free bits that stays inside one block's frags.

        Prefers blocks that are already partially used (classic FFS keeps
        fragments together so whole blocks stay allocatable), falling back
        to carving a fresh block.  Trailing bits past the last whole block
        are never used.
        """
        fpb = frags_per_block
        if not 0 < count <= fpb:
            raise ValueError("fragment run must fit within one block")
        if self._free < count:
            return None
        span = (self.nbits // fpb) * fpb
        free = self._free_mask() & ((1 << span) - 1)
        block_starts = aligned_starts_mask(span, fpb)
        # Starts whose run ends inside the block: offsets 0 .. fpb-count.
        starts = fold_free_runs(free, count)
        starts &= block_starts * ((1 << (fpb - count + 1)) - 1)
        if not starts:
            return None
        fresh = fold_free_runs(free, fpb) & block_starts
        partial = starts & ~(fresh * ((1 << fpb) - 1))
        return lowest_set_bit(partial or starts)

    def pack(self) -> bytes:
        return self._used.to_bytes(self._nbytes, "little")
