"""The update-in-place file system (FFS/Solaris-UFS style).

Semantics matched to the paper's Section 4.3 configuration:

* 4 KB blocks, 1 KB fragments;
* metadata updates are **synchronous**: create and delete each pay
  synchronous inode and directory-block writes, in careful order (inode
  before directory entry on create; entry removal before inode free on
  delete), which is what makes small-file workloads disk-latency-bound on
  an update-in-place disk;
* data writes are asynchronous by default and synchronous when the caller
  passes ``sync=True`` (the ``O_SYNC`` runs of Figures 7 and 8);
* sequential reads trigger prefetching after a run is detected.

The implementation is a real file system: every structure (superblock,
bitmaps, inode tables, directories, indirect blocks) is serialised to the
block device, and a file system can be remounted from the device image.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.blockdev.interface import BlockDevice
from repro.fs.api import (
    DirectoryNotEmpty,
    FileExists,
    FileNotFound,
    FileStat,
    FileSystem,
    FileSystemError,
    IsADirectory,
    NotADirectory,
)
from repro.fs.dirfile import DirectoryBlock
from repro.fs.inode import FileType, INODE_SIZE, Inode, NUM_DIRECT
from repro.fs.path import dirname_basename, split_path
from repro.hosts.specs import HostSpec
from repro.sched.idle import IdleManager
from repro.sim.stats import Breakdown
from repro.ufs.alloc import UFSAllocator
from repro.ufs.buffer_cache import BufferCache
from repro.ufs.layout import Superblock, UFSLayout

_SECTOR = 512


class UFS(FileSystem):
    """An FFS-style update-in-place file system over a block device."""

    def __init__(
        self,
        device: BlockDevice,
        host: HostSpec,
        cache_bytes: int = 8 << 20,
        blocks_per_group: int = 0,
        inodes_per_group: int = 0,
        format_device: bool = True,
    ) -> None:
        self.device = device
        self.host = host
        self.clock = device.disk.clock  # both device types carry .disk
        self.block_size = device.block_size
        if blocks_per_group <= 0:
            blocks_per_group = self._default_group_size(device)
        self.cache = BufferCache(device, cache_bytes)
        if format_device:
            self.layout = UFSLayout.design(
                device.num_blocks,
                device.block_size,
                blocks_per_group,
                inodes_per_group,
            )
            self.alloc = UFSAllocator(self.layout, self.cache)
            self._mkfs()
        else:
            raw, _ = device.read_block(0)
            self.layout = UFSLayout(Superblock.unpack(raw))
            self.alloc = UFSAllocator(self.layout, self.cache)
            self.alloc.load(Breakdown())
        #: per-inode dirty data blocks, for fsync.
        self._dirty_blocks: Dict[int, Set[int]] = {}
        #: per-inode sequential read detector: (next expected block, run).
        self._readahead: Dict[int, Tuple[int, int]] = {}
        #: prefetch cluster size in blocks.
        self.prefetch_blocks = 8

    @staticmethod
    def _default_group_size(device: BlockDevice) -> int:
        """One cylinder group per physical cylinder when geometry is known."""
        disk = getattr(device, "disk", None)
        if disk is not None:
            sectors = disk.geometry.sectors_per_cylinder
            return max(64, sectors * disk.sector_bytes // device.block_size)
        return 512

    # ==================================================================
    # mkfs
    # ==================================================================

    def _mkfs(self) -> None:
        sb = self.layout.sb
        self.device.write_block(0, sb.pack())
        self.alloc.initialise()
        # Zero the inode tables so stale data never parses as inodes.
        blank = bytes(self.block_size)
        for group in range(sb.num_groups):
            start = self.layout.itable_start(group)
            self.device.write_blocks(
                start,
                self.layout.itable_blocks,
                blank * self.layout.itable_blocks,
            )
        # Root directory: inode only; its first block is allocated on the
        # first entry insertion.
        root_group = self.layout.group_of_inum(sb.root_inum)
        self.alloc.groups[root_group].inodes.set(
            sb.root_inum % sb.inodes_per_group
        )
        root = Inode(itype=FileType.DIRECTORY, nlink=2)
        self._write_inode(sb.root_inum, root, sync=True, breakdown=Breakdown())
        for group in range(sb.num_groups):
            self.alloc.store_group(group)
        self.cache.flush()

    # ==================================================================
    # Host accounting
    # ==================================================================

    def _start_op(self, blocks: int = 1) -> Breakdown:
        cost = self.host.request_overhead(blocks)
        self.clock.advance(cost)
        breakdown = Breakdown()
        breakdown.charge("other", cost)
        return breakdown

    # ==================================================================
    # Inode I/O
    # ==================================================================

    def _read_inode(self, inum: int, breakdown: Breakdown) -> Inode:
        block, offset = self.layout.inode_position(inum)
        raw, cost = self.cache.read(block)
        breakdown.add(cost)
        return Inode.unpack(raw[offset : offset + INODE_SIZE])

    def _write_inode(
        self, inum: int, inode: Inode, sync: bool, breakdown: Breakdown
    ) -> None:
        """Update an inode in its table block.

        Like the kernel's ``bwrite``, metadata updates write the whole
        file-system block holding the inode: the buffer cache operates at
        block granularity.  (Sub-block *data* writes -- fragments -- do use
        the partial path, which is the VLD bias Section 4.2 describes.)
        """
        block, offset = self.layout.inode_position(inum)
        raw, cost = self.cache.read(block)
        breakdown.add(cost)
        merged = bytearray(raw)
        merged[offset : offset + INODE_SIZE] = inode.pack()
        breakdown.add(self.cache.write(block, bytes(merged), sync=sync))

    # ==================================================================
    # Path resolution
    # ==================================================================

    def _namei(self, parts: List[str], breakdown: Breakdown) -> int:
        inum = self.layout.sb.root_inum
        for name in parts:
            inode = self._read_inode(inum, breakdown)
            if not inode.is_dir:
                raise NotADirectory(f"{name!r}: ancestor is not a directory")
            child = self._dir_lookup(inode, name, breakdown)
            if child is None:
                raise FileNotFound(f"no such file or directory: {name!r}")
            inum = child
        return inum

    def _dir_blocks(
        self, inode: Inode, breakdown: Breakdown
    ) -> Iterable[Tuple[int, int]]:
        """Yield (file block index, lba) of a directory's data blocks."""
        nblocks = -(-inode.size // self.block_size)
        for fblk in range(nblocks):
            lba = self._get_file_block(inode, fblk, breakdown)
            if lba:
                yield fblk, lba

    def _dir_lookup(
        self, inode: Inode, name: str, breakdown: Breakdown
    ) -> Optional[int]:
        for _fblk, lba in self._dir_blocks(inode, breakdown):
            raw, cost = self.cache.read(lba)
            breakdown.add(cost)
            inum = DirectoryBlock.unpack(raw).lookup(name)
            if inum is not None:
                return inum
        return None

    def _dir_add(
        self,
        dir_inum: int,
        inode: Inode,
        name: str,
        child: int,
        breakdown: Breakdown,
    ) -> None:
        """Insert an entry; the directory block write is synchronous."""
        for _fblk, lba in self._dir_blocks(inode, breakdown):
            raw, cost = self.cache.read(lba)
            breakdown.add(cost)
            block = DirectoryBlock.unpack(raw)
            if block.space_for(name):
                block.add(name, child)
                breakdown.add(self.cache.write(lba, block.pack(), sync=True))
                self._touch_inode_async(dir_inum, inode, breakdown)
                return
        # Grow the directory by one block.
        fblk = -(-inode.size // self.block_size)
        lba = self._alloc_near_inode(dir_inum, inode, breakdown)
        self._set_file_block(inode, fblk, lba, breakdown, sync=True)
        block = DirectoryBlock(self.block_size, {name: child})
        breakdown.add(self.cache.write(lba, block.pack(), sync=True))
        inode.size = (fblk + 1) * self.block_size
        self._write_inode(dir_inum, inode, sync=True, breakdown=breakdown)

    def _dir_remove(
        self,
        dir_inum: int,
        inode: Inode,
        name: str,
        breakdown: Breakdown,
    ) -> int:
        for _fblk, lba in self._dir_blocks(inode, breakdown):
            raw, cost = self.cache.read(lba)
            breakdown.add(cost)
            block = DirectoryBlock.unpack(raw)
            if block.lookup(name) is not None:
                child = block.remove(name)
                breakdown.add(self.cache.write(lba, block.pack(), sync=True))
                self._touch_inode_async(dir_inum, inode, breakdown)
                return child
        raise FileNotFound(f"no such entry: {name!r}")

    def _touch_inode_async(
        self, inum: int, inode: Inode, breakdown: Breakdown
    ) -> None:
        inode.mtime = self.clock.now
        self._write_inode(inum, inode, sync=False, breakdown=breakdown)

    def _dir_entry_count(self, inode: Inode, breakdown: Breakdown) -> int:
        count = 0
        for _fblk, lba in self._dir_blocks(inode, breakdown):
            raw, cost = self.cache.read(lba)
            breakdown.add(cost)
            count += len(DirectoryBlock.unpack(raw))
        return count

    # ==================================================================
    # Block mapping (direct / indirect / double indirect)
    # ==================================================================

    @property
    def _ppb(self) -> int:
        return self.block_size // 4

    def _get_file_block(
        self, inode: Inode, fblk: int, breakdown: Breakdown
    ) -> int:
        if fblk < NUM_DIRECT:
            return inode.direct[fblk]
        fblk -= NUM_DIRECT
        if fblk < self._ppb:
            if not inode.indirect:
                return 0
            return self._read_pointer(inode.indirect, fblk, breakdown)
        fblk -= self._ppb
        if not inode.double_indirect:
            return 0
        level1 = self._read_pointer(
            inode.double_indirect, fblk // self._ppb, breakdown
        )
        if not level1:
            return 0
        return self._read_pointer(level1, fblk % self._ppb, breakdown)

    def _read_pointer(
        self, lba: int, index: int, breakdown: Breakdown
    ) -> int:
        raw, cost = self.cache.read(lba)
        breakdown.add(cost)
        return int.from_bytes(raw[index * 4 : index * 4 + 4], "little")

    def _write_pointer(
        self, lba: int, index: int, value: int, sync: bool, breakdown: Breakdown
    ) -> None:
        raw, cost = self.cache.read(lba)
        breakdown.add(cost)
        merged = bytearray(raw)
        merged[index * 4 : index * 4 + 4] = value.to_bytes(4, "little")
        breakdown.add(self.cache.write(lba, bytes(merged), sync=sync))

    def _alloc_indirect(
        self, goal: int, breakdown: Breakdown, sync: bool
    ) -> int:
        lba = self.alloc.alloc_block(goal)
        breakdown.add(
            self.cache.write(lba, bytes(self.block_size), sync=sync)
        )
        self._store_group_async(lba, breakdown)
        return lba

    def _set_file_block(
        self,
        inode: Inode,
        fblk: int,
        lba: int,
        breakdown: Breakdown,
        sync: bool,
    ) -> None:
        if fblk < NUM_DIRECT:
            inode.direct[fblk] = lba
            return
        fblk -= NUM_DIRECT
        if fblk < self._ppb:
            if not inode.indirect:
                inode.indirect = self._alloc_indirect(lba, breakdown, sync)
            self._write_pointer(inode.indirect, fblk, lba, sync, breakdown)
            return
        fblk -= self._ppb
        if not inode.double_indirect:
            inode.double_indirect = self._alloc_indirect(lba, breakdown, sync)
        level1 = self._read_pointer(
            inode.double_indirect, fblk // self._ppb, breakdown
        )
        if not level1:
            level1 = self._alloc_indirect(lba, breakdown, sync)
            self._write_pointer(
                inode.double_indirect, fblk // self._ppb, level1, sync, breakdown
            )
        self._write_pointer(level1, fblk % self._ppb, lba, sync, breakdown)

    def _alloc_near_inode(
        self, inum: int, inode: Inode, breakdown: Breakdown
    ) -> int:
        """Allocate a data block near the inode's group / previous block."""
        goal = 0
        nblocks = -(-inode.size // self.block_size)
        if nblocks:
            prev = self._get_file_block(inode, nblocks - 1, breakdown)
            if prev:
                goal = prev + 1
        if not goal:
            group = self.layout.group_of_inum(inum)
            goal = self.layout.data_start(group)
        lba = self.alloc.alloc_block(goal)
        self._store_group_async(lba, breakdown)
        return lba

    def _store_group_async(self, lba: int, breakdown: Breakdown) -> None:
        group = self.layout.group_of_block(lba)
        breakdown.add(self.alloc.store_group(group))

    # ==================================================================
    # Fragment (tail) handling
    # ==================================================================

    def _uses_tail_frags(self, size: int) -> bool:
        """FFS stores a sub-block tail in fragments only for direct files."""
        if size == 0 or size % self.block_size == 0:
            return False
        return -(-size // self.block_size) <= NUM_DIRECT

    def _tail_geometry(self, size: int) -> Tuple[int, int]:
        """(index of the tail block, fragments needed) for a size."""
        full = size // self.block_size
        remainder = size - full * self.block_size
        frags = -(-remainder // self.layout.frag_size)
        return full, frags

    def _restructure(
        self, inum: int, inode: Inode, new_size: int, breakdown: Breakdown,
        sync: bool,
    ) -> None:
        """Adjust tail-fragment allocation for a growing file."""
        if new_size <= inode.size:
            return
        old_addr, old_count = inode.tail_frags()
        use_new = self._uses_tail_frags(new_size)
        tail_blk_new, frags_new = self._tail_geometry(new_size)
        tail_blk_old, _ = self._tail_geometry(inode.size)
        if old_count:
            same_tail = (
                use_new
                and tail_blk_new == tail_blk_old
                and frags_new <= old_count
            )
            if same_tail:
                return
            # The old tail either becomes a full block or moves/grows.
            old_lba, old_off = self.layout.frag_to_block(old_addr)
            raw, cost = self.cache.read(old_lba)
            breakdown.add(cost)
            content = raw[old_off : old_off + old_count * self.layout.frag_size]
            if use_new and tail_blk_new == tail_blk_old:
                # Grow the run: allocate a bigger one, copy, zero the rest
                # (reads of never-written bytes must return zeros even when
                # the fragments are recycled).
                new_addr = self.alloc.alloc_frags(frags_new, old_lba)
                padded = content + bytes(
                    frags_new * self.layout.frag_size - len(content)
                )
                self._write_frag_content(new_addr, padded, breakdown, sync)
                inode.set_tail_frags(new_addr, frags_new)
            else:
                # Promote to a full block.
                goal = old_lba
                lba = self.alloc.alloc_block(goal)
                padded = content + bytes(self.block_size - len(content))
                breakdown.add(self.cache.write(lba, padded, sync=sync))
                self._set_file_block(
                    inode, tail_blk_old, lba, breakdown, sync
                )
                self._store_group_async(lba, breakdown)
                if use_new:
                    self._alloc_tail(inum, inode, frags_new, breakdown)
                else:
                    inode.set_tail_frags(0, 0)
            self.alloc.free_frags(old_addr, old_count)
            self._store_group_async(old_lba, breakdown)
        elif use_new:
            self._alloc_tail(inum, inode, frags_new, breakdown)

    def _alloc_tail(
        self, inum: int, inode: Inode, frags: int, breakdown: Breakdown
    ) -> None:
        group = self.layout.group_of_inum(inum)
        goal = self.layout.data_start(group)
        addr = self.alloc.alloc_frags(frags, goal)
        inode.set_tail_frags(addr, frags)
        # Fresh fragments start as zeros (they may recycle old contents).
        self._write_frag_content(
            addr, bytes(frags * self.layout.frag_size), breakdown, sync=False
        )
        self._store_group_async(addr // self.layout.frags_per_block, breakdown)

    def _write_frag_content(
        self, frag_addr: int, content: bytes, breakdown: Breakdown, sync: bool
    ) -> None:
        lba, offset = self.layout.frag_to_block(frag_addr)
        breakdown.add(
            self.cache.write_partial(
                lba, offset, content, sync=sync, fresh=True
            )
        )

    # ==================================================================
    # Public API
    # ==================================================================

    def create(self, path: str) -> Breakdown:
        breakdown = self._start_op()
        parents, name = dirname_basename(path)
        dir_inum = self._namei(parents, breakdown)
        dir_inode = self._read_inode(dir_inum, breakdown)
        if not dir_inode.is_dir:
            raise NotADirectory(path)
        if self._dir_lookup(dir_inode, name, breakdown) is not None:
            raise FileExists(path)
        inum = self.alloc.alloc_inode(dir_inum, is_dir=False)
        inode = Inode(itype=FileType.REGULAR, nlink=1, mtime=self.clock.now)
        # FFS ordering: the inode reaches disk before the entry naming it.
        self._write_inode(inum, inode, sync=True, breakdown=breakdown)
        self._dir_add(dir_inum, dir_inode, name, inum, breakdown)
        return breakdown

    def mkdir(self, path: str) -> Breakdown:
        breakdown = self._start_op()
        parents, name = dirname_basename(path)
        dir_inum = self._namei(parents, breakdown)
        dir_inode = self._read_inode(dir_inum, breakdown)
        if not dir_inode.is_dir:
            raise NotADirectory(path)
        if self._dir_lookup(dir_inode, name, breakdown) is not None:
            raise FileExists(path)
        inum = self.alloc.alloc_inode(dir_inum, is_dir=True)
        inode = Inode(itype=FileType.DIRECTORY, nlink=2, mtime=self.clock.now)
        self._write_inode(inum, inode, sync=True, breakdown=breakdown)
        self._dir_add(dir_inum, dir_inode, name, inum, breakdown)
        dir_inode.nlink += 1
        self._write_inode(dir_inum, dir_inode, sync=False, breakdown=breakdown)
        return breakdown

    def unlink(self, path: str) -> Breakdown:
        breakdown = self._start_op()
        parents, name = dirname_basename(path)
        dir_inum = self._namei(parents, breakdown)
        dir_inode = self._read_inode(dir_inum, breakdown)
        inum = self._dir_lookup(dir_inode, name, breakdown)
        if inum is None:
            raise FileNotFound(path)
        inode = self._read_inode(inum, breakdown)
        if inode.is_dir:
            raise IsADirectory(path)
        # FFS ordering: the entry disappears before the inode is freed.
        self._dir_remove(dir_inum, dir_inode, name, breakdown)
        self._free_file_storage(inode, breakdown)
        inode.reset()
        self._write_inode(inum, inode, sync=True, breakdown=breakdown)
        self.alloc.free_inode(inum)
        self._dirty_blocks.pop(inum, None)
        self._readahead.pop(inum, None)
        return breakdown

    def rmdir(self, path: str) -> Breakdown:
        breakdown = self._start_op()
        parents, name = dirname_basename(path)
        dir_inum = self._namei(parents, breakdown)
        dir_inode = self._read_inode(dir_inum, breakdown)
        inum = self._dir_lookup(dir_inode, name, breakdown)
        if inum is None:
            raise FileNotFound(path)
        inode = self._read_inode(inum, breakdown)
        if not inode.is_dir:
            raise NotADirectory(path)
        if self._dir_entry_count(inode, breakdown):
            raise DirectoryNotEmpty(path)
        self._dir_remove(dir_inum, dir_inode, name, breakdown)
        self._free_file_storage(inode, breakdown)
        inode.reset()
        self._write_inode(inum, inode, sync=True, breakdown=breakdown)
        self.alloc.free_inode(inum)
        dir_inode.nlink = max(2, dir_inode.nlink - 1)
        self._write_inode(dir_inum, dir_inode, sync=False, breakdown=breakdown)
        return breakdown

    def rename(self, old_path: str, new_path: str) -> Breakdown:
        """Move an entry between directories (both entry writes are
        synchronous, in remove-last order so the file is never lost)."""
        breakdown = self._start_op()
        old_parents, old_name = dirname_basename(old_path)
        new_parents, new_name = dirname_basename(new_path)
        old_dir = self._namei(old_parents, breakdown)
        old_dir_inode = self._read_inode(old_dir, breakdown)
        inum = self._dir_lookup(old_dir_inode, old_name, breakdown)
        if inum is None:
            raise FileNotFound(old_path)
        new_dir = self._namei(new_parents, breakdown)
        new_dir_inode = self._read_inode(new_dir, breakdown)
        if not new_dir_inode.is_dir:
            raise NotADirectory(new_path)
        if self._dir_lookup(new_dir_inode, new_name, breakdown) is not None:
            raise FileExists(new_path)
        # Add the new entry first, then remove the old one: a crash leaves
        # at worst an extra (hard-link-like) entry, never a lost file.
        self._dir_add(new_dir, new_dir_inode, new_name, inum, breakdown)
        if old_dir == new_dir:
            old_dir_inode = self._read_inode(old_dir, breakdown)
        self._dir_remove(old_dir, old_dir_inode, old_name, breakdown)
        return breakdown

    def truncate(self, path: str, size: int) -> Breakdown:
        if size < 0:
            raise ValueError("size must be non-negative")
        breakdown = self._start_op()
        inum = self._namei(split_path(path), breakdown)
        inode = self._read_inode(inum, breakdown)
        if inode.is_dir:
            raise IsADirectory(path)
        if size > inode.size:
            # Sparse extension: restructure the tail, no data written.
            self._restructure(inum, inode, size, breakdown, sync=False)
            inode.size = size
        elif size < inode.size:
            self._shrink(inum, inode, size, breakdown)
        inode.mtime = self.clock.now
        self._write_inode(inum, inode, sync=True, breakdown=breakdown)
        return breakdown

    def _shrink(
        self, inum: int, inode: Inode, new_size: int, breakdown: Breakdown
    ) -> None:
        if new_size == 0:
            self._free_file_storage(inode, breakdown)
            keep_type, keep_nlink = inode.itype, inode.nlink
            inode.reset()
            inode.itype, inode.nlink = keep_type, keep_nlink
            return
        old_frag_addr, old_frag_count = inode.tail_frags()
        old_tail_blk = inode.size // self.block_size
        use_new = self._uses_tail_frags(new_size)
        tail_blk_new, frags_new = self._tail_geometry(new_size)
        # Free full blocks past the new end (the new tail block, if it
        # is to be demoted to fragments, is handled separately below).
        old_blocks = inode.size // self.block_size
        if not self._uses_tail_frags(inode.size):
            old_blocks = -(-inode.size // self.block_size)
        first_dead = (
            tail_blk_new + 1 if use_new else -(-new_size // self.block_size)
        )
        for fblk in range(first_dead, old_blocks):
            lba = self._get_file_block(inode, fblk, breakdown)
            if lba:
                self.alloc.free_block(lba)
                self.cache.invalidate(lba)
                self._store_group_async(lba, breakdown)
                self._set_file_block(inode, fblk, 0, breakdown, sync=False)
        if use_new and (
            not old_frag_count or tail_blk_new != old_tail_blk
        ):
            # The new tail is currently a full block: demote it to frags.
            tail_lba = self._get_file_block(inode, tail_blk_new, breakdown)
            if old_frag_count:  # old run is past the new end: free it
                self.alloc.free_frags(old_frag_addr, old_frag_count)
                self._store_group_async(
                    old_frag_addr // self.layout.frags_per_block, breakdown
                )
                inode.set_tail_frags(0, 0)
            if tail_lba:
                raw, cost = self.cache.read(tail_lba)
                breakdown.add(cost)
                content = bytearray(raw[: frags_new * self.layout.frag_size])
                valid = new_size - tail_blk_new * self.block_size
                content[valid:] = bytes(len(content) - valid)
                content = bytes(content)
                addr = self.alloc.alloc_frags(frags_new, tail_lba)
                inode.set_tail_frags(addr, frags_new)
                self._write_frag_content(addr, content, breakdown, sync=False)
                self.alloc.free_block(tail_lba)
                self.cache.invalidate(tail_lba)
                self._store_group_async(tail_lba, breakdown)
                self._set_file_block(
                    inode, tail_blk_new, 0, breakdown, sync=False
                )
        elif use_new:
            # Shrinking within the existing tail run.
            keep = min(frags_new, old_frag_count)
            if old_frag_count > keep:
                self.alloc.free_frags(
                    old_frag_addr + keep, old_frag_count - keep
                )
                self._store_group_async(
                    old_frag_addr // self.layout.frags_per_block, breakdown
                )
            inode.set_tail_frags(old_frag_addr, keep)
            # Zero the dead suffix of the kept run.
            valid = new_size - tail_blk_new * self.block_size
            run_bytes = keep * self.layout.frag_size
            if valid < run_bytes:
                lba, offset = self.layout.frag_to_block(old_frag_addr)
                raw, cost = self.cache.read(lba)
                breakdown.add(cost)
                merged = bytearray(
                    raw[offset : offset + run_bytes]
                )
                merged[valid:] = bytes(run_bytes - valid)
                breakdown.add(
                    self.cache.write_partial(
                        lba, offset, bytes(merged), sync=False
                    )
                )
        elif old_frag_count:
            self.alloc.free_frags(old_frag_addr, old_frag_count)
            self._store_group_async(
                old_frag_addr // self.layout.frags_per_block, breakdown
            )
            inode.set_tail_frags(0, 0)
        if not use_new and new_size % self.block_size:
            # Large file keeping a partial last full block: zero its dead
            # suffix so sparse re-extension reads zeros.
            last = new_size // self.block_size
            lba = self._get_file_block(inode, last, breakdown)
            if lba:
                raw, cost = self.cache.read(lba)
                breakdown.add(cost)
                merged = bytearray(raw)
                merged[new_size % self.block_size :] = bytes(
                    self.block_size - new_size % self.block_size
                )
                breakdown.add(
                    self.cache.write(lba, bytes(merged), sync=False)
                )
        inode.size = new_size

    def _free_file_storage(self, inode: Inode, breakdown: Breakdown) -> None:
        nblocks = inode.size // self.block_size
        if not self._uses_tail_frags(inode.size):
            nblocks = -(-inode.size // self.block_size)
        for fblk in range(nblocks):
            lba = self._get_file_block(inode, fblk, breakdown)
            if lba:
                self.alloc.free_block(lba)
                self.cache.invalidate(lba)
                self._store_group_async(lba, breakdown)
        frag_addr, frag_count = inode.tail_frags()
        if frag_count:
            self.alloc.free_frags(frag_addr, frag_count)
            self._store_group_async(
                frag_addr // self.layout.frags_per_block, breakdown
            )
        for indirect in (inode.indirect, inode.double_indirect):
            if indirect:
                self.alloc.free_block(indirect)
                self.cache.invalidate(indirect)
                self._store_group_async(indirect, breakdown)
        if inode.double_indirect:
            for i in range(self._ppb):
                level1 = self._read_pointer(
                    inode.double_indirect, i, breakdown
                )
                if level1:
                    self.alloc.free_block(level1)
                    self.cache.invalidate(level1)

    # ------------------------------------------------------------------

    def write(
        self, path: str, offset: int, data: bytes, sync: bool = False
    ) -> Breakdown:
        if offset < 0:
            raise ValueError("offset must be non-negative")
        nblocks = max(1, -(-len(data) // self.block_size))
        breakdown = self._start_op(nblocks)
        parents = split_path(path)
        inum = self._namei(parents, breakdown)
        inode = self._read_inode(inum, breakdown)
        if inode.is_dir:
            raise IsADirectory(path)
        new_size = max(inode.size, offset + len(data))
        self._restructure(inum, inode, new_size, breakdown, sync)
        use_frags = self._uses_tail_frags(new_size)
        tail_blk, _frags = self._tail_geometry(new_size)
        position = offset
        end = offset + len(data)
        while position < end:
            fblk = position // self.block_size
            block_lo = position % self.block_size
            block_hi = min(self.block_size, block_lo + (end - position))
            piece = data[position - offset : position - offset + (block_hi - block_lo)]
            if use_frags and fblk == tail_blk:
                self._write_tail_piece(
                    inode, block_lo, piece, breakdown, sync
                )
            else:
                self._write_block_piece(
                    inum, inode, fblk, block_lo, piece, breakdown, sync
                )
            position += block_hi - block_lo
        inode.size = new_size
        inode.mtime = self.clock.now
        self._write_inode(inum, inode, sync=sync, breakdown=breakdown)
        return breakdown

    def _write_block_piece(
        self,
        inum: int,
        inode: Inode,
        fblk: int,
        block_lo: int,
        piece: bytes,
        breakdown: Breakdown,
        sync: bool,
    ) -> None:
        lba = self._get_file_block(inode, fblk, breakdown)
        fresh = False
        if not lba:
            lba = self._alloc_near_inode(inum, inode, breakdown)
            self._set_file_block(inode, fblk, lba, breakdown, sync)
            fresh = True
            # A fresh block starts as zeros -- the allocator may hand back
            # a recycled block whose stale contents are still cached.
            self.cache.write(lba, bytes(self.block_size), sync=False)
        if block_lo == 0 and len(piece) == self.block_size:
            breakdown.add(self.cache.write(lba, piece, sync=sync))
        else:
            lo = (block_lo // _SECTOR) * _SECTOR
            hi = min(
                self.block_size,
                -(-(block_lo + len(piece)) // _SECTOR) * _SECTOR,
            )
            if not fresh and lba not in self.cache:
                _, cost = self.cache.read(lba)
                breakdown.add(cost)
            aligned = self._merge_aligned(
                lba, lo, hi, block_lo, piece, fresh, breakdown
            )
            breakdown.add(
                self.cache.write_partial(lba, lo, aligned, sync, fresh=fresh)
            )
        if not sync:
            self._dirty_blocks.setdefault(inum, set()).add(lba)

    def _merge_aligned(
        self,
        lba: int,
        lo: int,
        hi: int,
        block_lo: int,
        piece: bytes,
        fresh: bool,
        breakdown: Breakdown,
    ) -> bytes:
        """Build the sector-aligned byte range [lo, hi) with ``piece``
        spliced in at ``block_lo``."""
        if fresh and lba not in self.cache:
            base = bytearray(hi - lo)
        else:
            raw, cost = self.cache.read(lba)
            breakdown.add(cost)
            base = bytearray(raw[lo:hi])
        start = block_lo - lo
        base[start : start + len(piece)] = piece
        return bytes(base)

    def _write_tail_piece(
        self,
        inode: Inode,
        block_lo: int,
        piece: bytes,
        breakdown: Breakdown,
        sync: bool,
    ) -> None:
        frag_addr, frag_count = inode.tail_frags()
        if not frag_count:
            raise FileSystemError("tail fragments missing (restructure bug)")
        lba, frag_off = self.layout.frag_to_block(frag_addr)
        in_block = frag_off + block_lo
        lo = (in_block // _SECTOR) * _SECTOR
        hi = min(
            frag_off + frag_count * self.layout.frag_size,
            -(-(in_block + len(piece)) // _SECTOR) * _SECTOR,
        )
        if lba not in self.cache:
            _, cost = self.cache.read(lba)
            breakdown.add(cost)
        raw, cost = self.cache.read(lba)
        breakdown.add(cost)
        base = bytearray(raw[lo:hi])
        start = in_block - lo
        base[start : start + len(piece)] = piece
        breakdown.add(
            self.cache.write_partial(lba, lo, bytes(base), sync)
        )

    # ------------------------------------------------------------------

    def read(self, path: str, offset: int, length: int):
        if offset < 0 or length < 0:
            raise ValueError("offset and length must be non-negative")
        nblocks = max(1, -(-length // self.block_size))
        breakdown = self._start_op(nblocks)
        parents = split_path(path)
        inum = self._namei(parents, breakdown)
        inode = self._read_inode(inum, breakdown)
        if inode.is_dir:
            raise IsADirectory(path)
        length = max(0, min(length, inode.size - offset))
        if length == 0:
            return b"", breakdown
        use_frags = self._uses_tail_frags(inode.size)
        tail_blk, _ = self._tail_geometry(inode.size)
        pieces: List[bytes] = []
        position = offset
        end = offset + length
        while position < end:
            fblk = position // self.block_size
            block_lo = position % self.block_size
            block_hi = min(self.block_size, block_lo + (end - position))
            if use_frags and fblk == tail_blk:
                pieces.append(
                    self._read_tail_piece(inode, block_lo, block_hi, breakdown)
                )
            else:
                pieces.append(
                    self._read_block_piece(
                        inum, inode, fblk, block_lo, block_hi, breakdown
                    )
                )
            position += block_hi - block_lo
        return b"".join(pieces), breakdown

    def _read_block_piece(
        self,
        inum: int,
        inode: Inode,
        fblk: int,
        lo: int,
        hi: int,
        breakdown: Breakdown,
    ) -> bytes:
        lba = self._get_file_block(inode, fblk, breakdown)
        if not lba:
            return bytes(hi - lo)
        self._maybe_prefetch(inum, inode, fblk, lba, breakdown)
        raw, cost = self.cache.read(lba)
        breakdown.add(cost)
        return raw[lo:hi]

    def _read_tail_piece(
        self, inode: Inode, lo: int, hi: int, breakdown: Breakdown
    ) -> bytes:
        frag_addr, _count = inode.tail_frags()
        lba, frag_off = self.layout.frag_to_block(frag_addr)
        raw, cost = self.cache.read(lba)
        breakdown.add(cost)
        return raw[frag_off + lo : frag_off + hi]

    def _maybe_prefetch(
        self,
        inum: int,
        inode: Inode,
        fblk: int,
        lba: int,
        breakdown: Breakdown,
    ) -> None:
        """Detect sequential reads; prefetch a cluster on the third hit."""
        expected, run = self._readahead.get(inum, (-1, 0))
        run = run + 1 if fblk == expected else 1
        self._readahead[inum] = (fblk + 1, run)
        if run < 3 or lba in self.cache:
            return
        # Find how many of the following file blocks are physically
        # contiguous and read them in one command.
        count = 1
        nblocks = inode.size // self.block_size
        while count < self.prefetch_blocks and fblk + count < nblocks:
            nxt = self._get_file_block(inode, fblk + count, breakdown)
            if nxt != lba + count or nxt in self.cache:
                break
            count += 1
        if count > 1:
            breakdown.add(self.cache.populate_run(lba, count))

    # ------------------------------------------------------------------

    def fsync(self, path: str) -> Breakdown:
        breakdown = self._start_op()
        parents = split_path(path)
        inum = self._namei(parents, breakdown)
        for lba in sorted(self._dirty_blocks.pop(inum, ())):
            breakdown.add(self.cache.flush_block(lba))
        inode = self._read_inode(inum, breakdown)
        self._write_inode(inum, inode, sync=True, breakdown=breakdown)
        return breakdown

    def sync(self) -> Breakdown:
        breakdown = self._start_op()
        breakdown.add(self.alloc.store_all())
        breakdown.add(self.cache.flush())
        self._dirty_blocks.clear()
        return breakdown

    def drop_caches(self) -> None:
        self.cache.drop_clean()
        self._readahead.clear()

    def idle(self, seconds: float) -> Breakdown:
        """UFS has no background machinery; the device gets the idle time
        (on a VLD, the compactor uses it)."""
        return self.idle_manager.grant(seconds)

    @property
    def idle_manager(self) -> IdleManager:
        """Idle-budget dispatch: one worker, the device itself.  The
        device runs even on a zero-second grant (a VLD drains its queue
        and disarms stale state on any idle signal)."""
        mgr = getattr(self, "_idle_manager", None)
        if mgr is None:
            mgr = IdleManager(self.clock)
            mgr.register("device", self._idle_device, needs_time=False)
            self._idle_manager = mgr
        return mgr

    def _idle_device(self, remaining: float) -> None:
        self.device.idle(remaining)

    # ------------------------------------------------------------------

    def stat(self, path: str) -> FileStat:
        breakdown = Breakdown()
        inum = self._namei(split_path(path), breakdown)
        inode = self._read_inode(inum, breakdown)
        frag_addr, frag_count = inode.tail_frags()
        blocks = inode.size // self.block_size + (1 if frag_count else 0)
        if not self._uses_tail_frags(inode.size):
            blocks = -(-inode.size // self.block_size)
        return FileStat(
            inum=inum,
            size=inode.size,
            is_dir=inode.is_dir,
            nlink=inode.nlink,
            blocks=blocks,
        )

    def listdir(self, path: str):
        breakdown = Breakdown()
        inum = self._namei(split_path(path), breakdown)
        inode = self._read_inode(inum, breakdown)
        if not inode.is_dir:
            raise NotADirectory(path)
        names: List[str] = []
        for _fblk, lba in self._dir_blocks(inode, breakdown):
            raw, _ = self.cache.read(lba)
            names.extend(DirectoryBlock.unpack(raw).entries)
        return sorted(names)

    def exists(self, path: str) -> bool:
        try:
            self._namei(split_path(path), Breakdown())
            return True
        except (FileNotFound, NotADirectory):
            return False
