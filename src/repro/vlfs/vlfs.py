"""The virtual log file system (Section 3.3, Figure 4).

Structure shared with LFS (inodes, directories, the file cache, the flush
discipline) is inherited; the storage engine differs:

* every staged block is **eagerly written immediately** to a free 4 KB
  block near the disk head (no segments, no partial-segment threshold);
* the inode map is chunked into 512-byte records threaded through a
  :class:`~repro.vlog.virtual_log.VirtualLog` -- the *only* log content,
  exactly as Figure 4 draws it;
* superseded blocks return directly to a free-space map: **no cleaner**
  ("the free space compactor is only an optimization for VLFS, the
  cleaner is a necessity for LFS");
* recovery bootstraps from the firmware power-down record (scan fallback)
  and rebuilds the inode map from the virtual log, then walks the inodes
  to reconstruct space accounting.

The host/drive split: VLFS runs on the drive's processor, so each file
system operation is charged one drive command overhead plus host CPU time,
while internal block I/O pays mechanics only.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Set, Tuple

from repro.blockdev.regular import RegularDisk
from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.fs.api import NoSpace
from repro.fs.inode import FileType, Inode
from repro.hosts.specs import HostSpec
from repro.lfs.cleaner import Cleaner
from repro.lfs.inode_map import InodeMap, SegmentUsage
from repro.lfs.layout import LFSLayout
from repro.lfs.lfs import LFS, ROOT_INUM
from repro.lfs.nvram import FileCache
from repro.lfs.segment import BlockKind
from repro.sim.stats import Breakdown
from repro.vlog.allocator import AllocationPolicy, DiskFullError, EagerAllocator
from repro.vlog.entries import entries_per_chunk
from repro.vlog.recovery import PowerDownStore, RecoveryOutcome, scan_for_tail
from repro.vlog.virtual_log import VirtualLog


class _InternalDevice(RegularDisk):
    """Identity block device used by the drive's own processor: internal
    transfers pay mechanics but no per-command SCSI overhead."""

    def read_blocks(self, lba: int, count: int):
        self.check_lba(lba, count)
        return self.disk.read(
            self._sector_of(lba), count * self.sectors_per_block,
            charge_scsi=False,
        )

    def write_blocks(self, lba, count, data=None):
        self.check_lba(lba, count)
        data = self.check_data(data, count)
        return self.disk.write(
            self._sector_of(lba), count * self.sectors_per_block, data,
            charge_scsi=False,
        )

    def write_partial(self, lba: int, offset: int, data: bytes):
        self.check_lba(lba, 1)
        sector_bytes = self.disk.sector_bytes
        start = self._sector_of(lba) + offset // sector_bytes
        return self.disk.write(
            start, len(data) // sector_bytes, data, charge_scsi=False
        )


class _EagerLogWriter:
    """Drop-in for :class:`SegmentWriter`: stage == write, immediately,
    at an eagerly chosen block near the head."""

    def __init__(self, device: _InternalDevice, allocator: EagerAllocator):
        self.device = device
        self.allocator = allocator
        self.current_segment = None  # interface compatibility
        self.flush_seqno = 0
        self.partial_flushes = 0
        self.segments_written = 0
        self.blocks_written = 0

    def open_segment(self) -> None:
        pass  # no segments: every block is placed as it is staged

    def stage(
        self, kind: int, inum: int, fblk: int, data: bytes
    ) -> Tuple[int, Breakdown]:
        try:
            address = self.allocator.allocate()
        except DiskFullError as exc:
            raise NoSpace(str(exc)) from exc
        breakdown = self.device.write_block(address, data)
        self.blocks_written += 1
        return address, breakdown

    def staged_data(self, address: int) -> Optional[bytes]:
        return None  # nothing is ever deferred

    def sync(self) -> Breakdown:
        self.flush_seqno += 1
        return Breakdown()  # every block already reached the platter

    def finish_segment(self) -> Breakdown:
        return Breakdown()


class VLFS(LFS):
    """LFS semantics over eager writing and a virtual log (Section 3.3)."""

    POWER_DOWN_BLOCK = 0

    def __init__(
        self,
        disk: Disk,
        host: HostSpec,
        cache_bytes: int = int(6.1 * 2**20),
        nvram: bool = False,
        map_record_bytes: int = 512,
        fill_threshold: float = 0.75,
        host_factor: float = 1.0,
    ) -> None:
        # NOTE: deliberately does not call LFS.__init__ -- the segment
        # machinery it builds is replaced wholesale.  Every attribute the
        # inherited methods use is established here.
        self.disk = disk
        self.device = _InternalDevice(disk)
        self.host = host
        self.host_factor = host_factor
        self.clock = disk.clock
        self.block_size = self.device.block_size
        self.map_record_bytes = map_record_bytes
        self.layout = LFSLayout.design(
            self.device.num_blocks, self.block_size
        )
        sb = self.layout.sb
        self.imap = InodeMap(sb.max_inodes)
        self._chunk_capacity = entries_per_chunk(map_record_bytes)
        # Segment usage exists only for interface compatibility (the
        # inherited cleaner is never invoked); space lives in the freemap.
        self.segusage = SegmentUsage(
            sb.num_segments, self.layout.segment_bytes
        )
        self.cache = FileCache(cache_bytes, self.block_size, nvram=nvram)
        self.freemap = FreeSpaceMap(disk.geometry)
        self.allocator = EagerAllocator(
            disk,
            self.freemap,
            block_sectors=self.device.sectors_per_block,
            policy=AllocationPolicy.TRACK_FILL,
            fill_threshold=fill_threshold,
        )
        self.allocator.reserve_block(self.POWER_DOWN_BLOCK)
        self.map_allocator = EagerAllocator(
            disk,
            self.freemap,
            block_sectors=map_record_bytes // disk.sector_bytes,
            policy=AllocationPolicy.GREEDY_CYLINDER,
        )
        self.vlog = VirtualLog(
            disk,
            self.map_allocator,
            chunk_provider=self._imap_chunk_entries,
            block_size=map_record_bytes,
        )
        self.power_store = PowerDownStore(disk, self.POWER_DOWN_BLOCK)
        self.writer = _EagerLogWriter(self.device, self.allocator)
        self.checkpoints = None  # the virtual log replaces checkpoints
        self.cleaner = Cleaner(self)  # interface only; never scheduled
        self.reserve_segments = 0
        self._inodes: Dict[int, Inode] = {}
        self._dirty_inodes: Set[int] = set()
        self._inode_block_weights: Dict[int, Dict[int, int]] = {}
        self._cleaning = False
        self._flushing = False
        self._mkfs()

    # ==================================================================
    # Inode-map chunking (the virtual log's payload)
    # ==================================================================

    def _imap_chunk_bounds(self, chunk_id: int) -> Tuple[int, int]:
        lo = chunk_id * self._chunk_capacity
        hi = min(lo + self._chunk_capacity, self.imap.max_inodes)
        return lo, hi

    def _imap_chunk_entries(self, chunk_id: int) -> List[int]:
        lo, hi = self._imap_chunk_bounds(chunk_id)
        return self.imap.entries_slice(lo, hi)

    def _chunk_of_inum(self, inum: int) -> int:
        return inum // self._chunk_capacity

    def _append_imap_chunks(
        self, inums, breakdown: Breakdown
    ) -> None:
        for chunk_id in sorted({self._chunk_of_inum(i) for i in inums}):
            breakdown.add(
                self.vlog.append(chunk_id, self._imap_chunk_entries(chunk_id))
            )

    # ==================================================================
    # Setup
    # ==================================================================

    def _mkfs(self) -> None:
        self._inodes[ROOT_INUM] = Inode(itype=FileType.DIRECTORY, nlink=2)
        self._dirty_inodes.add(ROOT_INUM)
        self._stage_dirty_inodes(Breakdown())

    # ==================================================================
    # Storage-engine overrides
    # ==================================================================

    def _start_op(self, blocks: int = 1) -> Breakdown:
        """Host CPU plus one drive command per file system operation."""
        host_cost = self.host.request_overhead(blocks) * self.host_factor
        self.clock.advance(host_cost)
        breakdown = Breakdown()
        breakdown.charge("other", host_cost)
        breakdown.charge("scsi", self.disk.spec.scsi_overhead)
        self.clock.advance(self.disk.spec.scsi_overhead)
        return breakdown

    def _note_live_block(self, address: int) -> None:
        pass  # the allocator marked the space at stage time

    def _note_dead_block(self, address: int) -> None:
        self.allocator.free_block(address)

    def _note_dead_inode(self, inum: int) -> None:
        location = self.imap.get(inum)
        if location is None:
            return
        address, slot = location
        weights = self._inode_block_weights.get(address)
        if weights is None:
            return
        weights.pop(slot, None)
        if not weights:
            del self._inode_block_weights[address]
            self.allocator.free_block(address)

    def _ensure_free_segments(self, target: int, breakdown: Breakdown) -> None:
        pass  # no segments: free space is managed by the freemap

    def _pick_free_segment(self) -> int:  # pragma: no cover - unused
        raise NoSpace("VLFS has no segments")

    def _stage_dirty_inodes(self, breakdown: Breakdown) -> None:
        staged = sorted(i for i in self._dirty_inodes if i in self._inodes)
        super()._stage_dirty_inodes(breakdown)
        # The commit point: affected inode-map chunks enter the virtual
        # log (Figure 4: the map is the log's only content).
        if staged:
            self._append_imap_chunks(staged, breakdown)

    def _free_inode_storage(self, inum, inode, breakdown) -> None:
        super()._free_inode_storage(inum, inode, breakdown)
        self._append_imap_chunks([inum], breakdown)

    # ==================================================================
    # Space and idle
    # ==================================================================

    @property
    def utilization(self) -> float:
        return self.freemap.utilization

    def free_segments(self) -> int:
        """Free space expressed in segment-equivalents (compatibility)."""
        free_bytes = self.freemap.free_sectors * self.disk.sector_bytes
        return free_bytes // self.layout.segment_bytes

    def checkpoint(self) -> Breakdown:
        """VLFS needs no checkpoint region: flushing suffices, because the
        virtual log *is* the recoverable inode map.  (The paper's optional
        contiguous-map checkpoint would only shorten log traversal.)"""
        breakdown = Breakdown()
        self._flush_all(breakdown)
        return breakdown

    def idle(self, seconds: float) -> Breakdown:
        """Idle time flushes buffered writes block-by-block, then compacts.

        Eager writing needs no cleaner; the compactor ("only an
        optimization for VLFS", Section 3.4) consolidates free space into
        empty tracks for the track-fill allocator.
        """
        return self.idle_manager.grant(seconds)

    def _register_idle_workers(self, mgr) -> None:
        mgr.register("flush", self._idle_flush, gate=self._has_dirty)
        mgr.register("compact", self._idle_compact)

    def _idle_flush_batch(self) -> int:
        return 64

    def _idle_compact(self, remaining: float) -> None:
        self.compactor.run_for(remaining)

    @property
    def compactor(self) -> "VLFSCompactor":
        if getattr(self, "_compactor", None) is None:
            self._compactor = VLFSCompactor(self)
        return self._compactor

    # ==================================================================
    # Crash and recovery (virtual-log based)
    # ==================================================================

    def power_down(self, timed: bool = True) -> Breakdown:
        breakdown = Breakdown()
        self._flush_all(breakdown)
        if self.vlog.tail is not None:
            breakdown.add(
                self.power_store.write(
                    self.vlog.tail, self.vlog.next_seqno - 1, timed
                )
            )
        return breakdown

    def crash(self) -> None:
        self.cache.crash()
        if not self.cache.nvram:
            self._inodes.clear()
            self._dirty_inodes.clear()

    def mount(self) -> Breakdown:
        outcome = self.recover()
        return outcome.breakdown

    def recover(self, timed: bool = True) -> RecoveryOutcome:
        """Rebuild the inode map from the virtual log, then walk the
        inodes to reconstruct free-space accounting."""
        record, cost = self.power_store.read(timed)
        breakdown = Breakdown().add(cost)
        scanned = False
        blocks_scanned = 0
        if record is not None:
            tail = record[0]
        else:
            scanned = True
            tail, scan_cost, blocks_scanned = scan_for_tail(
                self.disk,
                self.map_record_bytes,
                skip_sectors=(self.POWER_DOWN_BLOCK + 1)
                * self.device.sectors_per_block,
                timed=timed,
            )
            breakdown.add(scan_cost)
        records_read = 0
        if tail is not None:
            chunks, traverse_cost, records_read = (
                self.vlog.recover_from_tail(tail, timed=timed)
            )
            breakdown.add(traverse_cost)
            for chunk_id, entries in chunks.items():
                lo, _hi = self._imap_chunk_bounds(chunk_id)
                self.imap.load_slice(lo, entries)
            breakdown.add(self.power_store.clear(timed))
        self._rebuild_space_state(breakdown, timed)
        return RecoveryOutcome(
            used_power_down_record=record is not None,
            scanned=scanned,
            records_read=records_read,
            blocks_scanned=blocks_scanned,
            breakdown=breakdown,
        )

    def _rebuild_space_state(
        self, breakdown: Breakdown, timed: bool
    ) -> None:
        """Mark used: the power-down home, live map records, inode blocks,
        and every block reachable from a live inode."""
        self.freemap.mark_free(0, self.disk.total_sectors)
        spb = self.device.sectors_per_block
        self.freemap.mark_used(self.POWER_DOWN_BLOCK * spb, spb)
        map_spb = self.vlog.sectors_per_block
        for record in self.vlog.live_blocks():
            self.freemap.mark_used(record * map_spb, map_spb)
        self._inode_block_weights.clear()
        inode_blocks: Dict[int, Dict[int, int]] = {}
        for inum in self.imap.live_inums():
            address, slot = self.imap.get(inum)
            inode_blocks.setdefault(address, {})[slot] = 1
        for address, slots in inode_blocks.items():
            self.freemap.mark_used(address * spb, spb)
            weights = LFS._block_weights(max(slots) + 1)
            self._inode_block_weights[address] = {
                slot: weights[slot] for slot in slots
            }
        for inum in list(self.imap.live_inums()):
            inode = self._load_inode(inum, breakdown)
            self._mark_inode_blocks_used(inum, inode, breakdown)

    def _mark_inode_blocks_used(
        self, inum: int, inode: Inode, breakdown: Breakdown
    ) -> None:
        spb = self.device.sectors_per_block
        nblocks = -(-inode.size // self.block_size)
        for fblk in range(nblocks):
            address = self._get_pointer(inode, inum, fblk, breakdown)
            if address:
                self.freemap.mark_used(address * spb, spb)
        for code in (BlockKind.SINGLE_INDIRECT, BlockKind.DOUBLE_INDIRECT):
            address = self._meta_address(inode, inum, code, breakdown)
            if address:
                self.freemap.mark_used(address * spb, spb)
        if inode.double_indirect:
            root = self._meta_block(
                inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect,
                breakdown,
            )
            for i in range(self._ppb):
                address = int.from_bytes(root[i * 4 : i * 4 + 4], "little")
                if address:
                    self.freemap.mark_used(address * spb, spb)


class VLFSCompactor:
    """Idle-time hole-plugging compactor for VLFS.

    Like the VLD's compactor it empties partially-filled tracks by moving
    live blocks into holes elsewhere, but ownership is resolved through
    the file system's own structures: data and indirect blocks move by
    pointer update, inode blocks by re-staging their inodes, and map
    records by relocation through the virtual log.
    """

    def __init__(self, fs: VLFS) -> None:
        self.fs = fs
        self.blocks_moved = 0
        self.tracks_compacted = 0

    # ------------------------------------------------------------------

    def run_for(self, seconds: float) -> float:
        if seconds < 0.0:
            raise ValueError("idle budget must be non-negative")
        fs = self.fs
        clock = fs.clock
        start = clock.now
        deadline = start + seconds
        while clock.now < deadline:
            owners = self._ownership()
            target = self._pick_target(owners)
            if target is None:
                break
            if not self._compact_track(target, owners, deadline):
                break
        return clock.now - start

    # ------------------------------------------------------------------

    def _ownership(self) -> Dict[int, Tuple]:
        """physical block -> ('data', inum, fblk) | ('meta', inum, code) |
        ('inodes', None, None).  Map records are asked of the vlog."""
        fs = self.fs
        breakdown = Breakdown()
        owners: Dict[int, Tuple] = {}
        inums = set(fs.imap.live_inums()) | set(fs._inodes)
        for inum in inums:
            inode = fs._live_inode_for(inum, breakdown)
            if inode is None:
                continue
            nblocks = -(-inode.size // fs.block_size)
            for fblk in range(nblocks):
                address = fs._get_pointer(inode, inum, fblk, breakdown)
                if address:
                    owners[address] = ("data", inum, fblk)
            for code in (
                BlockKind.SINGLE_INDIRECT, BlockKind.DOUBLE_INDIRECT
            ):
                address = fs._meta_address(inode, inum, code, breakdown)
                if address:
                    owners[address] = ("meta", inum, code)
            if inode.double_indirect:
                root = fs._meta_block(
                    inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect,
                    breakdown,
                )
                for i in range(fs._ppb):
                    address = int.from_bytes(
                        root[i * 4 : i * 4 + 4], "little"
                    )
                    if address:
                        owners[address] = ("meta", inum, BlockKind.level1(i))
            location = fs.imap.get(inum) if fs.imap.allocated(inum) else None
            if location is not None:
                owners[location[0]] = ("inodes", None, None)
        return owners

    def _pick_target(self, owners) -> Optional[Tuple[int, int]]:
        """The partially-filled track with the least live data (cheapest
        to empty), excluding the allocator's fill track."""
        fs = self.fs
        geometry = fs.disk.geometry
        per_track = geometry.sectors_per_track
        fill_track = fs.allocator._fill_track
        power_track = geometry.decompose(
            fs.POWER_DOWN_BLOCK * fs.device.sectors_per_block
        )[:2]
        best = None
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                if (cylinder, head) in (fill_track, power_track):
                    continue
                free = fs.freemap.track_free_count(cylinder, head)
                if 0 < free < per_track:
                    used = per_track - free
                    if best is None or used < best[0]:
                        best = (used, (cylinder, head))
        return None if best is None else best[1]

    def _compact_track(self, track, owners, deadline) -> bool:
        fs = self.fs
        geometry = fs.disk.geometry
        spb = fs.device.sectors_per_block
        map_spb = fs.vlog.sectors_per_block
        base = geometry.track_start(*track)
        end = base + geometry.sectors_per_track
        breakdown = Breakdown()
        progressed = False
        sector = base
        dirty_inodes_to_flush = False
        while sector < end:
            if fs.clock.now >= deadline:
                break
            if fs.freemap.is_free(sector):
                sector += 1
                continue
            block = sector // spb
            owner = owners.get(block) if sector % spb == 0 else None
            if owner is not None:
                if self._move_block(block, owner, track, breakdown):
                    progressed = True
                    dirty_inodes_to_flush = True
                    owners.pop(block, None)
                sector += spb
                continue
            record = sector // map_spb
            if (
                sector % map_spb == 0
                and fs.vlog.chunk_of_block(record) is not None
            ):
                fs.vlog.relocate(fs.vlog.chunk_of_block(record))
                progressed = True
                sector += map_spb
                continue
            sector += 1
        if dirty_inodes_to_flush:
            fs._stage_dirty_inodes(breakdown)
        if progressed:
            self.tracks_compacted += 1
        return progressed

    def _move_block(self, block, owner, source_track, breakdown) -> bool:
        fs = self.fs
        spb = fs.device.sectors_per_block
        kind, inum, key = owner
        if kind == "inodes":
            # Re-staging the resident inodes supersedes this inode block.
            moved = False
            for cand in list(fs.imap.live_inums()):
                location = fs.imap.get(cand)
                if location and location[0] == block:
                    fs._load_inode(cand, breakdown)
                    fs._mark_inode_dirty(cand)
                    moved = True
            return moved
        destination = self._find_hole(source_track)
        if destination is None:
            return False
        data, _cost = fs.disk.read(block * spb, spb, charge_scsi=False)
        fs.freemap.mark_used(destination * spb, spb)
        fs.disk.write(destination * spb, spb, data, charge_scsi=False)
        inode = fs._live_inode_for(inum, breakdown)
        if inode is None:
            fs.freemap.mark_free(destination * spb, spb)
            return False
        if kind == "data":
            old = fs._set_pointer(inode, inum, key, destination, breakdown)
        else:
            old = self._repoint_meta(inode, inum, key, destination, breakdown)
        if old:
            fs._note_dead_block(old)
        self.blocks_moved += 1
        return True

    def _repoint_meta(self, inode, inum, code, destination, breakdown):
        fs = self.fs
        if code == BlockKind.SINGLE_INDIRECT:
            old, inode.indirect = inode.indirect, destination
        elif code == BlockKind.DOUBLE_INDIRECT:
            old, inode.double_indirect = (
                inode.double_indirect, destination
            )
        else:
            index = -(code + 3)
            root = fs._meta_block(
                inum, BlockKind.DOUBLE_INDIRECT, inode.double_indirect,
                breakdown,
            )
            old = int.from_bytes(root[index * 4 : index * 4 + 4], "little")
            root[index * 4 : index * 4 + 4] = destination.to_bytes(
                4, "little"
            )
            fs._put_meta_dirty(
                inum, BlockKind.DOUBLE_INDIRECT, root, breakdown
            )
        fs._mark_inode_dirty(inum)
        return old

    def _find_hole(self, source_track) -> Optional[int]:
        fs = self.fs
        geometry = fs.disk.geometry
        spb = fs.device.sectors_per_block
        per_track = geometry.sectors_per_track
        disk = fs.disk
        best = None
        for cylinder in range(geometry.num_cylinders):
            for head in range(geometry.tracks_per_cylinder):
                if (cylinder, head) == source_track:
                    continue
                free = fs.freemap.track_free_count(cylinder, head)
                if free < spb or free == per_track:
                    continue
                found = fs.freemap.nearest_free_run(
                    cylinder, head, disk.slot_after(0.0), spb, align=spb
                )
                if found is None:
                    continue
                gap, linear = found
                if best is None or gap < best[0]:
                    best = (gap, linear // spb)
        return None if best is None else best[1]
