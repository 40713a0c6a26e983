"""Per-layer attribution for the traced run.

The tracer wraps the public entry points of each layer *from outside*:
:meth:`Tracer.install` replaces the class attributes listed in
:data:`BOUNDARIES` with timing wrappers and :meth:`Tracer.uninstall` puts
the originals back, so no library file changes and an untraced run pays
nothing.  Each call becomes a span ``[name, start, end, parent, request,
units]`` kept in memory; the parent is the innermost enclosing span, and
the request is the benchmark's op index.  A layer's self time is its spans'
duration minus the time their direct children cover.

The wrappers only cost host time: simulated time is the library's own
clock, which no wrapper touches, so a traced round must reproduce the
untraced round's simulated metrics exactly (the runner checks this).
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.disk.batch_mechanics import BatchMechanics
from repro.disk.disk import Disk
from repro.disk.freemap import FreeSpaceMap
from repro.lfs.cleaner import Cleaner
from repro.lfs.lfs import LFS
from repro.lfs.nvram import FileCache
from repro.lfs.segment import SegmentWriter
from repro.nvm.wal import NVWal
from repro.sched.idle import IdleManager
from repro.sched.policies import SATFPolicy
from repro.sched.scheduler import DiskScheduler
from repro.ufs.alloc import UFSAllocator
from repro.ufs.bitmap import Bitmap
from repro.ufs.ufs import UFS
from repro.vlog.allocator import EagerAllocator
from repro.vlog.compactor import FreeSpaceCompactor
from repro.vlog.vld import VirtualLogDisk


def _write_run_blocks(args, kwargs, result) -> int:
    count = args[2] if len(args) > 2 else kwargs["count"]
    block_sectors = args[3] if len(args) > 3 else kwargs["block_sectors"]
    return count // block_sectors


def _count_arg(args, kwargs, result) -> int:
    return args[2] if len(args) > 2 else kwargs["count"]


#: (layer, class, method names, units function).  The units function,
#: when given, maps ``(args, kwargs, result)`` to the span's work units
#: (default 1); the consistency check sums them against layer counters.
BOUNDARIES: List[Tuple[str, type, Tuple[str, ...], Optional[Callable]]] = [
    ("ufs", UFS, ("write", "read", "idle", "sync", "fsync", "drop_caches"),
     None),
    ("ufs.bitmap", Bitmap, ("find_free_run", "find_frag_run"), None),
    ("ufs.alloc", UFSAllocator,
     ("alloc_block", "free_block", "alloc_frags", "free_frags",
      "alloc_inode", "free_inode", "store_group", "store_all"), None),
    ("lfs", LFS,
     ("write", "read", "idle", "sync", "fsync", "flush_nvram", "checkpoint"),
     None),
    ("lfs.file_cache", FileCache,
     ("dirty_blocks", "total_blocks", "full", "would_overflow", "get",
      "put_clean", "put_dirty", "mark_clean", "forget", "forget_inode",
      "dirty_items", "dirty_items_for", "drop_clean"), None),
    ("lfs.segment", SegmentWriter,
     ("stage", "staged_data", "finish_segment", "sync"), None),
    ("lfs.cleaner", Cleaner,
     ("select_victim", "clean_one", "clean_until_free", "run_idle"), None),
    ("lfs.cleaner", LFS, ("copy_live_blocks",), None),
    ("vlog", VirtualLogDisk,
     ("read_block", "read_blocks", "write_block", "write_partial", "trim",
      "idle", "power_down", "crash", "move_block"), None),
    ("vlog", VirtualLogDisk, ("write_blocks",), _count_arg),
    ("vlog.recover", VirtualLogDisk, ("recover",), None),
    ("vlog.allocator", EagerAllocator, ("allocate", "allocate_run"), None),
    ("vlog.compactor", FreeSpaceCompactor, ("run_for",), None),
    ("disk", Disk, ("read", "write"), None),
    ("disk", Disk, ("write_run",), _write_run_blocks),
    ("disk.freemap", FreeSpaceMap,
     ("is_free", "run_is_free", "mark_used", "mark_free",
      "track_free_count", "cylinder_free_count", "utilization",
      "nearest_free_run", "segment_free", "has_aligned_run",
      "cylinder_has_run", "nearest_free_in_cylinder", "partial_tracks",
      "next_used_on_track", "find_empty_track", "tracks_by_free_count"),
     None),
    ("disk.mechanics", BatchMechanics,
     ("positioning_time", "position_and_arrival", "price_candidates",
      "price_track_arrivals"), None),
    ("sched", DiskScheduler,
     ("read", "write", "write_run", "service_one", "drain", "barrier"),
     None),
    ("sched.satf_pick", SATFPolicy, ("pick",), None),
    ("sched.idle", IdleManager, ("grant",), None),
    ("nvm", NVWal,
     ("read_block", "read_blocks", "write_block", "write_blocks",
      "write_partial", "trim", "idle", "power_down", "crash", "recover",
      "destage_all"), None),
    # The destage loop has no public entry of its own: idle time, a full
    # log and power-down all reach it through this one private method.
    ("nvm.destage", NVWal, ("_destage",), None),
]

#: Every layer the boundaries name, in report order.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(b[0] for b in BOUNDARIES))

# Span record fields.
NAME, START, END, PARENT, REQUEST, UNITS = range(6)


class Tracer:
    """Span recorder over the :data:`BOUNDARIES` wrappers."""

    def __init__(self) -> None:
        #: (layer, "Class.method") per name id, in BOUNDARIES order.
        self.names: List[Tuple[str, str]] = [
            (layer, f"{cls.__name__}.{method}")
            for layer, cls, methods, _units in BOUNDARIES
            for method in methods
        ]
        self.spans: List[list] = []
        self._stack: List[int] = []
        #: Op index of the request being served; the runner sets it.
        self.request = -1
        #: Spans are recorded only while active (the timed phases).
        self.active = False
        self._saved: List[Tuple[type, str, object]] = []

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        nid = 0
        for _layer, cls, methods, units in BOUNDARIES:
            for method in methods:
                original = cls.__dict__[method]
                if isinstance(original, property):
                    wrapped = property(self._wrap(original.fget, nid, units))
                else:
                    wrapped = self._wrap(original, nid, units)
                self._saved.append((cls, method, original))
                setattr(cls, method, wrapped)
                nid += 1

    def uninstall(self) -> None:
        for cls, method, original in reversed(self._saved):
            setattr(cls, method, original)
        self._saved = []

    def _wrap(self, fn, nid: int, units):
        spans = self.spans
        stack = self._stack
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            record = [nid, 0.0, 0.0, stack[-1] if stack else -1,
                      tracer.request, 1]
            stack.append(len(spans))
            spans.append(record)
            record[START] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[END] = perf_counter()
                stack.pop()
            if units is not None:
                record[UNITS] = units(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def take(self) -> List[list]:
        """Return the recorded spans and start a fresh list."""
        spans = list(self.spans)
        self.spans.clear()
        return spans

    # -- reading spans -------------------------------------------------

    def self_times(self, spans: List[list]) -> Dict[str, float]:
        """Self seconds per layer (span time minus direct children)."""
        child = [0.0] * len(spans)
        for record in spans:
            if record[PARENT] >= 0:
                child[record[PARENT]] += record[END] - record[START]
        totals = dict.fromkeys(LAYERS, 0.0)
        names = self.names
        for i, record in enumerate(spans):
            layer = names[record[NAME]][0]
            totals[layer] += record[END] - record[START] - child[i]
        return totals

    def count(self, spans: List[list], name: str,
              parent: Optional[str] = None,
              not_parent: Optional[str] = None,
              ancestor: Optional[str] = None) -> int:
        """Sum of units over spans called ``name`` (``"Class.method"``),
        optionally filtered on the direct parent's or any ancestor's
        name."""
        names = self.names
        total = 0
        for record in spans:
            if names[record[NAME]][1] != name:
                continue
            up = record[PARENT]
            up_name = names[spans[up][NAME]][1] if up >= 0 else None
            if parent is not None and up_name != parent:
                continue
            if not_parent is not None and up_name == not_parent:
                continue
            if ancestor is not None:
                while up >= 0 and names[spans[up][NAME]][1] != ancestor:
                    up = spans[up][PARENT]
                if up < 0:
                    continue
            total += record[UNITS]
        return total
