"""The LSM store proper: memtable + guarded levels of SSTables.

PebblesDB's key idea (FLSM) is to partition each level by *guards* and allow
multiple overlapping runs within a guard, so compaction never rewrites data
across guard boundaries; this cuts write amplification at the price of a
bounded extra read fan-out inside one guard.  This implementation keeps that
structure:

* level 0: raw memtable flushes (may overlap arbitrarily);
* levels >= 1: guard-partitioned; each guard holds up to ``runs_per_guard``
  runs; when exceeded, the guard's runs merge into one and spill to the same
  guard one level down.

Each level keeps two lists in guard order, installed once with the guards
(here, or by recovery): the guards' lo-keys, sorted, and each guard's runs.
A guard is its position in them, so routing a key to its guard is one
bisect: a point ``get`` probes one guard per level, a compaction splits its
output at the guard boundaries, and a ``scan`` visits only the guards whose
range meets ``[lo, hi)``.

Statistics (:class:`StoreStats`) count seeks, run probes, merges, and bytes
rewritten so benchmarks can report read/write amplification.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

from repro.kvstore.memtable import TOMBSTONE, MemTable
from repro.kvstore.sstable import SSTable, merge_runs

__all__ = ["LSMStore", "StoreStats"]


@dataclass
class StoreStats:
    """Operation counters for amplification analysis."""

    puts: int = 0
    gets: int = 0
    deletes: int = 0
    scans: int = 0
    flushes: int = 0
    compactions: int = 0
    runs_probed: int = 0
    bytes_flushed: int = 0
    bytes_compacted: int = 0
    # durability counters (all zero while the store runs purely in memory)
    wal_appends: int = 0
    wal_bytes: int = 0
    fsyncs: int = 0
    recoveries: int = 0

    def read_amplification(self) -> float:
        """Average runs probed per get."""
        return self.runs_probed / self.gets if self.gets else 0.0

    def write_amplification(self) -> float:
        """Bytes rewritten by compaction per byte flushed."""
        return (
            (self.bytes_flushed + self.bytes_compacted) / self.bytes_flushed
            if self.bytes_flushed
            else 0.0
        )

    def merge(self, other: "StoreStats") -> None:
        """Fold another store's counters into this one (cluster aggregation)."""
        self.puts += other.puts
        self.gets += other.gets
        self.deletes += other.deletes
        self.scans += other.scans
        self.flushes += other.flushes
        self.compactions += other.compactions
        self.runs_probed += other.runs_probed
        self.bytes_flushed += other.bytes_flushed
        self.bytes_compacted += other.bytes_compacted
        self.wal_appends += other.wal_appends
        self.wal_bytes += other.wal_bytes
        self.fsyncs += other.fsyncs
        self.recoveries += other.recoveries

    def as_dict(self) -> Dict[str, float]:
        """Raw counters plus derived amplifications (metrics/JSON surfacing)."""
        return {
            "puts": float(self.puts),
            "gets": float(self.gets),
            "deletes": float(self.deletes),
            "scans": float(self.scans),
            "flushes": float(self.flushes),
            "compactions": float(self.compactions),
            "runs_probed": float(self.runs_probed),
            "bytes_flushed": float(self.bytes_flushed),
            "bytes_compacted": float(self.bytes_compacted),
            "wal_appends": float(self.wal_appends),
            "wal_bytes": float(self.wal_bytes),
            "fsyncs": float(self.fsyncs),
            "recoveries": float(self.recoveries),
            "read_amplification": self.read_amplification(),
            "write_amplification": self.write_amplification(),
        }


class LSMStore:
    """Guarded LSM store with point get/put/delete and ordered range scans."""

    def __init__(
        self,
        memtable_limit: int = 256,
        runs_per_guard: int = 3,
        level0_limit: int = 4,
        guard_fanout: int = 8,
        max_levels: int = 6,
    ):
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        self.memtable_limit = memtable_limit
        self.runs_per_guard = runs_per_guard
        self.level0_limit = level0_limit
        self.guard_fanout = guard_fanout
        self.max_levels = max_levels
        self.mem = MemTable()
        self.level0: List[SSTable] = []  # newest first
        #: guard_los[i] for i>=1: the guards' lo-keys, sorted (every lookup
        #: bisects it); levels[i]: each guard's runs (newest first), in the
        #: same order
        self.guard_los: List[List[bytes]] = [[] for _ in range(max_levels)]
        self.levels: List[List[List[SSTable]]] = [[] for _ in range(max_levels)]
        self.stats = StoreStats()
        # durability attachment (None = purely in-memory, the seed behavior);
        # repro.durability.open_store attaches it and the recovery report
        self.backend = None
        self.last_recovery = None

    # ------------------------------------------------------------- write path
    def put(self, key: bytes, value: bytes) -> None:
        self.stats.puts += 1
        if self.backend is not None:
            self.backend.log_put(key, value)
        self.mem.put(key, value)
        if len(self.mem) >= self.memtable_limit:
            self._flush()

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        if self.backend is not None:
            self.backend.log_delete(key)
        self.mem.delete(key)
        if len(self.mem) >= self.memtable_limit:
            self._flush()

    def _flush(self) -> None:
        entries = self.mem.items_sorted()
        if not entries:
            return
        run = SSTable(entries)
        self.level0.insert(0, run)
        self.stats.flushes += 1
        self.stats.bytes_flushed += run.size_bytes
        self.mem.clear()
        flush_lsn = 0
        if self.backend is not None:
            self.backend.edit_add(0, None, run)
            # every record now in SSTables was logged at or before this LSN,
            # so the WAL prefix up to it is retirable once the commit lands
            flush_lsn = self.backend.last_appended_lsn
        if len(self.level0) > self.level0_limit:
            self._compact_level0()
        if self.backend is not None:
            self.backend.commit(flush_lsn)

    def flush(self) -> None:
        """Force the memtable down into level 0 (checkpoint/migration prep)."""
        self._flush()

    # -------------------------------------------------------------- compaction
    def install_guards(self, level: int, los: List[bytes]) -> None:
        """Install the (empty) guards of ``level`` from their sorted lo-keys."""
        self.guard_los[level] = list(los)
        self.levels[level] = [[] for _ in los]

    def _guards_for(self, level: int, keys: List[bytes]) -> None:
        """Create guards at ``level`` if absent, seeded by key-space samples."""
        if self.levels[level]:
            return
        # choose up to guard_fanout guard boundaries from the incoming keys
        n = min(self.guard_fanout, max(1, len(keys)))
        step = max(1, len(keys) // n)
        los = sorted({keys[i] for i in range(0, len(keys), step)})
        los[0] = b""  # first guard catches everything from the left
        self.install_guards(level, los)
        if self.backend is not None:
            self.backend.note_guards(level, los)

    def _compact_level0(self) -> None:
        """Merge all level-0 runs and partition the result into level-1 guards."""
        self.stats.compactions += 1
        runs = self.level0
        self.level0 = []
        if self.backend is not None:
            for run in runs:
                self.backend.edit_remove(0, None, run)
        merged = merge_runs(runs, drop_tombstones=False)
        if not merged:
            return
        self.stats.bytes_compacted += sum(len(k) + len(v) for k, v in merged)
        self._push_into_level(1, merged)

    def _push_into_level(self, level: int, entries: List[Tuple[bytes, bytes]]) -> None:
        keys = [k for k, _ in entries]
        self._guards_for(level, keys)
        los = self.guard_los[level]
        # entries are sorted: each guard takes the slice up to the next lo
        start = 0
        for gi, runs in enumerate(self.levels[level]):
            end = bisect_left(keys, los[gi + 1], start) if gi + 1 < len(los) else len(keys)
            if end == start:
                continue
            run = SSTable(entries[start:end])
            start = end
            runs.insert(0, run)
            if self.backend is not None:
                self.backend.edit_add(level, los[gi], run)
            if len(runs) > self.runs_per_guard:
                self._compact_guard(level, gi)

    def _compact_guard(self, level: int, gi: int) -> None:
        """Merge the runs of guard ``gi``; spill the result one level down (or
        rewrite in place at the bottom, dropping tombstones)."""
        self.stats.compactions += 1
        runs = self.levels[level][gi]
        lo = self.guard_los[level][gi]
        at_bottom = level >= self.max_levels - 1
        merged = merge_runs(runs, drop_tombstones=at_bottom)
        self.stats.bytes_compacted += sum(len(k) + len(v) for k, v in merged)
        if self.backend is not None:
            for run in runs:
                self.backend.edit_remove(level, lo, run)
        runs.clear()
        if not merged:
            return
        if at_bottom:
            run = SSTable(merged)
            runs.append(run)
            if self.backend is not None:
                self.backend.edit_add(level, lo, run)
        else:
            self._push_into_level(level + 1, merged)

    # --------------------------------------------------------------- read path
    def get(self, key: bytes) -> Optional[bytes]:
        stats = self.stats
        stats.gets += 1
        v = self.mem.get(key)
        if v is not None:
            return None if v == TOMBSTONE else v
        h = hash(key)
        probes = 0
        for level in range(self.max_levels):
            if level == 0:
                runs = self.level0
            else:
                los = self.guard_los[level]
                if not los:
                    continue
                gi = bisect_right(los, key) - 1
                runs = self.levels[level][gi if gi > 0 else 0]
            for run in runs:
                probes += 1
                # the run's key range and filter, inline: most probes end here
                if run.min_key <= key <= run.max_key and h in run._filter:
                    keys = run._keys
                    i = bisect_left(keys, key)
                    if i < len(keys) and keys[i] == key:
                        stats.runs_probed += probes
                        v = run._values[i]
                        return None if v == TOMBSTONE else v
        stats.runs_probed += probes
        return None

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def scan(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Ordered scan of live entries with key in [lo, hi)."""
        self.stats.scans += 1
        # gather candidate entries newest-first so shadowing is easy
        shadow: Dict[bytes, bytes] = {}
        sources: List[Iterator[Tuple[bytes, bytes]]] = [self.mem.scan(lo, hi)]
        sources.extend(r.scan(lo, hi) for r in self.level0 if r.overlaps(lo, hi))
        for level in range(1, self.max_levels):
            los = self.guard_los[level]
            # the guards whose [lo_i, lo_i+1) meets [lo, hi)
            first = max(0, bisect_right(los, lo) - 1)
            for runs in self.levels[level][first:bisect_left(los, hi)]:
                for run in runs:
                    if run.overlaps(lo, hi):
                        sources.append(run.scan(lo, hi))
        for src in sources:  # newest source first wins
            for k, v in src:
                if k not in shadow:
                    shadow[k] = v
        for k in sorted(shadow):
            if shadow[k] != TOMBSTONE:
                yield k, shadow[k]

    # -------------------------------------------------------------- lifecycle
    def sync(self) -> int:
        """Force the WAL group-commit batch durable (no-op without backend).

        Returns the number of records acknowledged by this call."""
        if self.backend is None:
            return 0
        return self.backend.sync()

    def close(self) -> None:
        """Clean shutdown: sync the WAL tail and release file handles.

        The memtable is *not* flushed — its contents live in the WAL and are
        replayed by the next ``open_store``, which keeps close cheap and keeps
        the recovery path exercised on every clean reopen."""
        if self.backend is None:
            return
        self.backend.close()

    def crash(self) -> None:
        """Simulate a process crash: unacknowledged (unsynced) writes vanish.

        The store object is unusable afterwards; reopen with ``open_store``."""
        if self.backend is None:
            return
        self.backend.crash()

    # ---------------------------------------------------------------- metrics
    def __len__(self) -> int:
        """Number of live keys (O(n) — debugging/tests only)."""
        return sum(1 for _ in self.scan(b"", b"\xff" * 64))

    def run_count(self) -> int:
        n = len(self.level0)
        for level in range(1, self.max_levels):
            for runs in self.levels[level]:
                n += len(runs)
        return n
