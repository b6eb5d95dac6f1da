"""Crash-consistent recovery: rebuild an LSMStore from its data directory.

Recovery sequence (``open_store``):

1. replay the MANIFEST into a :class:`VersionState` (compacting it on the
   way), install the recorded guards, and reload every live SSTable file
   with full CRC validation — newest-first run order is reconstructed from
   the manifest's add order;
2. replay the WAL tail (records with ``lsn > wal_checkpoint_lsn``) straight
   into the memtable, bypassing the store's write path so recovery itself
   does not re-log or trigger flushes mid-rebuild;
3. truncate any torn tail off the final WAL segment (those bytes were never
   acknowledged) and attach a fresh :class:`WalWriter` continuing the LSN
   sequence in a new segment.

The result holds exactly the acknowledged prefix of the pre-crash write
sequence.  Orphan ``.sst`` files — written but never committed to the
MANIFEST — are ignored.  Every validation failure surfaces as a typed
:class:`~repro.durability.errors.RecoveryError` subclass.

The :class:`RecoveryReport` records how much work the rebuild did (WAL bytes
scanned, tables loaded); the simulation turns it into a modeled restart
warm-up via :meth:`repro.sim.durcost.DurabilityCostModel.recovery_cost_ms`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.durability.backend import DurabilityOptions, DurableBackend
from repro.durability.errors import ManifestError
from repro.durability.manifest import Manifest
from repro.durability.sstable_io import read_sstable, sstable_path
from repro.durability.wal import (
    REC_DELETE,
    REC_PUT,
    WalWriter,
    replay_wal,
    scan_segments,
)

__all__ = ["RecoveryReport", "open_store", "inspect_data_dir"]


@dataclass
class RecoveryReport:
    """What one recovery pass actually did (drives the warm-up cost model)."""

    wal_records_replayed: int = 0
    wal_bytes_scanned: int = 0
    wal_segments_scanned: int = 0
    tables_loaded: int = 0
    sst_bytes_loaded: int = 0
    manifest_edits: int = 0
    torn_tail: bool = False

    def as_dict(self) -> Dict[str, float]:
        return {
            "wal_records_replayed": float(self.wal_records_replayed),
            "wal_bytes_scanned": float(self.wal_bytes_scanned),
            "wal_segments_scanned": float(self.wal_segments_scanned),
            "tables_loaded": float(self.tables_loaded),
            "sst_bytes_loaded": float(self.sst_bytes_loaded),
            "manifest_edits": float(self.manifest_edits),
            "torn_tail": float(self.torn_tail),
        }


def _load_tables(store, manifest: Manifest, report: RecoveryReport) -> None:
    """Install guards and reload live runs per the manifest's version state."""
    state = manifest.state
    for level, los in sorted(state.guards.items()):
        if not 1 <= level < store.max_levels:
            raise ManifestError(
                f"guards recorded at level {level}, outside this store's "
                f"1..{store.max_levels - 1}"
            )
        store.install_guards(level, sorted(los))
    guard_by_lo = {
        (level, g.lo): g for level in range(1, store.max_levels) for g in store.levels[level]
    }
    for (level, guard_lo), files in sorted(
        state.tables.items(), key=lambda kv: (kv[0][0], kv[0][1] or b"")
    ):
        if level == 0:
            target = store.level0
        else:
            guard = guard_by_lo.get((level, guard_lo))
            if guard is None:
                raise ManifestError(
                    f"table add references unknown guard {guard_lo!r} at level {level}"
                )
            target = guard.runs
        for number in files:  # newest first, preserved
            path = sstable_path(os.path.join(store.backend_dir, "sst"), number)
            run = read_sstable(path)
            run.file_number = number
            target.append(run)
            report.tables_loaded += 1
            report.sst_bytes_loaded += os.path.getsize(path)


def open_store(
    data_dir: str,
    options: Optional[DurabilityOptions] = None,
    stats=None,
    sync_listener: Optional[Callable[[int], None]] = None,
    **lsm_kwargs,
):
    """Open (creating or recovering) a durable LSMStore rooted at ``data_dir``.

    A directory with no prior MANIFEST/WAL is initialised fresh; anything
    else goes through full recovery and bumps ``stats.recoveries``.  Extra
    keyword arguments configure the :class:`LSMStore` (``memtable_limit``
    etc.) and must match what the directory was written with.
    """
    from repro.kvstore.lsm import LSMStore

    options = options or DurabilityOptions()
    os.makedirs(data_dir, exist_ok=True)
    wal_dir = os.path.join(data_dir, "wal")
    existed = Manifest.exists(data_dir) or bool(scan_segments(wal_dir))

    store = LSMStore(**lsm_kwargs)
    if stats is not None:
        store.stats = stats
    store.backend_dir = data_dir
    report = RecoveryReport()

    manifest = Manifest.open(data_dir, use_fsync=options.use_fsync)
    report.manifest_edits = manifest.state.edits_applied
    _load_tables(store, manifest, report)

    replay = replay_wal(wal_dir, start_lsn=manifest.state.wal_checkpoint_lsn)
    report.wal_records_replayed = len(replay.records)
    report.wal_bytes_scanned = replay.bytes_scanned
    report.wal_segments_scanned = replay.segments_scanned
    report.torn_tail = replay.torn_tail
    for rec in replay.records:
        # straight into the memtable: no re-logging, no mid-recovery flush
        if rec.rec_type == REC_PUT:
            store.mem.put(rec.key, rec.value)
        else:
            store.mem.delete(rec.key)
    if replay.torn_tail and replay.final_path is not None:
        # drop the never-acked bytes so they cannot later sit inside a
        # sealed segment and read as corruption
        with open(replay.final_path, "r+b") as f:
            f.truncate(replay.final_valid_bytes)
        if replay.final_valid_bytes == 0:
            os.unlink(replay.final_path)

    next_lsn = max(replay.last_lsn, manifest.state.wal_checkpoint_lsn) + 1
    wal = WalWriter(
        wal_dir,
        segment_bytes=options.segment_bytes,
        group_commit_records=options.group_commit_records,
        use_fsync=options.use_fsync,
        start_lsn=next_lsn,
        start_seq=replay.last_seq + 1,
        stats=store.stats,
        sync_listener=sync_listener,
    )
    store.backend = DurableBackend(data_dir, manifest, wal, options)
    store.last_recovery = report
    if existed:
        store.stats.recoveries += 1
    if len(store.mem) >= store.memtable_limit:
        store._flush()
    return store


def inspect_data_dir(data_dir: str) -> Dict[str, object]:
    """Read-only summary of a data directory (the CLI ``recover`` command).

    Raises typed :class:`RecoveryError` subclasses on damage; never mutates.
    """
    wal_dir = os.path.join(data_dir, "wal")
    if not Manifest.exists(data_dir) and not scan_segments(wal_dir):
        raise ManifestError(f"{data_dir}: no MANIFEST or WAL segments found")
    # replay without the compacting rewrite Manifest.open performs
    from repro.durability.manifest import _replay_lines

    manifest_path = os.path.join(data_dir, "MANIFEST")
    vstate = _replay_lines(manifest_path) if os.path.exists(manifest_path) else None
    replay = replay_wal(wal_dir, start_lsn=vstate.wal_checkpoint_lsn if vstate else 0)
    live = vstate.live_files() if vstate else []
    sst_bytes = 0
    for number in live:
        path = sstable_path(os.path.join(data_dir, "sst"), number)
        if os.path.exists(path):
            sst_bytes += os.path.getsize(path)
    return {
        "data_dir": data_dir,
        "manifest_edits": vstate.edits_applied if vstate else 0,
        "wal_checkpoint_lsn": vstate.wal_checkpoint_lsn if vstate else 0,
        "live_tables": len(live),
        "sst_bytes": sst_bytes,
        "guard_levels": sorted(vstate.guards) if vstate else [],
        "wal_segments": replay.segments_scanned,
        "wal_bytes": replay.bytes_scanned,
        "wal_records_pending": len(replay.records),
        "wal_last_lsn": replay.last_lsn,
        "torn_tail": replay.torn_tail,
    }
