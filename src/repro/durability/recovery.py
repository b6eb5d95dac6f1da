"""Crash-consistent recovery: rebuild an LSMStore from its data directory.

Recovery is one read pass over the directory, then the writes only a real
open makes.  The read pass writes nothing:

1. replay the MANIFEST into a :class:`VersionState`, install the recorded
   guards, and reload every live SSTable file with full CRC validation —
   newest-first run order is reconstructed from the manifest's add order;
2. replay the WAL tail (records with ``lsn > wal_checkpoint_lsn``) straight
   into the memtable, bypassing the store's write path so recovery itself
   does not re-log or trigger flushes mid-rebuild.

Once the pass has accepted the directory, :func:`open_store` rewrites the
MANIFEST compacted, truncates any torn tail off the final WAL segment
(those bytes were never acknowledged) and attaches a fresh
:class:`WalWriter` continuing the LSN sequence in a new segment.  A
directory the pass refuses is left untouched.  :func:`inspect_data_dir`
(the CLI ``recover`` command) runs the same pass into a scratch store, so
it refuses exactly what recovery refuses.

The result holds exactly the acknowledged prefix of the pre-crash write
sequence.  Orphan ``.sst`` files — written but never committed to the
MANIFEST — are ignored.  Every validation failure surfaces as a typed
:class:`~repro.durability.errors.RecoveryError` subclass.

The :class:`RecoveryReport` records how much work the read pass did (WAL
bytes scanned, tables loaded); the simulation turns it into a modeled
restart warm-up via
:meth:`repro.sim.durcost.DurabilityCostModel.recovery_cost_ms`.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

from repro.durability.backend import DurabilityOptions, DurableBackend
from repro.durability.errors import ManifestError
from repro.durability.manifest import Manifest, VersionState
from repro.durability.sstable_io import read_sstable, sstable_path
from repro.durability.wal import REC_PUT, WalReplay, WalWriter, replay_wal, scan_segments
from repro.kvstore.lsm import LSMStore

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


def _load_tables(store, state: VersionState, sst_dir: str, report: RecoveryReport) -> None:
    """Install guards and reload live runs per the manifest's version state."""
    for level, los in sorted(state.guards.items()):
        if not 1 <= level < store.max_levels:
            raise ManifestError(
                f"guards recorded at level {level}, outside this store's "
                f"1..{store.max_levels - 1}"
            )
        store.install_guards(level, sorted(los))
    for (level, guard_lo), files in sorted(
        state.tables.items(), key=lambda kv: (kv[0][0], kv[0][1] or b"")
    ):
        if level == 0:
            target = store.level0
        else:
            los = store.guard_los[level] if 1 <= level < store.max_levels else []
            gi = bisect_left(los, guard_lo or b"")
            if gi == len(los) or los[gi] != guard_lo:
                raise ManifestError(
                    f"table add references unknown guard {guard_lo!r} at level {level}"
                )
            target = store.levels[level][gi]
        for number in files:  # newest first, preserved
            path = sstable_path(sst_dir, number)
            run = read_sstable(path)
            run.file_number = number
            target.append(run)
            report.tables_loaded += 1
            report.sst_bytes_loaded += os.path.getsize(path)


def _read(data_dir: str, store: LSMStore) -> Tuple[VersionState, WalReplay]:
    """Recovery's read pass: rebuild ``store`` from ``data_dir`` and set its
    ``last_recovery``.  Writes nothing; damage raises a typed
    :class:`~repro.durability.errors.RecoveryError`."""
    state = Manifest.read(data_dir)
    report = RecoveryReport(manifest_edits=state.edits_applied)
    _load_tables(store, state, os.path.join(data_dir, "sst"), report)
    replay = replay_wal(os.path.join(data_dir, "wal"), start_lsn=state.wal_checkpoint_lsn)
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
    store.last_recovery = report
    return state, replay


def open_store(
    data_dir: str,
    options: Optional[DurabilityOptions] = None,
    stats=None,
    sync_listener: Optional[Callable[[int], None]] = None,
    **lsm_kwargs,
) -> LSMStore:
    """Open (creating or recovering) a durable LSMStore rooted at ``data_dir``.

    A directory with no prior MANIFEST/WAL is initialised fresh; anything
    else goes through full recovery and bumps ``stats.recoveries``.  A
    directory recovery refuses is left untouched.  Extra keyword arguments
    configure the :class:`LSMStore` (``memtable_limit`` etc.) and must match
    what the directory was written with.
    """
    options = options or DurabilityOptions()
    store = LSMStore(**lsm_kwargs)
    if stats is not None:
        store.stats = stats
    state, replay = _read(data_dir, store)
    existed = replay.segments_scanned > 0 or Manifest.exists(data_dir)

    # the directory is accepted: the writes only a real open makes
    os.makedirs(data_dir, exist_ok=True)
    manifest = Manifest.open(data_dir, state, use_fsync=options.use_fsync)
    if replay.torn_tail and replay.final_path is not None:
        # drop the never-acked bytes so they cannot later sit inside a
        # sealed segment and read as corruption
        with open(replay.final_path, "r+b") as f:
            f.truncate(replay.final_valid_bytes)
        if replay.final_valid_bytes == 0:
            os.unlink(replay.final_path)
    wal = WalWriter(
        os.path.join(data_dir, "wal"),
        segment_bytes=options.segment_bytes,
        group_commit_records=options.group_commit_records,
        use_fsync=options.use_fsync,
        start_lsn=max(replay.last_lsn, state.wal_checkpoint_lsn) + 1,
        start_seq=replay.last_seq + 1,
        stats=store.stats,
        sync_listener=sync_listener,
    )
    store.backend = DurableBackend(data_dir, manifest, wal, options)
    if existed:
        store.stats.recoveries += 1
    if len(store.mem) >= store.memtable_limit:
        store._flush()
    return store


def inspect_data_dir(data_dir: str) -> Tuple[RecoveryReport, Dict[str, object]]:
    """Recovery's read pass over ``data_dir`` into a scratch store (the CLI
    ``recover`` command): the pass's :class:`RecoveryReport` and a summary.

    Writes nothing, and raises the typed :class:`RecoveryError` that
    :func:`open_store` raises on the same directory.  The scratch store has
    the default shape, whose six levels are an MDS store's.
    """
    if not Manifest.exists(data_dir) and not scan_segments(os.path.join(data_dir, "wal")):
        raise ManifestError(f"{data_dir}: no MANIFEST or WAL segments found")
    store = LSMStore()
    state, replay = _read(data_dir, store)
    report = store.last_recovery
    return report, {
        "data_dir": data_dir,
        "manifest_edits": report.manifest_edits,
        "wal_checkpoint_lsn": state.wal_checkpoint_lsn,
        "live_tables": report.tables_loaded,
        "sst_bytes": report.sst_bytes_loaded,
        "guard_levels": sorted(state.guards),
        "wal_segments": report.wal_segments_scanned,
        "wal_bytes": report.wal_bytes_scanned,
        "wal_records_pending": report.wal_records_replayed,
        "wal_last_lsn": replay.last_lsn,
        "torn_tail": report.torn_tail,
    }
