"""Durable backend: the persistence hooks an :class:`LSMStore` calls into.

The store itself stays oblivious to file formats.  When a ``DurableBackend``
is attached (``store.backend``), the write path logs every mutation to the
WAL before applying it, and the flush/compaction path mirrors every
structural change — a run created, a run superseded, guards installed — into
the MANIFEST.  With ``backend is None`` the store behaves exactly as the
in-memory seed did (golden-parity requirement).

A flush and the compactions it triggers form one commit.  ``edit_add``
gives each new run its file number and queues the manifest edit naming it;
the file itself is written at ``commit``, and only if the run is still live
then: a run the same flush's compaction superseded is never written (its
add and remove edits still reach the MANIFEST, which replays them to
nothing).  Crash-consistency ordering, enforced by ``commit``:

1. the files of the runs this commit makes live are written + fsynced
   *first*;
2. the MANIFEST edits referencing them are appended + fsynced;
3. only then is the WAL truncated and superseded SSTable files unlinked.

A crash before (1) leaves no file behind; one during (1) or between (1) and
(2) leaves orphan ``.sst`` files that recovery ignores; a crash between (2)
and (3) leaves a stale WAL tail whose replay is idempotent (replayed puts
re-shadow what the tables already hold).  At no point can the MANIFEST
reference bytes that are not durable.

Directory layout under ``data_dir``::

    MANIFEST          edit log (see durability.manifest)
    wal/wal-*.log     WAL segments (see durability.wal)
    sst/<n>.sst       persisted runs (see durability.sstable_io)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.durability.manifest import Manifest
from repro.durability.sstable_io import sstable_path, write_sstable
from repro.durability.wal import REC_DELETE, REC_PUT, WalWriter

__all__ = ["DurabilityOptions", "DurableBackend"]


@dataclass(frozen=True)
class DurabilityOptions:
    """Tunables for the on-disk format (not the latency model — that lives
    in :class:`repro.sim.durcost.DurabilityCostModel`)."""

    segment_bytes: int = 1 << 20
    group_commit_records: int = 32
    #: disable to speed up tests that do not crash mid-write
    use_fsync: bool = True


class DurableBackend:
    """WAL + MANIFEST + SSTable files behind one LSMStore."""

    def __init__(
        self,
        data_dir: str,
        manifest: Manifest,
        wal: WalWriter,
        options: DurabilityOptions,
    ):
        self.data_dir = data_dir
        self.manifest = manifest
        self.wal = wal
        self.options = options
        self.sst_dir = os.path.join(data_dir, "sst")
        os.makedirs(self.sst_dir, exist_ok=True)
        self._next_file = manifest.state.next_file_number
        #: runs added since the last commit, by file number: their files
        #: are written at commit
        self._unwritten: Dict[int, object] = {}
        self._pending_deletes: List[int] = []
        self._closed = False

    # ------------------------------------------------------------- write path
    def log_put(self, key: bytes, value: bytes) -> int:
        return self.wal.append(REC_PUT, key, value)

    def log_delete(self, key: bytes) -> int:
        return self.wal.append(REC_DELETE, key)

    def sync(self) -> int:
        """Force the WAL group-commit batch out (acks everything appended)."""
        return self.wal.sync()

    @property
    def closed(self) -> bool:
        """True once close()/crash() released the WAL (no more appends)."""
        return self.wal.closed

    @property
    def last_appended_lsn(self) -> int:
        return self.wal.last_appended_lsn

    # ---------------------------------------------------- structural mirroring
    def edit_add(self, level: int, guard_lo: Optional[bytes], run) -> None:
        """Queue a run's add edit, giving the run its file number; its file
        is written at :meth:`commit` if the run is still live then."""
        if run.file_number is None:
            run.file_number = self._next_file
            self._next_file += 1
            self._unwritten[run.file_number] = run
        self.manifest.log_add(level, guard_lo, run.file_number, run.size_bytes)

    def edit_remove(self, level: int, guard_lo: Optional[bytes], run) -> None:
        if run.file_number is None:
            return  # run never became live on disk
        self.manifest.log_remove(level, guard_lo, run.file_number)
        # a run added since the last commit has no file to unlink
        if self._unwritten.pop(run.file_number, None) is None:
            self._pending_deletes.append(run.file_number)
        run.file_number = None

    def note_guards(self, level: int, los: List[bytes]) -> None:
        self.manifest.log_guards(level, los)

    def _write_unwritten(self) -> None:
        """Write + fsync the file of every run added since the last commit
        and still live (ordering rule 1)."""
        for number, run in self._unwritten.items():
            write_sstable(
                sstable_path(self.sst_dir, number),
                list(run.items()),
                use_fsync=self.options.use_fsync,
            )
        self._unwritten = {}

    def commit(self, flush_lsn: int) -> None:
        """Write the new live runs' files, land the queued manifest edits,
        then retire the WAL prefix and the superseded SSTable files
        (ordering rules 1, 2 and 3)."""
        self._write_unwritten()
        if flush_lsn > 0:
            self.manifest.log_checkpoint(flush_lsn)
        self.manifest.commit()
        if flush_lsn > 0:
            self.wal.truncate_upto(flush_lsn)
        for number in self._pending_deletes:
            path = sstable_path(self.sst_dir, number)
            if os.path.exists(path):
                os.unlink(path)
        self._pending_deletes = []

    # -------------------------------------------------------------- lifecycle
    def crash(self) -> None:
        """Simulate a process crash: unsynced WAL batch and uncommitted
        manifest edits vanish, and so do the runs whose files were not yet
        written; files already on disk stay."""
        self.wal.crash()
        self.manifest.crash()
        self._unwritten = {}
        self._pending_deletes = []
        self._closed = True

    def close(self) -> None:
        """Clean shutdown: everything appended becomes durable."""
        if self._closed:
            return
        self.wal.close()
        self._write_unwritten()
        self.manifest.close()
        self._closed = True
