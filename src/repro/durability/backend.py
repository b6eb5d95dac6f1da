"""Durable backend: the persistence hooks an :class:`LSMStore` calls into.

The store itself stays oblivious to file formats.  When a ``DurableBackend``
is attached (``store.backend``), the write path logs every mutation to the
WAL before applying it, and the flush/compaction path mirrors every
structural change — a run created, a run superseded, guards installed — into
the MANIFEST.  With ``backend is None`` the store behaves exactly as the
in-memory seed did (golden-parity requirement).

Crash-consistency ordering, enforced here:

1. ``persist_run`` writes + fsyncs the SSTable file *first*;
2. ``commit`` appends + fsyncs the MANIFEST edits referencing it;
3. only then is the WAL truncated and superseded SSTable files unlinked.

A crash between (1) and (2) leaves an orphan ``.sst`` file that recovery
ignores; a crash between (2) and (3) leaves a stale WAL tail whose replay is
idempotent (replayed puts re-shadow what the tables already hold).  At no
point can the MANIFEST reference bytes that are not durable.

Directory layout under ``data_dir``::

    MANIFEST          edit log (see durability.manifest)
    wal/wal-*.log     WAL segments (see durability.wal)
    sst/<n>.sst       persisted runs (see durability.sstable_io)
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import List, Optional

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
    def persist_run(self, run) -> int:
        """Write a run's entries to a new SSTable file; returns file number.

        Tags the run with its ``file_number`` so later ``edit_remove`` calls
        can name it.  The file is fsynced before this returns (ordering rule
        1), but is not live until :meth:`commit` lands its manifest edit.
        """
        number = self._next_file
        self._next_file += 1
        write_sstable(
            sstable_path(self.sst_dir, number),
            list(run.items()),
            use_fsync=self.options.use_fsync,
        )
        run.file_number = number
        return number

    def edit_add(self, level: int, guard_lo: Optional[bytes], run) -> None:
        if run.file_number is None:
            self.persist_run(run)
        self.manifest.log_add(level, guard_lo, run.file_number, run.size_bytes)

    def edit_remove(self, level: int, guard_lo: Optional[bytes], run) -> None:
        if run.file_number is None:
            return  # run never became live on disk (created and merged pre-commit)
        self.manifest.log_remove(level, guard_lo, run.file_number)
        self._pending_deletes.append(run.file_number)
        run.file_number = None

    def note_guards(self, level: int, los: List[bytes]) -> None:
        self.manifest.log_guards(level, los)

    def commit(self, flush_lsn: int) -> None:
        """Land the queued manifest edits, then retire the WAL prefix and the
        superseded SSTable files (ordering rules 2 and 3)."""
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
        manifest edits vanish; files already on disk stay."""
        self.wal.crash()
        self.manifest.crash()
        self._pending_deletes = []
        self._closed = True

    def close(self) -> None:
        """Clean shutdown: everything appended becomes durable."""
        if self._closed:
            return
        self.wal.close()
        self.manifest.close()
        self._closed = True
