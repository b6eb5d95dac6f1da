"""Durability cost model: WAL/fsync/recovery work as modeled latency terms.

The durability layer (``repro.durability``) executes synchronously for
correctness; this model converts the *work it reports* — bytes appended,
group commits fsynced, bytes replayed at recovery — into virtual
milliseconds the DES charges, the same separation the cost model uses for
every other latency term.  Defaults are NVMe-class: a flush costs ~100 µs,
log replay streams at ~200 MB/s of virtual time.

Two consumers:

* the write path: each durable ``kv_put``/``kv_delete`` accrues
  ``append_cost_ms`` plus ``fsync_ms`` per group commit it triggered, and
  the client drains the accrued cost as extra MDS service time;
* the restart path: a crashed MDS's warm-up window is
  ``recovery_cost_ms(report)`` — *derived* from the recovery work actually
  performed (WAL bytes scanned + SSTables reloaded + manifest edits), not
  the fixed ``warmup_ms`` constant of the pre-durability fault model.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Dict

__all__ = ["DurabilityCostModel"]

_MB = 1024.0 * 1024.0


@dataclass(frozen=True)
class DurabilityCostModel:
    """Virtual-time prices for durability work (all outputs in ms)."""

    #: CPU cost of encoding + buffering one KiB into the WAL batch
    wal_append_us_per_kb: float = 1.0
    #: one group-commit device flush
    fsync_ms: float = 0.1
    #: streaming WAL replay (read + CRC + memtable insert)
    replay_ms_per_mb: float = 5.0
    #: reloading one MiB of live SSTables (read + CRC + index build)
    sstable_load_ms_per_mb: float = 2.0
    #: applying one MANIFEST edit during recovery
    manifest_edit_ms: float = 0.001
    #: process restart + directory open overhead, paid once per recovery
    restart_fixed_ms: float = 0.5

    def __post_init__(self):
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ValueError(f"{f.name} must be non-negative")

    # ------------------------------------------------------------ write path
    def append_cost_ms(self, nbytes: int) -> float:
        """Encode/buffer cost for ``nbytes`` of WAL records."""
        return nbytes / 1024.0 * self.wal_append_us_per_kb / 1000.0

    def sync_cost_ms(self, n_syncs: int = 1) -> float:
        return n_syncs * self.fsync_ms

    # ---------------------------------------------------------- restart path
    def recovery_cost_ms(self, report) -> float:
        """Warm-up time implied by one recovery's work.

        ``report`` is the :class:`repro.durability.recovery.RecoveryReport`
        of one recovery's read pass.
        """
        return (
            self.restart_fixed_ms
            + report.wal_bytes_scanned / _MB * self.replay_ms_per_mb
            + report.sst_bytes_loaded / _MB * self.sstable_load_ms_per_mb
            + report.manifest_edits * self.manifest_edit_ms
        )

    def as_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}
