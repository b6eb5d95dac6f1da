"""Migrator: applies external migration decisions to the live cluster (§4.1).

A migration (1) repins the subtree in the partition map, (2) moves the KV
records between the two MDS stores when stores are enabled, and (3) charges
both MDSs migration busy time proportional to the metadata moved — the
source packs and sends, the destination unpacks and indexes.  That busy time
is the "migration is not free" cost that makes over-aggressive balancing
(ML-tree's failure mode, §5.2) visible in the simulation.
"""

from __future__ import annotations

from typing import Generator, List

from repro.cluster.migration import MigrationDecision, MigrationLog
from repro.fs.faults.errors import FaultError

__all__ = ["Migrator"]


class Migrator:
    """Applies decisions produced by the plugged-in balancing policy."""

    def __init__(self, fs, cost_per_inode_ms: float = 0.002):
        if cost_per_inode_ms < 0:
            raise ValueError("cost_per_inode_ms must be non-negative")
        self.fs = fs
        self.cost_per_inode_ms = cost_per_inode_ms
        self.log = MigrationLog()
        # live, unlike the applied counts finalize publishes from the log:
        # its twin fs.stale_decisions is checkpointed, so it would count
        # across a resume while the registry counts one run segment
        self._m_stale = fs.obs.registry.counter(
            "migration_stale_total", "decisions dropped as stale"
        )

    def apply(self, decisions: List[MigrationDecision], epoch: int) -> Generator:
        """Apply a batch of decisions; yields while charging migration time."""
        fs = self.fs
        for d in decisions:
            try:
                d.validate(fs.pmap)
            except ValueError:
                # the subtree moved (or vanished) since the policy looked;
                # stale decisions are dropped, as in any async pipeline
                fs.stale_decisions += 1
                self._m_stale.inc()
                continue
            if not fs.liveness.can_receive(d.dst):
                # the destination crashed — or started draining out of an
                # elastic pool — between planning and apply: the export
                # cannot land, so authority stays where it is
                fs.stale_decisions += 1
                self._m_stale.inc()
                continue
            if fs.use_kvstore:
                self._move_records(d)
            rec = self.log.apply(fs.pmap, d, epoch=epoch)
            fs.obs.timeline.record_migration(d.src, d.dst, rec.inodes_moved)
            cost = rec.inodes_moved * self.cost_per_inode_ms
            if cost > 0:
                # source packs, destination ingests — both are busy.  A dead
                # source cannot pack: its subtrees are *evacuated* from the
                # surviving replica of the partition map, so only the
                # destination's ingest cost is charged.  A crash edge landing
                # mid-charge forfeits the remaining pack/ingest time: the
                # repin above is already authoritative, journal replay covers
                # the rest on restart.
                for mds in (d.src, d.dst):
                    if not fs.servers[mds].up:
                        continue
                    try:
                        yield from fs.servers[mds].service(cost)
                    except FaultError:
                        pass

    def _move_records(self, d: MigrationDecision) -> None:
        """Move every directory's records from its *current* owner to the dst.

        Scanning per-directory (rather than only the decision's src store)
        keeps the stores exact even when a policy migrates a subtree whose
        interior was previously re-pinned elsewhere.
        """
        fs = self.fs
        dst_store = fs.servers[d.dst].store
        if dst_store is None:
            return
        tree = fs.tree
        idx = tree.dfs_index()
        owner_arr = fs.pmap.owner_array()
        for dir_ino in idx.dirs_in_subtree(d.subtree_root):
            dir_ino = int(dir_ino)
            cur = int(owner_arr[dir_ino])
            if cur < 0 or cur == d.dst:
                continue
            src_store = fs.servers[cur].store
            if src_store is None:
                continue
            lo = b"%020d/" % dir_ino
            hi = b"%020d0" % dir_ino  # '0' sorts just after '/'
            for k, v in list(src_store.scan(lo, hi)):
                dst_store.put(k, v)
                src_store.delete(k)
