"""Policy interface and Lunule's rebalance trigger.

The epoch-driver (analytic pipeline or DES) calls ``rebalance`` with an
:class:`EpochContext` after every epoch; the policy returns migration
decisions for the Migrator to apply.  Hash strategies partition once in
``setup`` and never migrate.

:class:`LunuleTrigger` reproduces the load-monitoring/trigger mechanism the
paper reuses from Lunule for both ML-tree and Origami (§4.2, §5.1): an epoch
triggers rebalancing only when the cluster's imbalance factor exceeds a
threshold *and* at least one MDS is meaningfully loaded — balancing an idle
cluster is churn for nothing.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.imbalance import imbalance_factor
from repro.cluster.migration import MigrationDecision
from repro.cluster.partition import PartitionMap
from repro.costmodel.params import CostParams
from repro.namespace.stats import EpochSnapshot
from repro.namespace.tree import NamespaceTree
from repro.sim.rng import RngStream
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type-only: avoids a package-import cycle with repro.workloads
    from repro.workloads.trace import Trace

__all__ = ["EpochContext", "BalancePolicy", "LunuleTrigger", "hottest_source", "plan_evacuations"]


@dataclass
class EpochContext:
    """Everything a policy may consult at an epoch boundary."""

    tree: NamespaceTree
    pmap: PartitionMap
    epoch: int
    #: Data Collector dump for the epoch that just ended
    snapshot: EpochSnapshot
    #: per-MDS load observed in the ended epoch (RCT mass or busy time, ms)
    mds_load: np.ndarray
    params: CostParams
    rng: RngStream
    #: the next window of requests — ONLY the oracle may read this
    oracle_window: Optional["Trace"] = None
    #: the operations replayed during the epoch that just ended (hindsight
    #: material: online learners label it against the current partition,
    #: which is exactly the partition those ops ran under)
    completed_window: Optional["Trace"] = None
    #: the run's observability bundle; policies post their scored candidate
    #: sets to ``obs.audit`` (``note_candidates``) so the decision audit can
    #: show what was *considered*, not just what moved.  None in offline
    #: pipelines that construct contexts by hand.
    obs: Optional[object] = None
    #: the run's :class:`~repro.fs.elastic.liveness.MDSLiveness` view: crash
    #: flags plus, with an elastic pool, warming/draining/gone members.  It
    #: is read *live*, so a drain the pool controller starts mid-epoch is
    #: visible to evacuation planning within the same boundary.  None (a
    #: context built by hand) means every MDS is up.
    liveness: Optional[object] = None

    def note_candidates(self, roots, predicted) -> None:
        """Post the candidate set this epoch's policy scored to the audit
        log (no-op when auditing is off)."""
        audit = getattr(self.obs, "audit", None)
        if audit is not None:
            audit.note_candidates(self.epoch, roots, predicted)

    def _mask(self, view: str) -> Optional[np.ndarray]:
        """``liveness.<view>()``, or None when it holds for every MDS."""
        if self.liveness is None:
            return None
        mask = getattr(self.liveness, view)()
        return None if bool(mask.all()) else mask

    def live_mds(self) -> Optional[np.ndarray]:
        """Indices of serving MDSs, or None when every MDS serves."""
        mask = self._mask("serving_mask")
        return None if mask is None else np.nonzero(mask)[0]

    def dst_mask(self) -> Optional[np.ndarray]:
        """Boolean mask of MDSs eligible as migration *destinations*.

        Stricter than :meth:`live_mds`: with an elastic pool, draining and
        gone members are excluded even though a draining MDS still serves.
        None means "everyone is eligible" (the common healthy case).
        """
        return self._mask("dst_mask")

    def dst_eligible(self) -> Optional[np.ndarray]:
        """Index form of :meth:`dst_mask` (None when everyone is eligible)."""
        mask = self.dst_mask()
        return None if mask is None else np.nonzero(mask)[0]

    def pool_mask(self) -> Optional[np.ndarray]:
        """Boolean mask of pool *members* (non-gone), or None when full.

        Crashed members stay included — involuntary absence is the trigger's
        business as before; only parked/departed capacity is excluded so an
        elastic pool's idle slots don't read as imbalance.
        """
        return self._mask("active_mask")


class BalancePolicy(abc.ABC):
    """A metadata balancing strategy."""

    #: short name used in reports (matches the paper's figure legends)
    name: str = "base"

    def setup(self, tree: NamespaceTree, n_mds: int, rng: RngStream) -> PartitionMap:
        """Build the initial partition; default: everything on MDS 0 with
        subtree placement (OrigamiFS's initial state, §4.2)."""
        return PartitionMap(tree, n_mds=n_mds, initial_owner=0)

    @abc.abstractmethod
    def rebalance(self, ctx: EpochContext) -> List[MigrationDecision]:
        """Migration decisions for this epoch (may be empty)."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass
class LunuleTrigger:
    """Imbalance-factor trigger with a minimum-load guard."""

    #: rebalance when the imbalance factor exceeds this
    threshold: float = 0.10
    #: ...and the busiest MDS carried at least this much load (ms per epoch)
    min_load: float = 1.0

    def should_rebalance(
        self, mds_load: np.ndarray, active: Optional[np.ndarray] = None
    ) -> bool:
        """``active`` (optional boolean mask) restricts the imbalance
        computation to pool members — elastic runs pass
        ``EpochContext.pool_mask()`` so parked capacity's zero load does not
        read as imbalance.  None (the default) keeps the historical
        whole-array behaviour."""
        mds_load = np.asarray(mds_load, dtype=np.float64)
        if active is not None:
            mds_load = mds_load[np.asarray(active, dtype=bool)]
        if mds_load.size <= 1 or mds_load.max() < self.min_load:
            return False
        return imbalance_factor(mds_load) > self.threshold


def _evacuation_masks(ctx: EpochContext):
    """``(needs_evacuation per-MDS mask, destination index array)``.

    The masks come from the *live* liveness view: evacuate what cannot keep
    authority (crashed, gone, or draining) onto what may receive it (up and
    not leaving).  With no elastic pool this is evacuating the crashed MDSs
    onto the up ones.  Returns ``(None, None)`` when nothing needs
    evacuating or nowhere can receive.
    """
    lv = ctx.liveness
    if lv is None:
        return None, None
    evac = ~lv.serving_mask() | lv.draining_mask()
    dst = np.nonzero(lv.dst_mask())[0]
    if not evac.any() or dst.size == 0:
        return None, None
    return evac, dst


def plan_evacuations(ctx: EpochContext) -> List[MigrationDecision]:
    """Evacuate subtrees owned by departed/departing MDSs onto eligible ones.

    Degraded-mode first aid, shared by every subtree policy: when
    ``ctx.liveness`` marks MDSs crashed — or an elastic pool's members
    draining or gone — their metadata authority must move or clients will
    burn their whole retry budget against a corpse.  Maximal single-owner
    subtrees rooted in evacuating territory become ordinary
    :class:`MigrationDecision`\\ s (so the Migrator charges the destination's
    ingest cost and the audit sees them); evacuating directories trapped
    inside mixed-owner subtrees — where a subtree move would steal live
    interiors — are repinned directly on the partition map, modelling
    authority recovery from the journal rather than a data transfer.

    Destinations spread across eligible MDSs by estimated load (observed
    busy-ms plus the op-load of subtrees already assigned this round);
    draining members are never destinations.
    """
    evac, live = _evacuation_masks(ctx)
    if evac is None:
        return []
    pmap, tree = ctx.pmap, ctx.tree
    owner = pmap.owner_array()
    cap = owner.shape[0]
    dead_owned = np.zeros(cap, dtype=bool)
    owned = owner >= 0
    dead_owned[owned] = evac[owner[owned]]
    dead_owned &= tree.dir_mask()[:cap]
    if not dead_owned.any():
        return []

    loads = np.asarray(ctx.mds_load, dtype=np.float64)
    est = loads.copy()
    total_ops = float(ctx.snapshot.total_ops) or 1.0
    ms_per_op = float(loads.sum()) / total_ops
    sub = ctx.snapshot.subtree_ops(tree)
    idx = tree.dfs_index()
    uniform = pmap.uniform_subtree_mask()
    covered = np.zeros(cap, dtype=bool)
    decisions: List[MigrationDecision] = []
    for d in idx.order:  # DFS order: maximal subtrees claim their interiors
        d = int(d)
        if not dead_owned[d] or covered[d] or not uniform[d]:
            continue
        dst = int(live[np.argmin(est[live])])
        decisions.append(MigrationDecision(d, int(owner[d]), dst))
        covered[idx.dirs_in_subtree(d)] = True
        est[dst] += float(sub[d]) * ms_per_op + 1e-9
    for d in np.nonzero(dead_owned & ~covered)[0]:
        dst = int(live[np.argmin(est[live])])
        pmap.assign_dir(int(d), dst)
        est[dst] += float(sub[int(d)]) * ms_per_op + 1e-9
    return decisions


def hottest_source(ctx: EpochContext) -> Optional[int]:
    """The most-loaded MDS that may export, or None when none may.

    Dead, draining and parked MDSs (``ctx.dst_mask()``) are neither sources
    nor destinations: their authority is :func:`plan_evacuations`' business.
    """
    loads = np.asarray(ctx.mds_load, dtype=np.float64)
    src_ok = ctx.dst_mask()
    if src_ok is not None:
        loads = np.where(src_ok, loads, -np.inf)
    src = int(np.argmax(loads))
    return src if np.isfinite(loads[src]) else None
