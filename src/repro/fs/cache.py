"""Client metadata caches: the paper's near-root design and a lease cache.

OrigamiFS clients cache metadata entries whose depth is below a configured
threshold (§4.2).  Because near-root metadata is a sliver of the namespace
(<1%, per InfiniFS) yet sits on every path, this one cache removes most
resolution RPCs and neutralises the near-root hotspot — without lease
machinery: near-root entries are effectively read-only during a run.

The paper *claims* the alternative — caching everything under leases —
carries "significant consistency overhead associated with cache
synchronization or lease management" but never measures it.
:class:`LeaseCache` implements that alternative so the claim becomes an
ablation (`benchmarks/test_ablations.py::test_ablation_cache_design`):
every resolved directory is cached under a TTL lease; namespace mutations
into a leased directory must recall the lease first, charging the owning
MDS a synchronisation cost and invalidating the entry.
"""

from __future__ import annotations

from typing import Dict

from repro.namespace.tree import NamespaceTree

__all__ = ["NearRootCache", "LeaseCache"]


class NearRootCache:
    """Depth-thresholded client cache with hit/miss accounting."""

    def __init__(self, tree: NamespaceTree, depth_threshold: int = 0):
        if depth_threshold < 0:
            raise ValueError("depth_threshold must be non-negative")
        self.tree = tree
        self.depth_threshold = depth_threshold
        self.hits = 0
        self.misses = 0
        #: near-root entries are void until this virtual time (an MDS crash
        #: invalidates them: a restarted server cannot vouch for entries it
        #: handed out before dying)
        self.invalid_until = 0.0

    @property
    def enabled(self) -> bool:
        return self.depth_threshold > 0

    def covers(self, dir_ino: int, now: float = 0.0) -> bool:
        """Would this directory's entry be served from the client cache?"""
        if not self.enabled or now < self.invalid_until:
            self.misses += 1
            return False
        if self.tree.depth(dir_ino) < self.depth_threshold:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def grant(self, dir_ino: int, now: float) -> None:
        """No-op: near-root coverage is structural, not per-fetch."""

    def recall_if_leased(self, dir_ino: int, now: float) -> float:
        """No-op: near-root entries are never leased (read-only by design)."""
        return 0.0

    def on_mds_crash(self, now: float, until: float) -> None:
        """Void near-root coverage until the crashed MDS is back and warm."""
        self.invalid_until = max(self.invalid_until, until)

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> tuple:
        """Cumulative ``(hits, misses)`` — the timeline's delta source."""
        return (self.hits, self.misses)

    def stats_dict(self) -> Dict[str, float]:
        """Counters for the metrics registry / run snapshot."""
        return {
            "hits_total": float(self.hits),
            "misses_total": float(self.misses),
            "hit_rate": self.hit_rate,
        }

    def state(self) -> Dict[str, float]:
        """Counters and the crash-invalidation horizon, JSON-ready."""
        return {"hits": self.hits, "misses": self.misses, "invalid_until": self.invalid_until}

    def restore(self, state: Dict[str, float]) -> None:
        """Continue from a :meth:`state` snapshot."""
        self.hits = int(state.get("hits", 0))
        self.misses = int(state.get("misses", 0))
        self.invalid_until = float(state.get("invalid_until", 0.0))


class LeaseCache:
    """Full metadata cache under TTL leases (the design the paper avoids).

    Semantics (aggregated over the client population, which shares one
    coherent cache in the DES):

    * a read resolution of directory ``d`` is a hit while ``d`` holds a live
      lease; otherwise the owner is contacted and a lease is granted;
    * a namespace mutation whose owning directory holds a live lease must
      *recall* it first: the owning MDS pays ``recall_cost_ms`` of
      synchronisation work and the entry is invalidated (the next reader
      re-fetches and re-leases).

    Counters expose the consistency traffic so the ablation can report it.
    """

    def __init__(self, tree: NamespaceTree, ttl_ms: float = 50.0, recall_cost_ms: float = 0.05):
        if ttl_ms <= 0:
            raise ValueError("ttl_ms must be positive")
        if recall_cost_ms < 0:
            raise ValueError("recall_cost_ms must be non-negative")
        self.tree = tree
        self.ttl_ms = ttl_ms
        self.recall_cost_ms = recall_cost_ms
        self._expiry: Dict[int, float] = {}
        self.hits = 0
        self.misses = 0
        self.grants = 0
        self.recalls = 0

    @property
    def enabled(self) -> bool:
        return True

    def covers(self, dir_ino: int, now: float = 0.0) -> bool:
        """Read-path check: is ``dir_ino`` leased right now? Counts hit/miss."""
        exp = self._expiry.get(dir_ino)
        if exp is not None and exp > now:
            self.hits += 1
            return True
        self.misses += 1
        return False

    def grant(self, dir_ino: int, now: float) -> None:
        """Lease ``dir_ino`` for ``ttl_ms`` (after a miss fetched it)."""
        self._expiry[dir_ino] = now + self.ttl_ms
        self.grants += 1

    def recall_if_leased(self, dir_ino: int, now: float) -> float:
        """Mutation-path check: returns the synchronisation cost to charge
        the owning MDS (0 when no live lease exists)."""
        exp = self._expiry.pop(dir_ino, None)
        if exp is not None and exp > now:
            self.recalls += 1
            return self.recall_cost_ms
        return 0.0

    def on_mds_crash(self, now: float, until: float) -> None:
        """Drop every live lease: the dead MDS can no longer honour recalls."""
        self._expiry.clear()

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def counters(self) -> tuple:
        """Cumulative ``(hits, misses)`` — the timeline's delta source."""
        return (self.hits, self.misses)

    def stats_dict(self) -> Dict[str, float]:
        """Counters for the metrics registry / run snapshot (incl. leases)."""
        return {
            "hits_total": float(self.hits),
            "misses_total": float(self.misses),
            "hit_rate": self.hit_rate,
            "lease_grants_total": float(self.grants),
            "lease_recalls_total": float(self.recalls),
        }

    def state(self) -> Dict:
        """Counters and every lease's expiry, JSON-ready."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "expiry": {str(ino): exp for ino, exp in self._expiry.items()},
            "grants": self.grants,
            "recalls": self.recalls,
        }

    def restore(self, state: Dict) -> None:
        """Continue from a :meth:`state` snapshot."""
        self.hits = int(state.get("hits", 0))
        self.misses = int(state.get("misses", 0))
        self._expiry = {int(k): float(v) for k, v in state.get("expiry", {}).items()}
        self.grants = int(state.get("grants", 0))
        self.recalls = int(state.get("recalls", 0))
