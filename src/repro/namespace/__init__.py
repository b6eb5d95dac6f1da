"""Hierarchical file-system namespace substrate.

The namespace is the directory tree every other layer partitions, migrates,
and charges costs against.  Directories are the unit of load balancing (per
the paper, file-level metadata is never migrated independently); files are
still materialised as inodes so traces and the KV store exercise realistic
lookups.

Key pieces:

* :class:`~repro.namespace.tree.NamespaceTree` — array-backed tree with O(1)
  parent/depth access, per-directory child maps, and an invalidate-on-mutation
  DFS (Euler interval) index that makes "is ``d`` inside subtree ``s``" an O(1)
  interval test and subtree rollups a vectorised segment sum.
* :mod:`~repro.namespace.builder` — seeded synthetic namespace generators
  matching the three workload families of the paper's evaluation.
* :mod:`~repro.namespace.stats` — per-directory access counters with subtree
  rollups (the Data Collector's raw material, Table 1 features).
"""

from repro.namespace.stats import AccessStats
from repro.namespace.tree import ROOT_INO, NamespaceTree

__all__ = [
    "NamespaceTree",
    "ROOT_INO",
    "AccessStats",
]
