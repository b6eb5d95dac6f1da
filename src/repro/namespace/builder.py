"""Seeded synthetic namespace generators.

One builder per workload family in the paper's evaluation (§5.1), plus
generic balanced/random trees for unit tests and micro-benchmarks.  Every
builder takes an :class:`~repro.sim.rng.RngStream` and is fully deterministic
given it.

Shape targets (drawn from the papers the traces come from):

* **software project** (Trace-RW source [34]): moderate depth (~6), wide
  module directories, many small source/header files, per-module build output
  directories that the compilation phase writes into.
* **web tree** (Trace-RO source [4, 39]): deep (10+ levels, the paper notes
  namespaces "exceeding ten levels"), heavy-tailed fanout, read-only.
* **cloud tree** (Trace-WI source [40]): per-tenant home directories with
  date-partitioned sub-directories that receive bursts of file creation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.namespace.tree import NamespaceTree
from repro.sim.rng import RngStream

__all__ = [
    "BuiltNamespace",
    "build_balanced",
    "build_random",
    "build_software_project",
    "build_web_tree",
    "build_cloud_tree",
]


@dataclass
class BuiltNamespace:
    """A generated tree plus the role annotations trace generators need."""

    tree: NamespaceTree
    #: directories a workload's read phase targets (e.g. source dirs)
    read_dirs: List[int] = field(default_factory=list)
    #: directories a workload's write phase targets (e.g. build output dirs)
    write_dirs: List[int] = field(default_factory=list)
    #: free-form extras (per-builder)
    info: Dict[str, object] = field(default_factory=dict)


def build_balanced(depth: int, fanout: int, files_per_dir: int = 0) -> BuiltNamespace:
    """A perfectly balanced tree: every internal dir has ``fanout`` dir children."""
    if depth < 0 or fanout < 0:
        raise ValueError("depth and fanout must be non-negative")
    tree = NamespaceTree()
    frontier = [0]
    all_dirs = [0]
    for level in range(depth):
        nxt: List[int] = []
        for d in frontier:
            for j in range(fanout):
                c = tree.create_dir(d, f"d{level}_{j}")
                nxt.append(c)
                all_dirs.append(c)
        frontier = nxt
    for d in all_dirs:
        for j in range(files_per_dir):
            tree.create_file(d, f"f{j}")
    return BuiltNamespace(tree=tree, read_dirs=list(all_dirs), write_dirs=list(frontier))


def build_random(
    rng: RngStream,
    n_dirs: int,
    files_per_dir_mean: float = 4.0,
    depth_bias: float = 0.7,
) -> BuiltNamespace:
    """Random tree by preferential attachment with a depth-decaying bias.

    ``depth_bias`` < 1 makes shallow directories more likely parents, giving
    the bushy-near-root shape real namespaces show.
    """
    if n_dirs < 1:
        raise ValueError("need at least the root")
    tree = NamespaceTree()
    dirs = [0]
    weights = [1.0]
    for i in range(1, n_dirs):
        w = np.asarray(weights)
        w = w / w.sum()
        parent = dirs[int(rng.choice(len(dirs), p=w))]
        d = tree.create_dir(parent, f"dir{i}")
        dirs.append(d)
        weights.append(depth_bias ** tree.depth(d))
    n_files = rng.generator.poisson(files_per_dir_mean, size=len(dirs))
    for d, nf in zip(dirs, n_files):
        for j in range(int(nf)):
            tree.create_file(d, f"f{j}")
    return BuiltNamespace(tree=tree, read_dirs=list(dirs), write_dirs=list(dirs))


def build_software_project(
    rng: RngStream,
    n_modules: int = 40,
    dirs_per_module: int = 8,
    files_per_dir: int = 10,
    headers_per_module: int = 8,
    max_depth: int = 8,
) -> BuiltNamespace:
    """A build-tree namespace for Trace-RW (compilation workload).

    Layout::

        /src/<mod>/<sub>/<sub>/...   source files (depths reaching ~8, the
                                     "exceeding ten levels" shape of §2.4)
        /include/<mod>/              headers stat()ed by every dependent module
        /build/<mod>/<sub>/...       object-file output dirs mirroring src
        /tests/<mod>/                test sources

    Source subdirectories form chains biased toward depth so hash
    partitioning pays real path-resolution penalties; each source dir has a
    mirrored build output dir at the same relative path.
    """
    tree = NamespaceTree()
    src_root = tree.makedirs("/src")
    inc_root = tree.makedirs("/include")
    build_root = tree.makedirs("/build")
    tests_root = tree.makedirs("/tests")

    read_dirs: List[int] = []
    write_dirs: List[int] = []
    header_dirs: List[int] = []
    #: per-module list of (source dir, mirrored build dir) pairs
    module_dirs: List[List[tuple]] = []
    module_names = [f"mod{m:03d}" for m in range(n_modules)]

    for mod in module_names:
        m_src = tree.create_dir(src_root, mod)
        m_build = tree.create_dir(build_root, mod)
        read_dirs.append(m_src)
        write_dirs.append(m_build)
        pairs = [(m_src, m_build)]
        # grow nested subdirectories, biased to extend the deepest chain
        for s in range(dirs_per_module):
            if rng.random() < 0.6:
                parent_src, parent_build = pairs[-1]  # extend the chain
            else:
                parent_src, parent_build = pairs[int(rng.integers(0, len(pairs)))]
            if tree.depth(parent_src) >= max_depth:
                parent_src, parent_build = pairs[0]
            d_src = tree.create_dir(parent_src, f"sub{s}")
            d_build = tree.create_dir(parent_build, f"sub{s}")
            pairs.append((d_src, d_build))
            read_dirs.append(d_src)
            write_dirs.append(d_build)
        for d_src, _ in pairs:
            nf = max(1, int(rng.generator.poisson(files_per_dir)))
            for j in range(nf):
                tree.create_file(d_src, f"{mod}_{j}.c", size=int(rng.integers(512, 65536)))
        module_dirs.append(pairs)

        m_inc = tree.create_dir(inc_root, mod)
        header_dirs.append(m_inc)
        for j in range(headers_per_module):
            tree.create_file(m_inc, f"{mod}_{j}.h", size=int(rng.integers(256, 8192)))

        m_tests = tree.create_dir(tests_root, mod)
        read_dirs.append(m_tests)
        for j in range(max(1, files_per_dir // 3)):
            tree.create_file(m_tests, f"test_{j}.c")

    return BuiltNamespace(
        tree=tree,
        read_dirs=read_dirs,
        write_dirs=write_dirs,
        info={
            "header_dirs": header_dirs,
            "module_names": module_names,
            "module_dirs": module_dirs,
            "build_root": build_root,
            "src_root": src_root,
        },
    )


def build_web_tree(
    rng: RngStream,
    n_dirs: int = 4000,
    target_depth: int = 12,
    files_per_dir_mean: float = 6.0,
    fanout_tail: float = 1.4,
) -> BuiltNamespace:
    """A deep, heavy-tailed content tree for Trace-RO (web access log replay).

    Directory parents are drawn Zipf-style over existing directories so a few
    directories grow enormous fanout, while a biased random walk keeps pushing
    chains deeper until ``target_depth`` is regularly exceeded.
    """
    tree = NamespaceTree()
    top = [tree.create_dir(0, name) for name in ("static", "media", "docs", "api", "archive")]
    dirs: List[int] = [0, *top]

    # Phase 1: grow deep chains so the tree reaches the target depth.
    chain_budget = max(1, n_dirs // 6)
    made = len(top)
    for c in range(5):
        cur = top[c % len(top)]
        for lvl in range(target_depth - 1):
            if made >= chain_budget:
                break
            cur = tree.create_dir(cur, f"lvl{lvl}")
            dirs.append(cur)
            made += 1

    # Phase 2: heavy-tailed attachment for the remaining directories.
    i = 0
    while made < n_dirs - 1:
        w = rng.zipf_weights(len(dirs), fanout_tail)
        parent = dirs[int(rng.choice(len(dirs), p=w))]
        d = tree.create_dir(parent, f"p{i}")
        dirs.append(d)
        made += 1
        i += 1

    n_files = rng.generator.poisson(files_per_dir_mean, size=len(dirs))
    for d, nf in zip(dirs, n_files):
        for j in range(int(nf)):
            tree.create_file(d, f"page{j}.html", size=int(rng.integers(1024, 1 << 20)))

    # Read popularity will be Zipf over directories sorted by ino (builder
    # order), so earlier (shallower, near-root-chained) dirs are hotter.
    return BuiltNamespace(tree=tree, read_dirs=dirs, write_dirs=[], info={"top": top})


def build_cloud_tree(
    rng: RngStream,
    n_tenants: int = 50,
    days: int = 6,
    shards_per_day: int = 4,
    seed_files: int = 2,
) -> BuiltNamespace:
    """A multi-tenant tree for Trace-WI (write-intensive cloud FS).

    Layout: ``/tenants/<t>/<day>/<shard>/``.  The write-intensive trace
    creates files into the shard directories with a skew over tenants that
    drifts over time (hotspot churn, per the CFS characterisation).
    """
    tree = NamespaceTree()
    tenants_root = tree.makedirs("/tenants")
    shared_root = tree.makedirs("/shared")
    # one tenant's subtree in creation order as (parent slot, name, is a
    # directory), slot 0 being the tenant directory
    template = [(0, "", True)]
    shard_slots: List[int] = []
    for d in range(days):
        day_slot = len(template)
        template.append((0, f"2026-06-{d + 1:02d}", True))
        for s in range(shards_per_day):
            shard_slots.append(len(template))
            template.append((day_slot, f"shard{s}", True))
            template += [(shard_slots[-1], f"obj{j:04d}", False) for j in range(seed_files)]
    tpl_parent, tpl_name, tpl_dir = zip(*template)
    # tile it once per tenant, in ino order, then the shared datasets
    first = tree.capacity + len(tpl_name) * np.arange(n_tenants)[:, None]
    parents = first + np.asarray(tpl_parent)
    parents[:, 0] = tenants_root
    names = np.tile(np.asarray(tpl_name, dtype=object), (n_tenants, 1))
    names[:, 0] = [f"tenant{t:03d}" for t in range(n_tenants)]
    n_datasets = 200
    sizes = rng.integers(1 << 16, 1 << 24, size=n_datasets)
    tree.create_many(
        np.concatenate([parents.ravel(), np.full(n_datasets, shared_root)]),
        names.ravel().tolist() + [f"dataset{j:03d}" for j in range(n_datasets)],
        np.concatenate([np.tile(tpl_dir, n_tenants), np.zeros(n_datasets, dtype=bool)]),
        np.concatenate([np.zeros(parents.size, dtype=np.int64), sizes]),
    )
    shards = first + np.asarray(shard_slots, dtype=np.int64)
    return BuiltNamespace(
        tree=tree,
        read_dirs=[shared_root],
        write_dirs=shards.ravel().tolist(),
        info={"tenant_shards": shards.tolist(), "tenants_root": tenants_root},
    )
