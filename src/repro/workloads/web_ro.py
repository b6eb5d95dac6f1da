"""Trace-RO: a read-only web access trace (skewed, deep, drifting).

Models the Apache-access-log replay of [4, 39]: only read-type metadata
operations (stat/open/readdir), a pronounced Zipf skew over directories,
paths extending "to a considerable depth", and hotspot drift across time
segments (Lunule's motivation: temporal locality shifts).
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.costmodel.optypes import OpType
from repro.namespace.builder import BuiltNamespace, build_web_tree
from repro.sim.rng import RngStream
from repro.workloads.trace import Trace
from repro.workloads.zipfian import DriftingZipf

__all__ = ["generate_trace_ro"]


def generate_trace_ro(
    rng: RngStream,
    n_ops: int = 100_000,
    n_dirs: int = 3000,
    alpha: float = 1.15,
    segments: int = 8,
    drift: float = 0.15,
    readdir_fraction: float = 0.08,
) -> Tuple[BuiltNamespace, Trace]:
    """Build the web namespace and a read-only access trace."""
    built = build_web_tree(rng, n_dirs=n_dirs)
    tree = built.tree
    # only directories that contain files can serve page requests
    page_dirs = [d for d in built.read_dirs if tree.n_child_files(d) > 0]
    sampler = DriftingZipf(rng, page_dirs, alpha=alpha, drift=drift)
    # The tree is static during generation, so every page directory's file
    # names are listed once, flattened in child-map order: pick ``j`` in
    # directory ``d`` names ``files[first[d] + j]``.
    files: List[str] = []
    first = np.zeros(tree.capacity, dtype=np.int64)
    n_files = np.zeros(tree.capacity, dtype=np.int64)
    for d in page_dirs:
        first[d] = len(files)
        files.extend(n for n, i in tree.children(d).items() if not tree.is_dir(i))
        n_files[d] = len(files) - first[d]
    files_arr = np.array(files, dtype=object)

    stat_below = readdir_fraction + (1 - readdir_fraction) * 0.6
    ops: List[np.ndarray] = []
    dir_cols: List[np.ndarray] = []
    names: List[str] = []
    per_seg = max(1, n_ops // segments)
    for seg in range(segments):
        owed = n_ops - len(names)
        want = min(per_seg, owed) if seg < segments - 1 else owed
        dirs = sampler.sample(want)
        rolls = rng.random(want)
        page = rolls >= readdir_fraction
        # one file pick per page request, in op order: with array bounds
        # NumPy draws exactly what per-op scalar integers() calls would
        pick_dirs = dirs[page]
        picks = rng.integers(0, n_files[pick_dirs])
        seg_names = np.full(want, "", dtype=object)
        seg_names[page] = files_arr[first[pick_dirs] + picks]
        names.extend(seg_names.tolist())
        ops.append(
            np.where(
                page,
                np.where(rolls < stat_below, int(OpType.STAT), int(OpType.OPEN)),
                int(OpType.READDIR),
            )
        )
        dir_cols.append(dirs)
        sampler.advance()
    op = np.concatenate(ops)
    trace = Trace(op, np.concatenate(dir_cols), np.full(len(op), -1), names, "Trace-RO")
    assert trace.write_fraction() == 0.0
    return built, trace
