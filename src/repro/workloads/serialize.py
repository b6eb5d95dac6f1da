"""Trace/namespace bundle serialization (compact ``.npz`` + embedded JSON).

A bundle stores everything needed to replay an experiment elsewhere: the
namespace tree (parallel arrays) and the trace columns.  Useful for sharing
generated workloads, pinning a workload across code versions, or feeding the
simulator from externally converted real traces.

Format: a single NumPy ``.npz`` containing the tree's parallel arrays (names
joined with ``\\x00``), the trace columns, and a JSON header with versioning.
"""

from __future__ import annotations

import json
from typing import Optional, Tuple

import numpy as np

from repro.namespace.inode import FileType
from repro.namespace.tree import NamespaceTree
from repro.workloads.trace import Trace

__all__ = ["save_bundle", "load_bundle", "BUNDLE_VERSION"]

BUNDLE_VERSION = 1
_SEP = "\x00"


def save_bundle(path: str, tree: NamespaceTree, trace: Optional[Trace] = None) -> None:
    """Write tree (+ optional trace) to ``path`` as an ``.npz`` bundle."""
    header = {
        "version": BUNDLE_VERSION,
        "num_dirs": tree.num_dirs,
        "num_files": tree.num_files,
        "has_trace": trace is not None,
        "trace_label": trace.label if trace is not None else "",
        "trace_has_names": trace is not None and trace.names is not None,
        "trace_has_think": trace is not None and trace.think_ms is not None,
    }
    cap = tree.capacity  # logical extent; physical arrays carry slack beyond it
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "parent": np.asarray(tree._parent[:cap], dtype=np.int64),
        "ftype": np.asarray(tree._ftype[:cap], dtype=np.int8),
        "alive": np.asarray(tree._alive[:cap], dtype=bool),
        "size": np.asarray(tree._size[:cap], dtype=np.int64),
        "names": np.frombuffer(_SEP.join(tree._name).encode("utf-8"), dtype=np.uint8),
    }
    if trace is not None:
        arrays["trace_op"] = trace.op
        arrays["trace_dir"] = trace.dir_ino
        arrays["trace_aux"] = trace.aux
        if trace.names is not None:
            arrays["trace_names"] = np.frombuffer(
                _SEP.join(trace.names).encode("utf-8"), dtype=np.uint8
            )
        if trace.think_ms is not None:
            arrays["trace_think"] = trace.think_ms
    np.savez_compressed(path, **arrays)


def load_bundle(path: str) -> Tuple[NamespaceTree, Optional[Trace]]:
    """Reconstruct a tree (+ trace) saved by :func:`save_bundle`."""
    with np.load(path) as z:
        header = json.loads(bytes(z["header"]).decode("utf-8"))
        if header.get("version") != BUNDLE_VERSION:
            raise ValueError(f"unsupported bundle version {header.get('version')}")
        parent = z["parent"]
        ftype = z["ftype"]
        alive = z["alive"]
        size = z["size"]
        names = bytes(z["names"]).decode("utf-8").split(_SEP)
        tree = _rebuild_tree(parent, ftype, alive, size, names)
        if tree.num_dirs != header["num_dirs"] or tree.num_files != header["num_files"]:
            raise ValueError("bundle is corrupt: entity counts do not match header")
        trace = None
        if header["has_trace"]:
            tnames = None
            if header["trace_has_names"]:
                tnames = bytes(z["trace_names"]).decode("utf-8").split(_SEP)
            # .get(): bundles written before the think column existed
            think = z["trace_think"] if header.get("trace_has_think") else None
            trace = Trace(
                z["trace_op"],
                z["trace_dir"],
                z["trace_aux"],
                tnames,
                header["trace_label"],
                think,
            )
    return tree, trace


def _rebuild_tree(parent, ftype, alive, size, names) -> NamespaceTree:
    """Recreate every ino in order with one bulk create (parents precede
    children in a saved tree).

    Dead inos are materialised then removed so ino numbering is preserved —
    traces reference inos, so numbering must survive the round trip.
    """
    n = parent.shape[0]
    if not (ftype.shape[0] == alive.shape[0] == size.shape[0] == n and len(names) == n):
        raise ValueError("bundle is corrupt: array lengths disagree")
    dead = (np.flatnonzero(~np.asarray(alive[1:], dtype=bool)) + 1).tolist()
    entry_names = names[1:]
    for ino in dead:
        # a removed entry's name may have been reused by a live one; dead
        # entries get placeholder names (they are removed below)
        entry_names[ino - 1] = f"__dead_{ino}"
    tree = NamespaceTree()
    try:
        tree.create_many(
            parent[1:], entry_names, ftype[1:] == int(FileType.DIRECTORY), size[1:]
        )
    except (KeyError, NotADirectoryError, FileExistsError, ValueError) as exc:
        raise ValueError(f"bundle is corrupt: {exc.args[0]}") from exc
    # remove dead entries deepest-first so directories empty out before rmdir
    for ino in sorted(dead, key=tree.depth, reverse=True):
        tree.remove(ino)
    return tree
