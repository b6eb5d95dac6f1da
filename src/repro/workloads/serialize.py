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
    cols = tree.columns()
    arrays = {
        "header": np.frombuffer(json.dumps(header).encode("utf-8"), dtype=np.uint8),
        "parent": np.asarray(cols["parent"], dtype=np.int64),
        "ftype": np.asarray(cols["ftype"], dtype=np.int8),
        "alive": np.asarray(cols["alive"], dtype=bool),
        "size": np.asarray(cols["size"], dtype=np.int64),
        "names": np.frombuffer(_SEP.join(cols["name"]).encode("utf-8"), dtype=np.uint8),
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
        names = bytes(z["names"]).decode("utf-8").split(_SEP)
        try:
            tree = NamespaceTree.from_columns(
                z["parent"], names, z["ftype"], z["alive"], z["size"]
            )
        except ValueError as exc:
            raise ValueError(f"bundle is corrupt: {exc}") from None
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

