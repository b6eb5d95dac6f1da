"""Column-oriented metadata operation traces.

Each operation is described by:

* ``op`` — an :class:`~repro.costmodel.optypes.OpType`;
* ``dir_ino`` — the *owning directory* of the operation's target: the parent
  directory for entry ops (stat/open/create/unlink/mkdir/rmdir/rename), the
  directory itself for ``READDIR``;
* ``aux`` — the existing target directory's ino for ``RMDIR``/dir-``RENAME``
  (needed for split-mutation detection), ``-1`` otherwise;
* ``name`` — the entry name (DES replay materialises it; the analytic model
  ignores it except for hash placement of ``MKDIR``).

This split keeps the analytic cost model fully vectorisable (three int
arrays) while the DES replay retains everything it needs to mutate a live
namespace.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.costmodel.optypes import CATEGORY_NSMUT, CATEGORY_ARRAY, OpType

__all__ = ["Trace", "TraceBuilder"]


class Trace:
    """An immutable sequence of metadata operations (column arrays)."""

    __slots__ = ("op", "dir_ino", "aux", "names", "label", "think_ms")

    def __init__(
        self,
        op: np.ndarray,
        dir_ino: np.ndarray,
        aux: np.ndarray,
        names: Optional[List[str]] = None,
        label: str = "",
        think_ms: Optional[np.ndarray] = None,
    ):
        op = np.asarray(op, dtype=np.int8)
        dir_ino = np.asarray(dir_ino, dtype=np.int64)
        aux = np.asarray(aux, dtype=np.int64)
        if not (op.shape == dir_ino.shape == aux.shape):
            raise ValueError("trace columns must have equal length")
        if names is not None and len(names) != op.shape[0]:
            raise ValueError("names column length mismatch")
        if think_ms is not None:
            think_ms = np.asarray(think_ms, dtype=np.float64)
            if think_ms.shape != op.shape:
                raise ValueError("think_ms column length mismatch")
        self.op = op
        self.dir_ino = dir_ino
        self.aux = aux
        self.names = names
        self.label = label
        #: optional per-op client idle time before issue (ms) — the offered-
        #: load shaping column the diurnal/flash-crowd generators emit.
        #: None (every pre-existing trace) replays bit-identically to before
        #: the column existed.
        self.think_ms = think_ms

    def __len__(self) -> int:
        return int(self.op.shape[0])

    def __getitem__(self, sl) -> "Trace":
        """Slice into a sub-trace (epoch windows); an integer index gives
        the one-op trace of that op, counting negative indices from the end."""
        if not isinstance(sl, slice):
            i = operator.index(sl)
            n = len(self)
            if not -n <= i < n:
                raise IndexError(f"trace index {i} out of range for {n} ops")
            i %= n
            sl = slice(i, i + 1)
        names = self.names[sl] if self.names is not None else None
        think = self.think_ms[sl] if self.think_ms is not None else None
        return Trace(
            self.op[sl], self.dir_ino[sl], self.aux[sl], names, self.label, think
        )

    def categories(self) -> np.ndarray:
        """Per-op cost category (read / lsdir / ns-mutation)."""
        return CATEGORY_ARRAY[self.op]

    def write_fraction(self) -> float:
        """Fraction of ops that are namespace mutations."""
        if len(self) == 0:
            return 0.0
        return float((self.categories() == CATEGORY_NSMUT).mean())

    def op_mix(self) -> dict:
        """Histogram of op types (for trace characterisation tests/docs)."""
        vals, counts = np.unique(self.op, return_counts=True)
        return {OpType(int(v)).name: int(c) for v, c in zip(vals, counts)}

    def epochs(self, ops_per_epoch: int) -> Iterator[Tuple[int, "Trace"]]:
        """Split into fixed-size epochs (the 10-second windows of §4.3,
        expressed in operation counts for the analytic pipeline)."""
        if ops_per_epoch < 1:
            raise ValueError("ops_per_epoch must be >= 1")
        n = len(self)
        for e, start in enumerate(range(0, n, ops_per_epoch)):
            yield e, self[start : start + ops_per_epoch]

    def concat(self, other: "Trace") -> "Trace":
        return Trace.concat_many([self, other])

    @staticmethod
    def concat_many(traces: Sequence["Trace"]) -> "Trace":
        """Concatenate any number of traces with one allocation per column.

        Chained pairwise ``concat`` copies every earlier column again for
        each appended trace — O(k²) bytes for k pieces; this is the O(k)
        version composite scenario builders should use.  Column semantics
        match ``concat``: names survive only when every piece carries them,
        and a think column on *any* piece zero-fills the pieces without one.
        """
        traces = list(traces)
        if not traces:
            raise ValueError("concat_many needs at least one trace")
        names = None
        if all(t.names is not None for t in traces):
            names = [n for t in traces for n in t.names]
        think = None
        if any(t.think_ms is not None for t in traces):
            # a piece missing the column means "no think time": zero-fill
            think = np.concatenate(
                [
                    t.think_ms
                    if t.think_ms is not None
                    else np.zeros(len(t), dtype=np.float64)
                    for t in traces
                ]
            )
        label = next((t.label for t in traces if t.label), "")
        return Trace(
            np.concatenate([t.op for t in traces]),
            np.concatenate([t.dir_ino for t in traces]),
            np.concatenate([t.aux for t in traces]),
            names,
            label,
            think,
        )


class TraceBuilder:
    """Accumulates operations then freezes them into a :class:`Trace`."""

    def __init__(self, label: str = ""):
        self._op: List[int] = []
        self._dir: List[int] = []
        self._aux: List[int] = []
        self._names: List[str] = []
        self._think: List[float] = []
        self.label = label

    def __len__(self) -> int:
        return len(self._op)

    def add(
        self,
        op: OpType,
        dir_ino: int,
        name: str = "",
        aux: int = -1,
        think_ms: float = 0.0,
    ) -> None:
        self._op.append(int(op))
        self._dir.append(int(dir_ino))
        self._aux.append(int(aux))
        self._names.append(name)
        self._think.append(float(think_ms))

    def think(self, ms: float) -> None:
        """Attach client idle time before the most recently added op issues."""
        if self._think and ms > 0:
            self._think[-1] += float(ms)

    def set_think(self, start: int, ms: float) -> None:
        """Set think time on every op added since index ``start`` (burst
        emitters stamp a whole burst with one phase's think time)."""
        ms = float(ms)
        for j in range(start, len(self._think)):
            self._think[j] = ms

    # convenience emitters -------------------------------------------------
    def stat(self, dir_ino: int, name: str) -> None:
        self.add(OpType.STAT, dir_ino, name)

    def open(self, dir_ino: int, name: str) -> None:
        self.add(OpType.OPEN, dir_ino, name)

    def readdir(self, dir_ino: int) -> None:
        self.add(OpType.READDIR, dir_ino)

    def create(self, dir_ino: int, name: str) -> None:
        self.add(OpType.CREATE, dir_ino, name)

    def unlink(self, dir_ino: int, name: str) -> None:
        self.add(OpType.UNLINK, dir_ino, name)

    def mkdir(self, parent_ino: int, name: str) -> None:
        self.add(OpType.MKDIR, parent_ino, name)

    def rmdir(self, parent_ino: int, target_dir: int) -> None:
        self.add(OpType.RMDIR, parent_ino, "", aux=target_dir)

    def rename(self, dir_ino: int, name: str) -> None:
        self.add(OpType.RENAME, dir_ino, name)

    def build(self) -> Trace:
        think = np.array(self._think, dtype=np.float64)
        return Trace(
            np.array(self._op, dtype=np.int8),
            np.array(self._dir, dtype=np.int64),
            np.array(self._aux, dtype=np.int64),
            list(self._names),
            self.label,
            # all-zero think collapses to "no column": pre-existing
            # generators keep producing traces identical to before
            think if think.any() else None,
        )
