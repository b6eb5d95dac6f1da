"""Immutable sorted runs (SSTables) with binary-search point reads.

Each SSTable is a frozen, key-ordered array of entries plus a tiny bloom-ish
membership filter (a Python set of key hashes — exact, since we are in
memory; it exists so the store can count avoided seeks the way a real bloom
filter would).
"""

from __future__ import annotations

import bisect
from itertools import islice
from operator import ge
from typing import Iterator, List, Optional, Sequence, Tuple

__all__ = ["SSTable", "merge_runs"]


class SSTable:
    """An immutable sorted run of (key, value) pairs."""

    __slots__ = ("_keys", "_values", "_filter", "min_key", "max_key", "size_bytes",
                 "file_number")

    def __init__(self, entries: Sequence[Tuple[bytes, bytes]]):
        if not entries:
            raise ValueError("SSTable cannot be empty")
        keys = [k for k, _ in entries]
        if any(map(ge, keys, islice(keys, 1, None))):
            raise ValueError("SSTable entries must be strictly sorted by key")
        self._keys: List[bytes] = keys
        self._values: List[bytes] = [v for _, v in entries]
        self._filter = frozenset(map(hash, keys))
        self.min_key = keys[0]
        self.max_key = keys[-1]
        self.size_bytes = sum(map(len, keys)) + sum(map(len, self._values))
        # set by the durability backend when this run is persisted on disk
        self.file_number: Optional[int] = None

    def __len__(self) -> int:
        return len(self._keys)

    def maybe_contains(self, key: bytes) -> bool:
        """Filter check (no false negatives; here also no false positives)."""
        return hash(key) in self._filter

    def get(self, key: bytes) -> Optional[bytes]:
        if key < self.min_key or key > self.max_key or not self.maybe_contains(key):
            return None
        i = bisect.bisect_left(self._keys, key)
        if i < len(self._keys) and self._keys[i] == key:
            return self._values[i]
        return None

    def scan(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        i = bisect.bisect_left(self._keys, lo)
        j = bisect.bisect_left(self._keys, hi)
        for idx in range(i, j):
            yield self._keys[idx], self._values[idx]

    def items(self) -> Iterator[Tuple[bytes, bytes]]:
        return zip(self._keys, self._values)

    def overlaps(self, lo: bytes, hi: bytes) -> bool:
        """Does this run's key range intersect [lo, hi)?"""
        return self.min_key < hi and lo <= self.max_key


def merge_runs(
    runs: Sequence[SSTable], drop_tombstones: bool = False
) -> List[Tuple[bytes, bytes]]:
    """K-way merge of runs, newest first: earlier runs shadow later ones.

    With ``drop_tombstones`` (bottom-level compaction) deletion markers are
    removed entirely; otherwise they are preserved so they keep shadowing
    entries in runs below the compaction's scope.
    """
    from repro.kvstore.memtable import TOMBSTONE

    merged: dict = {}
    # iterate oldest -> newest so newer entries overwrite
    for run in reversed(list(runs)):
        for k, v in run.items():
            merged[k] = v
    out = []
    for k in sorted(merged):
        v = merged[k]
        if drop_tombstones and v == TOMBSTONE:
            continue
        out.append((k, v))
    return out
