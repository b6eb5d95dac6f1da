"""Sorted in-memory write buffer for the LSM store.

Backed by a plain dict plus a lazily maintained sorted key list: point ops
are O(1); the sorted view is (re)built only when a scan or a flush needs it.
That matches the metadata access pattern — point lookups dominate, scans
happen at ``lsdir`` and flush time.
"""

from __future__ import annotations

import bisect
from typing import Iterator, List, Optional, Tuple

__all__ = ["MemTable", "TOMBSTONE"]

#: sentinel value marking a deletion (must survive into SSTables so older
#: runs' values stay shadowed until compaction drops the pair)
TOMBSTONE = b"\x00__tombstone__\x00"


class MemTable:
    """Mutable sorted run; the head of the LSM hierarchy."""

    def __init__(self) -> None:
        self._data: dict = {}
        self._sorted_keys: Optional[List[bytes]] = None

    def __len__(self) -> int:
        return len(self._data)

    def put(self, key: bytes, value: bytes) -> None:
        if not isinstance(key, bytes) or not isinstance(value, bytes):
            raise TypeError("keys and values must be bytes")
        if key not in self._data:
            self._sorted_keys = None
        self._data[key] = value

    def delete(self, key: bytes) -> None:
        """Record a tombstone (shadows older runs until compacted away)."""
        self.put(key, TOMBSTONE)

    def get(self, key: bytes) -> Optional[bytes]:
        """Value for key; TOMBSTONE if deleted here; None if absent here."""
        return self._data.get(key)

    def _keys(self) -> List[bytes]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._data)
        return self._sorted_keys

    def scan(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        """Yield (key, value) for lo <= key < hi, in key order (tombstones included)."""
        keys = self._keys()
        i = bisect.bisect_left(keys, lo)
        j = bisect.bisect_left(keys, hi)
        for k in keys[i:j]:
            yield k, self._data[k]

    def items_sorted(self) -> List[Tuple[bytes, bytes]]:
        """All entries in key order (flush input)."""
        return [(k, self._data[k]) for k in self._keys()]

    def clear(self) -> None:
        self._data.clear()
        self._sorted_keys = None
