"""On-disk SSTable codec: persist and reload immutable sorted runs.

Format (single file per run, ``<data_dir>/sst/<number:08d>.sst``)::

    header : [magic "OSST"][version: u32][entry count: u64]
    entries: count * ([klen: u32][key][vlen: u32][value])
    footer : [crc32: u32]  — over header + entries

The whole file is read and CRC-verified before any entry is trusted, so a
bit flip anywhere surfaces as a typed
:class:`~repro.durability.errors.SSTableCorruptionError` instead of a
half-loaded run.  Writes go through
:func:`~repro.durability.atomic.write_atomic` (temp file + ``os.replace``)
so a crash mid-write can never leave a plausible-looking partial table
under the final name (the MANIFEST additionally never references a table
before its file is durable).
"""

from __future__ import annotations

import os
import struct
import zlib
from typing import List, Sequence, Tuple

from repro.durability.atomic import write_atomic
from repro.durability.errors import SSTableCorruptionError
from repro.kvstore.sstable import SSTable

__all__ = ["write_sstable", "read_sstable", "sstable_path"]

SST_MAGIC = b"OSST"
SST_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_U32 = struct.Struct("<I")


def sstable_path(sst_dir: str, number: int) -> str:
    return os.path.join(sst_dir, f"{number:08d}.sst")


def write_sstable(
    path: str, entries: Sequence[Tuple[bytes, bytes]], use_fsync: bool = True
) -> int:
    """Serialise ``entries`` (sorted, as held by an SSTable) to ``path``.

    Returns the file size in bytes.
    """
    pack = _U32.pack
    parts: List[bytes] = [_HEADER.pack(SST_MAGIC, SST_FORMAT_VERSION, len(entries))]
    for k, v in entries:
        parts += (pack(len(k)), k, pack(len(v)), v)
    blob = b"".join(parts)
    blob += _U32.pack(zlib.crc32(blob))
    write_atomic(path, blob, use_fsync)
    return len(blob)


def read_sstable(path: str) -> SSTable:
    """Load and CRC-verify one on-disk run; raises SSTableCorruptionError."""
    try:
        with open(path, "rb") as f:
            blob = f.read()
    except OSError as exc:
        raise SSTableCorruptionError(f"{path}: unreadable ({exc})") from None
    if len(blob) < _HEADER.size + _U32.size:
        raise SSTableCorruptionError(f"{path}: file too short to be an SSTable")
    body, footer = blob[: -_U32.size], blob[-_U32.size :]
    if zlib.crc32(body) != _U32.unpack(footer)[0]:
        raise SSTableCorruptionError(f"{path}: CRC mismatch")
    magic, version, count = _HEADER.unpack_from(body, 0)
    if magic != SST_MAGIC:
        raise SSTableCorruptionError(f"{path}: bad magic {magic!r}")
    if version != SST_FORMAT_VERSION:
        raise SSTableCorruptionError(f"{path}: unsupported SSTable version {version}")
    entries: List[Tuple[bytes, bytes]] = []
    off = _HEADER.size
    n = len(body)
    try:
        for _ in range(count):
            (klen,) = _U32.unpack_from(body, off)
            off += _U32.size
            key = body[off : off + klen]
            off += klen
            (vlen,) = _U32.unpack_from(body, off)
            off += _U32.size
            value = body[off : off + vlen]
            off += vlen
            if len(key) != klen or len(value) != vlen:
                raise SSTableCorruptionError(f"{path}: entry overruns the file")
            entries.append((key, value))
    except struct.error:
        raise SSTableCorruptionError(f"{path}: truncated entry table") from None
    if off != n:
        raise SSTableCorruptionError(f"{path}: {n - off} trailing bytes after entries")
    try:
        return SSTable(entries)
    except ValueError as exc:
        raise SSTableCorruptionError(f"{path}: invalid run ({exc})") from None
