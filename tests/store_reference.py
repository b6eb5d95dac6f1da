"""The durable store and the fault queries as they were before guard lookups
were bisected, a run's file was written at commit, and fault windows were
indexed per MDS.

Kept as the reference of ``tests/test_store_differential.py``: the earlier
``repro.kvstore`` (memtable, SSTable, ``merge_runs``, ``LSMStore``), the
earlier ``DurableBackend`` (each run's file written and fsynced at its
``edit_add``), the WAL and SSTable codecs, ``open_store`` (which rewrites
the MANIFEST before it reads the tables) and ``replay_wal`` (which refuses
any LSN jump between two segments, even one the MANIFEST checkpoint
covers), and the ``FaultSchedule`` queries with the ``rpc_gate`` that read
them.  Classes whose bytes stayed the same (``StoreStats``, ``Manifest``,
``RecoveryReport``, the options, the errors) are imported from ``repro``.
"""

from __future__ import annotations

import bisect
import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from repro.durability.backend import DurabilityOptions
from repro.durability.errors import (
    ManifestError,
    SSTableCorruptionError,
    WalCorruptionError,
)
from repro.durability.manifest import Manifest
from repro.durability.recovery import RecoveryReport
from repro.fs.faults.errors import MdsUnavailableError, RpcDroppedError, RpcTimeoutError
from repro.fs.faults.schedule import Partition, RpcDelay, RpcDrop, Slowdown
from repro.kvstore.lsm import StoreStats

TOMBSTONE = b"\x00__tombstone__\x00"


# ------------------------------------------------------------------ memtable
class MemTable:
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
        self.put(key, TOMBSTONE)

    def get(self, key: bytes) -> Optional[bytes]:
        return self._data.get(key)

    def _keys(self) -> List[bytes]:
        if self._sorted_keys is None:
            self._sorted_keys = sorted(self._data)
        return self._sorted_keys

    def scan(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        keys = self._keys()
        i = bisect.bisect_left(keys, lo)
        j = bisect.bisect_left(keys, hi)
        for k in keys[i:j]:
            yield k, self._data[k]

    def items_sorted(self) -> List[Tuple[bytes, bytes]]:
        return [(k, self._data[k]) for k in self._keys()]

    def clear(self) -> None:
        self._data.clear()
        self._sorted_keys = None


# ------------------------------------------------------------------- sstable
class SSTable:
    __slots__ = ("_keys", "_values", "_filter", "min_key", "max_key", "size_bytes",
                 "file_number")

    def __init__(self, entries: Sequence[Tuple[bytes, bytes]]):
        if not entries:
            raise ValueError("SSTable cannot be empty")
        keys = [k for k, _ in entries]
        if any(keys[i] >= keys[i + 1] for i in range(len(keys) - 1)):
            raise ValueError("SSTable entries must be strictly sorted by key")
        self._keys: List[bytes] = keys
        self._values: List[bytes] = [v for _, v in entries]
        self._filter = frozenset(hash(k) for k in keys)
        self.min_key = keys[0]
        self.max_key = keys[-1]
        self.size_bytes = sum(len(k) + len(v) for k, v in entries)
        self.file_number: Optional[int] = None

    def __len__(self) -> int:
        return len(self._keys)

    def maybe_contains(self, key: bytes) -> bool:
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
        return self.min_key < hi and lo <= self.max_key


def merge_runs(
    runs: Sequence[SSTable], drop_tombstones: bool = False
) -> List[Tuple[bytes, bytes]]:
    merged: dict = {}
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


# ----------------------------------------------------------------------- lsm
class _Guard:
    __slots__ = ("lo", "runs")

    def __init__(self, lo: bytes):
        self.lo = lo
        self.runs: List[SSTable] = []


class LSMStore:
    def __init__(
        self,
        memtable_limit: int = 256,
        runs_per_guard: int = 3,
        level0_limit: int = 4,
        guard_fanout: int = 8,
        max_levels: int = 6,
    ):
        if memtable_limit < 1:
            raise ValueError("memtable_limit must be >= 1")
        self.memtable_limit = memtable_limit
        self.runs_per_guard = runs_per_guard
        self.level0_limit = level0_limit
        self.guard_fanout = guard_fanout
        self.max_levels = max_levels
        self.mem = MemTable()
        self.level0: List[SSTable] = []
        self.levels: List[List[_Guard]] = [[] for _ in range(max_levels)]
        self.stats = StoreStats()
        self.backend = None
        self.backend_dir: Optional[str] = None
        self.last_recovery = None

    @classmethod
    def open(cls, data_dir: str, options=None, stats=None, sync_listener=None, **lsm_kwargs):
        return open_store(
            data_dir, options=options, stats=stats, sync_listener=sync_listener, **lsm_kwargs
        )

    def put(self, key: bytes, value: bytes) -> None:
        self.stats.puts += 1
        if self.backend is not None:
            self.backend.log_put(key, value)
        self.mem.put(key, value)
        if len(self.mem) >= self.memtable_limit:
            self._flush()

    def delete(self, key: bytes) -> None:
        self.stats.deletes += 1
        if self.backend is not None:
            self.backend.log_delete(key)
        self.mem.delete(key)
        if len(self.mem) >= self.memtable_limit:
            self._flush()

    def _flush(self) -> None:
        entries = self.mem.items_sorted()
        if not entries:
            return
        run = SSTable(entries)
        self.level0.insert(0, run)
        self.stats.flushes += 1
        self.stats.bytes_flushed += run.size_bytes
        self.mem.clear()
        flush_lsn = 0
        if self.backend is not None:
            self.backend.edit_add(0, None, run)
            flush_lsn = self.backend.last_appended_lsn
        if len(self.level0) > self.level0_limit:
            self._compact_level0()
        if self.backend is not None:
            self.backend.commit(flush_lsn)

    def flush(self) -> None:
        self._flush()

    def _guards_for(self, level: int, keys: List[bytes]) -> None:
        if self.levels[level]:
            return
        n = min(self.guard_fanout, max(1, len(keys)))
        step = max(1, len(keys) // n)
        los = sorted({keys[i] for i in range(0, len(keys), step)})
        los[0] = b""
        self.levels[level] = [_Guard(lo) for lo in los]
        if self.backend is not None:
            self.backend.note_guards(level, los)

    def _guard_index(self, level: int, key: bytes) -> int:
        guards = self.levels[level]
        los = [g.lo for g in guards]
        return max(0, bisect.bisect_right(los, key) - 1)

    def _compact_level0(self) -> None:
        self.stats.compactions += 1
        runs = self.level0
        self.level0 = []
        if self.backend is not None:
            for run in runs:
                self.backend.edit_remove(0, None, run)
        merged = merge_runs(runs, drop_tombstones=False)
        if not merged:
            return
        self.stats.bytes_compacted += sum(len(k) + len(v) for k, v in merged)
        self._guards_for(1, [k for k, _ in merged])
        self._push_into_level(1, merged)

    def _push_into_level(self, level: int, entries: List[Tuple[bytes, bytes]]) -> None:
        guards = self.levels[level]
        if not guards:
            self._guards_for(level, [k for k, _ in entries])
            guards = self.levels[level]
        buckets: Dict[int, List[Tuple[bytes, bytes]]] = {}
        for k, v in entries:
            buckets.setdefault(self._guard_index(level, k), []).append((k, v))
        for gi, bucket in buckets.items():
            guard = guards[gi]
            run = SSTable(bucket)
            guard.runs.insert(0, run)
            if self.backend is not None:
                self.backend.edit_add(level, guard.lo, run)
            if len(guard.runs) > self.runs_per_guard:
                self._compact_guard(level, guard)

    def _compact_guard(self, level: int, guard: _Guard) -> None:
        self.stats.compactions += 1
        at_bottom = level >= self.max_levels - 1
        merged = merge_runs(guard.runs, drop_tombstones=at_bottom)
        self.stats.bytes_compacted += sum(len(k) + len(v) for k, v in merged)
        if self.backend is not None:
            for run in guard.runs:
                self.backend.edit_remove(level, guard.lo, run)
        guard.runs = []
        if not merged:
            return
        if at_bottom:
            run = SSTable(merged)
            guard.runs = [run]
            if self.backend is not None:
                self.backend.edit_add(level, guard.lo, run)
        else:
            self._push_into_level(level + 1, merged)

    def get(self, key: bytes) -> Optional[bytes]:
        self.stats.gets += 1
        v = self.mem.get(key)
        if v is not None:
            return None if v == TOMBSTONE else v
        for run in self.level0:
            self.stats.runs_probed += 1
            v = run.get(key)
            if v is not None:
                return None if v == TOMBSTONE else v
        for level in range(1, self.max_levels):
            guards = self.levels[level]
            if not guards:
                continue
            guard = guards[self._guard_index(level, key)]
            for run in guard.runs:
                self.stats.runs_probed += 1
                v = run.get(key)
                if v is not None:
                    return None if v == TOMBSTONE else v
        return None

    def contains(self, key: bytes) -> bool:
        return self.get(key) is not None

    def scan(self, lo: bytes, hi: bytes) -> Iterator[Tuple[bytes, bytes]]:
        self.stats.scans += 1
        shadow: Dict[bytes, bytes] = {}
        sources: List[Iterator[Tuple[bytes, bytes]]] = [self.mem.scan(lo, hi)]
        sources.extend(r.scan(lo, hi) for r in self.level0 if r.overlaps(lo, hi))
        for level in range(1, self.max_levels):
            for guard in self.levels[level]:
                for run in guard.runs:
                    if run.overlaps(lo, hi):
                        sources.append(run.scan(lo, hi))
        for src in sources:
            for k, v in src:
                if k not in shadow:
                    shadow[k] = v
        for k in sorted(shadow):
            if shadow[k] != TOMBSTONE:
                yield k, shadow[k]

    def sync(self) -> int:
        if self.backend is None:
            return 0
        return self.backend.sync()

    def close(self) -> None:
        if self.backend is None:
            return
        self.backend.close()

    def crash(self) -> None:
        if self.backend is None:
            return
        self.backend.crash()

    def __len__(self) -> int:
        return sum(1 for _ in self.scan(b"", b"\xff" * 64))

    def run_count(self) -> int:
        n = len(self.level0)
        for level in range(1, self.max_levels):
            for guard in self.levels[level]:
                n += len(guard.runs)
        return n


# ------------------------------------------------------------- sstable codec
SST_MAGIC = b"OSST"
SST_FORMAT_VERSION = 1
_HEADER = struct.Struct("<4sIQ")
_U32 = struct.Struct("<I")


def sstable_path(sst_dir: str, number: int) -> str:
    return os.path.join(sst_dir, f"{number:08d}.sst")


def write_sstable(
    path: str, entries: Sequence[Tuple[bytes, bytes]], use_fsync: bool = True
) -> int:
    parts: List[bytes] = [_HEADER.pack(SST_MAGIC, SST_FORMAT_VERSION, len(entries))]
    for k, v in entries:
        parts.append(_U32.pack(len(k)))
        parts.append(k)
        parts.append(_U32.pack(len(v)))
        parts.append(v)
    blob = b"".join(parts)
    blob += _U32.pack(zlib.crc32(blob))
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
        f.flush()
        if use_fsync:
            os.fsync(f.fileno())
    os.replace(tmp, path)
    return len(blob)


def read_sstable(path: str) -> SSTable:
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


# ----------------------------------------------------------------- wal codec
WAL_MAGIC = b"OWAL"
WAL_FORMAT_VERSION = 1
_SEG_HEADER = struct.Struct("<4sIQ")
_REC_HEADER = struct.Struct("<II")
_SEG_NAME = re.compile(r"^wal-(\d{6})\.log$")
REC_PUT = 1
REC_DELETE = 2
_MAX_RECORD_BYTES = 64 * 1024 * 1024


class WalRecord(NamedTuple):
    lsn: int
    rec_type: int
    key: bytes
    value: bytes


def encode_record(rec_type: int, key: bytes, value: bytes) -> bytes:
    payload = struct.pack("<BI", rec_type, len(key)) + key + struct.pack("<I", len(value)) + value
    body = struct.pack("<I", len(payload)) + payload
    return struct.pack("<I", zlib.crc32(body)) + body


def _decode_payload(payload: bytes) -> Tuple[int, bytes, bytes]:
    if len(payload) < 5:
        raise ValueError("payload shorter than its fixed fields")
    rec_type, klen = struct.unpack_from("<BI", payload, 0)
    off = 5
    if off + klen + 4 > len(payload):
        raise ValueError("key length exceeds payload")
    key = payload[off : off + klen]
    off += klen
    (vlen,) = struct.unpack_from("<I", payload, off)
    off += 4
    if off + vlen != len(payload):
        raise ValueError("value length does not close the payload")
    return rec_type, key, payload[off : off + vlen]


@dataclass
class _Segment:
    seq: int
    path: str
    first_lsn: int


@dataclass
class WalReplay:
    records: List[WalRecord] = field(default_factory=list)
    segments_scanned: int = 0
    bytes_scanned: int = 0
    last_lsn: int = 0
    last_seq: int = 0
    torn_tail: bool = False
    final_valid_bytes: int = 0
    final_path: Optional[str] = None


def scan_segments(wal_dir: str) -> List[_Segment]:
    if not os.path.isdir(wal_dir):
        return []
    segs = []
    for name in os.listdir(wal_dir):
        m = _SEG_NAME.match(name)
        if m:
            segs.append(_Segment(int(m.group(1)), os.path.join(wal_dir, name), 0))
    segs.sort(key=lambda s: s.seq)
    return segs


def replay_wal(wal_dir: str, start_lsn: int = 0) -> WalReplay:
    out = WalReplay()
    segs = scan_segments(wal_dir)
    if not segs:
        return out
    expected_lsn: Optional[int] = None
    final_seq = segs[-1].seq
    for seg in segs:
        is_final = seg.seq == final_seq
        with open(seg.path, "rb") as f:
            data = f.read()
        out.segments_scanned += 1
        out.bytes_scanned += len(data)
        out.last_seq = seg.seq
        if is_final:
            out.final_path = seg.path
            out.final_valid_bytes = 0

        def bad(msg: str) -> bool:
            if is_final:
                out.torn_tail = True
                return True
            raise WalCorruptionError(f"{seg.path}: {msg}")

        if len(data) < _SEG_HEADER.size:
            if bad("truncated segment header"):
                continue
        magic, version, first_lsn = _SEG_HEADER.unpack_from(data, 0)
        if magic != WAL_MAGIC:
            if bad(f"bad magic {magic!r}"):
                continue
        if version != WAL_FORMAT_VERSION:
            raise WalCorruptionError(f"{seg.path}: unsupported WAL version {version}")
        if expected_lsn is not None and first_lsn != expected_lsn:
            raise WalCorruptionError(
                f"{seg.path}: first LSN {first_lsn} leaves a gap (expected {expected_lsn})"
            )
        if expected_lsn is None and first_lsn > start_lsn + 1:
            raise WalCorruptionError(
                f"{seg.path}: first LSN {first_lsn} implies records "
                f"{start_lsn + 1}..{first_lsn - 1} are missing"
            )
        lsn = first_lsn
        off = _SEG_HEADER.size
        n = len(data)
        if is_final:
            out.final_valid_bytes = _SEG_HEADER.size
        while off < n:
            if off + _REC_HEADER.size > n:
                bad("torn record header")
                break
            crc, length = _REC_HEADER.unpack_from(data, off)
            if length > _MAX_RECORD_BYTES:
                bad(f"implausible record length {length}")
                break
            end = off + _REC_HEADER.size + length
            if end > n:
                bad("torn record body")
                break
            body = data[off + 4 : end]
            if zlib.crc32(body) != crc:
                bad("record CRC mismatch")
                break
            try:
                rec_type, key, value = _decode_payload(data[off + _REC_HEADER.size : end])
            except ValueError as exc:
                bad(f"malformed payload ({exc})")
                break
            if rec_type not in (REC_PUT, REC_DELETE):
                bad(f"unknown record type {rec_type}")
                break
            if lsn > start_lsn:
                out.records.append(WalRecord(lsn, rec_type, key, value))
            out.last_lsn = lsn
            lsn += 1
            off = end
            if is_final:
                out.final_valid_bytes = off
        else:
            expected_lsn = lsn
            continue
        expected_lsn = lsn
        if out.torn_tail:
            break
    return out


class WalWriter:
    def __init__(
        self,
        wal_dir: str,
        segment_bytes: int = 1 << 20,
        group_commit_records: int = 32,
        use_fsync: bool = True,
        start_lsn: int = 1,
        start_seq: int = 1,
        stats=None,
        sync_listener=None,
    ):
        if segment_bytes < _SEG_HEADER.size + _REC_HEADER.size:
            raise ValueError("segment_bytes is too small to hold a record")
        if group_commit_records < 1:
            raise ValueError("group_commit_records must be >= 1")
        self.wal_dir = wal_dir
        self.segment_bytes = segment_bytes
        self.group_commit_records = group_commit_records
        self.use_fsync = use_fsync
        self.stats = stats
        self.sync_listener = sync_listener
        os.makedirs(wal_dir, exist_ok=True)
        self.next_lsn = int(start_lsn)
        self.durable_lsn = int(start_lsn) - 1
        self._next_seq = int(start_seq)
        self._fh = None
        self._seg_size = 0
        self._batch: List[bytes] = []
        self._batch_records = 0
        self._closed = False

    def _open_segment(self) -> None:
        path = os.path.join(self.wal_dir, f"wal-{self._next_seq:06d}.log")
        self._fh = open(path, "wb")
        header = _SEG_HEADER.pack(WAL_MAGIC, WAL_FORMAT_VERSION, self.next_lsn - self._batch_records)
        self._fh.write(header)
        self._seg_size = len(header)
        self._next_seq += 1

    @property
    def last_appended_lsn(self) -> int:
        return self.next_lsn - 1

    def append(self, rec_type: int, key: bytes, value: bytes = b"") -> int:
        if self._closed:
            raise RuntimeError("WAL is closed")
        framed = encode_record(rec_type, key, value)
        lsn = self.next_lsn
        self.next_lsn += 1
        self._batch.append(framed)
        self._batch_records += 1
        if self.stats is not None:
            self.stats.wal_appends += 1
            self.stats.wal_bytes += len(framed)
        if self._batch_records >= self.group_commit_records:
            self.sync()
        return lsn

    @property
    def closed(self) -> bool:
        return self._closed

    def sync(self) -> int:
        if self._closed:
            raise RuntimeError("WAL is closed")
        n = self._batch_records
        if n == 0:
            return 0
        if self._fh is None:
            self._open_segment()
        self._fh.write(b"".join(self._batch))
        self._fh.flush()
        if self.use_fsync:
            os.fsync(self._fh.fileno())
        if self.stats is not None:
            self.stats.fsyncs += 1
        self._seg_size += sum(len(b) for b in self._batch)
        self._batch = []
        self._batch_records = 0
        self.durable_lsn = self.next_lsn - 1
        if self.sync_listener is not None:
            self.sync_listener(n)
        if self._seg_size >= self.segment_bytes:
            self._fh.close()
            self._fh = None
        return n

    def truncate_upto(self, lsn: int) -> int:
        segs = scan_segments(self.wal_dir)
        if len(segs) <= 1:
            return 0
        removed = 0
        firsts = []
        for seg in segs:
            with open(seg.path, "rb") as f:
                head = f.read(_SEG_HEADER.size)
            if len(head) < _SEG_HEADER.size:
                firsts.append(None)
            else:
                firsts.append(_SEG_HEADER.unpack(head)[2])
        for i in range(len(segs) - 1):
            nxt = firsts[i + 1]
            if nxt is None or nxt > lsn + 1:
                break
            os.unlink(segs[i].path)
            removed += 1
        return removed

    def crash(self) -> None:
        self._batch = []
        self._batch_records = 0
        self.next_lsn = self.durable_lsn + 1
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    def close(self) -> None:
        if self._closed:
            return
        self.sync()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True


# ------------------------------------------------------------------- backend
class DurableBackend:
    def __init__(self, data_dir: str, manifest: Manifest, wal: WalWriter,
                 options: DurabilityOptions):
        self.data_dir = data_dir
        self.manifest = manifest
        self.wal = wal
        self.options = options
        self.sst_dir = os.path.join(data_dir, "sst")
        os.makedirs(self.sst_dir, exist_ok=True)
        self._next_file = manifest.state.next_file_number
        self._pending_deletes: List[int] = []
        self._closed = False

    def log_put(self, key: bytes, value: bytes) -> int:
        return self.wal.append(REC_PUT, key, value)

    def log_delete(self, key: bytes) -> int:
        return self.wal.append(REC_DELETE, key)

    def sync(self) -> int:
        return self.wal.sync()

    @property
    def closed(self) -> bool:
        return self.wal.closed

    @property
    def last_appended_lsn(self) -> int:
        return self.wal.last_appended_lsn

    def persist_run(self, run) -> int:
        number = self._next_file
        self._next_file += 1
        write_sstable(
            sstable_path(self.sst_dir, number),
            list(run.items()),
            use_fsync=self.options.use_fsync,
        )
        run.file_number = number
        return number

    def edit_add(self, level: int, guard_lo: Optional[bytes], run) -> None:
        if run.file_number is None:
            self.persist_run(run)
        self.manifest.log_add(level, guard_lo, run.file_number, run.size_bytes)

    def edit_remove(self, level: int, guard_lo: Optional[bytes], run) -> None:
        if run.file_number is None:
            return
        self.manifest.log_remove(level, guard_lo, run.file_number)
        self._pending_deletes.append(run.file_number)
        run.file_number = None

    def note_guards(self, level: int, los: List[bytes]) -> None:
        self.manifest.log_guards(level, los)

    def commit(self, flush_lsn: int) -> None:
        if flush_lsn > 0:
            self.manifest.log_checkpoint(flush_lsn)
        self.manifest.commit()
        if flush_lsn > 0:
            self.wal.truncate_upto(flush_lsn)
        for number in self._pending_deletes:
            path = sstable_path(self.sst_dir, number)
            if os.path.exists(path):
                os.unlink(path)
        self._pending_deletes = []

    def crash(self) -> None:
        self.wal.crash()
        self.manifest.crash()
        self._pending_deletes = []
        self._closed = True

    def close(self) -> None:
        if self._closed:
            return
        self.wal.close()
        self.manifest.close()
        self._closed = True


# ------------------------------------------------------------------ recovery
def _load_tables(store, manifest: Manifest, report: RecoveryReport) -> None:
    state = manifest.state
    for level, los in sorted(state.guards.items()):
        if not 1 <= level < store.max_levels:
            raise ManifestError(
                f"guards recorded at level {level}, outside this store's "
                f"1..{store.max_levels - 1}"
            )
        store.levels[level] = [_Guard(lo) for lo in sorted(los)]
    guard_by_lo = {
        (level, g.lo): g for level in range(1, store.max_levels) for g in store.levels[level]
    }
    for (level, guard_lo), files in sorted(
        state.tables.items(), key=lambda kv: (kv[0][0], kv[0][1] or b"")
    ):
        if level == 0:
            target = store.level0
        else:
            guard = guard_by_lo.get((level, guard_lo))
            if guard is None:
                raise ManifestError(
                    f"table add references unknown guard {guard_lo!r} at level {level}"
                )
            target = guard.runs
        for number in files:
            path = sstable_path(os.path.join(store.backend_dir, "sst"), number)
            run = read_sstable(path)
            run.file_number = number
            target.append(run)
            report.tables_loaded += 1
            report.sst_bytes_loaded += os.path.getsize(path)


def open_store(data_dir: str, options: Optional[DurabilityOptions] = None, stats=None,
               sync_listener=None, **lsm_kwargs):
    options = options or DurabilityOptions()
    os.makedirs(data_dir, exist_ok=True)
    wal_dir = os.path.join(data_dir, "wal")
    existed = Manifest.exists(data_dir) or bool(scan_segments(wal_dir))

    store = LSMStore(**lsm_kwargs)
    if stats is not None:
        store.stats = stats
    store.backend_dir = data_dir
    report = RecoveryReport()

    manifest = Manifest.open(data_dir, Manifest.read(data_dir), use_fsync=options.use_fsync)
    report.manifest_edits = manifest.state.edits_applied
    _load_tables(store, manifest, report)

    replay = replay_wal(wal_dir, start_lsn=manifest.state.wal_checkpoint_lsn)
    report.wal_records_replayed = len(replay.records)
    report.wal_bytes_scanned = replay.bytes_scanned
    report.wal_segments_scanned = replay.segments_scanned
    report.torn_tail = replay.torn_tail
    for rec in replay.records:
        if rec.rec_type == REC_PUT:
            store.mem.put(rec.key, rec.value)
        else:
            store.mem.delete(rec.key)
    if replay.torn_tail and replay.final_path is not None:
        with open(replay.final_path, "r+b") as f:
            f.truncate(replay.final_valid_bytes)
        if replay.final_valid_bytes == 0:
            os.unlink(replay.final_path)

    next_lsn = max(replay.last_lsn, manifest.state.wal_checkpoint_lsn) + 1
    wal = WalWriter(
        wal_dir,
        segment_bytes=options.segment_bytes,
        group_commit_records=options.group_commit_records,
        use_fsync=options.use_fsync,
        start_lsn=next_lsn,
        start_seq=replay.last_seq + 1,
        stats=store.stats,
        sync_listener=sync_listener,
    )
    store.backend = DurableBackend(data_dir, manifest, wal, options)
    store.last_recovery = report
    if existed:
        store.stats.recoveries += 1
    if len(store.mem) >= store.memtable_limit:
        store._flush()
    return store


# ------------------------------------------------------------- fault queries
def slowdown_factor(events, mds: int, now: float) -> float:
    f = 1.0
    for e in events:
        if e.mds == mds and isinstance(e, Slowdown) and e.active(now):
            f = max(f, e.factor)
    return f


def partitioned(events, mds: int, now: float) -> bool:
    return any(e.mds == mds and isinstance(e, Partition) and e.active(now) for e in events)


def drop_probability(events, mds: int, now: float) -> float:
    p = 0.0
    for e in events:
        if e.mds == mds and isinstance(e, RpcDrop) and e.active(now):
            p = max(p, e.probability)
    return p


def extra_delay_ms(events, mds: int, now: float) -> float:
    return sum(e.extra_ms for e in events if e.mds == mds and isinstance(e, RpcDelay) and e.active(now))


class Gate:
    """The earlier ``FaultInjector.rpc_gate`` over the queries above, with
    the counters it kept."""

    def __init__(self, events, retry, servers, rtt: float, drop_rng):
        self.events = sorted(events, key=lambda e: (e.start_ms, e.mds))
        self.retry = retry
        self.servers = servers
        self.rtt = rtt
        self._drop_rng = drop_rng
        self.rpc_timeouts = 0
        self.connection_refusals = 0
        self.rpc_drops = 0

    def rpc_gate(self, mds: int, now: float, span=None):
        if partitioned(self.events, mds, now):
            wait = self.retry.rpc_timeout_ms
            self.rpc_timeouts += 1
            error = RpcTimeoutError(mds, "partitioned")
        elif not self.servers[mds].up:
            wait = self.rtt
            self.connection_refusals += 1
            error = MdsUnavailableError(mds)
        else:
            p = drop_probability(self.events, mds, now)
            if p > 0.0 and float(self._drop_rng.random()) < p:
                wait = self.retry.rpc_timeout_ms
                self.rpc_drops += 1
                error = RpcDroppedError(mds)
            else:
                wait = extra_delay_ms(self.events, mds, now)
                if wait <= 0.0:
                    return None
                error = None
        if span is not None:
            span.fault_wait_ms += wait
        return wait, error
