"""Segmented, CRC32-checksummed write-ahead log with group commit.

Layout: ``<data_dir>/wal/wal-<seq:06d>.log``.  Each segment opens with a
16-byte header (magic, format version, first LSN) followed by framed
records::

    [crc32: u32][length: u32][payload: length bytes]
    payload = [type: u8][klen: u32][key][vlen: u32][value]

The CRC covers the length field and the payload, so a torn or bit-flipped
length cannot send the reader off the rails.  LSNs are assigned densely in
append order; a segment's records are numbered from its header's first LSN,
which is what lets :func:`replay_wal` detect gaps between segments.

Group commit: ``append`` buffers encoded records in memory and only
``sync()`` writes them out and fsyncs — one device flush amortised over the
batch.  ``durable_lsn`` is the acknowledged-LSN watermark: exactly the
records a crash is guaranteed to preserve.  A simulated ``crash()`` drops
the unsynced buffer, which is precisely what a process crash does to
records that were appended but never fsynced.

Recovery policy (the acked-prefix invariant): a validation failure in the
**final** segment is treated as the torn tail of an interrupted append —
replay stops cleanly at the last valid record, surfacing no partial record.
The same failure in a **sealed** segment raises
:class:`~repro.durability.errors.WalCorruptionError`, because sealed
segments were fully synced and damage there is genuine corruption.
"""

from __future__ import annotations

import os
import re
import struct
import zlib
from dataclasses import dataclass, field
from typing import Callable, List, NamedTuple, Optional, Tuple

from repro.durability.errors import WalCorruptionError

__all__ = [
    "REC_PUT",
    "REC_DELETE",
    "WalRecord",
    "WalWriter",
    "WalReplay",
    "replay_wal",
    "scan_segments",
    "encode_record",
]

WAL_MAGIC = b"OWAL"
WAL_FORMAT_VERSION = 1

_SEG_HEADER = struct.Struct("<4sIQ")  # magic, version, first_lsn
_REC_HEADER = struct.Struct("<II")  # crc32, payload length
_REC_LEAD = struct.Struct("<IBI")  # payload length, then the payload's type, klen
_TYPE_KLEN = struct.Struct("<BI")
_U32 = struct.Struct("<I")
_SEG_NAME = re.compile(r"^wal-(\d{6})\.log$")

#: payload type tags
REC_PUT = 1
REC_DELETE = 2

#: refuse absurd record lengths outright (corrupt length fields would
#: otherwise make the reader allocate gigabytes before the CRC check)
_MAX_RECORD_BYTES = 64 * 1024 * 1024


class WalRecord(NamedTuple):
    """One decoded log record."""

    lsn: int
    rec_type: int
    key: bytes
    value: bytes


def encode_record(rec_type: int, key: bytes, value: bytes) -> bytes:
    """Frame one record (header + payload) ready for appending."""
    klen = len(key)
    vlen = len(value)
    body = b"".join(
        (_REC_LEAD.pack(_TYPE_KLEN.size + klen + _U32.size + vlen, rec_type, klen),
         key, _U32.pack(vlen), value)
    )
    return _U32.pack(zlib.crc32(body)) + body


def _decode_payload(payload: bytes) -> Tuple[int, bytes, bytes]:
    """Parse a CRC-validated payload; raises ValueError on malformed layout."""
    if len(payload) < 5:
        raise ValueError("payload shorter than its fixed fields")
    rec_type, klen = _TYPE_KLEN.unpack_from(payload, 0)
    off = _TYPE_KLEN.size
    if off + klen + _U32.size > len(payload):
        raise ValueError("key length exceeds payload")
    key = payload[off : off + klen]
    off += klen
    (vlen,) = _U32.unpack_from(payload, off)
    off += _U32.size
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
    """What one :func:`replay_wal` pass saw (feeds the recovery cost model)."""

    records: List[WalRecord] = field(default_factory=list)
    segments_scanned: int = 0
    bytes_scanned: int = 0
    #: highest LSN of a valid record seen (0 when the log is empty)
    last_lsn: int = 0
    #: highest segment sequence number present (0 when the log is empty)
    last_seq: int = 0
    #: True when the final segment ended in a torn/invalid record
    torn_tail: bool = False
    #: byte offset in the final segment up to which records were valid —
    #: recovery truncates the file here so the torn bytes never end up
    #: inside a sealed segment (where they would read as real corruption)
    final_valid_bytes: int = 0
    #: path of the final segment (None when the log is empty)
    final_path: Optional[str] = None


def scan_segments(wal_dir: str) -> List[_Segment]:
    """WAL segments in ``wal_dir``, sorted by sequence number."""
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
    """Decode every record with ``lsn > start_lsn``, tolerating a torn tail.

    Every segment must continue the LSN sequence: it may not start below
    the LSN after the previous segment's last record (1 for the first
    segment), and it may start above it only over LSNs that ``start_lsn``,
    the MANIFEST checkpoint, covers.  Those records are in SSTables, and a
    store reopened after a crash continues past them (``truncate_upto``
    retires a segment only once a later one exists, so the segment before
    such a jump can stay).  Raises :class:`WalCorruptionError` when a
    segment breaks this rule or a sealed segment is damaged; any other
    malformation is confined to the final segment and reported via
    ``torn_tail``.
    """
    out = WalReplay()
    segs = scan_segments(wal_dir)
    if not segs:
        return out
    next_lsn = 1
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
            """Handle an invalid region: tolerate in the final segment only."""
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
        if first_lsn < next_lsn:
            raise WalCorruptionError(
                f"{seg.path}: first LSN {first_lsn} goes back before LSN {next_lsn}"
            )
        uncovered = max(next_lsn, start_lsn + 1)
        if first_lsn > uncovered:
            raise WalCorruptionError(
                f"{seg.path}: first LSN {first_lsn} implies records "
                f"{uncovered}..{first_lsn - 1} are missing"
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
            body = data[off + 4 : end]  # length field + payload (CRC coverage)
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
        # a torn tail broke the loop only in the final segment
        next_lsn = lsn
    return out


class WalWriter:
    """Appender with group commit and an explicit acked-LSN watermark.

    ``stats`` may be any object exposing ``wal_appends`` / ``wal_bytes`` /
    ``fsyncs`` integer attributes (the store's
    :class:`~repro.kvstore.lsm.StoreStats`); counters are bumped in place.
    ``sync_listener`` is called with each group-commit batch size, feeding
    the ``wal_group_commit_size`` histogram when observability is on.
    """

    def __init__(
        self,
        wal_dir: str,
        segment_bytes: int = 1 << 20,
        group_commit_records: int = 32,
        use_fsync: bool = True,
        start_lsn: int = 1,
        start_seq: int = 1,
        stats=None,
        sync_listener: Optional[Callable[[int], None]] = None,
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

    # ------------------------------------------------------------- plumbing
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

    @property
    def pending_records(self) -> int:
        return self._batch_records

    # --------------------------------------------------------------- append
    def append(self, rec_type: int, key: bytes, value: bytes = b"") -> int:
        """Buffer one record; returns its LSN.  Durable only after sync()."""
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
        """Group-commit the buffered batch; returns records made durable."""
        if self._closed:
            raise RuntimeError("WAL is closed")
        n = self._batch_records
        if n == 0:
            return 0
        if self._fh is None:
            self._open_segment()
        blob = b"".join(self._batch)
        self._fh.write(blob)
        self._fh.flush()
        if self.use_fsync:
            os.fsync(self._fh.fileno())
        if self.stats is not None:
            self.stats.fsyncs += 1
        self._seg_size += len(blob)
        self._batch = []
        self._batch_records = 0
        self.durable_lsn = self.next_lsn - 1
        if self.sync_listener is not None:
            self.sync_listener(n)
        if self._seg_size >= self.segment_bytes:
            self._fh.close()
            self._fh = None  # sealed; next sync opens a fresh segment
        return n

    # ------------------------------------------------------------ lifecycle
    def truncate_upto(self, lsn: int) -> int:
        """Delete whole segments whose records are all ``<= lsn`` (obsolete
        after a memtable flush checkpointed them into SSTables).  The active
        (highest-seq) segment is never deleted.  Returns segments removed."""
        segs = scan_segments(self.wal_dir)
        if len(segs) <= 1:
            return 0
        removed = 0
        # a sealed segment is obsolete iff the *next* segment starts at or
        # below lsn+1 (i.e. every record in it has lsn <= lsn)
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
        """Simulate a process crash: the unsynced batch is lost."""
        self._batch = []
        self._batch_records = 0
        self.next_lsn = self.durable_lsn + 1
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True

    def close(self) -> None:
        """Clean shutdown: sync the tail, then release the file handle."""
        if self._closed:
            return
        self.sync()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
        self._closed = True
