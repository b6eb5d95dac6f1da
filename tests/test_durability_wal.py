"""Unit tests for the segmented, checksummed WAL (repro.durability.wal)."""

import os
import struct

import pytest

from repro.durability.errors import WalCorruptionError
from repro.durability.wal import (
    REC_DELETE,
    REC_PUT,
    WalWriter,
    encode_record,
    replay_wal,
    scan_segments,
)


def make_writer(tmp_path, **kw):
    kw.setdefault("use_fsync", False)
    return WalWriter(str(tmp_path / "wal"), **kw)


# ------------------------------------------------------------- append / sync


def test_append_assigns_dense_lsns(tmp_path):
    w = make_writer(tmp_path)
    lsns = [w.append(REC_PUT, b"k%d" % i, b"v") for i in range(5)]
    assert lsns == [1, 2, 3, 4, 5]
    assert w.last_appended_lsn == 5


def test_durable_lsn_advances_only_on_sync(tmp_path):
    w = make_writer(tmp_path, group_commit_records=100)
    w.append(REC_PUT, b"a", b"1")
    w.append(REC_PUT, b"b", b"2")
    assert w.durable_lsn == 0
    assert w.pending_records == 2
    assert w.sync() == 2
    assert w.durable_lsn == 2
    assert w.pending_records == 0
    assert w.sync() == 0  # idempotent when the batch is empty


def test_group_commit_auto_syncs_at_batch_size(tmp_path):
    w = make_writer(tmp_path, group_commit_records=3)
    w.append(REC_PUT, b"a", b"1")
    w.append(REC_PUT, b"b", b"2")
    assert w.durable_lsn == 0
    w.append(REC_PUT, b"c", b"3")  # third append trips the group commit
    assert w.durable_lsn == 3


def test_stats_counters_bump_in_place(tmp_path):
    class Stats:
        wal_appends = 0
        wal_bytes = 0
        fsyncs = 0

    st = Stats()
    w = make_writer(tmp_path, group_commit_records=2)
    w.stats = st
    w.append(REC_PUT, b"a", b"1")
    w.append(REC_PUT, b"b", b"2")
    assert st.wal_appends == 2
    assert st.wal_bytes > 0
    assert st.fsyncs == 1  # one group commit for the pair


def test_closed_writer_rejects_appends(tmp_path):
    w = make_writer(tmp_path)
    w.append(REC_PUT, b"a", b"1")
    assert not w.closed
    w.close()
    assert w.closed
    with pytest.raises(RuntimeError):
        w.append(REC_PUT, b"b", b"2")
    with pytest.raises(RuntimeError):
        w.sync()
    w.close()  # second close is a no-op


def test_crash_drops_unsynced_batch(tmp_path):
    w = make_writer(tmp_path, group_commit_records=100)
    w.append(REC_PUT, b"a", b"1")
    w.sync()
    w.append(REC_PUT, b"b", b"2")  # never synced
    w.crash()
    replay = replay_wal(str(tmp_path / "wal"))
    assert [r.key for r in replay.records] == [b"a"]
    assert replay.last_lsn == 1


# ------------------------------------------------------------------- replay


def test_replay_roundtrip_types_and_order(tmp_path):
    w = make_writer(tmp_path)
    w.append(REC_PUT, b"k1", b"v1")
    w.append(REC_DELETE, b"k1")
    w.append(REC_PUT, b"k2", b"v2")
    w.close()
    replay = replay_wal(str(tmp_path / "wal"))
    assert [(r.lsn, r.rec_type, r.key, r.value) for r in replay.records] == [
        (1, REC_PUT, b"k1", b"v1"),
        (2, REC_DELETE, b"k1", b""),
        (3, REC_PUT, b"k2", b"v2"),
    ]
    assert not replay.torn_tail
    assert replay.bytes_scanned > 0


def test_replay_start_lsn_skips_checkpointed_prefix(tmp_path):
    w = make_writer(tmp_path)
    for i in range(6):
        w.append(REC_PUT, b"k%d" % i, b"v")
    w.close()
    replay = replay_wal(str(tmp_path / "wal"), start_lsn=4)
    assert [r.lsn for r in replay.records] == [5, 6]
    assert replay.last_lsn == 6  # watermark still tracks everything seen


def test_replay_empty_dir(tmp_path):
    replay = replay_wal(str(tmp_path / "nowhere"))
    assert replay.records == [] and replay.last_lsn == 0


# ----------------------------------------------------------------- segments


def test_segment_rollover_and_scan(tmp_path):
    # tiny segments force a rollover every couple of records
    w = make_writer(tmp_path, segment_bytes=64, group_commit_records=1)
    for i in range(10):
        w.append(REC_PUT, b"key%02d" % i, b"value")
    w.close()
    segs = scan_segments(str(tmp_path / "wal"))
    assert len(segs) > 1
    assert [s.seq for s in segs] == sorted(s.seq for s in segs)
    replay = replay_wal(str(tmp_path / "wal"))
    assert [r.key for r in replay.records] == [b"key%02d" % i for i in range(10)]
    assert replay.segments_scanned == len(segs)


def test_truncate_upto_retires_only_whole_obsolete_segments(tmp_path):
    w = make_writer(tmp_path, segment_bytes=64, group_commit_records=1)
    for i in range(10):
        w.append(REC_PUT, b"key%02d" % i, b"value")
    w.close()
    before = scan_segments(str(tmp_path / "wal"))
    assert len(before) > 2
    # retire the prefix up to LSN 5: only segments fully <= 5 disappear
    w2 = WalWriter(str(tmp_path / "wal"), use_fsync=False,
                   start_lsn=11, start_seq=before[-1].seq + 1)
    removed = w2.truncate_upto(5)
    assert removed >= 1
    replay = replay_wal(str(tmp_path / "wal"), start_lsn=5)
    assert [r.lsn for r in replay.records] == [6, 7, 8, 9, 10]


def test_truncate_upto_never_deletes_the_active_segment(tmp_path):
    w = make_writer(tmp_path, group_commit_records=1)
    w.append(REC_PUT, b"a", b"1")
    w.close()
    w2 = WalWriter(str(tmp_path / "wal"), use_fsync=False, start_lsn=2, start_seq=2)
    assert w2.truncate_upto(10) == 0
    assert len(scan_segments(str(tmp_path / "wal"))) == 1


# -------------------------------------------------- torn tails vs corruption


def _only_segment(tmp_path):
    segs = scan_segments(str(tmp_path / "wal"))
    assert len(segs) == 1
    return segs[0].path


def test_torn_tail_in_final_segment_is_tolerated(tmp_path):
    w = make_writer(tmp_path, group_commit_records=1)
    for i in range(4):
        w.append(REC_PUT, b"k%d" % i, b"v%d" % i)
    w.close()
    path = _only_segment(tmp_path)
    size = os.path.getsize(path)
    with open(path, "r+b") as f:
        f.truncate(size - 3)  # tear the last record mid-body
    replay = replay_wal(str(tmp_path / "wal"))
    assert replay.torn_tail
    assert [r.key for r in replay.records] == [b"k0", b"k1", b"k2"]
    # final_valid_bytes points exactly at the end of the last good record
    with open(path, "rb") as f:
        good = f.read(replay.final_valid_bytes)
    assert good.endswith(encode_record(REC_PUT, b"k2", b"v2"))


def test_bitflip_in_final_segment_stops_cleanly(tmp_path):
    w = make_writer(tmp_path, group_commit_records=1)
    for i in range(3):
        w.append(REC_PUT, b"k%d" % i, b"v")
    w.close()
    path = _only_segment(tmp_path)
    data = bytearray(open(path, "rb").read())
    data[-5] ^= 0xFF  # flip a byte inside the last record
    open(path, "wb").write(bytes(data))
    replay = replay_wal(str(tmp_path / "wal"))
    assert replay.torn_tail
    assert [r.key for r in replay.records] == [b"k0", b"k1"]


def test_corruption_in_sealed_segment_raises_typed(tmp_path):
    w = make_writer(tmp_path, segment_bytes=64, group_commit_records=1)
    for i in range(8):
        w.append(REC_PUT, b"key%02d" % i, b"value")
    w.close()
    segs = scan_segments(str(tmp_path / "wal"))
    assert len(segs) > 1
    data = bytearray(open(segs[0].path, "rb").read())
    data[-1] ^= 0xFF  # damage the *sealed* first segment
    open(segs[0].path, "wb").write(bytes(data))
    with pytest.raises(WalCorruptionError):
        replay_wal(str(tmp_path / "wal"))


def test_lsn_gap_between_segments_raises_typed(tmp_path):
    w = make_writer(tmp_path, segment_bytes=64, group_commit_records=1)
    for i in range(8):
        w.append(REC_PUT, b"key%02d" % i, b"value")
    w.close()
    segs = scan_segments(str(tmp_path / "wal"))
    assert len(segs) > 2
    os.unlink(segs[1].path)  # a missing middle segment leaves an LSN gap
    with pytest.raises(WalCorruptionError):
        replay_wal(str(tmp_path / "wal"))
    # but the same jump is legitimate when the checkpoint covers the hole
    # (a store reopened after a crash continues past checkpointed LSNs)
    with open(segs[2].path, "rb") as f:
        first_lsn = struct.unpack("<4sIQ", f.read(16))[2]
    replay = replay_wal(str(tmp_path / "wal"), start_lsn=first_lsn - 1)
    assert [r.lsn for r in replay.records][0] == first_lsn


@pytest.mark.parametrize("segment_bytes", [1 << 20, 64])
def test_segment_starting_below_the_previous_end_raises_typed(tmp_path, segment_bytes):
    # the last segment's header goes back one LSN; with one segment that is
    # LSN 0, which would renumber the records and skip the first as
    # checkpointed
    w = make_writer(tmp_path, segment_bytes=segment_bytes, group_commit_records=1)
    for i in range(8):
        w.append(REC_PUT, b"key%02d" % i, b"value")
    w.close()
    path = scan_segments(str(tmp_path / "wal"))[-1].path
    blob = bytearray(open(path, "rb").read())
    magic, version, first_lsn = struct.unpack_from("<4sIQ", blob, 0)
    struct.pack_into("<4sIQ", blob, 0, magic, version, first_lsn - 1)
    open(path, "wb").write(bytes(blob))
    with pytest.raises(WalCorruptionError):
        replay_wal(str(tmp_path / "wal"))


def test_missing_oldest_segment_raises_typed(tmp_path):
    # deleting the OLDEST segment is not a legitimate truncate_upto trace:
    # the first surviving segment starts past start_lsn + 1
    w = make_writer(tmp_path, segment_bytes=64, group_commit_records=1)
    for i in range(8):
        w.append(REC_PUT, b"key%02d" % i, b"value")
    w.close()
    segs = scan_segments(str(tmp_path / "wal"))
    assert len(segs) > 1
    os.unlink(segs[0].path)
    with pytest.raises(WalCorruptionError):
        replay_wal(str(tmp_path / "wal"))
    # but the same layout IS legitimate when the checkpoint covers the hole
    with open(segs[1].path, "rb") as f:
        first_lsn = struct.unpack("<4sIQ", f.read(16))[2]
    replay = replay_wal(str(tmp_path / "wal"), start_lsn=first_lsn - 1)
    assert [r.lsn for r in replay.records][0] == first_lsn


def test_implausible_record_length_rejected(tmp_path):
    w = make_writer(tmp_path, group_commit_records=1)
    w.append(REC_PUT, b"a", b"1")
    w.close()
    path = _only_segment(tmp_path)
    with open(path, "ab") as f:  # append a frame claiming a 1GiB payload
        f.write(struct.pack("<II", 0, 1 << 30))
    replay = replay_wal(str(tmp_path / "wal"))
    assert replay.torn_tail
    assert [r.key for r in replay.records] == [b"a"]


def test_writer_param_validation(tmp_path):
    with pytest.raises(ValueError):
        make_writer(tmp_path, segment_bytes=4)
    with pytest.raises(ValueError):
        make_writer(tmp_path, group_commit_records=0)
