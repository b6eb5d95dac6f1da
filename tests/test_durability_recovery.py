"""Crash-consistent recovery tests (repro.durability.recovery).

The centrepiece is the crash-at-any-offset sweep: truncating the WAL at
EVERY byte offset must recover exactly the acknowledged prefix of writes —
never a partial record, never a lost acked record.
"""

import os
import shutil

import pytest

from repro.cli import main
from repro.durability import DurabilityOptions, inspect_data_dir, open_store
from repro.durability.errors import (
    ManifestError,
    SSTableCorruptionError,
)
from repro.durability.wal import _SEG_HEADER, encode_record, scan_segments

OPTS = DurabilityOptions(use_fsync=False)


def live(store):
    return dict(store.scan(b"", b"\xff" * 8))


# ------------------------------------------------------------ open lifecycle


def test_open_initialises_fresh_directory(tmp_path):
    s = open_store(str(tmp_path / "d"), options=OPTS)
    assert live(s) == {}
    assert s.stats.recoveries == 0
    assert s.backend is not None
    s.close()


def test_close_reopen_roundtrip_preserves_everything(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=8)
    expect = {}
    for i in range(100):
        k, v = b"k%04d" % i, b"v%d" % i
        s.put(k, v)
        expect[k] = v
    for i in range(0, 100, 3):
        k = b"k%04d" % i
        s.delete(k)
        expect.pop(k)
    s.close()
    s2 = open_store(d, options=OPTS, memtable_limit=8)
    assert s2.stats.recoveries == 1
    assert live(s2) == expect
    for k, v in expect.items():
        assert s2.get(k) == v
    s2.close()


def test_reopen_cycles_accumulate(tmp_path):
    d = str(tmp_path / "d")
    expect = {}
    for cycle in range(5):
        s = open_store(d, options=OPTS, memtable_limit=4)
        assert live(s) == expect
        for i in range(20):
            k = b"c%d-k%02d" % (cycle, i)
            s.put(k, b"v")
            expect[k] = b"v"
        s.close()
    s = open_store(d, options=OPTS, memtable_limit=4)
    assert live(s) == expect
    assert s.stats.recoveries == 1  # per-open counter on fresh stats
    s.close()


def test_memtable_only_store_survives_reopen(tmp_path):
    # close() does not flush: the memtable must come back via WAL replay
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=1000)
    s.put(b"only", b"in-wal")
    s.close()
    assert not os.path.isdir(os.path.join(d, "sst")) or not os.listdir(
        os.path.join(d, "sst")
    )
    s2 = open_store(d, options=OPTS, memtable_limit=1000)
    assert s2.get(b"only") == b"in-wal"
    s2.close()


def test_recovery_report_records_work(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=8)
    for i in range(80):
        s.put(b"k%04d" % i, b"x" * 32)
    s.close()
    s2 = open_store(d, options=OPTS, memtable_limit=8)
    rep = s2.last_recovery
    assert rep.tables_loaded > 0
    assert rep.sst_bytes_loaded > 0
    assert rep.wal_bytes_scanned >= 0
    assert rep.manifest_edits > 0
    d2 = rep.as_dict()
    assert d2["tables_loaded"] == float(rep.tables_loaded)
    s2.close()


# ----------------------------------------------------- crash-path semantics


def test_crash_loses_only_unacked_writes(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=DurabilityOptions(use_fsync=False, group_commit_records=1000),
                   memtable_limit=1000)
    s.put(b"acked", b"1")
    s.sync()
    s.put(b"unacked", b"2")  # buffered, never group-committed
    s.crash()
    s2 = open_store(d, options=OPTS, memtable_limit=1000)
    assert s2.get(b"acked") == b"1"
    assert s2.get(b"unacked") is None
    s2.close()


def test_flush_makes_writes_durable_without_sync(tmp_path):
    # a flush persists SSTables + manifest, so even unsynced WAL records
    # whose data reached tables survive a crash
    d = str(tmp_path / "d")
    s = open_store(d, options=DurabilityOptions(use_fsync=False, group_commit_records=1000),
                   memtable_limit=4)
    for i in range(8):  # two flushes
        s.put(b"k%d" % i, b"v")
    s.crash()
    s2 = open_store(d, options=OPTS)
    for i in range(8):
        assert s2.get(b"k%d" % i) == b"v"
    s2.close()


def test_orphan_sstable_is_ignored(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=4)
    for i in range(10):
        s.put(b"k%d" % i, b"v")
    s.close()
    # simulate a crash between writing a run's file (1) and the manifest
    # commit (2):
    # an .sst file exists that no manifest edit references
    from repro.durability.sstable_io import sstable_path, write_sstable

    orphan = sstable_path(os.path.join(d, "sst"), 9999)
    write_sstable(orphan, [(b"ghost", b"boo")], use_fsync=False)
    s2 = open_store(d, options=OPTS, memtable_limit=4)
    assert s2.get(b"ghost") is None
    s2.close()


def test_crash_inside_a_flush_leaves_no_file_for_its_runs(tmp_path):
    """A crash after a flush's ``edit_add`` calls but before its commit: the
    reopened store holds exactly the acked prefix, and no file exists for
    the runs that flush created."""
    d = str(tmp_path / "d")
    sst = os.path.join(d, "sst")
    shape = dict(memtable_limit=4, level0_limit=1, runs_per_guard=1, max_levels=3)
    s = open_store(d, options=DurabilityOptions(use_fsync=False, group_commit_records=3),
                   **shape)
    acked = {}
    for i in range(36):  # nine committed flushes: level 0 is left one run
        s.put(b"k%03d" % i, b"a%d" % i)
        acked[b"k%03d" % i] = b"a%d" % i
    s.sync()
    live_before = set(os.listdir(sst))
    backend = s.backend
    base_lsn = backend.wal.durable_lsn

    class Crashed(Exception):
        pass

    added = []
    real_add = backend.edit_add

    def edit_add(level, guard_lo, run):
        real_add(level, guard_lo, run)
        added.append(run.file_number)

    def commit(flush_lsn):
        # the WAL records synced by now are the acked ones
        acked_lsns.append(backend.wal.durable_lsn)
        s.crash()
        raise Crashed

    acked_lsns = []
    backend.edit_add = edit_add
    backend.commit = commit
    writes = []
    with pytest.raises(Crashed):
        for i in range(40):
            k, v = b"k%03d" % (i * 7 % 50), b"b%d" % i
            writes.append((k, v))
            s.put(k, v)
    assert len(added) > 1  # the flush compacted: its level-0 run was superseded
    for k, v in writes[: acked_lsns[0] - base_lsn]:
        acked[k] = v
    s2 = open_store(d, options=OPTS, **shape)
    assert live(s2) == acked
    for number in added:
        assert not os.path.exists(os.path.join(sst, f"{number:08d}.sst"))
    assert set(os.listdir(sst)) == live_before
    s2.close()


def test_corrupt_live_sstable_raises_typed(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=4)
    for i in range(30):
        s.put(b"k%04d" % i, b"x" * 16)
    s.close()
    sst_dir = os.path.join(d, "sst")
    victim = sorted(os.listdir(sst_dir))[0]
    path = os.path.join(sst_dir, victim)
    blob = bytearray(open(path, "rb").read())
    blob[len(blob) // 2] ^= 0xFF
    open(path, "wb").write(bytes(blob))
    with pytest.raises(SSTableCorruptionError):
        open_store(d, options=OPTS, memtable_limit=4)


def test_deep_compaction_state_survives_reopen(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=4, runs_per_guard=2,
                   level0_limit=2, max_levels=4)
    expect = {}
    for i in range(400):
        k = b"k%05d" % i
        s.put(k, b"v%d" % i)
        expect[k] = b"v%d" % i
    for i in range(0, 100):
        k = b"k%05d" % i
        s.delete(k)
        expect.pop(k)
    assert s.stats.compactions > 0
    s.close()
    s2 = open_store(d, options=OPTS, memtable_limit=4, runs_per_guard=2,
                    level0_limit=2, max_levels=4)
    assert live(s2) == expect
    # guard structure came back too: reads don't devolve into full scans
    assert any(s2.levels[lv] for lv in range(1, s2.max_levels))
    s2.close()


# ------------------------------------- the invariant: crash at ANY offset


def test_recovery_exact_at_every_truncation_offset(tmp_path):
    """Truncate the (only) WAL segment at every byte offset; recovery must
    surface exactly the records whose frames are fully inside the prefix."""
    d = str(tmp_path / "origin")
    s = open_store(d, options=DurabilityOptions(use_fsync=False, group_commit_records=1),
                   memtable_limit=10_000)  # everything stays in the WAL
    writes = []
    for i in range(12):
        k, v = b"key%02d" % i, b"val%02d" % i
        s.put(k, v)
        writes.append((k, v))
    s.close()
    segs = scan_segments(os.path.join(d, "wal"))
    assert len(segs) == 1
    seg_path_rel = os.path.relpath(segs[0].path, d)
    full = open(segs[0].path, "rb").read()

    # frame boundaries: header, then one frame per record
    bounds = [_SEG_HEADER.size]
    for k, v in writes:
        from repro.durability.wal import REC_PUT

        bounds.append(bounds[-1] + len(encode_record(REC_PUT, k, v)))
    assert bounds[-1] == len(full)

    for cut in range(len(full) + 1):
        work = str(tmp_path / "work")
        if os.path.exists(work):
            shutil.rmtree(work)
        shutil.copytree(d, work)
        with open(os.path.join(work, seg_path_rel), "r+b") as f:
            f.truncate(cut)
        # number of records fully contained in the first `cut` bytes
        n_ok = sum(1 for b in bounds[1:] if b <= cut)
        s2 = open_store(work, options=OPTS, memtable_limit=10_000)
        assert live(s2) == dict(writes[:n_ok]), f"cut at byte {cut}"
        # recovery may continue appending: the store stays writable
        s2.put(b"after", b"crash")
        assert s2.get(b"after") == b"crash"
        s2.close()


def test_recovery_truncates_torn_tail_in_place(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=DurabilityOptions(use_fsync=False, group_commit_records=1),
                   memtable_limit=1000)
    for i in range(5):
        s.put(b"k%d" % i, b"v")
    s.close()
    seg = scan_segments(os.path.join(d, "wal"))[0]
    size = os.path.getsize(seg.path)
    with open(seg.path, "r+b") as f:
        f.truncate(size - 2)
    s2 = open_store(d, options=OPTS, memtable_limit=1000)
    assert s2.last_recovery.torn_tail
    assert len(live(s2)) == 4
    s2.close()
    # the torn bytes are gone from disk: a third open sees a clean log
    s3 = open_store(d, options=OPTS, memtable_limit=1000)
    assert not s3.last_recovery.torn_tail
    assert len(live(s3)) == 4
    s3.close()


# -------------------------------------------------------------- inspection


def test_inspect_data_dir_summary(tmp_path):
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=8)
    for i in range(40):
        s.put(b"k%04d" % i, b"x" * 16)
    s.close()
    report, info = inspect_data_dir(d)
    assert info["data_dir"] == d
    assert info["manifest_edits"] > 0
    assert info["live_tables"] > 0
    assert info["sst_bytes"] > 0
    assert info["wal_last_lsn"] == 40
    assert info["torn_tail"] is False
    # inspection is read-only: a second call sees identical state
    assert inspect_data_dir(d) == (report, info)


def test_inspect_empty_dir_raises_typed(tmp_path):
    with pytest.raises(ManifestError):
        inspect_data_dir(str(tmp_path))


def directory_bytes(d):
    out = {}
    for root, _, names in os.walk(d):
        for name in names:
            path = os.path.join(root, name)
            with open(path, "rb") as f:
                out[os.path.relpath(path, d)] = f.read()
    return out


@pytest.mark.parametrize("shape", [
    dict(memtable_limit=1000),  # WAL only
    dict(memtable_limit=4),
    dict(memtable_limit=3, runs_per_guard=1, level0_limit=1, max_levels=4),
])
def test_inspect_numbers_are_the_following_recovery_report(tmp_path, shape):
    d = str(tmp_path / "d")
    s = open_store(d, options=DurabilityOptions(use_fsync=False, group_commit_records=3),
                   **shape)
    for i in range(90):
        s.put(b"k%03d" % (i * 7 % 60), b"v%d" % i)
        if i % 4 == 0:
            s.delete(b"k%03d" % (i * 11 % 60))
    s.crash()
    before = directory_bytes(d)
    report, info = inspect_data_dir(d)
    assert directory_bytes(d) == before
    s2 = open_store(d, options=OPTS, **shape)
    assert report == s2.last_recovery
    assert (info["manifest_edits"], info["live_tables"], info["sst_bytes"],
            info["wal_segments"], info["wal_bytes"], info["wal_records_pending"],
            info["torn_tail"]) == (
        report.manifest_edits, report.tables_loaded, report.sst_bytes_loaded,
        report.wal_segments_scanned, report.wal_bytes_scanned,
        report.wal_records_replayed, report.torn_tail,
    )
    s2.close()


@pytest.mark.parametrize("damage", ["deleted", "flipped"])
def test_recover_refuses_what_recovery_refuses(tmp_path, capsys, damage):
    """A live SSTable deleted or bit-flipped: ``inspect_data_dir`` raises the
    error ``open_store`` raises, ``repro recover`` exits 1 with one line,
    and the refused ``open_store`` leaves the directory as it was."""
    d = str(tmp_path / "d")
    s = open_store(d, options=OPTS, memtable_limit=4)
    for i in range(60):
        s.put(b"k%04d" % i, b"x" * 16)
    s.close()
    sst_dir = os.path.join(d, "sst")
    victim = os.path.join(sst_dir, sorted(os.listdir(sst_dir))[-1])
    if damage == "deleted":
        os.unlink(victim)
    else:
        blob = bytearray(open(victim, "rb").read())
        blob[len(blob) // 2] ^= 0x01
        open(victim, "wb").write(bytes(blob))
    before = directory_bytes(d)
    with pytest.raises(SSTableCorruptionError) as inspected:
        inspect_data_dir(d)
    with pytest.raises(SSTableCorruptionError) as opened:
        open_store(d, options=OPTS, memtable_limit=4)
    assert str(inspected.value) == str(opened.value)
    assert directory_bytes(d) == before  # the MANIFEST was not rewritten
    capsys.readouterr()
    assert main(["recover", d]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and str(opened.value) in err


def test_reopen_over_an_lsn_jump_the_checkpoint_covers(tmp_path):
    """A flush checkpoints WAL records that were never synced, the store
    crashes, and the reopened writer continues past them in a new segment
    while the segment before the jump stays: the next reopen must accept
    the jump, since the MANIFEST checkpoint covers every skipped LSN."""
    d = str(tmp_path / "d")
    opts = DurabilityOptions(segment_bytes=32, group_commit_records=2, use_fsync=False)
    shape = dict(memtable_limit=1, level0_limit=0)
    s = open_store(d, options=opts, **shape)
    for k in (b"k0", b"k1", b"k2"):
        s.put(k, b"v")
    s.crash()
    s = open_store(d, options=opts, **shape)
    s.delete(b"k0")
    s.close()
    s = open_store(d, options=opts, **shape)
    assert live(s) == {b"k1": b"v", b"k2": b"v"}
    s.close()
