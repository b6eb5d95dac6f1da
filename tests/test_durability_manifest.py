"""Unit tests for the MANIFEST edit log (repro.durability.manifest)."""

import json
import zlib

import pytest

from repro.durability.errors import ManifestError
from repro.durability.manifest import MANIFEST_NAME, Manifest, VersionState, _canonical


def reopen(path):
    """Replay the MANIFEST and open its writer, as recovery does."""
    return Manifest.open(str(path), Manifest.read(str(path)), use_fsync=False)


def test_fresh_open_writes_header_only(tmp_path):
    m = reopen(tmp_path)
    assert m.state.tables == {} and m.state.guards == {}
    lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["e"]["type"] == "header"


def test_edits_roundtrip_through_reopen(tmp_path):
    m = reopen(tmp_path)
    m.log_guards(1, [b"", b"m"])
    m.log_add(0, None, 1, 100)
    m.log_add(1, b"", 2, 50)
    m.log_add(1, b"m", 3, 60)
    m.log_checkpoint(40)
    m.commit()
    m.close()
    m2 = reopen(tmp_path)
    s = m2.state
    assert s.guards == {1: [b"", b"m"]}
    assert s.tables == {(0, None): [1], (1, b""): [2], (1, b"m"): [3]}
    assert s.table_bytes == {1: 100, 2: 50, 3: 60}
    assert s.wal_checkpoint_lsn == 40
    assert s.next_file_number == 4


def test_reopen_compacts_add_remove_churn(tmp_path):
    m = reopen(tmp_path)
    for i in range(1, 21):
        m.log_add(0, None, i, 10)
    for i in range(1, 20):
        m.log_remove(0, None, i)
    m.commit()
    m.close()
    lines_before = len((tmp_path / MANIFEST_NAME).read_text().splitlines())
    assert lines_before == 1 + 39  # header + every edit appended
    m2 = reopen(tmp_path)
    assert m2.state.tables == {(0, None): [20]}
    lines_after = len((tmp_path / MANIFEST_NAME).read_text().splitlines())
    assert lines_after == 2  # header + the one surviving add


def test_recency_order_survives_compaction(tmp_path):
    m = reopen(tmp_path)
    for f in (1, 2, 3):  # 3 added last => newest
        m.log_add(1, b"", f, 10)
    m.commit()
    m.close()
    m2 = reopen(tmp_path)
    assert m2.state.tables[(1, b"")] == [3, 2, 1]  # newest first
    m2.close()
    m3 = reopen(tmp_path)  # compacted twice
    assert m3.state.tables[(1, b"")] == [3, 2, 1]


def test_pending_edits_invisible_until_commit(tmp_path):
    m = reopen(tmp_path)
    m.log_add(0, None, 1, 10)
    # state applies immediately; the file does not until commit()
    assert m.state.tables == {(0, None): [1]}
    lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert len(lines) == 1  # still just the header
    assert m.commit() == 1
    assert m.commit() == 0  # nothing pending on the second call
    lines = (tmp_path / MANIFEST_NAME).read_text().splitlines()
    assert len(lines) == 2


def test_crash_drops_pending_edits(tmp_path):
    m = reopen(tmp_path)
    m.log_add(0, None, 1, 10)
    m.commit()
    m.log_add(0, None, 2, 10)
    m.crash()  # edit 2 was never acked
    m2 = reopen(tmp_path)
    assert m2.state.tables == {(0, None): [1]}


def test_torn_last_line_tolerated(tmp_path):
    m = reopen(tmp_path)
    m.log_add(0, None, 1, 10)
    m.log_add(0, None, 2, 10)
    m.commit()
    m.close()
    path = tmp_path / MANIFEST_NAME
    raw = path.read_text().splitlines()
    raw[-1] = raw[-1][: len(raw[-1]) // 2]  # tear the final line mid-JSON
    path.write_text("\n".join(raw))  # no trailing newline either
    m2 = reopen(tmp_path)
    assert m2.state.tables == {(0, None): [1]}


def test_corrupt_middle_line_raises_typed(tmp_path):
    m = reopen(tmp_path)
    m.log_add(0, None, 1, 10)
    m.log_add(0, None, 2, 10)
    m.commit()
    m.close()
    path = tmp_path / MANIFEST_NAME
    lines = path.read_text().splitlines()
    lines[1] = lines[1].replace('"add"', '"adX"', 1)  # CRC now mismatches
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ManifestError):
        Manifest.read(str(tmp_path))


def test_valid_frame_with_unknown_edit_type_raises(tmp_path):
    path = tmp_path / MANIFEST_NAME
    edit = {"type": "mystery"}
    body = _canonical(edit)
    framed = json.dumps({"c": zlib.crc32(body.encode()), "e": edit},
                        sort_keys=True, separators=(",", ":"))
    good = {"type": "header", "version": 1}
    gbody = _canonical(good)
    gframed = json.dumps({"c": zlib.crc32(gbody.encode()), "e": good},
                         sort_keys=True, separators=(",", ":"))
    # the bad edit must not be the last line (that would read as torn tail)
    path.write_text(framed + "\n" + gframed + "\n")
    with pytest.raises(ManifestError):
        Manifest.read(str(tmp_path))


def test_newer_schema_version_rejected(tmp_path):
    path = tmp_path / MANIFEST_NAME
    edit = {"type": "header", "version": 99}
    body = _canonical(edit)
    framed = json.dumps({"c": zlib.crc32(body.encode()), "e": edit},
                        sort_keys=True, separators=(",", ":"))
    trailer = {"type": "checkpoint", "wal_lsn": 1}
    tbody = _canonical(trailer)
    tframed = json.dumps({"c": zlib.crc32(tbody.encode()), "e": trailer},
                         sort_keys=True, separators=(",", ":"))
    path.write_text(framed + "\n" + tframed + "\n")
    with pytest.raises(ManifestError):
        Manifest.read(str(tmp_path))


def test_remove_of_non_live_file_raises():
    s = VersionState()
    with pytest.raises(ManifestError):
        s.apply({"type": "remove", "level": 0, "guard": None, "file": 7}, "<test>")


def test_checkpoint_lsn_is_monotonic():
    s = VersionState()
    s.apply({"type": "checkpoint", "wal_lsn": 10}, "<test>")
    s.apply({"type": "checkpoint", "wal_lsn": 5}, "<test>")  # stale, ignored
    assert s.wal_checkpoint_lsn == 10


def test_snapshot_edits_replay_to_identical_state(tmp_path):
    s = VersionState()
    s.apply({"type": "guards", "level": 1, "los": ["", "6d"]}, "<t>")
    for f in (4, 7, 9):
        s.apply({"type": "add", "level": 1, "guard": "", "file": f, "bytes": f * 10}, "<t>")
    s.apply({"type": "checkpoint", "wal_lsn": 123}, "<t>")
    replayed = VersionState()
    for e in s.snapshot_edits():
        replayed.apply(e, "<t>")
    assert replayed.tables == s.tables
    assert replayed.guards == s.guards
    assert replayed.table_bytes == s.table_bytes
    assert replayed.wal_checkpoint_lsn == s.wal_checkpoint_lsn
