"""MANIFEST: a versioned, checksummed edit log of the store's live tables.

The MANIFEST answers "which SSTable files are live, at which level, inside
which guard, in which recency order" plus "from which LSN must the WAL be
replayed".  It is an append-only JSONL file where every line wraps one edit
with its CRC32::

    {"c": <crc32 of canonical edit JSON>, "e": {...edit...}}

Edit kinds:

* ``header``     — schema version marker (first line);
* ``guards``     — guard boundaries installed at a level;
* ``add``        — an SSTable became live (level, guard, file number, bytes);
* ``remove``     — an SSTable was superseded by compaction;
* ``checkpoint`` — memtable state up to ``wal_lsn`` is now in SSTables, so
  WAL replay may start after it.

Replaying the edits in order rebuilds the exact level/guard/run structure
including recency (a later ``add`` into the same guard is a newer run).
:meth:`Manifest.read` replays the log and writes nothing; once recovery
has accepted the directory, :meth:`Manifest.open` atomically rewrites it
as a compacted snapshot (temp file + ``os.replace``) so it cannot grow
without bound.

Torn-tail tolerance mirrors the WAL: a malformed **last** line is the
expected residue of a crash mid-append and is dropped (the edit was never
acknowledged — the flush ordering writes SSTable files *before* their
manifest edit, so dropping it merely leaves an orphan file the recovery
ignores).  A malformed line anywhere else raises
:class:`~repro.durability.errors.ManifestError`.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.durability.atomic import write_atomic
from repro.durability.errors import ManifestError

__all__ = ["MANIFEST_SCHEMA_VERSION", "VersionState", "Manifest"]

MANIFEST_SCHEMA_VERSION = 1
MANIFEST_NAME = "MANIFEST"

#: (level, guard-lo) — guard-lo is None for level 0
TableKey = Tuple[int, Optional[bytes]]


def _canonical(edit: Dict[str, Any]) -> str:
    return json.dumps(edit, sort_keys=True, separators=(",", ":"))


def _frame(edit: Dict[str, Any]) -> str:
    body = _canonical(edit)
    return json.dumps({"c": zlib.crc32(body.encode("utf-8")), "e": edit}, sort_keys=True,
                      separators=(",", ":"))


def _guard_repr(guard: Optional[bytes]) -> Optional[str]:
    return None if guard is None else guard.hex()


def _guard_parse(raw: Optional[str]) -> Optional[bytes]:
    return None if raw is None else bytes.fromhex(raw)


@dataclass
class VersionState:
    """The live-table view a replayed MANIFEST resolves to."""

    #: file numbers per (level, guard), newest first
    tables: Dict[TableKey, List[int]] = field(default_factory=dict)
    #: guard lo-keys per level (>= 1), sorted
    guards: Dict[int, List[bytes]] = field(default_factory=dict)
    #: WAL replay starts strictly after this LSN
    wal_checkpoint_lsn: int = 0
    #: recorded byte size per live file (cost model input)
    table_bytes: Dict[int, int] = field(default_factory=dict)
    #: edits replayed to reach this state
    edits_applied: int = 0

    @property
    def next_file_number(self) -> int:
        live = [f for files in self.tables.values() for f in files]
        return max(live, default=0) + 1

    def live_files(self) -> List[int]:
        return sorted(f for files in self.tables.values() for f in files)

    def apply(self, edit: Dict[str, Any], where: str) -> None:
        kind = edit.get("type")
        try:
            if kind == "header":
                version = int(edit["version"])
                if version > MANIFEST_SCHEMA_VERSION:
                    raise ManifestError(
                        f"{where}: manifest version {version} is newer than supported"
                    )
            elif kind == "guards":
                self.guards[int(edit["level"])] = [bytes.fromhex(h) for h in edit["los"]]
            elif kind == "add":
                key = (int(edit["level"]), _guard_parse(edit.get("guard")))
                self.tables.setdefault(key, []).insert(0, int(edit["file"]))
                self.table_bytes[int(edit["file"])] = int(edit.get("bytes", 0))
            elif kind == "remove":
                key = (int(edit["level"]), _guard_parse(edit.get("guard")))
                files = self.tables.get(key, [])
                try:
                    files.remove(int(edit["file"]))
                except ValueError:
                    raise ManifestError(
                        f"{where}: remove of file {edit['file']} not live at {key}"
                    ) from None
                if not files:
                    self.tables.pop(key, None)
                self.table_bytes.pop(int(edit["file"]), None)
            elif kind == "checkpoint":
                self.wal_checkpoint_lsn = max(self.wal_checkpoint_lsn, int(edit["wal_lsn"]))
            else:
                raise ManifestError(f"{where}: unknown edit type {kind!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise ManifestError(f"{where}: malformed {kind!r} edit ({exc})") from None
        self.edits_applied += 1

    def snapshot_edits(self) -> List[Dict[str, Any]]:
        """Edits that, replayed in order, reproduce this state exactly."""
        edits: List[Dict[str, Any]] = [{"type": "header", "version": MANIFEST_SCHEMA_VERSION}]
        for level in sorted(self.guards):
            edits.append(
                {"type": "guards", "level": level, "los": [lo.hex() for lo in self.guards[level]]}
            )
        for (level, guard), files in sorted(
            self.tables.items(), key=lambda kv: (kv[0][0], kv[0][1] or b"")
        ):
            # emit oldest first: replay inserts each add at the front,
            # reconstructing the newest-first run order
            for f in reversed(files):
                edits.append(
                    {
                        "type": "add",
                        "level": level,
                        "guard": _guard_repr(guard),
                        "file": f,
                        "bytes": self.table_bytes.get(f, 0),
                    }
                )
        if self.wal_checkpoint_lsn:
            edits.append({"type": "checkpoint", "wal_lsn": self.wal_checkpoint_lsn})
        return edits


class Manifest:
    """Writer handle over the store's MANIFEST file."""

    def __init__(self, dir_path: str, state: VersionState, use_fsync: bool = True):
        self.path = os.path.join(dir_path, MANIFEST_NAME)
        self.state = state
        self.use_fsync = use_fsync
        self._pending: List[Dict[str, Any]] = []
        self._fh = None

    # --------------------------------------------------------------- opening
    @staticmethod
    def read(dir_path: str) -> VersionState:
        """Replay the MANIFEST (an empty state when there is none); writes
        nothing."""
        path = os.path.join(dir_path, MANIFEST_NAME)
        state = VersionState()
        if not os.path.exists(path):
            return state
        # binary read: a bit-flipped byte may not even be valid UTF-8, and that
        # must surface as a ManifestError on its line, not a UnicodeDecodeError
        with open(path, "rb") as f:
            raw = f.read()
        lines = raw.split(b"\n")
        # drop the empty trailer a well-formed file ends with
        if lines and lines[-1] == b"":
            lines.pop()
        last = len(lines) - 1
        for i, line in enumerate(lines):
            where = f"{path}:{i + 1}"
            try:
                framed = json.loads(line.decode("utf-8"))
                crc = framed["c"]
                edit = framed["e"]
                if zlib.crc32(_canonical(edit).encode("utf-8")) != crc:
                    raise ValueError("edit CRC mismatch")
            except (json.JSONDecodeError, UnicodeDecodeError, KeyError, TypeError,
                    ValueError) as exc:
                if i == last:
                    break  # torn tail of an interrupted append: the edit never acked
                raise ManifestError(f"{where}: {exc}") from None
            state.apply(edit, where)
        return state

    @classmethod
    def open(cls, dir_path: str, state: VersionState, use_fsync: bool = True) -> "Manifest":
        """Atomically rewrite the MANIFEST as a compacted snapshot of
        ``state`` (what :meth:`read` replayed) and return its writer."""
        m = cls(dir_path, state, use_fsync=use_fsync)
        snapshot = "".join(_frame(edit) + "\n" for edit in state.snapshot_edits())
        write_atomic(m.path, snapshot.encode("utf-8"), use_fsync)
        return m

    @classmethod
    def exists(cls, dir_path: str) -> bool:
        return os.path.exists(os.path.join(dir_path, MANIFEST_NAME))

    # --------------------------------------------------------------- editing
    def log(self, edit: Dict[str, Any]) -> None:
        """Apply an edit to the in-memory state and queue it for commit."""
        self.state.apply(edit, "<pending>")
        self.state.edits_applied -= 1  # pending edits count on commit
        self._pending.append(edit)

    def log_add(self, level: int, guard: Optional[bytes], file: int, nbytes: int) -> None:
        self.log({"type": "add", "level": level, "guard": _guard_repr(guard),
                  "file": file, "bytes": nbytes})

    def log_remove(self, level: int, guard: Optional[bytes], file: int) -> None:
        self.log({"type": "remove", "level": level, "guard": _guard_repr(guard), "file": file})

    def log_guards(self, level: int, los: List[bytes]) -> None:
        self.log({"type": "guards", "level": level, "los": [lo.hex() for lo in los]})

    def log_checkpoint(self, wal_lsn: int) -> None:
        self.log({"type": "checkpoint", "wal_lsn": wal_lsn})

    def commit(self) -> int:
        """Append + fsync the pending edits; returns edits written."""
        if not self._pending:
            return 0
        if self._fh is None:
            self._fh = open(self.path, "a", encoding="utf-8")
        for edit in self._pending:
            self._fh.write(_frame(edit))
            self._fh.write("\n")
        self._fh.flush()
        if self.use_fsync:
            os.fsync(self._fh.fileno())
        n = len(self._pending)
        self.state.edits_applied += n
        self._pending = []
        return n

    def crash(self) -> None:
        """Simulate a crash: pending (unacked) edits vanish."""
        self._pending = []
        if self._fh is not None:
            self._fh.close()
            self._fh = None

    def close(self) -> None:
        self.commit()
        if self._fh is not None:
            self._fh.close()
            self._fh = None
