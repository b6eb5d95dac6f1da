"""Atomic whole-file writes: the one way the durability layer replaces a file."""

from __future__ import annotations

import os

__all__ = ["write_atomic"]


def write_atomic(path: str, data: bytes, use_fsync: bool = True) -> None:
    """Write ``data`` to a temp file beside ``path``, flush it (and fsync it
    when ``use_fsync``), then rename it over ``path``: a crash leaves the
    old file or the new one under ``path``, never a partial one."""
    tmp = path + ".tmp"
    with open(tmp, "wb") as f:
        f.write(data)
        f.flush()
        if use_fsync:
            os.fsync(f.fileno())
    os.replace(tmp, path)
