"""Data cluster for end-to-end runs (Fig. 9b).

After the metadata phase of an ``open``/``create`` completes, the client
transfers the file body against a bandwidth-modelled data server chosen by
hash.  The paper's end-to-end numbers are metadata-bound (files are small —
"over 90% of files ... smaller than 1MB"), so the data path mostly adds a
per-op floor that compresses relative gaps exactly as Fig. 9b shows relative
to Fig. 9a.
"""

from __future__ import annotations

from typing import Generator

from repro.sim import Environment, Resource

__all__ = ["DataCluster"]


class DataCluster:
    """Fixed pool of data servers with per-server bandwidth."""

    def __init__(
        self,
        env: Environment,
        n_servers: int = 5,
        bandwidth_mb_per_s: float = 400.0,
        per_op_overhead_ms: float = 0.02,
        mean_file_kb: float = 64.0,
    ):
        if n_servers < 1:
            raise ValueError("need at least one data server")
        if bandwidth_mb_per_s <= 0:
            raise ValueError("bandwidth must be positive")
        self.env = env
        self.servers = [Resource(env) for _ in range(n_servers)]
        self.bandwidth = bandwidth_mb_per_s
        self.per_op_overhead_ms = per_op_overhead_ms
        self.mean_file_kb = mean_file_kb

    def transfer(self, fs, key: int) -> Generator:
        """Move one file body; server selected by key hash."""
        size_kb = fs.rng.exponential(self.mean_file_kb)
        server = self.servers[key % len(self.servers)]
        duration = self.per_op_overhead_ms + (size_kb / 1024.0) / self.bandwidth * 1000.0
        yield server
        try:
            yield duration
        finally:
            server.release()
        fs.data_ops_completed += 1
        fs.last_completion_ms = self.env.now
