"""Typed fault failures surfaced to clients.

Every fault the injector raises derives from :class:`FaultError` and carries
the target MDS plus a stable ``reason`` slug.  The client's retry loop
catches :class:`FaultError` (and only that), so a bug that raises anything
else still crashes the run loudly instead of being retried into silence.
``reason`` strings are part of the span schema (``span.fault``) and of the
``faults`` section of :class:`~repro.fs.metrics.SimResult`.
"""

from __future__ import annotations

__all__ = [
    "FaultError",
    "MdsUnavailableError",
    "MdsCrashedError",
    "RpcTimeoutError",
    "RpcDroppedError",
]


class FaultError(Exception):
    """Base class for injected failures; ``reason`` is a stable slug."""

    reason = "fault"

    def __init__(self, mds: int, detail: str = ""):
        self.mds = int(mds)
        self.detail = detail
        super().__init__(f"MDS {mds}: {self.reason}" + (f" ({detail})" if detail else ""))


class MdsUnavailableError(FaultError):
    """The target MDS is down (connection refused after one round trip)."""

    reason = "mds_down"


class MdsCrashedError(MdsUnavailableError):
    """The MDS crashed while this request was queued or in service."""

    reason = "service_aborted"


class RpcTimeoutError(FaultError):
    """No response within the per-RPC timeout (network partition window)."""

    reason = "rpc_timeout"


class RpcDroppedError(FaultError):
    """The RPC was dropped in flight; the client waited out its timeout."""

    reason = "rpc_dropped"
