"""Trace-WI: a write-intensive cloud file-system trace.

Reproduced from the characteristics in the CFS paper [40] the way the
authors did ("we reproduced based on the characteristics described in the
paper"): namespace mutations dominate (>70% of metadata ops), writes arrive
in per-tenant bursts into date-sharded directories, and the hot tenant set
churns quickly — the "highly dynamic and skewed load" the paper says makes
Trace-WI the hardest case for every balancer.
"""

from __future__ import annotations

import math
from typing import Dict, List, Tuple

from numpy.random import PCG64

from repro.costmodel.optypes import OpType
from repro.namespace.builder import BuiltNamespace, build_cloud_tree
from repro.sim.rng import RngStream
from repro.workloads.trace import Trace, TraceBuilder
from repro.workloads.zipfian import DriftingZipf

__all__ = ["generate_trace_wi"]


#: ``integers`` draws 32-bit values: a word's low half, then its high half
_LOW32 = 0xFFFFFFFF

_CREATE = int(OpType.CREATE)
_UNLINK = int(OpType.UNLINK)
_READDIR = int(OpType.READDIR)
_STAT = int(OpType.STAT)
_OPEN = int(OpType.OPEN)


def _word_bound(p: float) -> int:
    """The bound ``b`` with ``random() < p`` exactly when the 64-bit word
    ``w`` that ``random()`` is made of has ``w < b``.

    PCG64's ``random()`` is ``(w >> 11) * 2**-53``, so it is below ``p``
    exactly when ``w >> 11 < ceil(p * 2**53)``.
    """
    if not p > 0.0:  # NaN too: no double compares below it
        return 0
    if p >= 1.0:
        return 1 << 64
    return math.ceil(p * 2.0**53) << 11


#: a write is a create 85% of the time (or when the shard has no object)
_CREATE_BELOW = _word_bound(0.85)


class _BurstWords:
    """One burst's draws, made from a PCG64 stream's raw 64-bit words
    exactly as ``random()`` and ``integers(0, n)`` calls would make them.

    ``integers(0, n)`` is Lemire's method on 32-bit values: ``m = u * n``,
    drawn again while ``m & 0xFFFFFFFF < 2**32 % n`` (numpy's
    ``(2**32 - n) % n``), giving ``m >> 32``; nothing is drawn for
    ``n == 1``.  A 32-bit value is the half word the bit generator
    buffered if it holds one, else the low half of a new word, whose high
    half it buffers.  Words are pulled only when the burst is certain to
    need them, two for each op still to come plus the pick in progress, so
    the bit generator never runs ahead of the scalar calls; :meth:`close`
    writes the half-word buffer back.
    """

    __slots__ = ("_bitgen", "_words", "_pos", "_has32", "_buf32", "_entry")

    def __init__(self, rng: RngStream, n_ops: int):
        bitgen = rng.generator.bit_generator
        if type(bitgen) is not PCG64:
            raise TypeError(
                f"stream {rng.name!r} runs on {type(bitgen).__name__}, "
                "and burst draws follow PCG64's words"
            )
        state = bitgen.state
        self._entry = (state["has_uint32"], state["uinteger"])
        self._has32, self._buf32 = self._entry
        self._bitgen = bitgen
        self._words = bitgen.random_raw(2 * n_ops).tolist()
        self._pos = 0

    def pair(self, after: int) -> Tuple[int, int]:
        """The words of an op's two ``random()`` calls; ``after`` ops follow."""
        pos = self._pos
        words = self._words
        if pos + 2 > len(words):
            words += self._bitgen.random_raw(pos + 2 - len(words) + 2 * after).tolist()
        self._pos = pos + 2
        return words[pos], words[pos + 1]

    def integers(self, n: int, after: int) -> int:
        """``integers(0, n)`` drawn after the current op's pair."""
        if n == 1:
            return 0
        while True:
            if self._has32:
                self._has32 = 0
                u = self._buf32
            else:
                words = self._words
                if self._pos == len(words):
                    words += self._bitgen.random_raw(1 + 2 * after).tolist()
                w = words[self._pos]
                self._pos += 1
                u = w & _LOW32
                self._has32, self._buf32 = 1, w >> 32
            m = u * n
            if m & _LOW32 >= 2**32 % n:
                return m >> 32

    def close(self) -> None:
        """Leave the bit generator's half-word buffer as the calls would."""
        if (self._has32, self._buf32) != self._entry:
            state = self._bitgen.state
            state["has_uint32"], state["uinteger"] = self._has32, self._buf32
            self._bitgen.state = state


def _emit_tenant_burst(
    tb: TraceBuilder,
    rng: RngStream,
    shard: int,
    created: Dict[int, List[str]],
    uid: int,
    burst: int,
    write_fraction: float,
    shared_root: int,
    shared_files: List[str],
    readdir_below: float = 0.3,
    stat_below: float = 0.8,
) -> int:
    """Emit one tenant burst into ``shard``; returns the advanced uid.

    Each op is a write with probability ``write_fraction`` (a create, or
    15% of the time an unlink of the shard's newest object); a read draws
    ``sub`` and is a readdir of the shard below ``readdir_below``, a stat of
    one of its objects below ``stat_below``, else an open of a shared file.
    Every op draws two ``random()`` values, the write coin and the create
    coin or ``sub``, then a stat or open picks with ``integers(0, n)``; the
    draws are made from raw words (:class:`_BurstWords`), so the trace and
    the stream after it are those of one scalar call per draw.
    """
    draws = _BurstWords(rng, burst)
    write_below = _word_bound(write_fraction)
    readdir_w = _word_bound(readdir_below)
    stat_w = _word_bound(stat_below)
    names = created.get(shard)
    ops: List[int] = []
    dirs: List[int] = []
    picks: List[str] = []
    for after in range(burst - 1, -1, -1):  # the ops that follow this one
        first, second = draws.pair(after)
        if first < write_below:
            if second < _CREATE_BELOW or not names:
                name = f"obj_{uid:08d}"
                uid += 1
                if names is None:
                    names = created[shard] = []
                names.append(name)
                ops.append(_CREATE)
            else:
                # churn: delete a recently written object
                name = names.pop()
                ops.append(_UNLINK)
            dirs.append(shard)
        elif second < readdir_w:
            name = ""
            ops.append(_READDIR)
            dirs.append(shard)
        elif second < stat_w and names:
            name = names[draws.integers(len(names), after)]
            ops.append(_STAT)
            dirs.append(shard)
        else:
            name = shared_files[draws.integers(len(shared_files), after)]
            ops.append(_OPEN)
            dirs.append(shared_root)
        picks.append(name)
    draws.close()
    tb.extend(ops, dirs, picks)
    return uid


def generate_trace_wi(
    rng: RngStream,
    n_ops: int = 100_000,
    n_tenants: int = 50,
    alpha: float = 1.3,
    segments: int = 10,
    drift: float = 0.35,
    write_fraction: float = 0.75,
    burst_mean: float = 24.0,
) -> Tuple[BuiltNamespace, Trace]:
    """Build the multi-tenant namespace and a create-heavy trace."""
    built = build_cloud_tree(rng, n_tenants=n_tenants)
    tree = built.tree
    tenant_shards: List[List[int]] = built.info["tenant_shards"]
    shared_root = built.read_dirs[0]
    shared_files = [n for n, i in tree.children(shared_root).items() if not tree.is_dir(i)]

    tenants = DriftingZipf(rng, list(range(n_tenants)), alpha=alpha, drift=drift)
    tb = TraceBuilder(label="Trace-WI")
    created: Dict[int, List[str]] = {}
    uid = 0

    # shards are date-partitioned: writes land in the *current* day's shards
    # (cloud ingest always appends to today's partition), so at any moment
    # each tenant has a handful of hot shard directories — the fine-grained,
    # moving write hotspot that static partitioning cannot follow
    days = max(1, len(tenant_shards[0]) // 4)  # builder: 4 shards per day
    per_seg = max(1, n_ops // segments)
    for seg in range(segments):
        day = seg % days
        owed = n_ops - len(tb)
        budget = min(per_seg, owed) if seg < segments - 1 else owed
        while budget > 0:
            t = int(tenants.sample(1)[0])
            todays = tenant_shards[t][day * 4 : day * 4 + 4]
            shard = int(todays[int(rng.integers(0, len(todays)))])
            burst = min(budget, max(1, int(rng.exponential(burst_mean))))
            uid = _emit_tenant_burst(
                tb, rng, shard, created, uid, burst,
                write_fraction, shared_root, shared_files,
                readdir_below=0.25, stat_below=0.75,
            )
            budget -= burst
        tenants.advance()

    trace = tb.build()
    return built, trace
