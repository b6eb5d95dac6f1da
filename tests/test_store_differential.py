"""The durable store and the fault queries against the code they replaced.

``LSMStore`` now routes a key to its guard by bisecting each level's lo-key
list, counts a ``get``'s probes locally, and scans only the guards whose
range meets ``[lo, hi)``; ``DurableBackend`` writes a run's file at its
flush's commit, and only if the run is still live then; recovery reads the
whole directory before it writes, and ``replay_wal`` lets a segment start
past the previous one's end over LSNs the MANIFEST checkpoint covers;
``FaultSchedule`` reads per-MDS event indexes.  The earlier code is kept in
``tests/store_reference.py``.

Random programs of put (one or a burst), delete, get, scan, flush, sync,
clean reopen and crash plus reopen run on both stores, each in its own
data directory, with small memtables so that flushes cascade through
several levels.  Every return value, ``StoreStats.as_dict()`` and
``RecoveryReport`` must be equal, and the MANIFEST, the WAL segments and
every live SSTable file byte-equal.  A clean reopen must keep every live
entry.  After every operation (so after every commit) the new store's
``sst/`` holds exactly the MANIFEST's live files.  The new store must
reopen every directory; the reference may refuse only an LSN jump between
two segments, which a crash whose flush checkpointed records the WAL had
not yet synced leaves behind, and the program then finishes on the new
store alone.  Random fault schedules queried at random ``(mds, now)`` must
give equal factors, probabilities, delays and ``rpc_gate`` outcomes, and
leave the drop RNG in the same state.
"""

import dataclasses
import itertools
import os
import shutil
import tempfile
from types import SimpleNamespace

from hypothesis import event, given, settings
from hypothesis import strategies as st

from repro.durability import DurabilityOptions, WalCorruptionError, open_store
from repro.fs.faults import Crash, FaultInjector, FaultSchedule, Partition, RetryPolicy
from repro.fs.faults import RpcDelay, RpcDrop, Slowdown
from repro.sim.rng import SeedSequenceFactory
from tests import store_reference as ref

#: every key over a three-letter alphabet that holds the extremes of the
#: byte order, up to three long: prefixes, b"" and b"\xff" edges included
KEYS = sorted(
    bytes(t) for n in range(4) for t in itertools.product((0x00, 0x61, 0xFF), repeat=n)
)
END = b"\xff" * 4
BOUNDS = KEYS + [END]

keys = st.sampled_from(KEYS)
# a burst of puts, so that flushes cascade into the deeper levels (listed
# twice below: twice the weight of any other operation)
fills = st.tuples(st.just("fill"), st.integers(0, len(KEYS) - 1), st.integers(1, 80),
                  st.integers(1, 7))
ops = st.one_of(
    st.tuples(st.just("put"), keys, st.binary(max_size=6)),
    fills,
    fills,
    st.tuples(st.just("delete"), keys),
    st.tuples(st.just("get"), keys),
    st.tuples(st.just("scan"), st.sampled_from(BOUNDS), st.sampled_from(BOUNDS)),
    st.tuples(st.just("flush")),
    st.tuples(st.just("sync")),
    st.tuples(st.just("reopen")),
    st.tuples(st.just("crash")),
)
shapes = st.fixed_dictionaries({
    "memtable_limit": st.integers(1, 5),
    "runs_per_guard": st.integers(1, 3),
    "level0_limit": st.integers(0, 3),
    "guard_fanout": st.integers(1, 4),
    "max_levels": st.integers(2, 4),
})
wal_options = st.builds(
    lambda records, segment: DurabilityOptions(
        segment_bytes=segment, group_commit_records=records, use_fsync=False
    ),
    st.integers(1, 4),
    st.integers(32, 160),
)


def files(data_dir):
    """Every file of a data directory but the SSTables, by relative path."""
    out = {}
    for sub in ("", "wal"):
        root = os.path.join(data_dir, sub)
        for name in sorted(os.listdir(root)):
            path = os.path.join(root, name)
            if os.path.isfile(path):
                with open(path, "rb") as f:
                    out[os.path.join(sub, name)] = f.read()
    return out


def live_tables(store):
    """The live SSTable files the MANIFEST names, by name, with their bytes."""
    sst = store.backend.sst_dir
    out = {}
    for number in store.backend.manifest.state.live_files():
        name = f"{number:08d}.sst"
        with open(os.path.join(sst, name), "rb") as f:
            out[name] = f.read()
    return out


def apply(store, op):
    kind = op[0]
    if kind == "put":
        return store.put(op[1], op[2])
    if kind == "fill":
        _, start, n, stride = op
        for i in range(n):
            store.put(KEYS[(start + i * stride) % len(KEYS)], b"%d" % i)
        return None
    if kind == "delete":
        return store.delete(op[1])
    if kind == "get":
        return store.get(op[1])
    if kind == "scan":
        return list(store.scan(op[1], op[2]))
    if kind == "flush":
        return store.flush()
    return store.sync()


def run_program(shape, options, program):
    """Run ``program`` on both stores; returns the deepest level that holds
    guards, and whether the reference refused a directory the new store
    reopened (the program then finished on the new store alone)."""
    root = tempfile.mkdtemp(prefix="store-diff-")
    try:
        new_dir = os.path.join(root, "new")
        ref_dir = os.path.join(root, "ref")
        new = open_store(new_dir, options=options, **shape)
        old = ref.open_store(ref_dir, options=options, **shape)
        for step, op in enumerate(program):
            where = f"step {step}: {op}"
            if op[0] in ("reopen", "crash"):
                stores = [new] if old is None else [new, old]
                if op[0] == "reopen":
                    kept = [list(store.scan(b"", END)) for store in stores]
                for store in stores:
                    store.crash() if op[0] == "crash" else store.close()
                new = open_store(new_dir, options=options, stats=new.stats, **shape)
                if old is not None:
                    try:
                        old = ref.open_store(ref_dir, options=options, stats=old.stats, **shape)
                    except WalCorruptionError as exc:
                        # the earlier replay_wal reads an LSN jump between
                        # two segments as corruption, even one the MANIFEST
                        # checkpoint covers
                        assert "leaves a gap" in str(exc), where
                        old = None
                    else:
                        assert dataclasses.asdict(new.last_recovery) == dataclasses.asdict(
                            old.last_recovery
                        ), where
                if op[0] == "reopen":  # a clean close keeps every live entry
                    for store, entries in zip([new] if old is None else [new, old], kept):
                        assert list(store.scan(b"", END)) == entries, where
            else:
                got = apply(new, op)
                if old is not None:
                    assert got == apply(old, op), where
            # the new store writes no file its MANIFEST does not name live
            tables = live_tables(new)
            assert sorted(os.listdir(new.backend.sst_dir)) == sorted(tables), where
            if old is not None:
                assert new.stats.as_dict() == old.stats.as_dict(), where
                assert tables == live_tables(old), where
                assert files(new_dir) == files(ref_dir), where
        deepest = max((level for level, guards in enumerate(new.levels) if guards), default=0)
        if old is None:
            new.close()
            return deepest, True
        assert new.run_count() == old.run_count()
        for store in (new, old):
            store.close()
        assert files(new_dir) == files(ref_dir)
        return deepest, False
    finally:
        shutil.rmtree(root)


@settings(max_examples=150, deadline=None)
@given(shape=shapes, options=wal_options, program=st.lists(ops, min_size=8, max_size=60))
def test_store_matches_the_reference(shape, options, program):
    deepest, refused = run_program(shape, options, program)
    event(f"deepest level with guards: {deepest}")
    if refused:
        event("the reference refused an LSN jump")


def test_deep_cascade_matches_the_reference():
    """A fixed long program: every level fills, the bottom level rewrites in
    place, and a crash lands between flushes."""
    program = []
    for i in range(300):
        key = KEYS[(i * 7) % len(KEYS)]
        program.append(("put", key, b"v%d" % i))
        if i % 5 == 0:
            program.append(("delete", KEYS[(i * 11) % len(KEYS)]))
        if i % 9 == 0:
            program.append(("get", KEYS[(i * 13) % len(KEYS)]))
        if i % 17 == 0:
            program.append(("scan", KEYS[i % len(KEYS)], KEYS[(i * 3) % len(KEYS)]))
        if i == 150:
            program.append(("crash",))
    shape = dict(memtable_limit=3, runs_per_guard=1, level0_limit=1, guard_fanout=4,
                 max_levels=4)
    options = DurabilityOptions(segment_bytes=96, group_commit_records=2, use_fsync=False)
    assert run_program(shape, options, program) == (shape["max_levels"] - 1, False)


# ------------------------------------------------------------- fault queries
N_MDS = 4


class _Server:
    def __init__(self):
        self.up = True

    def attach_faults(self, injector):
        pass


def _injector(schedule, seed):
    """A FaultInjector over a stand-in cluster: just what rpc_gate reads."""
    fs = SimpleNamespace(
        faults=None,
        servers=[_Server() for _ in range(N_MDS)],
        rng_streams=SeedSequenceFactory(seed),
        config=SimpleNamespace(data_dir=None),
        env=SimpleNamespace(now=0.0, process=lambda gen: gen.close()),
        params=SimpleNamespace(rtt=0.125),
    )
    return FaultInjector(fs, schedule)


times = st.sampled_from([0.0, 5.0, 10.0, 20.0, 35.0]) | st.floats(0.0, 60.0)


def _window(draw):
    start = draw(times)
    end = draw(st.sampled_from([float("inf")]) | st.floats(0.5, 40.0).map(lambda d: start + d))
    return start, end


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(["slowdown", "crash", "drop", "delay", "partition"]))
    # crashes stay off the last MDS, so no schedule crashes every MDS at once
    mds = draw(st.integers(0, N_MDS - (2 if kind == "crash" else 1)))
    start, end = _window(draw)
    if kind == "slowdown":
        return Slowdown(mds=mds, start_ms=start, end_ms=end,
                        factor=draw(st.sampled_from([1, 2]) | st.floats(1.0, 8.0)))
    if kind == "crash":
        return Crash(mds=mds, start_ms=start, end_ms=end)
    if kind == "drop":
        return RpcDrop(mds=mds, start_ms=start, end_ms=end,
                       probability=draw(st.sampled_from([1.0]) | st.floats(0.01, 1.0)))
    if kind == "delay":
        return RpcDelay(mds=mds, start_ms=start, end_ms=end,
                        extra_ms=draw(st.floats(0.01, 10.0)))
    return Partition(mds=mds, start_ms=start, end_ms=end)


def _outcome(result):
    if result is None:
        return None
    wait, error = result
    return wait, type(error).__name__, None if error is None else str(error)


@settings(max_examples=200, deadline=None)
@given(
    events=st.lists(fault_events(), max_size=8),
    queries=st.lists(
        st.tuples(st.integers(0, N_MDS - 1), times, st.booleans()), max_size=40
    ),
    seed=st.integers(0, 2**16),
)
def test_fault_queries_match_the_reference(events, queries, seed):
    schedule = FaultSchedule(events, retry=RetryPolicy(rpc_timeout_ms=3.0))
    injector = _injector(schedule, seed)
    servers = injector.fs.servers
    gate = ref.Gate(events, schedule.retry, servers, injector.fs.params.rtt,
                    SeedSequenceFactory(seed).stream("fault-drop"))
    assert gate.events == schedule.events
    for mds, now, up in queries:
        where = (mds, now, up)
        for query in ("slowdown_factor", "partitioned", "drop_probability", "extra_delay_ms"):
            got = getattr(schedule, query)(mds, now)
            want = getattr(ref, query)(gate.events, mds, now)
            # the type too: an int factor or a sum of no delays stays an int
            assert (type(got), got) == (type(want), want), (query, where)
        servers[mds].up = up
        injector.fs.env.now = now
        span_new = SimpleNamespace(fault_wait_ms=0.0)
        span_old = SimpleNamespace(fault_wait_ms=0.0)
        assert _outcome(injector.rpc_gate(mds, span_new)) == _outcome(
            gate.rpc_gate(mds, now, span_old)
        ), where
        assert span_new.fault_wait_ms == span_old.fault_wait_ms, where
    assert (injector.rpc_timeouts, injector.connection_refusals, injector.rpc_drops) == (
        gate.rpc_timeouts, gate.connection_refusals, gate.rpc_drops
    )
    assert (
        injector._drop_rng.generator.bit_generator.state
        == gate._drop_rng.generator.bit_generator.state
    )
