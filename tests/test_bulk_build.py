"""The bulk workload build against the per-entity code it replaced.

:meth:`NamespaceTree.create_many`, the cached CDF of
:class:`~repro.workloads.zipfian.DriftingZipf`, the array draws of
:func:`~repro.workloads.web_ro.generate_trace_ro` and the raw-word draws of
the tenant-burst emitter must reproduce the old one-at-a-time code bit for
bit: the same tree, the same draws, the same generator state afterwards.
The old code is kept here as the reference.
"""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.optypes import OpType
from repro.namespace.builder import build_web_tree
from repro.namespace.tree import ROOT_INO, NamespaceTree
from repro.sim import SeedSequenceFactory
from repro.sim.rng import RngStream
from repro.workloads import WORKLOADS, cloud_wi, elastic_load, generate_trace_ro
from repro.workloads.cloud_wi import _BurstWords, _emit_tenant_burst, _word_bound
from repro.workloads.trace import TraceBuilder
from repro.workloads.zipfian import DriftingZipf
from tests.test_workload_pins import full_state

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def dfs_arrays(tree: NamespaceTree) -> list:
    index = tree.dfs_index()
    return [index.order.tolist(), index.tin.tolist(), index.tout.tolist()]


# ---------------------------------------------------------- create_many
def _random_tree(rng, n_mutations: int):
    """A tree grown and pruned one call at a time; returns it and its live dirs."""
    tree = NamespaceTree()
    dirs = [ROOT_INO]
    for step in range(n_mutations):
        roll = rng.random()
        parent = dirs[int(rng.integers(0, len(dirs)))]
        if roll < 0.5:
            dirs.append(tree.create_dir(parent, f"d{step}"))
        elif roll < 0.85:
            tree.create_file(parent, f"f{step}", size=int(rng.integers(0, 3)))
        elif len(dirs) > 1:
            # prune an empty directory or a file, leaving a dead ino behind
            victim = dirs[-1]
            kids = tree.children(victim)
            if kids:
                tree.remove(next(iter(kids.values())))
            else:
                tree.remove(victim)
                dirs.pop()
    return tree, dirs


def _random_batch(rng, tree: NamespaceTree, dirs: list, k: int):
    """A valid batch: parents among the tree's dirs and earlier batch dirs,
    names drawn from a small pool (so siblings across parents share them)."""
    parents, names, is_dir, sizes = [], [], [], []
    batch_dirs = []
    taken = {d: set(tree.children(d)) for d in dirs}
    for i in range(k):
        pool = dirs + batch_dirs
        p = pool[int(rng.integers(0, len(pool)))]
        free = [n for n in (f"n{j}" for j in range(12)) if n not in taken[p]]
        name = free[0] if free else f"x{i}"
        taken[p].add(name)
        d = bool(rng.random() < 0.4)
        parents.append(p)
        names.append(name)
        is_dir.append(d)
        sizes.append(int(rng.integers(0, 1 << 20)))
        if d:
            ino = tree.capacity + i
            batch_dirs.append(ino)
            taken[ino] = set()
    return parents, names, is_dir, sizes


def _one_at_a_time(tree, parents, names, is_dir, sizes):
    inos = []
    for p, name, d, size in zip(parents, names, is_dir, sizes):
        if d:
            inos.append(tree.create_dir(p, name))
        else:
            inos.append(tree.create_file(p, name, size=size))
    return inos


@settings(max_examples=40, deadline=None)
@given(
    seed=seeds,
    n_before=st.integers(min_value=0, max_value=120),
    k=st.integers(min_value=0, max_value=150),
)
def test_create_many_matches_one_call_per_entry(seed, n_before, k):
    rng = np.random.default_rng(seed)
    bulk, dirs = _random_tree(rng, n_before)
    one, _ = _random_tree(np.random.default_rng(seed), n_before)
    batch = _random_batch(rng, bulk, dirs, k)
    bulk.dfs_index()  # a cached index must be dropped by a batch with dirs
    one.dfs_index()

    got = bulk.create_many(*batch)
    want = _one_at_a_time(one, *batch)

    assert got.tolist() == want
    assert full_state(bulk) == full_state(one)
    assert dfs_arrays(bulk) == dfs_arrays(one)
    bulk.validate()


def test_create_many_interns_names_and_grows_like_single_calls():
    bulk, one = NamespaceTree(), NamespaceTree()
    n = 3000  # crosses two capacity doublings
    parents = [ROOT_INO] + list(range(1, n))
    names = ["".join(["seg", str(i % 7)]) for i in range(n)]
    bulk.create_many(parents, names, [True] * n)
    _one_at_a_time(one, parents, names, [True] * n, [0] * n)
    assert full_state(bulk) == full_state(one)
    assert bulk._cap == one._cap
    assert all(a is b for a, b in zip(bulk._name, one._name))
    assert bulk.depth(n) == n


def _small_tree():
    tree = NamespaceTree()
    a = tree.create_dir(ROOT_INO, "a")  # 1
    tree.create_file(a, "f")  # 2
    tree.create_dir(a, "b")  # 3
    return tree


# batches onto _small_tree (next ino 4), each valid up to one rejected entry
REJECTED = {
    "unknown parent": ([1, 99], ["x", "y"], [True, False]),
    "parent later in the batch": ([1, 6, 1], ["x", "y", "z"], [True, False, True]),
    "file as parent": ([1, 2], ["x", "y"], [True, False]),
    "file in the batch as parent": ([1, 4], ["x", "y"], [False, False]),
    "empty name": ([1, 1], ["x", ""], [True, False]),
    "name with a slash": ([1, 1], ["x", "p/q"], [True, False]),
    "duplicate within the batch": ([1, 4, 4], ["x", "y", "y"], [True, True, False]),
    "duplicate of an existing child": ([3, 1], ["x", "b"], [True, False]),
}


@pytest.mark.parametrize("kind", REJECTED)
def test_create_many_rejects_like_the_first_failing_call(kind):
    parents, names, is_dir = REJECTED[kind]
    one = _small_tree()
    with pytest.raises(Exception) as single:
        _one_at_a_time(one, parents, names, is_dir, [0] * len(names))
    bulk = _small_tree()
    before = full_state(bulk)
    with pytest.raises(Exception) as batch:
        bulk.create_many(parents, names, is_dir)
    assert type(batch.value) is type(single.value)
    assert full_state(bulk) == before
    bulk.validate()


def test_create_many_rejects_columns_of_unequal_length():
    tree = _small_tree()
    before = full_state(tree)
    for cols in (
        ([1, 1], ["x"], [True]),
        ([1], ["x"], [True, False]),
        ([1], ["x"], [True], [1, 2]),
    ):
        with pytest.raises(ValueError):
            tree.create_many(*cols)
    assert full_state(tree) == before


@settings(max_examples=40, deadline=None)
@given(seed=seeds, n=st.integers(min_value=0, max_value=300))
def test_from_columns_rebuilds_every_field(seed, n):
    """The rebuild bundles and checkpoints share, against a tree grown and
    pruned one call at a time: dead inos keep their names, and child-map
    order, depths, counters and ``version`` come out equal."""
    tree, _ = _random_tree(np.random.default_rng(seed), n)
    cols = tree.columns()
    rebuilt = NamespaceTree.from_columns(
        cols["parent"], cols["name"], cols["ftype"], cols["alive"], cols["size"]
    )
    assert full_state(rebuilt) == full_state(tree)
    assert rebuilt.columns() == cols


# ------------------------------------------------------------ DriftingZipf
class ChoiceZipf(DriftingZipf):
    """The sampler as it was: one ``Generator.choice(p=weights)`` per call."""

    def __init__(self, rng, items, alpha, drift=0.3):
        super().__init__(rng, items, alpha, drift)
        self._weights = rng.zipf_weights(len(self._items), alpha)

    def sample(self, size):
        idx = self._rng.choice(len(self._items), size=size, p=self._weights)
        return self._items[idx]


@pytest.mark.parametrize("n", [1, 2, 50, 12_800])
@pytest.mark.parametrize("size", [1, 7, 1000])
def test_drifting_zipf_draws_what_choice_draws(n, size):
    new_rng = SeedSequenceFactory(n).stream("zipf")
    old_rng = SeedSequenceFactory(n).stream("zipf")
    new = DriftingZipf(new_rng, list(range(n)), alpha=1.3, drift=0.35)
    old = ChoiceZipf(old_rng, list(range(n)), alpha=1.3, drift=0.35)
    for _ in range(4):
        got, want = new.sample(size), old.sample(size)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
        assert new_rng.generator.bit_generator.state == old_rng.generator.bit_generator.state
        new.advance()
        old.advance()
        assert new.hot_set(n) == old.hot_set(n)


# ------------------------------------------------------------ Trace-RO
def per_op_trace_ro(rng, n_ops=100_000, n_dirs=3000, alpha=1.15, segments=8,
                    drift=0.15, readdir_fraction=0.08):
    """``generate_trace_ro`` as it was: one scalar draw and one add per op."""
    built = build_web_tree(rng, n_dirs=n_dirs)
    tree = built.tree
    page_dirs = [d for d in built.read_dirs if tree.n_child_files(d) > 0]
    sampler = ChoiceZipf(rng, page_dirs, alpha=alpha, drift=drift)
    files_of = {
        d: [n for n, i in tree.children(d).items() if not tree.is_dir(i)]
        for d in page_dirs
    }
    tb = TraceBuilder(label="Trace-RO")
    per_seg = max(1, n_ops // segments)
    for seg in range(segments):
        want = per_seg if seg < segments - 1 else n_ops - len(tb)
        dirs = sampler.sample(want)
        rolls = rng.random(want)
        for d, roll in zip(dirs, rolls):
            d = int(d)
            if roll < readdir_fraction:
                tb.readdir(d)
            else:
                names = files_of[d]
                name = names[int(rng.integers(0, len(names)))]
                if roll < readdir_fraction + (1 - readdir_fraction) * 0.6:
                    tb.stat(d, name)
                else:
                    tb.open(d, name)
        sampler.advance()
    return built, tb.build()


@pytest.mark.parametrize(
    "seed, n_ops, n_dirs", [(0, 5_000, 300), (7, 12_345, 800), (4200, 20_000, 3000)]
)
def test_trace_ro_matches_the_per_op_loop(seed, n_ops, n_dirs):
    new_rng = SeedSequenceFactory(seed).stream("workload-ro")
    old_rng = SeedSequenceFactory(seed).stream("workload-ro")
    new_built, new = generate_trace_ro(new_rng, n_ops=n_ops, n_dirs=n_dirs)
    old_built, old = per_op_trace_ro(old_rng, n_ops=n_ops, n_dirs=n_dirs)
    assert full_state(new_built.tree) == full_state(old_built.tree)
    for column in ("op", "dir_ino", "aux"):
        got, want = getattr(new, column), getattr(old, column)
        assert got.dtype == want.dtype
        assert got.tolist() == want.tolist()
    assert new.names == old.names
    assert (new.label, new.think_ms) == (old.label, old.think_ms)
    assert new_rng.generator.bit_generator.state == old_rng.generator.bit_generator.state
    assert set(new.op.tolist()) == {OpType.STAT, OpType.OPEN, OpType.READDIR}


# ------------------------------------------------------------ tenant bursts
def per_op_emit_tenant_burst(
    tb, rng, shard, created, uid, burst, write_fraction, shared_root,
    shared_files, readdir_below=0.3, stat_below=0.8,
):
    """``_emit_tenant_burst`` as it was: one ``random()`` or ``integers()``
    call per draw and one ``add`` per op."""
    for _ in range(burst):
        if rng.random() < write_fraction:
            names = created.get(shard)
            if rng.random() < 0.85 or not names:
                name = f"obj_{uid:08d}"
                uid += 1
                tb.create(shard, name)
                created.setdefault(shard, []).append(name)
            else:
                # churn: delete a recently written object
                tb.unlink(shard, names.pop())
        else:
            sub = rng.random()
            if sub < readdir_below:
                tb.readdir(shard)
            elif sub < stat_below and created.get(shard):
                names = created[shard]
                tb.stat(shard, names[int(rng.integers(0, len(names)))])
            else:
                name = shared_files[int(rng.integers(0, len(shared_files)))]
                tb.open(shared_root, name)
    return uid


def _stream(seed: int, buffered: bool, half: int) -> RngStream:
    """A stream whose half-word buffer holds ``half`` or nothing."""
    rng = SeedSequenceFactory(seed).stream("burst")
    bitgen = rng.generator.bit_generator
    state = bitgen.state
    state["has_uint32"], state["uinteger"] = int(buffered), half
    bitgen.state = state
    return rng


def _columns(trace) -> tuple:
    think = None if trace.think_ms is None else trace.think_ms.tolist()
    return (trace.op.tolist(), trace.dir_ino.tolist(), trace.aux.tolist(),
            trace.names, think)


probabilities = st.sampled_from([0.0, 1.0]) | st.floats(min_value=0.0, max_value=1.0)


@settings(max_examples=150, deadline=None)
@given(
    seed=seeds,
    buffered=st.booleans(),
    half=st.integers(min_value=0, max_value=2**32 - 1),
    burst=st.integers(min_value=1, max_value=200),
    write_fraction=probabilities,
    readdir_below=probabilities,
    stat_below=probabilities,
    own=st.sampled_from([None, [], ["obj_x"]]),
    shared=st.sampled_from([["s0"], ["s0", "s1"]]),
    uid=st.integers(min_value=0, max_value=10**6),
)
def test_burst_from_raw_words_matches_the_scalar_calls(
    seed, buffered, half, burst, write_fraction, readdir_below, stat_below,
    own, shared, uid,
):
    shard, shared_root = 7, 3
    created = {5: ["obj_y"]} if own is None else {5: ["obj_y"], shard: own}
    sides = []
    for emit in (_emit_tenant_burst, per_op_emit_tenant_burst):
        rng = _stream(seed, buffered, half)
        tb = TraceBuilder(label="t")
        mine = copy.deepcopy(created)
        got = emit(tb, rng, shard, mine, uid, burst, write_fraction,
                   shared_root, list(shared), readdir_below, stat_below)
        sides.append((_columns(tb.build()), got, mine, rng.generator.bit_generator.state))
    assert sides[0] == sides[1]


@pytest.mark.parametrize("p", [
    -0.5, 0.0, 2.0**-1074, 2.0**-60, 0.25, 0.3, 0.75, 0.8, 0.85,
    1.0 - 2.0**-53, 1.0, 1.5, float("inf"), float("nan"),
])
def test_word_bound_is_random_below(p):
    """``random() < p`` exactly when the word it is made of is below the
    bound: on words of one stream and ``random()`` of its twin, at fixed
    ``p`` and at ``p`` equal to a drawn value or one step off it."""
    words = SeedSequenceFactory(3).stream("w").generator.bit_generator.random_raw(2000)
    doubles = SeedSequenceFactory(3).stream("w").generator.random(2000)
    words = words.tolist()
    edges = [q for d in doubles[:25] for q in (d, np.nextafter(d, 0.0), np.nextafter(d, 1.0))]
    for q in [p] + edges:
        bound = _word_bound(float(q))
        assert [w < bound for w in words] == (doubles < q).tolist(), q


@pytest.mark.parametrize("n", [1, 2, 3, 5, 200, 3 * 2**30, 2**31 + 1, 2**32 - 1, 2**32])
@pytest.mark.parametrize("buffered", [False, True])
def test_burst_words_draw_what_scalar_calls_draw(n, buffered):
    """Each op's pair is its two ``random()`` words and ``integers(n, ...)``
    is ``integers(0, n)``: Lemire redraws a quarter of the time at
    ``3 * 2**30`` and half of it at ``2**31 + 1``, and ``n == 1`` draws
    nothing; the stream ends where the calls leave it."""
    ops = 300
    raw, calls = _stream(11, buffered, 12345), _stream(11, buffered, 12345)
    draws = _BurstWords(raw, ops)
    for after in range(ops - 1, -1, -1):
        first, second = draws.pair(after)
        assert (first >> 11) * 2.0**-53 == calls.random()
        assert (second >> 11) * 2.0**-53 == calls.random()
        if after % 3:
            assert draws.integers(n, after) == int(calls.integers(0, n))
    draws.close()
    assert raw.generator.bit_generator.state == calls.generator.bit_generator.state


@pytest.mark.parametrize("bitgen", [np.random.MT19937, np.random.PCG64DXSM, np.random.Philox])
def test_burst_needs_a_pcg64_stream(bitgen):
    rng = RngStream("other", np.random.Generator(bitgen(0)))
    with pytest.raises(TypeError, match="PCG64"):
        _emit_tenant_burst(TraceBuilder(), rng, 7, {}, 0, 5, 0.5, 3, ["s0"])


#: (kind, seed, n_ops): builds beyond the pins, small bursts to many segments
EMITTER_BUILDS = [
    (kind, seed, n_ops)
    for kind in ("wi", "diurnal", "flash", "onboard")
    for seed, n_ops in ((1, 1), (2, 37), (3, 2_000), (4200, 20_000))
]


@pytest.mark.parametrize("kind, seed, n_ops", EMITTER_BUILDS)
def test_generators_match_the_per_op_emitter(monkeypatch, kind, seed, n_ops):
    generate, _ = WORKLOADS[kind]
    new_rng = SeedSequenceFactory(seed).stream(f"workload-{kind}")
    new_built, new = generate(new_rng, n_ops=n_ops)
    for module in (cloud_wi, elastic_load):
        monkeypatch.setattr(module, "_emit_tenant_burst", per_op_emit_tenant_burst)
    old_rng = SeedSequenceFactory(seed).stream(f"workload-{kind}")
    old_built, old = generate(old_rng, n_ops=n_ops)
    assert full_state(new_built.tree) == full_state(old_built.tree)
    assert _columns(new) == _columns(old)
    assert new.label == old.label
    assert new_rng.generator.bit_generator.state == old_rng.generator.bit_generator.state
