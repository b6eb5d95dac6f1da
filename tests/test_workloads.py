"""Tests for trace containers and the three workload generators."""

import numpy as np
import pytest

from repro.costmodel.optypes import OpType
from repro.sim import SeedSequenceFactory
from repro.workloads import (
    Trace,
    TraceBuilder,
    generate_trace_ro,
    generate_trace_rw,
    generate_trace_wi,
)
from repro.workloads.zipfian import DriftingZipf, zipf_sample


def stream(name="w", seed=0):
    return SeedSequenceFactory(seed).stream(name)


# ----------------------------------------------------------------- container


def test_trace_builder_roundtrip():
    tb = TraceBuilder(label="t")
    tb.stat(1, "a")
    tb.readdir(2)
    tb.create(3, "new")
    tb.rmdir(4, target_dir=9)
    tr = tb.build()
    assert len(tr) == 4
    assert tr.label == "t"
    assert list(tr.op) == [OpType.STAT, OpType.READDIR, OpType.CREATE, OpType.RMDIR]
    assert list(tr.dir_ino) == [1, 2, 3, 4]
    assert list(tr.aux) == [-1, -1, -1, 9]
    assert tr.names == ["a", "", "new", ""]


def test_trace_slicing_and_epochs():
    tb = TraceBuilder()
    for i in range(10):
        tb.stat(i, f"n{i}")
    tr = tb.build()
    sub = tr[3:7]
    assert len(sub) == 4
    assert list(sub.dir_ino) == [3, 4, 5, 6]
    assert sub.names == ["n3", "n4", "n5", "n6"]
    epochs = list(tr.epochs(4))
    assert [e for e, _ in epochs] == [0, 1, 2]
    assert [len(w) for _, w in epochs] == [4, 4, 2]
    with pytest.raises(ValueError):
        list(tr.epochs(0))


@pytest.mark.parametrize("index, ino", [(0, 0), (3, 3), (-1, 9), (-10, 0), (np.int64(1), 1)])
def test_trace_integer_index_is_a_one_op_trace(index, ino):
    tb = TraceBuilder(label="t")
    for i in range(10):
        tb.stat(i, f"n{i}")
        tb.think(0.5 + i)
    one = tb.build()[index]
    assert len(one) == 1
    assert list(one.dir_ino) == [ino]
    assert one.names == [f"n{ino}"]
    assert list(one.think_ms) == [0.5 + ino]
    assert one.label == "t"


@pytest.mark.parametrize("index", [10, 11, -11, np.int64(10)])
def test_trace_integer_index_out_of_range_raises(index):
    tb = TraceBuilder()
    for i in range(10):
        tb.stat(i, f"n{i}")
    with pytest.raises(IndexError):
        tb.build()[index]
    with pytest.raises(IndexError):
        TraceBuilder().build()[0]


def test_trace_index_rejects_non_integers():
    tb = TraceBuilder()
    tb.stat(1, "a")
    with pytest.raises(TypeError):
        tb.build()[0.0]


def test_trace_concat_and_mix():
    a = TraceBuilder()
    a.stat(1, "x")
    b = TraceBuilder()
    b.create(2, "y")
    both = a.build().concat(b.build())
    assert len(both) == 2
    assert both.write_fraction() == 0.5
    assert both.op_mix() == {"STAT": 1, "CREATE": 1}


def test_trace_concat_many_matches_chained_concat():
    pieces = []
    for k in range(5):
        tb = TraceBuilder(label=f"p{k}")
        for i in range(3):
            tb.stat(10 * k + i, f"n{k}_{i}")
        tb.create(10 * k + 9, f"c{k}")
        pieces.append(tb.build())
    many = Trace.concat_many(pieces)
    chained = pieces[0]
    for p in pieces[1:]:
        chained = chained.concat(p)
    assert len(many) == sum(len(p) for p in pieces)
    np.testing.assert_array_equal(many.op, chained.op)
    np.testing.assert_array_equal(many.dir_ino, chained.dir_ino)
    np.testing.assert_array_equal(many.aux, chained.aux)
    assert many.names == chained.names
    assert many.label == chained.label


def test_trace_concat_many_column_rules():
    with pytest.raises(ValueError):
        Trace.concat_many([])
    a = TraceBuilder()
    a.stat(1, "x")
    a.think(1.5)
    b = TraceBuilder()
    b.create(2, "y")
    ta, tb_ = a.build(), b.build()
    # think on any piece zero-fills the pieces without one
    both = Trace.concat_many([ta, tb_])
    assert both.think_ms is not None
    np.testing.assert_allclose(both.think_ms, [1.5, 0.0])
    # names survive only when every piece carries them
    tb_.names = None
    assert Trace.concat_many([ta, tb_]).names is None


def test_trace_column_validation():
    with pytest.raises(ValueError):
        Trace(np.zeros(2, np.int8), np.zeros(3, np.int64), np.zeros(2, np.int64))
    with pytest.raises(ValueError):
        Trace(np.zeros(2, np.int8), np.zeros(2, np.int64), np.zeros(2, np.int64), names=["a"])


# ------------------------------------------------------------------ samplers


def test_zipf_sample_skews_to_low_ranks():
    rng = stream()
    items = list(range(100))
    out = zipf_sample(rng, items, alpha=1.5, size=5000)
    # rank-1 item should dominate
    counts = np.bincount(out, minlength=100)
    assert counts[0] == counts.max()
    assert counts[:10].sum() > counts[50:].sum()


def test_drifting_zipf_changes_hot_set():
    rng = stream()
    dz = DriftingZipf(rng, list(range(50)), alpha=1.3, drift=1.0)
    before = dz.hot_set(5)
    for _ in range(3):
        dz.advance()
    after = dz.hot_set(5)
    assert dz.segments_advanced == 3
    assert before != after  # full drift virtually guarantees a reshuffle


def test_drifting_zipf_zero_drift_stable():
    rng = stream()
    dz = DriftingZipf(rng, list(range(50)), alpha=1.3, drift=0.0)
    before = dz.hot_set(5)
    dz.advance()
    assert dz.hot_set(5) == before


def test_drifting_zipf_validation():
    rng = stream()
    with pytest.raises(ValueError):
        DriftingZipf(rng, [1], alpha=1.0, drift=2.0)
    with pytest.raises(ValueError):
        DriftingZipf(rng, [], alpha=1.0)


# ---------------------------------------------------------------- generators


def test_trace_rw_characteristics():
    built, tr = generate_trace_rw(stream(), n_ops=20000)
    assert len(tr) == 20000
    # mixed read/write: a substantial but minority write share
    assert 0.15 < tr.write_fraction() < 0.6
    mix = tr.op_mix()
    assert mix.get("CREATE", 0) > 0
    assert mix.get("STAT", 0) > 0
    assert mix.get("READDIR", 0) > 0
    # all referenced dirs are live directories of the built tree
    for d in np.unique(tr.dir_ino):
        assert built.tree.is_dir(int(d))
    # the namespace is deep (the §2.4 "exceeding ten levels" flavour)
    depths = built.tree.depth_array()[built.tree.dir_mask()]
    assert depths.max() >= 6


def test_trace_ro_read_only_and_skewed():
    built, tr = generate_trace_ro(stream(), n_ops=15000, n_dirs=800)
    assert len(tr) == 15000
    assert tr.write_fraction() == 0.0
    # significant skew: top-5% of dirs carry a large share of ops
    dirs, counts = np.unique(tr.dir_ino, return_counts=True)
    counts = np.sort(counts)[::-1]
    top = counts[: max(1, len(counts) // 20)].sum()
    assert top / counts.sum() > 0.25
    depths = built.tree.depth_array()[built.tree.dir_mask()]
    assert depths.max() >= 10


def test_trace_wi_write_intensive_and_drifting():
    built, tr = generate_trace_wi(stream(), n_ops=15000, segments=6)
    assert len(tr) == 15000
    assert tr.write_fraction() > 0.6  # the paper's >2/3 write share
    # hot tenants drift: the busiest *write target* of the first third
    # differs from that of the last third (reads share /shared, so restrict
    # to creates, which always land in tenant shards)
    creates = tr.op == int(OpType.CREATE)
    first = tr.dir_ino[:5000][creates[:5000]]
    last = tr.dir_ino[10000:][creates[10000:]]
    assert np.bincount(first).argmax() != np.bincount(last).argmax()


def test_generators_deterministic():
    _, t1 = generate_trace_rw(stream(seed=5), n_ops=3000)
    _, t2 = generate_trace_rw(stream(seed=5), n_ops=3000)
    assert np.array_equal(t1.op, t2.op)
    assert np.array_equal(t1.dir_ino, t2.dir_ino)
    assert t1.names == t2.names


def test_generators_distinct_seeds_differ():
    _, t1 = generate_trace_rw(stream(seed=1), n_ops=3000)
    _, t2 = generate_trace_rw(stream(seed=2), n_ops=3000)
    assert not np.array_equal(t1.dir_ino, t2.dir_ino)


def test_mdtest_phases_and_uniformity():
    from repro.workloads import generate_trace_mdtest

    built, tr = generate_trace_mdtest(stream(), n_ops=12000, n_ranks=8, files_per_rank=16, depth=2)
    assert len(tr) == 12000
    mix = tr.op_mix()
    # the four mdtest phases all appear, creates ~= unlinks within a cycle
    for op in ("CREATE", "STAT", "READDIR", "UNLINK"):
        assert mix.get(op, 0) > 0
    # per-rank load is uniform: each rank dir sees close to the mean
    import numpy as np

    counts = np.bincount(tr.dir_ino, minlength=built.tree.capacity)
    rank_counts = counts[built.read_dirs]
    assert rank_counts.min() > rank_counts.max() * 0.8
    # rank dirs nest `depth` levels below /mdtest
    assert all(built.tree.depth(d) == 3 for d in built.read_dirs)


def test_mdtest_replayable_in_simulator():
    from repro.balancers import EvenPartitionPolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.workloads import generate_trace_mdtest

    built, tr = generate_trace_mdtest(stream(seed=7), n_ops=6000, n_ranks=6, files_per_rank=8)
    r = run_simulation(
        built.tree, tr, EvenPartitionPolicy(),
        SimConfig(n_mds=3, n_clients=12, epoch_ms=50.0, params=CostParams(cache_depth=2)),
    )
    assert r.ops_completed == 6000
    # uniform workload on an even partition: balance must be good
    assert r.imbalance().qps < 0.25


def test_mdtest_validation():
    from repro.workloads import generate_trace_mdtest
    import pytest as _pytest

    with _pytest.raises(ValueError):
        generate_trace_mdtest(stream(), n_ranks=0)
