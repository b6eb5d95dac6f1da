"""Property tests for the trace generators: determinism by seed and op mix.

The hot-path PR touched every generator (precomputed directory listings in
``compile_rw``/``web_ro``), so these tests pin down the two contracts the
optimization must preserve for *arbitrary* seeds:

* **determinism** — the same (seed, n_ops) rebuilds the byte-identical
  trace, column for column, names included;
* **op-mix shape** — each family keeps its paper-calibrated distribution
  (web is read-only with ~8% readdirs, cloud is >2/3 writes, compile mixes
  reads with a substantial create share);
* **length** — every family gives exactly the ``n_ops`` asked for, also
  when that is fewer than its segments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.costmodel.optypes import OpType
from repro.sim.rng import SeedSequenceFactory
from repro.workloads import (
    WORKLOADS,
    generate_trace_ro,
    generate_trace_rw,
    generate_trace_wi,
)
from repro.workloads.zipfian import DriftingZipf, zipf_sample

_GENERATORS = {
    "rw": generate_trace_rw,
    "ro": generate_trace_ro,
    "wi": generate_trace_wi,
}

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def _build(kind: str, seed: int, n_ops: int = 1500):
    ssf = SeedSequenceFactory(seed)
    return _GENERATORS[kind](ssf.stream(f"workload-{kind}"), n_ops=n_ops)


def _columns(trace):
    return (
        trace.op.tolist(),
        trace.dir_ino.tolist(),
        trace.aux.tolist(),
        trace.names,
    )


# ------------------------------------------------------------- determinism
@settings(max_examples=5, deadline=None)
@given(kind=st.sampled_from(sorted(_GENERATORS)), seed=seeds)
def test_generator_is_deterministic_by_seed(kind, seed):
    _, first = _build(kind, seed)
    _, second = _build(kind, seed)
    assert _columns(first) == _columns(second)


@settings(max_examples=5, deadline=None)
@given(kind=st.sampled_from(sorted(_GENERATORS)), seed=seeds)
def test_generator_tree_is_deterministic_by_seed(kind, seed):
    built_a, _ = _build(kind, seed)
    built_b, _ = _build(kind, seed)
    ta, tb = built_a.tree, built_b.tree
    assert ta.capacity == tb.capacity
    assert ta.parent_array().tolist() == tb.parent_array().tolist()
    assert ta._alive[: ta.capacity].tolist() == tb._alive[: tb.capacity].tolist()


@settings(max_examples=5, deadline=None)
@given(kind=st.sampled_from(sorted(_GENERATORS)), seed_a=seeds, seed_b=seeds)
def test_generator_distinct_seeds_differ(kind, seed_a, seed_b):
    if seed_a == seed_b:
        return
    _, ta = _build(kind, seed_a)
    _, tb = _build(kind, seed_b)
    assert _columns(ta) != _columns(tb)


@pytest.mark.parametrize("kind", sorted(WORKLOADS))
@settings(max_examples=8, deadline=None)
@given(seed=seeds, n_ops=st.integers(min_value=1, max_value=40))
def test_generator_gives_exactly_n_ops(kind, seed, n_ops):
    """Fewer ops than segments too: no segment may take more than is owed."""
    generate, _ = WORKLOADS[kind]
    _, trace = generate(SeedSequenceFactory(seed).stream(f"workload-{kind}"), n_ops=n_ops)
    assert len(trace) == n_ops


# ----------------------------------------------------------------- op mix
@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_web_ro_mix_is_read_only_with_calibrated_readdirs(seed):
    _, tr = _build("ro", seed, n_ops=2000)
    assert tr.write_fraction() == 0.0
    ops = tr.op
    readdir = float(np.mean(ops == int(OpType.READDIR)))
    stat = float(np.mean(ops == int(OpType.STAT)))
    opn = float(np.mean(ops == int(OpType.OPEN)))
    # generator parameters: 8% readdir, then 60/40 stat/open
    assert 0.04 < readdir < 0.13
    assert stat > opn
    assert abs(readdir + stat + opn - 1.0) < 1e-9  # nothing else appears


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_cloud_wi_mix_is_write_intensive(seed):
    _, tr = _build("wi", seed, n_ops=2000)
    # the paper's >2/3 namespace-mutation share (generator target 0.75)
    assert 0.65 < tr.write_fraction() < 0.85
    ops = tr.op
    creates = int(np.sum(ops == int(OpType.CREATE)))
    unlinks = int(np.sum(ops == int(OpType.UNLINK)))
    assert creates > unlinks > 0  # churn deletes a minority of fresh objects


@settings(max_examples=5, deadline=None)
@given(seed=seeds)
def test_compile_rw_mix_is_read_leaning_but_write_substantial(seed):
    _, tr = _build("rw", seed, n_ops=2000)
    wf = tr.write_fraction()
    assert 0.15 < wf < 0.55
    ops = tr.op
    # compilation shape: header stats dominate reads, objects are created
    assert int(np.sum(ops == int(OpType.STAT))) > 0
    assert int(np.sum(ops == int(OpType.CREATE))) > 0
    assert int(np.sum(ops == int(OpType.READDIR))) > 0


# ------------------------------------------------------- zipfian sampler
@settings(max_examples=10, deadline=None)
@given(seed=seeds, alpha=st.floats(min_value=0.8, max_value=2.0, allow_nan=False))
def test_zipf_sample_is_deterministic_and_skewed(seed, alpha):
    items = list(range(100, 160))
    a = zipf_sample(SeedSequenceFactory(seed).stream("z"), items, alpha, 800)
    b = zipf_sample(SeedSequenceFactory(seed).stream("z"), items, alpha, 800)
    assert np.array_equal(a, b)
    counts = np.bincount(a, minlength=200)
    # rank-1 item (first position) is sampled at least as often as the tail
    assert counts[items[0]] >= counts[items[-1]]
    assert counts[items[0]] > 800 / len(items)  # strictly above uniform


@settings(max_examples=10, deadline=None)
@given(seed=seeds, drift=st.floats(min_value=0.2, max_value=1.0, allow_nan=False))
def test_drifting_zipf_same_seed_same_drift_sequence(seed, drift):
    def trajectory():
        z = DriftingZipf(
            SeedSequenceFactory(seed).stream("z"), list(range(40)),
            alpha=1.2, drift=drift,
        )
        out = []
        for _ in range(4):
            out.append((z.sample(50).tolist(), z.hot_set(5)))
            z.advance()
        return out

    assert trajectory() == trajectory()


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_drifting_zipf_zero_drift_keeps_ranks(seed):
    z = DriftingZipf(
        SeedSequenceFactory(seed).stream("z"), list(range(40)),
        alpha=1.2, drift=0.0,
    )
    before = z.hot_set(10)
    for _ in range(5):
        z.advance()
    assert z.hot_set(10) == before
