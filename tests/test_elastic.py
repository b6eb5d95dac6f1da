"""Elastic MDS pool: spec round-trip, drain-aware dst masking, pool
breathing, determinism, and the cost/latency frontier."""

import json

import numpy as np
import pytest

from repro.balancers.base import EpochContext, plan_evacuations
from repro.balancers.lunule import LunulePolicy
from repro.costmodel import CostParams
from repro.fs.elastic import (
    DRAINING,
    GONE,
    UP,
    WARMING,
    AutoscaleSpec,
    MDSLiveness,
    ScaleEvent,
)
from repro.namespace.builder import build_software_project
from repro.namespace.stats import AccessStats
from repro.sim import SeedSequenceFactory


def stream(seed=0):
    return SeedSequenceFactory(seed).stream("policy")


# ------------------------------------------------------------------- spec


def test_spec_round_trips_through_json():
    spec = AutoscaleSpec(
        policy="schedule",
        min_mds=2,
        max_mds=6,
        warmup_ms=12.5,
        warmup_factor=3.0,
        cooldown_epochs=1,
        scale_out_util=0.7,
        scale_in_util=0.2,
        horizon_epochs=4,
        events=(ScaleEvent(1, "join", 2), ScaleEvent(5, "drain")),
    )
    d = json.loads(json.dumps(spec.to_dict()))
    assert d["schema_version"] == 1
    assert AutoscaleSpec.from_dict(d) == spec


def test_spec_file_round_trip(tmp_path):
    spec = AutoscaleSpec(policy="threshold", min_mds=1, max_mds=3)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec.to_dict()))
    assert AutoscaleSpec.load(str(path)) == spec


@pytest.mark.parametrize(
    "kwargs",
    [
        {"policy": "nope"},
        {"min_mds": 0},
        {"min_mds": 5, "max_mds": 3},
        {"warmup_ms": -1.0},
        {"warmup_factor": 0.5},
        {"cooldown_epochs": -1},
        {"scale_out_util": 0.3, "scale_in_util": 0.3},
        {"scale_in_util": 0.0},
        {"horizon_epochs": 0},
    ],
)
def test_spec_rejects_bad_fields(kwargs):
    with pytest.raises(ValueError):
        AutoscaleSpec(**kwargs)


def test_spec_validate_initial_bounds_and_schedule_events():
    spec = AutoscaleSpec(min_mds=2, max_mds=4)
    spec.validate(3)
    with pytest.raises(ValueError):
        spec.validate(1)
    with pytest.raises(ValueError):
        spec.validate(5)
    with pytest.raises(ValueError):
        AutoscaleSpec(policy="schedule").validate(2)


def test_schedule_events_reject_bad_values():
    with pytest.raises(ValueError):
        ScaleEvent(-1, "join")
    with pytest.raises(ValueError):
        ScaleEvent(0, "leave")
    with pytest.raises(ValueError):
        ScaleEvent(0, "drain", count=0)


# ------------------------------------------------------- liveness view


class _FakeServer:
    def __init__(self, up=True):
        self.up = up


def test_liveness_masks_split_voluntary_and_involuntary():
    servers = [_FakeServer() for _ in range(4)]
    lv = MDSLiveness(servers, n_active=3)
    assert lv.states().tolist() == [UP, UP, UP, GONE]
    assert lv.n_active() == 3
    lv.set_state(1, DRAINING)
    servers[2].up = False  # crash is orthogonal to voluntary state
    assert lv.serving_mask().tolist() == [True, True, False, False]
    assert lv.dst_mask().tolist() == [True, False, False, False]
    assert lv.draining_mask().tolist() == [False, True, False, False]
    assert lv.active_mask().tolist() == [True, True, True, False]
    lv.set_state(3, WARMING)
    assert lv.can_receive(3) and not lv.can_receive(1)


# --------------------------------------------- drain-aware dst masking


def _ctx_with_liveness(tree, pmap, loads, liveness, reads_on=None):
    stats = AccessStats(tree)
    for dir_ino, n in (reads_on or {}).items():
        stats.charge([dir_ino] * n)
    return EpochContext(
        tree=tree,
        pmap=pmap,
        epoch=1,
        snapshot=stats.snapshot_and_reset(),
        mds_load=np.asarray(loads, dtype=np.float64),
        params=CostParams(cache_depth=2),
        rng=stream(),
        liveness=liveness,
    )


@pytest.fixture
def world():
    rng = stream()
    built = build_software_project(rng, n_modules=6, dirs_per_module=3, files_per_dir=4)
    return built.tree, rng


def test_plan_evacuations_moves_draining_owners_to_eligible_dsts(world):
    """The regression the liveness split fixes: a *draining* MDS still
    reports up (it serves while evacuating), so the old up-mask view never
    evacuated it and happily kept exporting onto it."""
    from repro.cluster.partition import PartitionMap

    tree, rng = world
    n = 4
    pmap = PartitionMap(tree, n_mds=n)
    LunulePolicy().setup(tree, n, rng)
    roots = [d for d in tree.iter_dirs()][1:]
    for i, d in enumerate(roots):
        pmap.assign_dir(d, i % n)
    lv = MDSLiveness([_FakeServer() for _ in range(n)])
    lv.set_state(3, DRAINING)
    ctx = _ctx_with_liveness(tree, pmap, [10.0, 10.0, 10.0, 10.0], lv,
                             reads_on={d: 5 for d in roots})
    decisions = plan_evacuations(ctx)
    # every decision leaves the drainer and lands on an UP member
    assert decisions, "the drainer owned dirs, so something must move"
    assert all(d.src == 3 and d.dst in (0, 1, 2) for d in decisions)
    # anything not covered by a pending subtree move was repinned in place:
    # every dir still owned by MDS 3 sits inside some decision's subtree
    owner = pmap.owner_array()
    covered = set()
    for dec in decisions:
        covered.update(int(x) for x in tree.iter_subtree_dirs(dec.subtree_root))
    for d in roots:
        if owner[d] == 3:
            assert d in covered


def test_lunule_never_exports_to_draining_mds(world):
    tree, rng = world
    from repro.cluster.partition import PartitionMap

    n = 3
    policy = LunulePolicy()
    policy.setup(tree, n, rng)
    pmap = PartitionMap(tree, n_mds=n)
    dirs = [d for d in tree.iter_dirs()]
    for i, d in enumerate(dirs):
        pmap.assign_dir(d, 0)  # everything on MDS 0: maximal imbalance
    lv = MDSLiveness([_FakeServer() for _ in range(n)])
    lv.set_state(2, DRAINING)
    ctx = _ctx_with_liveness(
        tree, pmap, [100.0, 0.0, 0.0], lv, reads_on={d: 50 for d in dirs}
    )
    decisions = policy.rebalance(ctx)
    assert decisions, "skewed cluster must rebalance"
    assert all(d.dst != 2 for d in decisions), "draining MDS must not receive"


def test_origami_never_exports_to_draining_mds(world):
    tree, rng = world
    from repro.cluster.partition import PartitionMap
    from repro.core.origami import OrigamiPolicy

    class _UniformModel:
        def predict(self, X):
            return np.ones(len(X))

    n = 3
    policy = OrigamiPolicy(_UniformModel(), max_moves_per_epoch=8, cooldown_epochs=0)
    policy.setup(tree, n, rng)
    pmap = PartitionMap(tree, n_mds=n)
    dirs = [d for d in tree.iter_dirs()]
    for d in dirs:
        pmap.assign_dir(d, 0)
    lv = MDSLiveness([_FakeServer() for _ in range(n)])
    lv.set_state(2, DRAINING)
    ctx = _ctx_with_liveness(
        tree, pmap, [100.0, 0.0, 0.0], lv, reads_on={d: 50 for d in dirs}
    )
    decisions = policy.rebalance(ctx)
    assert all(d.dst != 2 for d in decisions)


# --------------------------------------------------- end-to-end elastic


def _run_elastic(spec, kind="diurnal", seed=42, n_mds=2, n_ops=8000, **kw):
    from repro.harness.config import get_scale
    from repro.harness.experiments import run_strategy

    return run_strategy(
        "Lunule", kind, get_scale("smoke"), seed=seed, n_mds=n_mds,
        n_ops=n_ops, autoscale=spec, **kw
    )


def test_pool_breathes_and_loses_no_ops():
    spec = AutoscaleSpec(
        policy="schedule", min_mds=1, max_mds=5, warmup_ms=5.0,
        events=(ScaleEvent(0, "join", 2), ScaleEvent(1, "drain", 2)),
    )
    n_ops = 12000
    r = _run_elastic(spec, kind="flash", seed=7, n_ops=n_ops)
    e = r.elastic
    assert e["scale_outs"] == 2.0
    assert e["drains_started"] == 2.0
    assert e["drains_completed"] == 2.0
    assert e["pool_peak"] == 4.0 and e["pool_final"] == 2.0
    assert r.ops_completed == n_ops  # graceful drains lose nothing
    assert e["mds_seconds"] > 2.0 * r.duration_ms / 1000.0  # > floor of 2


def test_threshold_policy_scales_out_under_load():
    spec = AutoscaleSpec(
        policy="threshold", min_mds=1, max_mds=4, warmup_ms=5.0,
        cooldown_epochs=1, scale_out_util=0.5, scale_in_util=0.35,
    )
    r = _run_elastic(spec, n_ops=12000)
    assert r.elastic["scale_outs"] >= 1.0
    assert r.elastic["pool_peak"] > r.elastic["pool_initial"]


def test_same_seed_and_spec_replay_identically():
    spec = AutoscaleSpec(
        policy="threshold", min_mds=1, max_mds=4, warmup_ms=5.0,
        cooldown_epochs=1, scale_out_util=0.5, scale_in_util=0.35,
    )
    a = _run_elastic(spec, n_ops=6000).to_dict()
    b = _run_elastic(spec, n_ops=6000).to_dict()
    assert a == b


def test_non_elastic_result_has_no_elastic_key():
    from repro.harness.config import get_scale
    from repro.harness.experiments import run_strategy

    r = run_strategy("Lunule", "rw", get_scale("smoke"), seed=42, n_ops=2000)
    assert r.elastic is None
    assert "elastic" not in r.to_dict()


def test_autoscale_rejects_hash_placement():
    from repro.harness.config import get_scale
    from repro.harness.experiments import run_strategy

    spec = AutoscaleSpec(policy="threshold", min_mds=1, max_mds=4)
    with pytest.raises(ValueError, match="hash"):
        run_strategy("C-Hash", "rw", get_scale("smoke"), seed=42,
                     n_ops=1000, n_mds=2, autoscale=spec)


# ------------------------------------------------------ frontier (bench)


def test_elastic_diurnal_threshold_dominates_static():
    """The acceptance frontier: threshold autoscaling must cut MDS-seconds
    by >= 20% while regressing p99 by <= 10% vs static provisioning."""
    from repro.bench.execute import extract_metrics, run_variant
    from repro.bench.scenario import get_scenario

    sc = get_scenario("elastic_diurnal")
    static_r, _ = run_variant(sc, sc.variant("static-4"), 42)
    elastic_r, _ = run_variant(sc, sc.variant("threshold"), 42)
    static_mds_s = 4 * static_r.duration_ms / 1000.0
    m = extract_metrics(elastic_r)
    assert m["elastic.mds_seconds"] <= 0.8 * static_mds_s
    assert m["p99_latency_ms"] <= 1.10 * static_r.p99_latency_ms
    # the pool actually breathed to get there
    assert m["elastic.drains_completed"] >= 1.0
    assert m["elastic.scale_outs"] >= 1.0
