"""The cyclic collector stays out of the replay.

``OrigamiFS.run`` pauses CPython's cyclic garbage collector from the client
spawn until the engine drains, and restores the caller's state afterwards.
The pause is only safe because a replay frees everything by reference
counting: these tests pin both halves — the pause itself, and zero cyclic
garbage after a run across every strategy and the features a run can
combine.
"""

import contextlib
import gc

import pytest

from repro.balancers import LunulePolicy
from repro.bench.scenario import DATAPATH
from repro.costmodel import CostParams
from repro.fs import OrigamiFS, SimConfig
from repro.fs.elastic import AutoscaleSpec, ScaleEvent
from repro.fs.faults import Crash, FaultSchedule, Partition, RpcDrop, Slowdown
from repro.harness.config import get_scale
from repro.harness.experiments import STRATEGY_FACTORIES, build_workload, make_policy
from repro.obs import Observability

#: long enough for several epochs, Meta-OPT searches and one Origami-online
#: retrain; small enough to run every strategy in a few seconds
N_OPS = 6000


@contextlib.contextmanager
def collector(enabled: bool):
    """Run the block with the collector on or off, then restore it."""
    before = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        yield
    finally:
        (gc.enable if before else gc.disable)()


def make_fs(policy=None, strategy="Lunule", n_ops=N_OPS, n_mds=3, **config):
    built, trace = build_workload("rw", n_ops, 0)
    if policy is None:
        policy, _ = make_policy(strategy, "rw", get_scale("smoke"))
    cfg = SimConfig(
        n_mds=n_mds, n_clients=12, epoch_ms=60.0, params=CostParams(cache_depth=2),
        seed=0, **config,
    )
    return OrigamiFS(built.tree, trace, policy, cfg)


class ProbePolicy(LunulePolicy):
    """Lunule that records whether the collector runs during its epochs."""

    def __init__(self, fail: bool = False):
        super().__init__()
        self.fail = fail
        self.collector_on = []

    def rebalance(self, ctx):
        self.collector_on.append(gc.isenabled())
        if self.fail:
            raise RuntimeError("balancer failed")
        return super().rebalance(ctx)


# ------------------------------------------------------------------ the pause
@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_is_paused_during_the_replay(caller_enabled):
    policy = ProbePolicy()
    fs = make_fs(policy, n_ops=2500)
    with collector(caller_enabled):
        fs.run()
        assert gc.isenabled() is caller_enabled
    assert policy.collector_on and not any(policy.collector_on)


@pytest.mark.parametrize("caller_enabled", [True, False], ids=["enabled", "disabled"])
def test_collector_state_is_restored_when_the_balancer_raises(caller_enabled):
    policy = ProbePolicy(fail=True)
    fs = make_fs(policy, n_ops=2500)
    with collector(caller_enabled):
        with pytest.raises(RuntimeError, match="balancer failed"):
            fs.run()
        assert gc.isenabled() is caller_enabled
    assert policy.collector_on == [False]


# ------------------------------------------------------- no cyclic garbage
def cyclic_garbage(fs):
    """Run ``fs`` with the collector off; return what a collection then
    finds as ``(count, sorted type names)`` plus the run's result.  Off,
    because a collector that ``run()`` re-enables may sweep the replay's
    garbage before the check sees it.

    Set-up garbage is not the replay's, so it is cleared first, and to the
    end: an aborted run's suspended clients release their server slots in
    ``finally`` blocks as the collector closes them, which makes new garbage
    that only a further collection finds."""
    while gc.collect():
        pass
    with collector(False):
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            result = fs.run()
            found = gc.collect()
            kinds = sorted({type(o).__name__ for o in gc.garbage})
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
    return found, kinds, result


@pytest.mark.parametrize("strategy", list(STRATEGY_FACTORIES))
def test_no_strategy_leaves_cyclic_garbage(strategy):
    found, kinds, result = cyclic_garbage(make_fs(strategy=strategy))
    assert (found, kinds) == (0, [])
    assert result.ops_completed + result.vanished_ops == N_OPS


def test_garbage_of_an_aborted_run_is_not_counted_against_the_next():
    """An aborted run left uncollected right before a clean one: the check
    must clear all of its garbage, not just what one collection finds."""
    aborted = make_fs(ProbePolicy(fail=True), n_ops=2500)
    clean = make_fs(strategy="Single")
    with collector(False):
        with pytest.raises(RuntimeError, match="balancer failed"):
            aborted.run()
        del aborted
        found, kinds, result = cyclic_garbage(clean)
    assert (found, kinds) == (0, [])
    assert result.ops_completed + result.vanished_ops == N_OPS


def faults():
    return FaultSchedule(
        [
            RpcDrop(mds=0, start_ms=5.0, end_ms=20.0, probability=0.2),
            Partition(mds=0, start_ms=20.0, end_ms=50.0),
            Crash(mds=0, start_ms=30.0, end_ms=45.0, warmup_ms=5.0),
            Slowdown(mds=0, start_ms=50.0, end_ms=90.0, factor=3.0),
        ]
    )


#: feature -> (SimConfig overrides, check that the feature was exercised)
FEATURES = {
    "tracer+timeline": (
        lambda tmp: dict(
            obs=Observability(metrics=True, trace=True, timeline=True, timeline_window_ms=12.0)
        ),
        lambda fs, r: len(fs.obs.tracer.spans) == N_OPS and r.timeline is not None,
    ),
    "lease-cache": (
        lambda tmp: dict(cache_mode="lease"),
        lambda fs, r: fs.cache.hits > 0,
    ),
    "faults": (
        lambda tmp: dict(faults=faults()),
        lambda fs, r: r.faults["crashes"] == 1 and r.faults["rpc_drops"] > 0
        and r.faults["rpc_timeouts"] > 0,
    ),
    "durable-crash": (
        lambda tmp: dict(
            data_dir=str(tmp), faults=FaultSchedule([Crash(mds=0, start_ms=30.0, end_ms=60.0)])
        ),
        lambda fs, r: r.kvstore["recoveries"] == 1 and r.kvstore["wal_appends"] > 0,
    ),
    "datapath": (
        lambda tmp: dict(datapath=dict(DATAPATH)),
        lambda fs, r: r.data_ops_completed > 0,
    ),
    "elastic": (
        lambda tmp: dict(
            n_mds=2,
            autoscale=AutoscaleSpec(
                policy="schedule", min_mds=1, max_mds=5, warmup_ms=5.0,
                events=(ScaleEvent(0, "join", 2), ScaleEvent(1, "drain", 1)),
            ),
        ),
        lambda fs, r: r.elastic["scale_outs"] == 2 and r.elastic["drains_started"] == 1,
    ),
}


@pytest.mark.parametrize("feature", list(FEATURES))
def test_no_feature_leaves_cyclic_garbage(feature, tmp_path):
    overrides, exercised = FEATURES[feature]
    fs = make_fs(**overrides(tmp_path))
    found, kinds, result = cyclic_garbage(fs)
    assert (found, kinds) == (0, [])
    assert exercised(fs, result)
    assert result.ops_completed + result.vanished_ops + result.fault_failed_ops == N_OPS
