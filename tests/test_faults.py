"""Fault-injection tests: schedules, crash semantics, retries, evacuation.

The first half covers slowdowns — the schedule's slowdown factor, its
effect on static vs. balancing policies, and an injector installed after
construction — the second half the rest of the schedule model: JSON
round-trips, crash windows with zero lost ops, drop/partition paths,
restart warm-up (the server's one warm-up window, also on a resume), and
dead-MDS evacuation by the balancer.
"""

import hashlib
import json
import math

import pytest

from repro.balancers import CoarseHashPolicy, LunulePolicy
from repro.costmodel import CostParams
from repro.durability import Checkpointer, SimCheckpoint
from repro.fs import SimConfig
from repro.fs.faults import (
    Crash,
    FaultInjector,
    FaultSchedule,
    Partition,
    RetryPolicy,
    RpcDelay,
    RpcDrop,
    Slowdown,
)
from repro.fs.filesystem import OrigamiFS, run_simulation
from repro.harness.config import get_scale
from repro.harness.experiments import build_workload, make_policy
from repro.sim import SeedSequenceFactory
from repro.workloads import generate_trace_rw


def run_with_faults(policy, slowdowns, seed=0, n_ops=30000):
    built, trace = generate_trace_rw(SeedSequenceFactory(seed).stream("w"), n_ops=n_ops)
    cfg = SimConfig(
        n_mds=4,
        n_clients=100,
        epoch_ms=80.0,
        params=CostParams(cache_depth=2),
        faults=FaultSchedule(slowdowns) if slowdowns else None,
    )
    return run_simulation(built.tree, trace, policy, cfg)


def _tiny_fs(**config):
    built, trace = generate_trace_rw(SeedSequenceFactory(0).stream("w"), n_ops=100)
    return OrigamiFS(
        built.tree, trace, LunulePolicy(), SimConfig(n_mds=2, n_clients=2, **config)
    )


def test_slowdown_validation():
    with pytest.raises(ValueError):
        Slowdown(mds=0, start_ms=0, end_ms=10, factor=0.5)
    with pytest.raises(ValueError):
        Slowdown(mds=0, start_ms=10, end_ms=5, factor=2.0)


def test_injector_rejects_unknown_mds():
    fs = _tiny_fs()
    with pytest.raises(ValueError):
        FaultInjector(fs, FaultSchedule([Slowdown(mds=9, start_ms=0, end_ms=1, factor=2.0)]))


def test_factor_window():
    schedule = FaultSchedule([Slowdown(mds=1, start_ms=10, end_ms=20, factor=3.0)])
    assert schedule.slowdown_factor(1, 5.0) == 1.0
    assert schedule.slowdown_factor(1, 15.0) == 3.0
    assert schedule.slowdown_factor(1, 25.0) == 1.0
    assert schedule.slowdown_factor(0, 15.0) == 1.0


def test_slowdown_degrades_static_partitioning():
    """A static hash cannot escape a degraded MDS: throughput must drop."""
    healthy = run_with_faults(CoarseHashPolicy(), [], seed=4)
    degraded = run_with_faults(
        CoarseHashPolicy(),
        [Slowdown(mds=0, start_ms=0.0, end_ms=1e9, factor=4.0)],
        seed=4,
    )
    assert degraded.throughput_ops_per_sec < healthy.throughput_ops_per_sec * 0.9


def test_balancer_routes_around_degraded_mds():
    """A busy-time-driven balancer sheds load off the slow MDS."""
    slow = [Slowdown(mds=0, start_ms=0.0, end_ms=1e9, factor=4.0)]
    static = run_with_faults(CoarseHashPolicy(), slow, seed=5)
    balanced = run_with_faults(LunulePolicy(), slow, seed=5)
    # the reactive balancer must end with little load on the degraded server
    share_static = static.total_qps_per_mds()[0] / static.ops_completed
    share_balanced = balanced.total_qps_per_mds()[0] / balanced.ops_completed
    assert share_balanced < share_static
    # ...and the migrations must actually have happened
    assert balanced.migrations > 0


_LATE_SLOW = [Slowdown(mds=0, start_ms=20.0, end_ms=60.0, factor=3.0)]


def _late_install_fs(faults=None):
    built, trace = generate_trace_rw(SeedSequenceFactory(3).stream("w"), n_ops=3000)
    cfg = SimConfig(
        n_mds=3, n_clients=10, epoch_ms=40.0, params=CostParams(cache_depth=2),
        faults=faults,
    )
    return OrigamiFS(built.tree, trace, LunulePolicy(), cfg)


def test_late_injector_install_takes_effect():
    """An injector installed between construction and run() must reach the
    client loop: its per-RPC gate drops requests that clients then retry."""
    fs = _late_install_fs()
    drop = RpcDrop(mds=0, start_ms=20.0, end_ms=60.0, probability=0.6)
    inj = FaultInjector(fs, FaultSchedule([drop]))
    assert fs.faults is inj
    d = fs.run().to_dict()
    assert d["faults"]["rpc_drops"] > 0
    assert d["faults"]["retries"] > 0
    assert d["ops_completed"] + d["fault_failed_ops"] + d["vanished_ops"] == len(fs.trace)


def test_late_injector_install_matches_config_schedule():
    """An injector installed between construction and run() must see every
    call: the replay equals the same schedule passed through SimConfig."""
    late = _late_install_fs()
    FaultInjector(late, FaultSchedule(_LATE_SLOW))
    late_result = late.run().to_dict()
    configured = _late_install_fs(FaultSchedule(_LATE_SLOW)).run().to_dict()
    assert late_result == configured


def test_injector_refuses_double_install():
    fs = _tiny_fs(faults=FaultSchedule([]))
    with pytest.raises(RuntimeError):
        FaultInjector(fs, FaultSchedule([Slowdown(mds=0, start_ms=0, end_ms=1, factor=2.0)]))


# ----------------------------------------------------------- schedule model


def test_schedule_json_roundtrip(tmp_path):
    sched = FaultSchedule(
        [
            Crash(mds=0, start_ms=10.0, end_ms=20.0, warmup_ms=5.0, warmup_factor=2.0),
            Slowdown(mds=1, start_ms=0.0, end_ms=math.inf, factor=4.0),
            RpcDrop(mds=2, start_ms=5.0, end_ms=15.0, probability=0.5),
            RpcDelay(mds=0, start_ms=30.0, end_ms=40.0, extra_ms=0.1),
            Partition(mds=1, start_ms=50.0, end_ms=60.0),
        ],
        retry=RetryPolicy(max_attempts=4, backoff_base_ms=0.5),
    )
    path = tmp_path / "sched.json"
    path.write_text(json.dumps(sched.to_dict(), allow_nan=False))
    loaded = FaultSchedule.load(str(path))
    assert loaded == sched
    assert loaded.to_dict() == sched.to_dict()
    assert loaded.retry.max_attempts == 4
    # the permanent slowdown survived the "inf" round trip
    slow = next(e for e in loaded.events if isinstance(e, Slowdown))
    assert math.isinf(slow.end_ms)


def test_schedule_queries():
    sched = FaultSchedule(
        [
            Slowdown(mds=0, start_ms=10.0, end_ms=20.0, factor=3.0),
            Slowdown(mds=0, start_ms=15.0, end_ms=25.0, factor=2.0),
            Crash(mds=1, start_ms=10.0, end_ms=20.0, warmup_ms=10.0, warmup_factor=5.0),
            RpcDelay(mds=0, start_ms=10.0, end_ms=20.0, extra_ms=0.1),
            RpcDelay(mds=0, start_ms=12.0, end_ms=18.0, extra_ms=0.2),
        ]
    )
    # overlapping slowdowns: the worst factor wins
    assert sched.slowdown_factor(0, 17.0) == 3.0
    assert sched.slowdown_factor(0, 22.0) == 2.0
    assert sched.slowdown_factor(0, 30.0) == 1.0
    # a restart's warm-up is the server's window, not a schedule query
    assert sched.slowdown_factor(1, 25.0) == 1.0
    # extra delays stack
    assert sched.extra_delay_ms(0, 15.0) == pytest.approx(0.3)
    assert sched.extra_delay_ms(0, 19.0) == pytest.approx(0.1)


def test_schedule_validation_rejects_unservable_cluster():
    # simultaneously crashing every MDS would deadlock the closed loop
    sched = FaultSchedule(
        [
            Crash(mds=0, start_ms=10.0, end_ms=20.0),
            Crash(mds=1, start_ms=15.0, end_ms=25.0),
        ]
    )
    with pytest.raises(ValueError):
        sched.validate(2)
    sched.validate(3)  # a third, live MDS makes it servable
    with pytest.raises(ValueError):
        FaultSchedule([Slowdown(mds=5, start_ms=0, end_ms=1, factor=2.0)]).validate(3)


def run_scheduled(schedule, policy=None, seed=0, n_ops=2500, n_mds=3, epoch_ms=20.0):
    built, trace = generate_trace_rw(SeedSequenceFactory(seed).stream("w"), n_ops=n_ops)
    cfg = SimConfig(
        n_mds=n_mds,
        n_clients=12,
        epoch_ms=epoch_ms,
        params=CostParams(cache_depth=2),
        seed=seed,
        faults=schedule,
    )
    return run_simulation(built.tree, trace, policy or LunulePolicy(), cfg), len(trace)


def test_crash_window_zero_lost_ops():
    """An MDS crash mid-run: every op completes or fails typed — none lost."""
    sched = FaultSchedule(
        [Crash(mds=0, start_ms=25.0, end_ms=45.0, warmup_ms=10.0, warmup_factor=2.0)]
    )
    result, n_ops = run_scheduled(sched)
    d = result.to_dict()
    fl = d["faults"]
    assert fl["crashes"] == 1 and fl["restarts"] == 1
    assert fl["retries"] > 0
    assert fl["connection_refusals"] > 0
    assert d["ops_completed"] + d["fault_failed_ops"] + d["vanished_ops"] == n_ops
    # the balancer evacuated the dead MDS, so clients failed over
    assert fl["failovers"] > 0
    assert fl["ops_recovered"] > 0


def test_permanent_crash_evacuates_and_completes():
    """A crash that never restarts: survivors absorb everything."""
    sched = FaultSchedule(
        [Crash(mds=0, start_ms=30.0, end_ms=math.inf)],
        retry=RetryPolicy(max_attempts=12, backoff_max_ms=8.0),
    )
    result, n_ops = run_scheduled(sched, epoch_ms=15.0)
    d = result.to_dict()
    assert d["ops_completed"] + d["fault_failed_ops"] + d["vanished_ops"] == n_ops
    assert result.migrations > 0  # the evacuation happened via the Migrator
    # after the crash the dead MDS must not accumulate any service time
    crash_epoch = int(30.0 // 15.0)
    late_busy = sum(float(e.busy_ms[0]) for e in result.per_epoch[crash_epoch + 2 :])
    assert late_busy == 0.0


#: every strategy whose rebalance migrates subtrees (the hash, even and
#: single-MDS placements never do)
MIGRATING_STRATEGIES = ("Lunule", "ML-tree", "AdaM-RL", "Meta-OPT", "Origami", "Origami-online")


class _DeadMdsWatch:
    """Wraps a policy and checks every decision list it returns while MDS 0
    is down: the list applies cleanly in order and never targets MDS 0."""

    def __init__(self, policy):
        self.policy, self.name = policy, policy.name

    def setup(self, *args):
        return self.policy.setup(*args)

    def rebalance(self, ctx):
        decisions = self.policy.rebalance(ctx)
        if not ctx.liveness.serving_mask()[0]:
            plan = ctx.pmap.copy()
            for d in decisions:
                d.validate(plan)  # raises if an earlier decision moved it
                assert d.dst != 0
                plan.migrate_subtree(d.subtree_root, d.dst)
        return decisions


@pytest.mark.parametrize("strategy", MIGRATING_STRATEGIES)
def test_every_migrating_strategy_evacuates_a_dead_mds(strategy):
    """A crash that never restarts: whatever the policy, the dead MDS is
    evacuated and never picked again, so it ends the run owning nothing."""
    built, trace = generate_trace_rw(SeedSequenceFactory(3).stream("w"), n_ops=6000)
    policy, _ = make_policy(strategy, "rw", get_scale("smoke"))
    cfg = SimConfig(
        n_mds=3,
        n_clients=24,
        epoch_ms=20.0,
        params=CostParams(cache_depth=2),
        seed=3,
        oracle_window_ops=1500,
        faults=FaultSchedule(
            [Crash(mds=0, start_ms=30.0, end_ms=math.inf)],
            retry=RetryPolicy(max_attempts=12, backoff_max_ms=8.0),
        ),
    )
    fs = OrigamiFS(built.tree, trace, _DeadMdsWatch(policy), cfg)
    result = fs.run()
    assert result.ops_completed + result.fault_failed_ops + result.vanished_ops == len(trace)
    owner = fs.pmap.owner_array()
    dirs = fs.tree.dir_mask()[: owner.shape[0]]
    assert int(((owner == 0) & dirs).sum()) == 0


def test_rpc_drop_and_partition_paths():
    sched = FaultSchedule(
        [
            RpcDrop(mds=1, start_ms=10.0, end_ms=40.0, probability=0.6),
            Partition(mds=2, start_ms=50.0, end_ms=70.0),
        ]
    )
    result, n_ops = run_scheduled(sched, seed=1)
    fl = result.to_dict()["faults"]
    assert fl["rpc_drops"] > 0
    assert fl["rpc_timeouts"] > 0
    assert result.ops_completed + result.fault_failed_ops + result.vanished_ops == n_ops


def _restarted(*slowdowns, joined=None, **config):
    """A fs whose crash/restart edges have run (no clients), and its MDS 0;
    ``joined`` is an elastic joiner's (warm_until, warm_factor) on MDS 0."""
    built, trace = generate_trace_rw(SeedSequenceFactory(0).stream("w"), n_ops=200)
    sched = FaultSchedule(
        [Crash(mds=0, start_ms=5.0, end_ms=10.0, warmup_ms=20.0, warmup_factor=6.0), *slowdowns]
    )
    cfg = SimConfig(n_mds=2, n_clients=2, epoch_ms=50.0, seed=0, faults=sched, **config)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
    server = fs.servers[0]
    assert server.warm_until == 0.0
    if joined is not None:
        server.warm_until, server.warm_factor = joined
    fs.env.run()  # only the injector's control process is scheduled
    assert fs.env.now == 10.0 and server.up
    return fs, server


def test_restart_warmup_slows_service():
    """After a restart the MDS serves at warmup_factor until caches re-heat."""
    fs, server = _restarted()
    assert server.warm_until == 10.0 + 20.0
    assert server.admit(1.0) == 6.0  # warm-up window
    fs.env.warp(30.0)
    assert server.admit(1.0) == 1.0
    assert fs.servers[1].admit(1.0) == 1.0


@pytest.mark.parametrize("slowdown", [4.0, 8.0])
def test_warmup_and_slowdown_take_the_larger_factor(slowdown):
    """A hold inside both windows is multiplied once, by the larger factor."""
    fs, server = _restarted(Slowdown(mds=0, start_ms=0.0, end_ms=40.0, factor=slowdown))
    assert server.admit(1.0) == max(6.0, slowdown)
    fs.env.warp(35.0)  # warm-up over, slowdown still on
    assert server.admit(1.0) == slowdown


def test_restart_replaces_a_warming_joiners_window():
    fs, server = _restarted(joined=(1000.0, 2.0))
    assert (server.warm_until, server.warm_factor) == (30.0, 6.0)


def test_durable_restart_warmup_lasts_the_recovery(tmp_path):
    """A durable restart's window is the modelled recovery time instead."""
    fs, server = _restarted(use_kvstore=True, data_dir=str(tmp_path / "stores"))
    assert server.recovery_ms_total > 0.0
    assert server.warm_until == 10.0 + server.recovery_ms_total
    assert server.admit(1.0) == 6.0
    fs.env.warp(server.warm_until)
    assert server.admit(1.0) == 1.0


@pytest.mark.parametrize("crash, end_ms, n_windows", [(True, 124.634, 7), (False, 107.042, 6)])
def test_a_run_ends_at_its_last_completion(crash, end_ms, n_windows):
    """A restart long after the replay drains does not stretch the run:
    the clock, the last epoch and the last timeline window end at the last
    completion, as in the healthy run."""
    from repro.obs import Observability

    built, trace = build_workload("rw", 3000, seed=1)
    obs = Observability(timeline=True, timeline_window_ms=20.0)
    faults = FaultSchedule([Crash(mds=2, start_ms=30.0, end_ms=5000.0)]) if crash else None
    config = SimConfig(n_mds=3, n_clients=12, epoch_ms=60.0, seed=1, obs=obs, faults=faults)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), config)
    result = fs.run()
    assert round(result.duration_ms, 9) == end_ms
    assert fs.env.now == result.duration_ms
    assert fs.epochs[-1].duration_ms == pytest.approx(end_ms - 60.0, abs=1e-9)
    rows = obs.timeline.to_rows()
    assert len(rows) == n_windows and rows[-1]["end_ms"] == result.duration_ms


#: ``SimResult.to_dict()`` digests of a resume captured inside a fixed
#: warm-up window, as the schedule-side warm-up produced them, with the
#: checkpoint's clock at the first half's last completion
RESUME_IN_WARMUP_DIGESTS = {
    "crash": "f5e2f9c00b9b0a9aa0d9709f3c044214392ea90431b3c3948239094be447b115",
    "crash+slowdown": "fafc7bc5ec8a16be5466664073883bc6dfbf9f925dac6601ea5bf698a3dc453e",
}


@pytest.mark.parametrize("case", sorted(RESUME_IN_WARMUP_DIGESTS))
def test_resume_inside_a_warmup_window_rearms_it(case):
    """A checkpoint whose clock lies inside a restart's fixed warm-up
    window resumes with the window armed on the server again."""
    events = [Crash(mds=0, start_ms=5.0, end_ms=10.0, warmup_ms=200.0, warmup_factor=3.0)]
    if case == "crash+slowdown":
        events.append(Slowdown(mds=0, start_ms=0.0, end_ms=100.0, factor=4.0))

    def config():
        return SimConfig(n_mds=3, seed=7, epoch_ms=15.0, faults=FaultSchedule(events))

    built, trace = build_workload("rw", 3000, seed=7)
    first = OrigamiFS(built.tree, trace[:1000], LunulePolicy(), config())
    first.run()
    checkpoint = SimCheckpoint.from_dict(
        json.loads(json.dumps(Checkpointer().capture(first).to_dict()))
    )
    assert 10.0 < checkpoint.now_ms < 210.0
    fs = Checkpointer().restore(checkpoint, trace, LunulePolicy(), config())
    assert fs.servers[0].warm_until == 0.0  # armed by the control process
    result = fs.run()
    assert fs.servers[0].warm_until == 210.0
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(blob.encode()).hexdigest() == RESUME_IN_WARMUP_DIGESTS[case]


def test_retry_budget_past_1024_attempts_runs():
    """Backoff doubling stops short of float overflow: a long retry budget
    against a crash that never restarts ends in typed failures."""
    sched = FaultSchedule(
        [Crash(mds=0, start_ms=0.5, end_ms=math.inf)],
        retry=RetryPolicy(max_attempts=1100, backoff_max_ms=0.5),
    )
    built, trace = build_workload("rw", 40, seed=0)
    config = SimConfig(n_mds=2, n_clients=2, epoch_ms=1e6, seed=0, faults=sched)
    result = run_simulation(built.tree, trace, CoarseHashPolicy(), config)
    assert result.faults["ops_failed"] > 0
    assert result.faults["retries"] == 1099 * result.faults["ops_failed"]
    assert result.ops_completed + result.fault_failed_ops + result.vanished_ops == len(trace)


def test_typed_failure_after_retry_budget():
    """With every retry doomed (long crash, no failover target for the root),
    ops surface typed failures instead of hanging or vanishing."""
    # crash never restarts and the retry budget is tiny; the first epoch's
    # ops mostly target MDS 0 (everything starts there under subtree policies)
    sched = FaultSchedule(
        [Crash(mds=0, start_ms=2.0, end_ms=math.inf)],
        retry=RetryPolicy(max_attempts=2, backoff_base_ms=0.1, backoff_max_ms=0.2),
    )
    result, n_ops = run_scheduled(sched, epoch_ms=500.0)  # balancer far too late
    d = result.to_dict()
    assert d["fault_failed_ops"] > 0
    assert d["faults"]["failed_mds_down"] > 0
    assert d["ops_completed"] + d["fault_failed_ops"] + d["vanished_ops"] == n_ops


def test_empty_schedule_installs_cleanly():
    built, trace = generate_trace_rw(SeedSequenceFactory(0).stream("w"), n_ops=300)
    cfg = SimConfig(n_mds=2, n_clients=4, seed=0, faults=FaultSchedule([]))
    result = run_simulation(built.tree, trace, LunulePolicy(), cfg)
    fl = result.to_dict()["faults"]
    assert fl["events_scheduled"] == 0
    assert fl["retries"] == 0 and fl["crashes"] == 0
    assert result.ops_completed == len(trace)
