"""Fault-injection tests: schedules, crash semantics, retries, evacuation.

The first half covers slowdowns — the injector's service factor, its effect
on static vs. balancing policies, and an injector installed after
construction — the second half the rest of the schedule model: JSON
round-trips, crash windows with zero lost ops, drop/partition paths,
restart warm-up, and dead-MDS evacuation by the balancer.
"""

import math

import pytest

from repro.balancers import CoarseHashPolicy, LunulePolicy
from repro.costmodel import CostParams
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
    inj = FaultInjector(
        _tiny_fs(), FaultSchedule([Slowdown(mds=1, start_ms=10, end_ms=20, factor=3.0)])
    )
    assert inj.service_factor(1, 5.0) == 1.0
    assert inj.service_factor(1, 15.0) == 3.0
    assert inj.service_factor(1, 25.0) == 1.0
    assert inj.service_factor(0, 15.0) == 1.0


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
    sched.save(str(path))
    loaded = FaultSchedule.load(str(path))
    assert loaded == sched
    assert loaded.retry.max_attempts == 4
    # the permanent slowdown survived the "inf" round trip
    slow = next(e for e in loaded.events if isinstance(e, Slowdown))
    assert math.isinf(slow.end_ms)
    assert FaultSchedule.from_json(sched.to_json()) == sched


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
    # a restarting crash serves at the warm-up factor after its window
    assert sched.is_down(1, 15.0)
    assert not sched.is_down(1, 25.0)
    assert sched.slowdown_factor(1, 25.0) == 5.0
    assert sched.slowdown_factor(1, 35.0) == 1.0
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


def test_restart_warmup_slows_service():
    """After a restart the MDS serves at warmup_factor until caches re-heat."""
    built, trace = generate_trace_rw(SeedSequenceFactory(0).stream("w"), n_ops=200)
    sched = FaultSchedule(
        [Crash(mds=0, start_ms=5.0, end_ms=10.0, warmup_ms=20.0, warmup_factor=6.0)]
    )
    cfg = SimConfig(n_mds=2, n_clients=2, epoch_ms=50.0, seed=0, faults=sched)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
    inj = fs.faults
    assert inj.service_factor(0, 7.0) == 1.0  # down, not slow (gate handles it)
    assert inj.service_factor(0, 15.0) == 6.0  # warm-up window
    assert inj.service_factor(0, 40.0) == 1.0


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
