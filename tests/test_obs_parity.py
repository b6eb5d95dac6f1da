"""Observability must be passive: tracing/metrics on == off, bit for bit.

Spans and metrics draw no RNG values and schedule no events, and no run
decision reads them, so a fully instrumented run must produce the same
SimResult as an uninstrumented one — and the disabled path must stay cheap.
"""

import math

import pytest

from repro.balancers import LunulePolicy
from repro.bench.scenario import DATAPATH
from repro.costmodel import CostParams
from repro.fs import SimConfig, run_simulation
from repro.fs.filesystem import OrigamiFS
from repro.fs.elastic import AutoscaleSpec, ScaleEvent
from repro.fs.faults import Crash, FaultSchedule, Slowdown
from repro.harness.config import get_scale
from repro.harness.experiments import build_workload, make_policy
from repro.obs import JsonlTracer, Observability
from repro.sim import SeedSequenceFactory
from repro.workloads import generate_trace_rw


def _world(seed=0, n_ops=6000):
    ssf = SeedSequenceFactory(seed)
    return generate_trace_rw(ssf.stream("w"), n_ops=n_ops)


def _config(obs=None, **kw):
    return SimConfig(
        n_mds=3,
        n_clients=20,
        epoch_ms=50.0,
        params=CostParams(cache_depth=2),
        seed=0,
        obs=obs,
        **kw,
    )


HEADLINE = (
    "ops_completed",
    "duration_ms",
    "mean_latency_ms",
    "p50_latency_ms",
    "p99_latency_ms",
    "total_rpcs",
    "migrations",
    "inodes_migrated",
    "failed_ops",
    "cache_hit_rate",
    "engine_events",
)


def test_tracing_and_metrics_do_not_perturb_the_run():
    built, trace = _world()
    baseline = run_simulation(built.tree, trace, LunulePolicy(), _config(obs=None))

    built2, trace2 = _world()
    obs = Observability(metrics=True, trace=True, audit=True)
    traced = run_simulation(built2.tree, trace2, LunulePolicy(), _config(obs=obs))

    for name in HEADLINE:
        assert getattr(traced, name) == getattr(baseline, name), name
    for eb, et in zip(baseline.per_epoch, traced.per_epoch):
        assert eb.duration_ms == et.duration_ms
        assert (eb.busy_ms == et.busy_ms).all()
        assert (eb.qps == et.qps).all()


def test_span_decomposition_matches_client_latency():
    built, trace = _world(seed=3)
    obs = Observability(trace=True)
    r = run_simulation(built.tree, trace, LunulePolicy(), _config(obs=obs))
    spans = obs.tracer.spans
    assert len(spans) == r.ops_completed
    total_lat = sum(s.latency_ms for s in spans)
    total_parts = sum(s.queue_ms + s.service_ms + s.net_ms for s in spans)
    assert total_parts == pytest.approx(total_lat, rel=1e-9)
    # span-side mean must agree with the LatencyRecorder's exact mean
    assert total_lat / len(spans) == pytest.approx(r.mean_latency_ms, rel=1e-9)


def test_audit_resolves_every_non_final_migration():
    built, trace = _world(seed=1, n_ops=8000)
    obs = Observability(audit=True)
    r = run_simulation(built.tree, trace, LunulePolicy(), _config(obs=obs))
    assert r.migrations > 0, "skewed start must migrate"
    audit = obs.audit
    assert audit.total_migrations == r.migrations
    # every migration not in the final (unobserved) epoch has a realized value
    last_epoch = max(e.epoch for e in audit.entries)
    for e in audit.entries:
        if e.epoch < last_epoch:
            assert e.resolved


def test_jsonl_streaming_matches_in_memory(tmp_path):
    path = tmp_path / "spans.jsonl"
    built, trace = _world(seed=2)
    obs = Observability(tracer=JsonlTracer(str(path), retain=True))
    r = run_simulation(built.tree, trace, LunulePolicy(), _config(obs=obs))
    obs.close()
    lines = path.read_text().splitlines()
    assert len(lines) == len(obs.tracer.spans) == r.ops_completed


def test_timeline_and_slo_do_not_perturb_the_run():
    """Timeline collection is passive: headline metrics bit-identical."""
    built, trace = _world()
    baseline = run_simulation(built.tree, trace, LunulePolicy(), _config(obs=None))

    built2, trace2 = _world()
    obs = Observability(metrics=True, timeline=True, timeline_window_ms=25.0)
    timed = run_simulation(built2.tree, trace2, LunulePolicy(), _config(obs=obs))

    assert obs.timeline.n_windows > 0
    for name in HEADLINE:
        assert getattr(timed, name) == getattr(baseline, name), name
    for eb, et in zip(baseline.per_epoch, timed.per_epoch):
        assert eb.duration_ms == et.duration_ms
        assert (eb.busy_ms == et.busy_ms).all()
        assert (eb.qps == et.qps).all()


def _elastic(policy, **kw):
    if policy == "schedule":
        kw["events"] = (ScaleEvent(1, "join", 2), ScaleEvent(4, "drain", 1))
    return AutoscaleSpec(
        policy=policy, min_mds=1, max_mds=4, warmup_ms=2.0, cooldown_epochs=1,
        scale_out_util=0.5, scale_in_util=0.35, **kw,
    )


#: feature configurations, each run once bare and once fully observed
PARITY_CASES = {
    "lunule": {},
    "lunule-crash-slowdown": {"faults": FaultSchedule([
        Crash(mds=1, start_ms=10.0, end_ms=25.0, warmup_ms=15.0, warmup_factor=3.0),
        Slowdown(mds=0, start_ms=5.0, end_ms=40.0, factor=3.0),
    ])},
    "lunule-durable-crash": {
        "faults": FaultSchedule([Crash(mds=0, start_ms=10.0, end_ms=30.0)]),
        "durable": True,
    },
    "lunule-lease-cache": {"cache_mode": "lease"},
    "lunule-datapath": {"datapath": DATAPATH},
    "origami-smoke": {"strategy": "Origami"},
    "elastic-threshold": {"kind": "diurnal", "autoscale": _elastic("threshold")},
    "elastic-predictive": {"kind": "diurnal", "autoscale": _elastic("predictive")},
    "elastic-schedule": {"kind": "diurnal", "autoscale": _elastic("schedule")},
}


def _parity_fs(case, obs, data_dir):
    opts = dict(PARITY_CASES[case])
    kind = opts.pop("kind", "rw")
    policy, _ = make_policy(opts.pop("strategy", "Lunule"), kind, get_scale("smoke"))
    if opts.pop("durable", False):
        opts["data_dir"] = data_dir
    n_mds = 2 if "autoscale" in opts else 3
    built, trace = build_workload(kind, 3000, seed=3)
    config = SimConfig(
        n_mds=n_mds, n_clients=30, epoch_ms=10.0, params=CostParams(cache_depth=2),
        seed=3, obs=obs, **opts,
    )
    return OrigamiFS(built.tree, trace, policy, config)


def _observed_run(case, obs, data_dir):
    return _parity_fs(case, obs, data_dir).run().to_dict()


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_observation_never_steers_a_run(case, tmp_path):
    """A run made with no Observability and one made with metrics, tracer,
    audit and a timeline give the same result, apart from the timeline."""
    bare = _observed_run(case, None, str(tmp_path / "bare"))
    obs = Observability(
        metrics=True, trace=True, audit=True, timeline=True, timeline_window_ms=2.0
    )
    observed = _observed_run(case, obs, str(tmp_path / "observed"))
    assert obs.timeline.n_windows > 0 and len(obs.tracer.spans) > 0
    assert bare.pop("timeline") is None
    assert observed.pop("timeline") is not None
    assert observed == bare


@pytest.mark.parametrize("case", sorted(PARITY_CASES))
def test_run_ends_at_its_last_completion(case, tmp_path):
    """The clock, the epochs and the timeline all end at the last
    completion: no stopped epoch driver or fault timeline drags them on."""
    obs = Observability(timeline=True, timeline_window_ms=2.0)
    fs = _parity_fs(case, obs, str(tmp_path / "stores"))
    end = fs.run().duration_ms
    assert fs.env.now == end
    assert math.fsum(e.duration_ms for e in fs.epochs) == pytest.approx(end, abs=1e-9)
    assert obs.timeline.to_rows()[-1]["end_ms"] == end


def _faulted_durable_config(tmp_path, obs, subdir):
    from repro.fs.faults import Crash, FaultSchedule, Slowdown

    faults = FaultSchedule(
        [
            Crash(mds=0, start_ms=30.0, end_ms=90.0, warmup_factor=2.0),
            Slowdown(mds=1, start_ms=50.0, end_ms=120.0, factor=3.0),
        ]
    )
    return _config(
        obs=obs, faults=faults, data_dir=str(tmp_path / subdir)
    )


def test_timeline_and_slo_bit_identical_under_faults_and_durability(tmp_path):
    """Two identical faulted+durable runs produce byte-identical timelines
    and SLO reports — the collector inherits the simulator's determinism."""
    import json

    from repro.obs import SloSpec, evaluate_slo

    spec = SloSpec.from_dict(
        {
            "name": "parity",
            "objectives": [
                {"name": "p95", "metric": "p95_ms", "target_ms": 8.0,
                 "error_budget": 0.2, "burn_window": 4},
                {"name": "hits", "metric": "cache_hit_rate", "target": 0.05,
                 "error_budget": 0.5},
            ],
        }
    )

    outputs = []
    for subdir in ("a", "b"):
        built, trace = _world(seed=7, n_ops=5000)
        obs = Observability(metrics=True, timeline=True, timeline_window_ms=20.0)
        cfg = _faulted_durable_config(tmp_path, obs, subdir)
        r = run_simulation(built.tree, trace, LunulePolicy(), cfg)
        rows = obs.timeline.to_rows()
        report = evaluate_slo(rows, spec, faults=cfg.faults)
        outputs.append(
            (
                json.dumps(obs.timeline.meta(), sort_keys=True),
                json.dumps(rows, sort_keys=True),
                json.dumps(report.to_dict(), sort_keys=True),
                r.ops_completed,
            )
        )
    assert outputs[0] == outputs[1]
    # the fault schedule overlaps the run: breach annotation plumbing must
    # have seen real windows (faults end by 120ms, run lasts much longer)
    assert outputs[0][3] > 0


def test_window_aggregates_sum_exactly_to_end_of_run_counters(tmp_path):
    """Telescoping deltas: every timeline column sums bit-for-bit to the
    corresponding end-of-run counter, including the durability columns."""
    from repro.fs.filesystem import OrigamiFS

    built, trace = _world(seed=5, n_ops=5000)
    obs = Observability(timeline=True, timeline_window_ms=20.0)
    cfg = _config(obs=obs, data_dir=str(tmp_path / "stores"))
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), cfg)
    # bind() has already snapshotted its baselines (end of __init__): the
    # same counters read now reproduce them exactly
    base_wal = [int(s.store.stats.wal_appends) for s in fs.servers]
    base_fsync = [int(s.store.stats.fsyncs) for s in fs.servers]
    base_rpcs = [int(s.total_rpcs) for s in fs.servers]
    r = fs.run()

    rows = obs.timeline.to_rows()
    assert rows, "run must close at least one window"
    assert sum(row["ops"] for row in rows) == r.ops_completed
    assert sum(row["engine_events"] for row in rows) == r.engine_events
    assert sum(row["migrations"] for row in rows) == r.migrations

    n_mds = cfg.n_mds
    for mds in range(n_mds):
        col = lambda name: sum(row[f"mds_{name}"][mds] for row in rows)
        server = fs.servers[mds]
        assert col("ops") == server.total_requests
        assert col("rpcs") == server.total_rpcs - base_rpcs[mds]
        assert col("wal_appends") == int(server.store.stats.wal_appends) - base_wal[mds]
        assert col("fsyncs") == int(server.store.stats.fsyncs) - base_fsync[mds]
        assert col("busy_ms") == pytest.approx(server.total_busy_ms, abs=1e-9)
        assert col("wal_ms") == pytest.approx(server.durability_ms_total, abs=1e-9)
    # cluster rpcs: per-MDS column sums telescope to the run total
    assert sum(sum(row["mds_rpcs"]) for row in rows) == r.total_rpcs - sum(base_rpcs)

    # the SimResult summary is the same series rolled up
    assert r.timeline is not None
    assert r.timeline["total_ops"] == float(r.ops_completed)
    assert r.timeline["engine_events"] == float(r.engine_events)
    assert r.timeline["windows"] == float(len(rows))


def test_trace_sampling_keeps_every_nth_span(tmp_path):
    """--trace-sample N retention is by completion ordinal: deterministic,
    and the sampled file is an exact subsequence of the full trace."""
    import json

    full_path = tmp_path / "full.jsonl"
    sampled_path = tmp_path / "sampled.jsonl"

    built, trace = _world(seed=6, n_ops=3000)
    obs_full = Observability(tracer=JsonlTracer(str(full_path)))
    run_simulation(built.tree, trace, LunulePolicy(), _config(obs=obs_full))
    obs_full.close()

    built2, trace2 = _world(seed=6, n_ops=3000)
    obs_sampled = Observability(tracer=JsonlTracer(str(sampled_path), sample=7))
    r = run_simulation(built2.tree, trace2, LunulePolicy(), _config(obs=obs_sampled))
    obs_sampled.close()

    full = full_path.read_text().splitlines()
    sampled = sampled_path.read_text().splitlines()
    expected = full[::7]
    assert sampled == expected
    assert len(sampled) == (r.ops_completed + 6) // 7
    assert obs_sampled.tracer.dropped == r.ops_completed - len(sampled)


def test_disabled_observability_overhead_is_small():
    """The NULL_OBS hot path must cost <= 5% vs the pre-instrumentation code.

    We cannot rerun the uninstrumented binary here, so approximate: the
    disabled run must be within 5% + noise of itself across repeats, and a
    fully-instrumented run bounds the worst case.  Wall-clock flakiness makes
    a strict CI assertion counterproductive; assert a loose 'disabled is not
    slower than enabled' sanity bound instead.
    """
    import time

    def run_once(obs):
        built, trace = _world(seed=4, n_ops=4000)
        t0 = time.perf_counter()
        run_simulation(built.tree, trace, LunulePolicy(), _config(obs=obs))
        return time.perf_counter() - t0

    run_once(None)  # warm caches/JIT-ish effects
    disabled = min(run_once(None) for _ in range(2))
    enabled = min(run_once(Observability(metrics=True, trace=True, audit=True)) for _ in range(2))
    # disabled must never be meaningfully slower than fully instrumented
    assert disabled <= enabled * 1.5


@pytest.mark.parametrize("metrics", [True, False], ids=["registry", "null-registry"])
def test_per_op_path_touches_no_counter(monkeypatch, metrics):
    """The registry costs one histogram observe per op and no counter add:
    every counter is published from a component's total when the run ends,
    so a run makes a handful of ``inc`` calls, not several per op."""
    from repro.obs.registry import Counter, Histogram, _NullMetric

    calls = {}

    def count_calls(cls, method):
        original = getattr(cls, method)
        key = f"{cls.__name__}.{method}"
        calls[key] = 0

        def wrapper(self, *args, **kwargs):
            calls[key] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(cls, method, wrapper)

    built, trace = _world()
    n_ops = len(trace)
    if metrics:
        count_calls(Counter, "inc")
        count_calls(Histogram, "observe")
    else:
        count_calls(_NullMetric, "inc")
    obs = Observability(metrics=metrics)
    run_simulation(built.tree, trace, LunulePolicy(), _config(obs=obs))
    if metrics:
        assert calls["Histogram.observe"] == n_ops
        assert calls["Counter.inc"] < 0.1 * n_ops, calls
    else:
        assert calls["_NullMetric.inc"] < 0.1 * n_ops, calls
