"""What the benchmark runs and what it reports: workloads and metrics.

Plain data with no simulator import, shared by ``run.py`` (which must start
even where the simulator is missing, to fail cleanly), ``child.py`` and the
tests.  Bounds live in ``BENCHMARK.json`` at the repository root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple


@dataclass(frozen=True)
class Workload:
    kind: str
    strategy: str
    n_mds: int
    n_clients: int
    n_ops: int
    #: independently generated inputs replayed per pass (see instance_seeds)
    instances: int
    tree_scale: float = 1.0
    #: scale tier whose model ``make_policy`` trains for Origami
    model_tier: str = "default"
    #: run on durable per-MDS stores in a run-scoped directory
    durable: bool = False
    #: (partition, crash, slowdown) windows in virtual ms; None runs healthy
    faults: Optional[Tuple[Tuple[float, float], ...]] = None
    #: "none", "timeline" (metrics + timeline) or "sampled" (timeline plus a
    #: 1-in-100 span tracer)
    obs: str = "none"
    #: median clock seconds of one full-size child's set-up plus replay on a
    #: 2-vCPU host (README.md); each child runs at least 5 s, so that the
    #: fixed cost of a fresh process weighs little
    wall_s: float = 0.0


#: Every client runs a closed loop with zero think time.  A full-size pass
#: of one workload fits the ``run_seconds`` of ``BENCHMARK.json`` (see
#: pass_seconds).  ``smoke`` keeps every layer on its path at a size the
#: test suite can afford.  README.md says why each workload was chosen and
#: how many instances a pass needs.
WORKLOADS = {
    "ro_replay": {
        "full": Workload("ro", "Lunule", 5, 300, 640_000, 3, wall_s=10.7),
        "smoke": Workload("ro", "Lunule", 5, 300, 20_000, 1),
    },
    "origami_cloud": {
        "full": Workload("wi", "Origami", 8, 300, 190_000, 2, tree_scale=16.0,
                         wall_s=10.1),
        "smoke": Workload("wi", "Origami", 8, 300, 20_000, 1, tree_scale=4.0,
                          model_tier="smoke"),
    },
    "durable_crash_rw": {
        "full": Workload("rw", "Lunule", 3, 300, 112_000, 2, durable=True,
                         faults=((300.0, 650.0), (350.0, 600.0), (800.0, 1000.0)),
                         obs="sampled", wall_s=8.7),
        "smoke": Workload("rw", "Lunule", 3, 300, 15_000, 1, durable=True,
                          faults=((75.0, 160.0), (90.0, 150.0), (200.0, 250.0)),
                          obs="sampled"),
    },
    "million_wi": {
        "full": Workload("wi", "Lunule", 64, 100_000, 200_000, 2, tree_scale=256.0,
                         obs="timeline", wall_s=13.6),
        "smoke": Workload("wi", "Lunule", 64, 5_000, 10_000, 1, tree_scale=16.0,
                          obs="timeline"),
    },
}

SIZES = ("full", "smoke")

#: host seconds a child costs around its set-up and replay (interpreter
#: start, imports, exit), measured on the same host: 0.4 s, and 0.85 s for
#: million_wi, which has 770 MiB to free
CHILD_START_S = 0.6


def pass_seconds(w: Workload) -> float:
    """Host seconds one pass of ``w`` is expected to take: its children in turn."""
    return w.instances * (w.wall_s + CHILD_START_S)


def instance_seeds(seed: int, n: int) -> list:
    """The workload seeds one pass replays for benchmark seed ``seed``.

    One balancing run is chaotic in its inputs: across seeds the same
    configuration ends up with 25% more or fewer epochs, or 15% more RPCs.
    A pass therefore replays ``n`` independently generated inputs and
    aggregates over them, so that what a pass reports is a property of
    the workload rather than of one input."""
    return [seed * 100 + j for j in range(n)]


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: "host" (what a run costs, taken over a pass), "virtual" (what the
    #: modelled cluster does; identical in every run of an input) or "layer"
    kind: str


END_TO_END = (
    Metric("setup_s", "s", "lower", "host"),
    Metric("wall_s", "s", "lower", "host"),
    Metric("sim_events_per_s", "events/s", "higher", "host"),
    Metric("peak_rss_mb", "MiB", "lower", "host"),
    Metric("throughput_ops_s", "ops/s", "higher", "virtual"),
    Metric("p50_latency_ms", "ms", "lower", "virtual"),
    Metric("p99_latency_ms", "ms", "lower", "virtual"),
    Metric("p999_latency_ms", "ms", "lower", "virtual"),
    Metric("rpcs_per_request", "ratio", "lower", "virtual"),
    Metric("failed_op_frac", "ratio", "lower", "virtual"),
)


def _layer(name: str, unit: str, better: str = "lower") -> Metric:
    return Metric(name, unit, better, "layer")


#: grouped by the simulator module each one measures
PER_LAYER = (
    _layer("workloads.build_s", "s"),
    _layer("namespace.inodes", "count"),
    _layer("training.labels_s", "s"),
    _layer("training.fit_s", "s"),
    _layer("fs.init_s", "s"),
    _layer("sim.replay_s", "s"),
    _layer("sim.events", "count"),
    _layer("sim.events_per_s", "1/s", "higher"),
    _layer("sim.loop_self_s", "s"),
    _layer("sim.outside_engine_s", "s"),
    _layer("stats.snapshot_s", "s"),
    _layer("balancer.epochs", "count"),
    _layer("balancer.rebalance_s", "s"),
    _layer("balancer.features_s", "s"),
    _layer("balancer.predict_s", "s"),
    _layer("balancer.search_s", "s"),
    _layer("balancer.decision_ms_per_epoch", "ms"),
    _layer("balancer.imbalance_busytime", "ratio"),
    _layer("migrator.apply_s", "s"),
    _layer("migrator.migrations", "count"),
    _layer("migrator.inodes_moved", "count"),
    _layer("kvstore.put_s", "s"),
    _layer("kvstore.get_s", "s"),
    _layer("kvstore.calls", "count"),
    _layer("kvstore.wal_appends", "count"),
    _layer("kvstore.wal_bytes", "bytes"),
    _layer("kvstore.fsyncs", "count"),
    _layer("kvstore.write_amp", "ratio"),
    _layer("kvstore.read_amp", "ratio"),
    _layer("durability.recovery_ms", "ms"),
    _layer("faults.retries", "count"),
    _layer("faults.failovers", "count"),
    _layer("obs.timeline_s", "s"),
    _layer("obs.spans", "count"),
    _layer("cache.hit_rate", "ratio", "higher"),
    _layer("tracing.overhead_frac", "ratio"),
)

#: per-layer times spent before ``run()``; their share is of wall time, the
#: other times' share is of replay time
SETUP_LAYERS = ("workloads.build_s", "training.labels_s", "training.fit_s", "fs.init_s")

METRICS = {m.name: m for m in END_TO_END + PER_LAYER}
