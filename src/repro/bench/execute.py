"""The one execution path every benchmark run goes through.

Both the paper harness (``repro.harness.experiments`` regenerating
Figs 2 and 5-9, Table 2 and the cache-depth and mdtest ablations) and the
parallel perf runner (:mod:`repro.bench.runner`) execute a (scenario,
variant, seed) cell via :func:`run_variant`, so a perf artifact and a paper
figure measured from the same scenario are directly comparable — there is
no second, subtly different code path.

Imports of :mod:`repro.harness` are deferred to call time: ``repro.bench``
must stay importable from ``repro.harness.experiments`` without a cycle.
"""

from __future__ import annotations

from typing import Any, Dict, Optional, Sequence

from repro.bench.scenario import DATAPATH, BenchScenario, BenchVariant

__all__ = ["run_variant", "extract_metrics"]


def run_variant(
    scenario: BenchScenario,
    variant: BenchVariant,
    seed: int,
    scale: Any = None,
    collect_obs: bool = False,
):
    """Run one (scenario, variant, seed) cell; returns the ``SimResult``.

    ``scale`` may be an :class:`~repro.harness.config.ExperimentScale`, a
    tier name, or None (the scenario's default tier).  Each cell is fully
    determined by its arguments — workload generation and the simulator
    derive every stream from the cell's own seed via named
    :class:`~repro.sim.rng.SeedSequenceFactory` children — which is what
    makes the parallel runner's worker count irrelevant to its output.
    """
    import contextlib
    import os
    import tempfile

    from repro.harness.config import ExperimentScale, get_scale
    from repro.harness.experiments import run_strategy

    if not isinstance(scale, ExperimentScale):
        scale = get_scale(scale or scenario.scale)
    obs = None
    if collect_obs:
        from repro.obs import Observability

        # one timeline window per rebalance epoch: coarse enough to stay
        # cheap at any scale, fine enough for the artifact's peak/imbalance
        # summaries to mean something
        obs = Observability(
            metrics=True, timeline=True, timeline_window_ms=scale.epoch_ms
        )
    n_ops = max(1, int(round(scale.n_ops * variant.ops_factor)))
    with contextlib.ExitStack() as stack:
        data_dir = None
        if variant.durability:
            # run-scoped scratch stores: the artifact records the durability
            # *metrics*, never a host path, so artifacts stay comparable
            # across machines
            scratch = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-bench-durability-")
            )
            data_dir = os.path.join(scratch, "stores")
        return run_strategy(
            variant.strategy,
            scenario.kind,
            scale,
            seed=seed,
            n_mds=variant.n_mds,
            n_clients=variant.n_clients,
            cache_depth=variant.cache_depth,
            datapath=DATAPATH if variant.datapath else None,
            n_ops=n_ops,
            faults=scenario.faults,
            obs=obs,
            data_dir=data_dir,
            autoscale=variant.autoscale,
        ), obs


def _flatten_obs(snapshot: Dict[str, Any]) -> Dict[str, float]:
    """Scalar view of a metrics-registry snapshot: counters/gauges sum their
    series; histograms export count and sum."""
    flat: Dict[str, float] = {}
    for name, fam in snapshot.items():
        kind = fam.get("type")
        series = fam.get("series", [])
        if kind in ("counter", "gauge"):
            flat[f"obs.{name}"] = float(sum(s["value"] for s in series))
        elif kind == "histogram":
            flat[f"obs.{name}.count"] = float(sum(s["value"]["count"] for s in series))
            flat[f"obs.{name}.sum"] = float(sum(s["value"]["sum"] for s in series))
    return flat


def extract_metrics(result, obs=None) -> Dict[str, float]:
    """Flatten a ``SimResult`` (plus optional obs registry) into the per-seed
    raw-metric dict stored in artifacts.  Keys are stable and sorted on
    write; values are plain floats."""
    imb = result.imbalance()
    metrics: Dict[str, float] = {
        "ops_completed": float(result.ops_completed),
        "duration_ms": float(result.duration_ms),
        "throughput_ops_per_sec": float(result.throughput_ops_per_sec),
        "steady_state_throughput": float(result.steady_state_throughput()),
        "mean_latency_ms": float(result.mean_latency_ms),
        "p50_latency_ms": float(result.p50_latency_ms),
        "p99_latency_ms": float(result.p99_latency_ms),
        "rpcs_per_request": float(result.rpcs_per_request),
        "migrations": float(result.migrations),
        "inodes_migrated": float(result.inodes_migrated),
        "cache_hit_rate": float(result.cache_hit_rate),
        "failed_ops": float(result.failed_ops),
        "imbalance_qps": float(imb.qps),
        "imbalance_busytime": float(imb.busytime),
        # engine-throughput signal (ROADMAP item 1): events are a pure
        # function of the simulation, so both are deterministic and safe to
        # gate strictly — the *wall*-clock rate lives in the volatile
        # ``perf`` section instead (see runner.run_scenario)
        "engine_events": float(result.engine_events),
        "engine_events_per_virtual_sec": float(result.engine_events_per_virtual_sec),
    }
    if result.timeline is not None:
        for key in (
            "windows",
            "peak_ops_per_sec",
            "worst_p99_ms",
            "mean_imbalance",
            "pool_mean",
            "pool_peak",
            "pool_min",
        ):
            if key in result.timeline:
                metrics[f"timeline.{key}"] = float(result.timeline[key])
    if result.elastic is not None:
        for key in (
            "mds_seconds",
            "scale_outs",
            "drains_started",
            "drains_completed",
            "pool_peak",
            "pool_min",
            "pool_final",
        ):
            metrics[f"elastic.{key}"] = float(result.elastic[key])
    if result.faults is not None:
        for key in ("crashes", "restarts", "retries", "failovers"):
            metrics[f"faults.{key}"] = float(result.faults[key])
    if result.kvstore is not None:
        for key in ("wal_appends", "wal_bytes", "fsyncs", "recoveries", "recovery_ms"):
            if key in result.kvstore:
                metrics[f"kvstore.{key}"] = float(result.kvstore[key])
    if obs is not None and obs.registry.enabled:
        metrics.update(_flatten_obs(obs.registry.snapshot()))
    return metrics
