"""One benchmark run of one workload, in a fresh process.

``run.py`` starts this script once per instance and pass, so every run
starts cold: empty plan caches, near-root cache and trained-model cache,
exactly as a user pays them.  The script drives the simulator only through
public calls (``build_workload``, ``make_policy``, ``SimConfig``,
``OrigamiFS(...)`` and ``.run()``) and prints one JSON object on stdout.
While it times set-up and replay it samples the host's speed
(``hostspeed.py``) and reports both times at reference speed.

With ``--traced`` it first wraps the calls into each layer from the outside
(see ``layers.py``) and adds the per-layer numbers and spans to the object.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import tempfile
import time
from typing import Optional

# timers start after imports: everything the run touches is imported here
from repro.costmodel import CostParams
from repro.fs import OrigamiFS, SimConfig
from repro.fs.faults import Crash, FaultSchedule, Partition, RetryPolicy, Slowdown
from repro.harness.config import get_scale
from repro.harness.experiments import build_workload, make_policy
from repro.obs import Observability

import hostspeed
import layers
from spec import SIZES, WORKLOADS, Workload

EPOCH_MS = 100.0
CACHE_DEPTH = 2
#: LatencyRecorder's default reservoir: percentiles are read from at most
#: this many samples, so p99.9 has 20 samples beyond it
LATENCY_RESERVOIR = 20_000

#: clients wait out the partition and fail over once the balancer evacuates
#: the crashed MDS (backoff sums to >400 ms), so no op exhausts its retries
RETRY = RetryPolicy(backoff_max_ms=25.0, max_attempts=24)


def fault_schedule(w: Workload) -> Optional[FaultSchedule]:
    """MDS 0 is partitioned, crashes while isolated and restarts before the
    partition heals; later MDS 1 slows 3x.  Crashing an isolated MDS means
    no request is in flight on it, so no mutation is applied twice."""
    if w.faults is None:
        return None
    (p0, p1), (c0, c1), (s0, s1) = w.faults
    return FaultSchedule(
        [
            Partition(mds=0, start_ms=p0, end_ms=p1),
            Crash(mds=0, start_ms=c0, end_ms=c1, warmup_factor=2.0),
            Slowdown(mds=1, start_ms=s0, end_ms=s1, factor=3.0),
        ],
        retry=RETRY,
    )


def observability(w: Workload) -> Optional[Observability]:
    if w.obs == "none":
        return None
    return Observability(
        metrics=True,
        timeline=True,
        timeline_window_ms=EPOCH_MS,
        trace=w.obs == "sampled",
        trace_sample=100,
    )


def run(name: str, size: str, seed: int, traced: bool, data_root: str) -> dict:
    w = WORKLOADS[name][size]
    rec = layers.Recorder(enabled=traced)
    if traced:
        layers.wrap_training(rec)
    sampler = hostspeed.Sampler()
    with tempfile.TemporaryDirectory(dir=data_root) as run_dir, sampler:
        data_dir = os.path.join(run_dir, "stores") if w.durable else None
        t0 = time.perf_counter()
        with rec.span("setup"):
            with rec.span("workloads.build"):
                built, trace = build_workload(w.kind, w.n_ops, seed, tree_scale=w.tree_scale)
            inodes = len(built.tree)
            with rec.span("training"):
                policy, _ = make_policy(w.strategy, w.kind, get_scale(w.model_tier))
            obs = observability(w)
            if traced and obs is not None:
                # before OrigamiFS: the fast path binds record_op at prepare
                layers.wrap_timeline(rec, obs.timeline)
            config = SimConfig(
                n_mds=w.n_mds,
                n_clients=w.n_clients,
                epoch_ms=EPOCH_MS,
                params=CostParams(cache_depth=CACHE_DEPTH),
                seed=seed,
                oracle_window_ops=9000,
                faults=fault_schedule(w),
                obs=obs,
                data_dir=data_dir,
            )
            with rec.span("fs.init"):
                fs = OrigamiFS(built.tree, trace, policy, config)
        t1 = time.perf_counter()
        if traced:
            layers.wrap_cluster(rec, fs)
        with rec.span("sim.replay"):
            result = fs.run()
        t2 = time.perf_counter()
    setup_s = sampler.seconds(t0, t1)
    replay_s = sampler.seconds(t1, t2)
    n_ops = len(trace)
    failed = result.failed_ops + result.fault_failed_ops
    out = {
        "workload": name,
        "size": size,
        "seed": seed,
        "traced": traced,
        "n_ops": n_ops,
        "ops_completed": result.ops_completed,
        "vanished_ops": result.vanished_ops,
        "fault_failed_ops": result.fault_failed_ops,
        "failed_ops": failed,
        # times at reference host speed (hostspeed.py); clock_s as measured
        "host": {
            "setup_s": setup_s,
            "replay_s": replay_s,
            "wall_s": setup_s + replay_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "clock_s": t2 - t0,
            "speed": sampler.speed(t0, t2),
        },
        "virtual": {
            "throughput_ops_s": result.steady_state_throughput(),
            "p50_latency_ms": result.p50_latency_ms,
            "p99_latency_ms": result.p99_latency_ms,
            "p999_latency_ms": fs.latency.percentile(99.9),
            "rpcs_per_request": result.rpcs_per_request,
            "failed_op_frac": failed / n_ops,
            # the simulated work, checked for identity with the rest
            "engine_events": result.engine_events,
            "duration_ms": result.duration_ms,
            "epochs": len(result.per_epoch),
        },
        "latency_samples": min(fs.latency.count, LATENCY_RESERVOIR),
    }
    if traced:
        # per-layer times are clock seconds, like the spans they come from
        out["layers"] = layers.summarize(rec, fs, result, inodes, t2 - t1)
        out["absent"] = sorted(rec.absent)
        out["spans"] = rec.spans
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--size", default="full", choices=SIZES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--data-root", required=True,
                    help="directory for the run-scoped durable stores")
    args = ap.parse_args(argv)
    out = run(args.workload, args.size, args.seed, args.traced, args.data_root)
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
