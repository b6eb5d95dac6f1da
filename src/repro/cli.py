"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``experiments`` — list the available paper experiments;
* ``run <experiment>`` — regenerate one figure/table and print the report
  (optionally ``--json out.json`` / ``--scale smoke|default|full``);
* ``workload <rw|ro|wi>`` — generate a trace and print its characteristics;
* ``train <rw|ro|wi>`` — run the label-generation + training pipeline and
  print model quality and Table-1 importances;
* ``simulate <strategy> <workload>`` — one DES run, headline metrics printed;
  ``--trace``/``--metrics``/``--audit`` export request spans (JSONL), a
  metrics snapshot (JSON), and the balancer decision audit (JSONL);
  ``--json`` dumps the full ``SimResult`` including per-epoch arrays;
  ``--data-dir`` backs every MDS with a durable store (WAL + SSTables +
  MANIFEST) and prices durability work into the run; ``--checkpoint`` /
  ``--resume`` capture and warm-restart a quiescent simulation;
* ``report <trace.jsonl>`` — latency-decomposition report of a span trace;
  ``--timeline`` adds steady-state events/sec and per-window throughput;
* ``obs timeline|heatmap|slo`` — inspect a ``simulate --timeline`` JSONL:
  per-window tables, ASCII per-MDS load heatmaps, and SLO verdicts
  (``obs slo`` exits 1 on breach, for CI gating);
* ``recover <data_dir>`` — read-only inspection of durable store
  directories by recovery's own read pass (every live SSTable is
  CRC-checked): MANIFEST state, WAL tail to replay, modeled recovery cost;
* ``plan <workload>`` — run Meta-OPT as an offline planner and print the
  migration plan;
* ``bench run|list|compare|report`` — the perf-tracking subsystem: run a
  registered scenario's seed×variant matrix in parallel and write a
  schema-versioned ``BENCH_<scenario>.json`` artifact; list scenarios;
  diff two artifacts with regression gating; render an artifact.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import List, Optional

import numpy as np

__all__ = ["main", "build_parser"]


def _checked(kind: type, ok, bound: str):
    """An argparse ``type=`` converter: parse with ``kind``, then demand ``ok``.

    An out-of-range value exits 2 with one ``argument --flag: must be ...``
    error line, instead of a traceback from deep inside the run or a silent
    run on an empty trace.
    """

    def convert(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {bound}, got {text}")
        return value

    convert.__name__ = kind.__name__  # argparse's "invalid int value" wording
    return convert


class _BadInput(Exception):
    """One line for stderr: :func:`main` prints it and exits 2."""


def _load_spec(command: str, what: str, spec: type, path: Optional[str],
               n_mds: Optional[int] = None):
    """``spec.load(path)``, or None without a path; with ``n_mds`` the spec
    must also fit a pool of that many MDSs (its ``validate``).  A file that
    cannot be read or does not hold a fitting spec stops ``repro <command>``
    with one ``bad <what>: …`` line and exit status 2."""
    if not path:
        return None
    try:
        loaded = spec.load(path)
        if n_mds is not None:
            loaded.validate(n_mds)
        return loaded
    except (OSError, ValueError) as exc:
        raise _BadInput(f"repro {command}: bad {what}: {exc}") from None


_COUNT = _checked(int, lambda v: v >= 1, ">= 1")
_NON_NEGATIVE = _checked(int, lambda v: v >= 0, ">= 0")
_POSITIVE = _checked(float, lambda v: 0.0 < v < math.inf, "finite and > 0")


def build_parser() -> argparse.ArgumentParser:
    # the choices come from the tables the commands run on, imported here
    # so that importing this module stays cheap
    from repro.bench.compare import THRESHOLD_PROFILES
    from repro.harness.config import SCALES
    from repro.harness.experiments import EXPERIMENTS, STRATEGY_FACTORIES
    from repro.obs.export import HEATMAP_METRICS
    from repro.workloads import WORKLOADS

    p = argparse.ArgumentParser(
        prog="repro",
        description="Origami (ICPP 2025) reproduction toolkit",
    )
    sub = p.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("experiments", help="list available paper experiments")
    ex.set_defaults(func=_cmd_experiments)

    run = sub.add_parser("run", help="regenerate one figure/table")
    run.set_defaults(func=_cmd_run)
    run.add_argument("experiment", choices=tuple(EXPERIMENTS))
    run.add_argument("--scale", default=None, choices=tuple(SCALES))
    run.add_argument("--seed", type=_NON_NEGATIVE, default=42)
    run.add_argument("--json", dest="json_out", default=None, help="write report JSON here")
    run.add_argument(
        "--profile", action="store_true",
        help="print wall-clock phase profile (workload gen / training / simulation)",
    )

    wl = sub.add_parser("workload", help="generate a trace and describe it")
    wl.set_defaults(func=_cmd_workload)
    wl.add_argument("kind", choices=tuple(WORKLOADS))
    wl.add_argument("--ops", type=_COUNT, default=30_000)
    wl.add_argument("--seed", type=_NON_NEGATIVE, default=0)
    wl.add_argument("--save", default=None, help="save the trace bundle to this .npz path")

    tr = sub.add_parser("train", help="run the training pipeline for a workload family")
    tr.set_defaults(func=_cmd_train)
    tr.add_argument("kind", choices=("rw", "ro", "wi"))
    tr.add_argument("--ops", type=_COUNT, default=40_000)
    tr.add_argument("--rounds", type=_COUNT, default=120)
    tr.add_argument("--seed", type=_NON_NEGATIVE, default=7)

    si = sub.add_parser("simulate", help="one DES run of a strategy on a workload")
    si.set_defaults(func=_cmd_simulate)
    si.add_argument("strategy", choices=tuple(STRATEGY_FACTORIES))
    si.add_argument("kind", choices=tuple(WORKLOADS))
    si.add_argument("--ops", type=_COUNT, default=60_000)
    si.add_argument("--mds", type=_COUNT, default=5)
    si.add_argument("--clients", type=_COUNT, default=300)
    si.add_argument("--seed", type=_NON_NEGATIVE, default=42)
    si.add_argument("--cache-depth", type=_NON_NEGATIVE, default=2)
    si.add_argument("--scale", default=None, choices=tuple(SCALES),
                    help="scale profile (default: $REPRO_SCALE or 'default'); "
                         "sets epoch length and the namespace-size multiplier")
    si.add_argument("--epoch-ms", type=_POSITIVE, default=None,
                    help="rebalance epoch length (default: the scale profile's)")
    si.add_argument("--profile", action="store_true",
                    help="run the DES under cProfile and print the top of the "
                         "sorted cost table after the results")
    si.add_argument("--kvstore", action="store_true",
                    help="store inodes in per-MDS LSM stores (surfaces StoreStats)")
    si.add_argument("--data-dir", dest="data_dir", default=None, metavar="DIR",
                    help="durable per-MDS stores (WAL + SSTables + MANIFEST) rooted "
                         "here; implies --kvstore and the durability cost model")
    si.add_argument("--checkpoint", dest="checkpoint_out", default=None, metavar="PATH",
                    help="capture a simulation checkpoint here after the run")
    si.add_argument("--resume", dest="resume_path", default=None, metavar="PATH",
                    help="warm-restart from a checkpoint written by --checkpoint "
                         "(pass the same workload/seed so the full trace matches)")
    si.add_argument("--autoscale", dest="autoscale_path", default=None, metavar="PATH",
                    help="autoscale spec JSON enabling the elastic MDS pool "
                         "(see docs/elasticity.md)")
    si.add_argument("--faults", dest="faults_path", default=None, metavar="PATH",
                    help="JSON fault schedule (crashes, slowdowns, drops, partitions)")
    si.add_argument("--trace", dest="trace_out", default=None, metavar="PATH",
                    help="write request spans as JSONL here")
    si.add_argument("--trace-sample", dest="trace_sample", type=_COUNT, default=1,
                    metavar="N",
                    help="keep every Nth span (deterministic by span ordinal; "
                         "headline metrics stay bit-identical)")
    si.add_argument("--metrics", dest="metrics_out", default=None, metavar="PATH",
                    help="write a metrics-registry snapshot (JSON) here")
    si.add_argument("--prom", dest="prom_out", default=None, metavar="PATH",
                    help="write a Prometheus text-exposition metrics snapshot "
                         "here (implies metrics collection)")
    si.add_argument("--audit", dest="audit_out", default=None, metavar="PATH",
                    help="write the balancer decision audit as JSONL here")
    si.add_argument("--timeline", dest="timeline_out", default=None, metavar="PATH",
                    help="collect windowed per-MDS/cluster telemetry and write "
                         "the timeline as JSONL here (see `repro obs`)")
    si.add_argument("--timeline-window-ms", dest="timeline_window_ms", type=_POSITIVE,
                    default=None, metavar="MS",
                    help="virtual-time window length (default: epoch_ms / 5)")
    si.add_argument("--slo", dest="slo_path", default=None, metavar="SPEC",
                    help="evaluate this JSON SLO spec against the run's timeline "
                         "(implies timeline collection); exit 1 on breach")
    si.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                    help="write the full SimResult (incl. per-epoch arrays) here")

    rp = sub.add_parser("report", help="latency-decomposition report of a span trace")
    rp.set_defaults(func=_cmd_report)
    rp.add_argument("trace", help="span JSONL file written by `simulate --trace`")
    rp.add_argument("--timeline", dest="timeline_path", default=None, metavar="PATH",
                    help="timeline JSONL from `simulate --timeline`: adds "
                         "steady-state events/sec and per-window throughput")

    ob = sub.add_parser("obs", help="inspect timeline telemetry files")
    osub = ob.add_subparsers(dest="obs_command", required=True)

    ot = osub.add_parser("timeline", help="per-window table of a timeline file")
    ot.set_defaults(func=_cmd_obs_timeline)
    ot.add_argument("timeline", help="JSONL written by `simulate --timeline`")
    ot.add_argument("--limit", type=_NON_NEGATIVE, default=0, metavar="N",
                    help="show only the last N windows (default: all)")

    oh = osub.add_parser("heatmap", help="ASCII per-MDS load heatmap")
    oh.set_defaults(func=_cmd_obs_heatmap)
    oh.add_argument("timeline", help="JSONL written by `simulate --timeline`")
    oh.add_argument("--metric", default="ops", choices=tuple(HEATMAP_METRICS),
                    help="per-MDS series to shade (default: ops)")
    oh.add_argument("--width", type=_COUNT, default=72, metavar="COLS",
                    help="max heatmap columns; wider timelines are max-pooled")

    os_ = osub.add_parser("slo", help="evaluate an SLO spec; exit 1 on breach")
    os_.set_defaults(func=_cmd_obs_slo)
    os_.add_argument("timeline", help="JSONL written by `simulate --timeline`")
    os_.add_argument("spec", help="JSON SLO spec (see docs/observability.md)")
    os_.add_argument("--faults", dest="faults_path", default=None, metavar="PATH",
                     help="fault schedule used by the run; annotates breaching "
                          "windows that overlap injected faults")
    os_.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                     help="write the full SLO report JSON here")

    rc = sub.add_parser("recover", help="inspect a durable data directory (read-only)")
    rc.set_defaults(func=_cmd_recover)
    rc.add_argument("data_dir",
                    help="one store directory, or a `simulate --data-dir` root "
                         "holding mds-* store directories")
    rc.add_argument("--json", dest="json_out", default=None, metavar="PATH",
                    help="write the per-store inspection dicts here")

    pl = sub.add_parser("plan", help="offline Meta-OPT migration plan")
    pl.set_defaults(func=_cmd_plan)
    pl.add_argument("kind", choices=("rw", "ro", "wi"))
    pl.add_argument("--ops", type=_COUNT, default=8_000)
    pl.add_argument("--mds", type=_COUNT, default=5)
    pl.add_argument("--moves", type=_NON_NEGATIVE, default=12)
    pl.add_argument("--seed", type=_NON_NEGATIVE, default=3)

    be = sub.add_parser("bench", help="benchmark orchestration and regression gating")
    bsub = be.add_subparsers(dest="bench_command", required=True)

    br = bsub.add_parser("run", help="run scenarios and write BENCH_<name>.json artifacts")
    br.set_defaults(func=_cmd_bench_run)
    br.add_argument("--scenario", action="append", default=None, metavar="NAME",
                    help="scenario to run (repeatable; default: all registered)")
    br.add_argument("--workers", type=_COUNT, default=1,
                    help="process-pool size (1 = inline; output is identical either way)")
    br.add_argument("--scale", default=None, choices=tuple(SCALES),
                    help="scale tier override (default: each scenario's own tier)")
    br.add_argument("--seeds", default=None, metavar="S1,S2,...",
                    help="comma-separated seed-list override")
    br.add_argument("--out-dir", default=".", metavar="DIR",
                    help="directory for BENCH_<scenario>.json (default: cwd)")

    bl = bsub.add_parser("list", help="list registered bench scenarios")
    bl.set_defaults(func=_cmd_bench_list)

    bc = bsub.add_parser("compare", help="diff two artifacts; exit 1 on regression")
    bc.set_defaults(func=_cmd_bench_compare)
    bc.add_argument("baseline", help="baseline BENCH_*.json")
    bc.add_argument("candidate", help="candidate BENCH_*.json")
    bc.add_argument("--profile", default="default", choices=tuple(THRESHOLD_PROFILES),
                    help="threshold profile (smoke = relaxed CI tolerances)")
    bc.add_argument("--threshold", action="append", default=None,
                    metavar="METRIC=FRAC",
                    help="override one gate, e.g. p99_latency_ms=0.1 (repeatable)")

    bp = bsub.add_parser("report", help="render one artifact as text tables")
    bp.set_defaults(func=_cmd_bench_report)
    bp.add_argument("artifact", help="a BENCH_*.json file")
    return p


def _cmd_experiments(args) -> int:
    from repro.bench.scenario import iter_scenarios
    from repro.harness.experiments import EXPERIMENTS

    for name, fn in EXPERIMENTS.items():
        doc = (fn.__doc__ or "").strip().splitlines()[0]
        print(f"{name:28s} {doc}")
    print("\nbench scenarios (run with `repro bench run --scenario <name>`):")
    for scn in iter_scenarios():
        faults = ", faults" if scn.faults is not None else ""
        print(
            f"{scn.name:28s} scale={scn.scale:8s} "
            f"{len(scn.variants)} variants x {len(scn.seeds)} seeds{faults} — "
            f"{scn.description}"
        )
    return 0


def _cmd_run(args) -> int:
    from repro.harness.config import get_scale
    from repro.harness.experiments import EXPERIMENTS
    from repro.obs.profiling import PROFILER

    try:
        scale = get_scale(args.scale)
    except ValueError as exc:
        print(f"repro run: {exc}", file=sys.stderr)
        return 2
    fn = EXPERIMENTS[args.experiment]
    if args.profile:
        PROFILER.enabled = True
        PROFILER.reset()
    with PROFILER.phase(f"experiment:{args.experiment}"):
        rep = fn(scale, seed=args.seed)
    print(rep.render())
    if args.profile:
        print()
        print(PROFILER.render())
    if args.json_out:
        with open(args.json_out, "w") as f:
            f.write(rep.to_json())
        print(f"\n[json written to {args.json_out}]")
    return 0


def _cmd_workload(args) -> int:
    from repro.harness.experiments import build_workload

    built, trace = build_workload(args.kind, args.ops, args.seed)
    tree = built.tree
    depths = tree.depth_array()[tree.dir_mask()]
    print(f"workload       : Trace-{args.kind.upper()} ({trace.label})")
    print(f"operations     : {len(trace):,}")
    print(f"directories    : {tree.num_dirs:,} (max depth {int(depths.max())}, mean {depths.mean():.1f})")
    print(f"files          : {tree.num_files:,}")
    print(f"write fraction : {trace.write_fraction():.1%}")
    print(f"op mix         : {trace.op_mix()}")
    uniq, counts = np.unique(trace.dir_ino, return_counts=True)
    counts = np.sort(counts)[::-1]
    top5 = counts[: max(1, len(counts) // 20)].sum() / counts.sum()
    print(f"dir skew       : top-5% of dirs receive {top5:.1%} of ops")
    if args.save:
        from repro.workloads.serialize import save_bundle

        save_bundle(args.save, tree, trace)
        print(f"[bundle written to {args.save}]")
    return 0


def _cmd_train(args) -> int:
    from repro.harness.experiments import build_workload, training_set
    from repro.ml.importance import rank_features
    from repro.training import train_models, train_origami_model

    built, trace = build_workload(args.kind, args.ops, args.seed)
    print(f"collecting labels from {len(trace):,} ops ...")
    dataset = training_set(built, trace, ops_per_epoch=4000)
    print(f"samples: {dataset.n_samples:,}")
    try:
        reports = train_models(dataset, gbdt_rounds=args.rounds)
    except ValueError as exc:  # too few labelled samples to hold some out
        print(f"repro train: {exc}: {dataset.n_samples:,} samples from "
              f"{len(trace):,} ops; raise --ops", file=sys.stderr)
        return 2
    print(f"\n{'model':16s} {'RMSE':>8s} {'R2':>8s} {'Spearman':>9s} {'top-10%':>8s}")
    for m in reports.values():
        print(f"{m.name:16s} {m.rmse:8.3f} {m.r2:8.3f} {m.spearman:9.3f} {m.top_decile_overlap:8.3f}")
    model = train_origami_model(dataset, n_estimators=args.rounds)
    print("\nfeature importances (split gain):")
    for name, imp, rank in rank_features(model.feature_importances()):
        print(f"  rank {rank}: {name:18s} {imp:.3f}")
    return 0


def _cmd_simulate(args) -> int:
    from repro.harness.config import get_scale
    from repro.harness.experiments import build_workload, make_policy
    from repro.costmodel import CostParams
    from repro.durability import Checkpointer, CheckpointError, SimCheckpoint
    from repro.fs import SimConfig
    from repro.fs.elastic import AutoscaleSpec
    from repro.fs.faults import FaultSchedule
    from repro.fs.filesystem import OrigamiFS
    from repro.obs import Observability
    from repro.obs.slo import SloError, SloSpec, evaluate_slo

    try:
        scale = get_scale(args.scale)
    except ValueError as exc:
        print(f"repro simulate: {exc}", file=sys.stderr)
        return 2
    built, trace = build_workload(
        args.kind, args.ops, args.seed, tree_scale=scale.tree_scale
    )
    policy, default_mds = make_policy(args.strategy, args.kind, scale)
    n_mds = args.mds if args.strategy != "Single" else 1
    # a spec that loads must also fit this cluster: the initial pool inside
    # the autoscale bounds, every fault on an MDS the pool can have
    autoscale = _load_spec("simulate", "autoscale spec", AutoscaleSpec, args.autoscale_path, n_mds)
    faults = _load_spec("simulate", "fault schedule", FaultSchedule, args.faults_path,
                        autoscale.max_mds if autoscale is not None else n_mds)
    slo_spec = _load_spec("simulate", "SLO spec", SloSpec, args.slo_path)
    epoch_ms = args.epoch_ms if args.epoch_ms is not None else scale.epoch_ms
    want_metrics = args.metrics_out is not None or args.prom_out is not None
    want_timeline = args.timeline_out is not None or slo_spec is not None
    want_obs = args.trace_out or want_metrics or args.audit_out or want_timeline
    obs = (
        Observability(
            metrics=want_metrics,
            trace_path=args.trace_out,
            trace_sample=args.trace_sample,
            audit=args.audit_out is not None or args.metrics_out is not None,
            timeline=want_timeline,
            timeline_window_ms=(
                args.timeline_window_ms
                if args.timeline_window_ms is not None
                else epoch_ms / 5.0
            ),
        )
        if want_obs
        else None
    )
    config = SimConfig(
        n_mds=n_mds,
        n_clients=args.clients,
        epoch_ms=epoch_ms,
        params=CostParams(cache_depth=args.cache_depth),
        seed=args.seed,
        oracle_window_ops=9000,
        use_kvstore=args.kvstore,
        obs=obs,
        faults=faults,
        data_dir=args.data_dir,
        autoscale=autoscale,
    )
    try:
        if args.resume_path:
            ckpt = SimCheckpoint.load(args.resume_path)
            fs = Checkpointer().restore(ckpt, trace, policy, config)
            print(f"[resumed from {args.resume_path}: {fs.cursor:,}/{len(trace):,} ops "
                  f"already replayed, clock at {fs.env.now:.1f} virtual ms]")
        else:
            fs = OrigamiFS(built.tree, trace, policy, config)
    except CheckpointError as exc:
        print(f"repro simulate: cannot resume: {exc}", file=sys.stderr)
        return 1
    if args.profile:
        import cProfile
        import io
        import pstats

        profiler = cProfile.Profile()
        profiler.enable()
        r = fs.run()
        profiler.disable()
    else:
        profiler = None
        r = fs.run()
    imb = r.imbalance()
    slo_breached = False
    print(f"strategy            : {r.strategy} on Trace-{args.kind.upper()} ({r.n_mds} MDS)")
    print(f"ops completed       : {r.ops_completed:,} over {r.duration_ms / 1000:.2f} virtual s")
    print(f"throughput          : {r.throughput_ops_per_sec / 1000:.1f} kops/s "
          f"(steady-state {r.steady_state_throughput() / 1000:.1f})")
    print(f"engine throughput   : {r.engine_events_per_virtual_sec / 1000:.1f} "
          f"kevents/virtual s ({r.engine_events_per_wall_sec / 1000:.0f} kevents/wall s, "
          f"{r.engine_events:,} events in {r.wall_s:.2f} s)")
    print(f"latency mean/p99    : {r.mean_latency_ms * 1000:.0f} / {r.p99_latency_ms * 1000:.0f} us")
    print(f"RPCs per request    : {r.rpcs_per_request:.3f}")
    print(f"migrations          : {r.migrations} ({r.inodes_migrated:,} inodes)")
    print(f"imbalance QPS/Busy  : {imb.qps:.2f} / {imb.busytime:.2f}")
    print(f"cache hit rate      : {r.cache_hit_rate:.1%}")
    if r.faults is not None:
        fl = r.faults
        print(f"faults              : {int(fl['crashes'])} crashes / "
              f"{int(fl['restarts'])} restarts, {int(fl['retries'])} retries, "
              f"{int(fl['failovers'])} failovers")
        print(f"fault op outcomes   : {int(fl['ops_recovered'])} recovered, "
              f"{int(fl['ops_failed'])} failed typed, {r.vanished_ops} vanished "
              f"({fl['backoff_wait_ms']:.1f} ms spent backing off)")
    if r.elastic is not None:
        el = r.elastic
        print(f"elastic pool        : {int(el['pool_initial'])} -> "
              f"{int(el['pool_final'])} MDSs (peak {int(el['pool_peak'])}, "
              f"min {int(el['pool_min'])}), {int(el['scale_outs'])} scale-outs, "
              f"{int(el['drains_completed'])}/{int(el['drains_started'])} drains")
        print(f"elastic cost        : {el['mds_seconds']:.3f} MDS-seconds provisioned")
    if r.kvstore is not None:
        kv = r.kvstore
        print(f"kvstore gets/puts   : {int(kv['gets']):,} / {int(kv['puts']):,} "
              f"({int(kv['compactions'])} compactions, {int(kv['run_count'])} runs)")
        print(f"kvstore read/write amplification : "
              f"{kv['read_amplification']:.2f} / {kv['write_amplification']:.2f}")
        if args.data_dir is not None:
            print(f"durability          : {int(kv['wal_appends']):,} WAL appends "
                  f"({int(kv['wal_bytes']):,} bytes), {int(kv['fsyncs']):,} fsyncs, "
                  f"{int(kv['recoveries'])} recoveries "
                  f"({kv.get('recovery_ms', 0.0):.2f} ms modeled)")
    if args.checkpoint_out:
        try:
            Checkpointer().capture(fs).save(args.checkpoint_out)
        except CheckpointError as exc:
            print(f"repro simulate: cannot checkpoint: {exc}", file=sys.stderr)
            return 1
        print(f"[checkpoint written to {args.checkpoint_out}]")
    if obs is not None:
        obs.close()
        if obs.audit is not None and obs.audit.entries:
            s = obs.audit.summary()
            print(f"balancer audit      : {s['migrations']} migrations "
                  f"({s['resolved']} resolved), predicted {s['mean_predicted_ms']:.2f} ms "
                  f"vs realized {s['mean_realized_ms']:.2f} ms, "
                  f"sign agreement {s['sign_agreement']:.0%}")
        if args.trace_out:
            sampled = f" (1-in-{args.trace_sample} sampled)" if args.trace_sample > 1 else ""
            print(f"[trace written to {args.trace_out}{sampled}]")
        if args.metrics_out:
            with open(args.metrics_out, "w") as f:
                json.dump(obs.metrics_snapshot(), f, indent=2)
                f.write("\n")
            print(f"[metrics written to {args.metrics_out}]")
        if args.prom_out:
            from repro.obs.export import prometheus_text

            with open(args.prom_out, "w") as f:
                f.write(prometheus_text(obs.registry.snapshot()))
            print(f"[prometheus snapshot written to {args.prom_out}]")
        if args.audit_out and obs.audit is not None:
            obs.audit.write(args.audit_out)
            print(f"[audit written to {args.audit_out}]")
        if obs.timeline.enabled:
            tl = obs.timeline
            rows = tl.to_rows()
            s = tl.summary()
            print(f"timeline            : {int(s['windows'])} windows x "
                  f"{s['window_ms']:g} ms, peak {s.get('peak_ops_per_sec', 0.0) / 1000:.1f} "
                  f"kops/s, worst p99 {s.get('worst_p99_ms', 0.0):.2f} ms, "
                  f"mean imbalance {s.get('mean_imbalance', 0.0):.3f}")
            if args.timeline_out:
                from repro.obs.export import write_timeline_jsonl

                write_timeline_jsonl(args.timeline_out, tl.meta(), rows)
                print(f"[timeline written to {args.timeline_out}]")
            if slo_spec is not None:
                try:
                    report = evaluate_slo(rows, slo_spec, faults=faults)
                except SloError as exc:
                    print(f"repro simulate: {exc}", file=sys.stderr)
                    return 2
                print()
                print(report.render())
                slo_breached = not report.ok
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(r.to_dict(), f, indent=2)
            f.write("\n")
        print(f"[json written to {args.json_out}]")
    if profiler is not None:
        buf = io.StringIO()
        stats = pstats.Stats(profiler, stream=buf)
        stats.sort_stats("tottime").print_stats(25)
        print()
        print("hot-path profile (sorted by total own time, top 25):")
        print(buf.getvalue())
    return 1 if slo_breached else 0


def _cmd_report(args) -> int:
    from repro.obs.report import load_spans, render_trace_report

    try:
        spans = load_spans(args.trace)
    except (OSError, ValueError) as exc:
        print(f"repro report: {exc}", file=sys.stderr)
        return 2
    print(render_trace_report(spans, source=args.trace))
    if args.timeline_path:
        from repro.obs.export import load_timeline

        try:
            meta, rows = load_timeline(args.timeline_path)
        except (OSError, ValueError) as exc:
            print(f"repro report: {exc}", file=sys.stderr)
            return 2
        print()
        print(_render_timeline_throughput(meta, rows))
    return 0


def _render_timeline_throughput(meta, rows) -> str:
    """Throughput-over-time section for ``repro report --timeline``.

    Steady state excludes the first 30% of windows (warm-up / initial
    rebalancing) and the trailing partial window — the same convention as
    ``SimResult.steady_state_throughput``.
    """
    if not rows:
        return "timeline: (no windows)"
    lines = [f"timeline: {len(rows)} windows x {meta.get('window_ms', 0):g} ms "
             f"({meta.get('n_mds', '?')} MDS)"]
    full = rows[:-1] if len(rows) > 2 else rows
    skip = min(int(len(full) * 0.3), max(len(full) - 1, 0))
    tail = full[skip:] or rows
    span_s = sum(r["end_ms"] - r["start_ms"] for r in tail) / 1000.0
    ops = sum(r["ops"] for r in tail)
    events = sum(r["engine_events"] for r in tail)
    if span_s > 0:
        lines.append(
            f"  steady-state (last {len(tail)}/{len(rows)} windows): "
            f"{ops / span_s / 1000:.1f} kops/s, "
            f"{events / span_s / 1000:.1f} kevents/virtual s"
        )
    per_sec = [r["ops_per_sec"] for r in rows]
    lines.append(
        f"  per-window ops/s: min {min(per_sec):.0f}  "
        f"mean {sum(per_sec) / len(per_sec):.0f}  max {max(per_sec):.0f}"
    )
    peak = max(per_sec) or 1.0
    bar_w = 56
    step = max(len(rows) // bar_w, 1)
    cells = []
    for i in range(0, len(rows), step):
        chunk = per_sec[i : i + step]
        v = max(chunk)
        cells.append(" .:-=+*#%@"[min(int(v / peak * 9 + 0.999), 9)] if v > 0 else " ")
    lines.append(f"  throughput  |{''.join(cells)}|  (peak {peak:.0f} ops/s)")
    return "\n".join(lines)


def _load_obs_timeline(path: str):
    """``(meta, rows)`` of a timeline file, or None once the reason it
    cannot be read is printed."""
    from repro.obs.export import load_timeline

    try:
        return load_timeline(path)
    except (OSError, ValueError) as exc:
        print(f"repro obs: {exc}", file=sys.stderr)
        return None


def _cmd_obs_timeline(args) -> int:
    from repro.obs.export import render_timeline_table

    loaded = _load_obs_timeline(args.timeline)
    if loaded is None:
        return 2
    meta, rows = loaded
    print(f"timeline: {args.timeline} — {len(rows)} windows x "
          f"{meta.get('window_ms', 0):g} ms, {meta.get('n_mds', '?')} MDS")
    print(render_timeline_table(rows, limit=args.limit))
    return 0


def _cmd_obs_heatmap(args) -> int:
    from repro.obs.export import render_heatmap

    loaded = _load_obs_timeline(args.timeline)
    if loaded is None:
        return 2
    print(render_heatmap(loaded[1], metric=args.metric, width=args.width))
    return 0


def _cmd_obs_slo(args) -> int:
    from repro.fs.faults import FaultSchedule
    from repro.obs.slo import SloError, SloSpec, evaluate_slo

    loaded = _load_obs_timeline(args.timeline)
    if loaded is None:
        return 2
    faults = _load_spec("obs slo", "fault schedule", FaultSchedule, args.faults_path)
    spec = _load_spec("obs slo", "SLO spec", SloSpec, args.spec)
    try:
        report = evaluate_slo(loaded[1], spec, faults=faults)
    except SloError as exc:  # the timeline lacks an objective's metric
        print(f"repro obs slo: bad SLO spec: {exc}", file=sys.stderr)
        return 2
    print(report.render())
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(report.to_dict(), f, indent=2)
            f.write("\n")
        print(f"[json written to {args.json_out}]")
    return 0 if report.ok else 1


def _cmd_recover(args) -> int:
    import os

    from repro.durability import DurabilityError, inspect_data_dir
    from repro.sim import DurabilityCostModel

    root = args.data_dir
    if not os.path.isdir(root):
        print(f"repro recover: {root} is not a directory", file=sys.stderr)
        return 1
    # a `simulate --data-dir` root holds one store per MDS in mds-<i>/
    stores = sorted(
        os.path.join(root, d)
        for d in os.listdir(root)
        if d.startswith("mds-") and os.path.isdir(os.path.join(root, d))
    )
    if not stores:
        stores = [root]
    model = DurabilityCostModel()
    reports = []
    total_ms = 0.0
    for store_dir in stores:
        try:
            report, info = inspect_data_dir(store_dir)
        except DurabilityError as exc:
            print(f"repro recover: {store_dir}: {exc}", file=sys.stderr)
            return 1
        cost = model.recovery_cost_ms(report)
        info["modeled_recovery_ms"] = cost
        total_ms += cost
        reports.append(info)
        name = os.path.basename(store_dir.rstrip(os.sep))
        torn = " (torn tail: unacked bytes will be dropped)" if info["torn_tail"] else ""
        print(f"{name}:")
        print(f"  manifest        : {int(info['manifest_edits'])} edits, "
              f"WAL checkpoint LSN {int(info['wal_checkpoint_lsn'])}")
        print(f"  live tables     : {int(info['live_tables'])} "
              f"({int(info['sst_bytes']):,} bytes)")
        print(f"  WAL tail        : {int(info['wal_records_pending'])} records to replay "
              f"in {int(info['wal_segments'])} segment(s), "
              f"{int(info['wal_bytes']):,} bytes{torn}")
        print(f"  modeled recovery: {cost:.3f} virtual ms")
    print(f"\ntotal modeled recovery for {len(stores)} store(s): {total_ms:.3f} virtual ms")
    if args.json_out:
        with open(args.json_out, "w") as f:
            json.dump(reports, f, indent=2)
            f.write("\n")
        print(f"[json written to {args.json_out}]")
    return 0


def _cmd_plan(args) -> int:
    from repro.cluster import PartitionMap
    from repro.costmodel import CostParams, evaluate_trace
    from repro.core import meta_opt
    from repro.harness.experiments import build_workload

    params = CostParams(cache_depth=2)
    built, trace = build_workload(args.kind, max(args.ops * 2, args.ops), args.seed)
    tree = built.tree
    window = trace[: args.ops]
    pmap = PartitionMap(tree, n_mds=args.mds)
    before = evaluate_trace(window, tree, pmap, params)
    delta = before.jct * 0.2
    plan = meta_opt(window, tree, pmap, params, delta=delta, max_migrations=args.moves)
    print(f"window: {len(window):,} ops; JCT {before.jct:.1f} ms -> {plan.jct_after:.1f} ms "
          f"({plan.improvement:.1%} better), Δ = {delta:.1f} ms")
    for i, d in enumerate(plan.decisions):
        print(f"  {i + 1:2d}. {tree.path_of(d.subtree_root):44s} "
              f"MDS{d.src} -> MDS{d.dst}  benefit {d.predicted_benefit:9.2f} ms")
    return 0


def _cmd_bench_run(args) -> int:
    from repro.bench.runner import BenchError, run_scenario
    from repro.bench.report import render_artifact
    from repro.bench.scenario import get_scenario, scenario_names
    from repro.bench.store import write_artifact

    names = args.scenario or list(scenario_names())
    seeds = None
    if args.seeds:
        try:
            seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
        except ValueError:
            print(f"repro bench run: bad --seeds {args.seeds!r}", file=sys.stderr)
            return 2
    try:
        scenarios = [get_scenario(n) for n in names]
    except KeyError as exc:
        print(f"repro bench run: {exc.args[0]}", file=sys.stderr)
        return 2
    for scn in scenarios:
        try:
            artifact = run_scenario(scn, scale=args.scale, workers=args.workers, seeds=seeds)
        except BenchError as exc:
            print(f"repro bench run: {exc}", file=sys.stderr)
            return 1
        path = write_artifact(artifact, args.out_dir)
        print(render_artifact(artifact))
        print(f"[artifact written to {path}]\n")
    return 0


def _cmd_bench_list(args) -> int:
    from repro.bench.scenario import iter_scenarios
    from repro.harness.report import format_table

    rows = [
        [
            scn.name,
            scn.kind,
            scn.scale,
            len(scn.variants),
            ",".join(str(s) for s in scn.seeds),
            "yes" if scn.faults is not None else "-",
            scn.description,
        ]
        for scn in iter_scenarios()
    ]
    print(format_table(
        ["scenario", "workload", "scale", "variants", "seeds", "faults", "description"],
        rows,
        "registered bench scenarios",
    ))
    return 0


def _cmd_bench_compare(args) -> int:
    from repro.bench.compare import THRESHOLD_PROFILES, compare_artifacts
    from repro.bench.store import ArtifactError, load_artifact

    thresholds = dict(THRESHOLD_PROFILES[args.profile])
    overrides = {}
    for override in args.threshold or ():
        metric, sep, frac = override.partition("=")
        try:
            if not sep:
                raise ValueError("expected METRIC=FRAC")
            thresholds[metric] = float(frac)
            if not 0.0 <= thresholds[metric] < math.inf:
                raise ValueError("FRAC must be finite and >= 0")
        except ValueError as exc:
            print(f"repro bench compare: bad --threshold {override!r}: {exc}", file=sys.stderr)
            return 2
        overrides[metric] = override
    try:
        baseline = load_artifact(args.baseline)
        candidate = load_artifact(args.candidate)
        result = compare_artifacts(baseline, candidate, thresholds)
    except ArtifactError as exc:
        print(f"repro bench compare: {exc}", file=sys.stderr)
        return 2
    # an override that no compared row reads would gate nothing
    compared = {row.metric for row in result.rows}
    for metric, override in overrides.items():
        if metric not in compared:
            print(f"repro bench compare: bad --threshold {override!r}: "
                  f"no variant in both artifacts carries {metric!r}", file=sys.stderr)
            return 2
    print(result.render())
    return 0 if result.ok else 1


def _cmd_bench_report(args) -> int:
    from repro.bench.report import render_artifact
    from repro.bench.store import ArtifactError, load_artifact

    try:
        artifact = load_artifact(args.artifact)
    except ArtifactError as exc:
        print(f"repro bench report: {exc}", file=sys.stderr)
        return 2
    print(render_artifact(artifact))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _BadInput as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
