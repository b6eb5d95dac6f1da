"""Outside-in tracing for the benchmark's traced run.

Every wrapper lives here, in the benchmark, not in the simulator: each one
replaces a public call with a timed version.  Most are instance attributes
(``policy``, ``policy.model``, ``fs.migrator``, ``fs.stats``, each
``MdsServer``, ``obs.timeline``).  Three calls are made on objects that are
created anew inside the simulator (the training helpers and
``FeatureExtractor``), so those are replaced on their module or class, in
the traced child process only.

Recording depends on how often the call runs:

* setup and per-epoch calls become in-memory spans: id, name, start, end and
  parent span;
* per-op calls (``kv_*``, ``record_op``, ``advance``) add to a count and a
  busy-seconds total;
* generator calls (``Migrator.apply``) are timed per resume, so the time the
  generator spends suspended in the engine is excluded.  Each resume is one
  span.

A wrapper whose target no longer exists marks its layer absent and warns on
stderr; it never fails the run.
"""

from __future__ import annotations

import contextlib
import sys
from collections import defaultdict
from time import perf_counter
from typing import Dict, List


class Recorder:
    """Spans and per-op counters of one run; disabled, it records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.t0 = perf_counter()
        self.spans: List[dict] = []
        self._open: List[int] = []
        #: layer -> [busy seconds, calls]
        self.per_op: Dict[str, list] = defaultdict(lambda: [0.0, 0])
        self.absent = set()

    @contextlib.contextmanager
    def _span(self, name: str):
        rec = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": perf_counter() - self.t0,
            "end": None,
        }
        self.spans.append(rec)
        self._open.append(rec["id"])
        try:
            yield
        finally:
            rec["end"] = perf_counter() - self.t0
            self._open.pop()

    def span(self, name: str):
        return self._span(name) if self.enabled else contextlib.nullcontext()

    def total(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans if s["name"] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s["name"] == name)

    def mark_absent(self, layer: str, target: str) -> None:
        if layer not in self.absent:
            print(f"warning: {target} not found; layer {layer} is absent", file=sys.stderr)
        self.absent.add(layer)


def _spanned(rec: Recorder, layer: str, fn):
    def wrapper(*args, **kwargs):
        with rec.span(layer):
            return fn(*args, **kwargs)

    return wrapper


def _per_op(rec: Recorder, layer: str, fn):
    acc = rec.per_op[layer]

    def wrapper(*args, **kwargs):
        t = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            acc[0] += perf_counter() - t
            acc[1] += 1

    return wrapper


def _per_resume(rec: Recorder, layer: str, fn):
    def wrapper(*args, **kwargs):
        return _timed_resumes(rec, layer, fn(*args, **kwargs))

    return wrapper


def _timed_resumes(rec: Recorder, layer: str, gen):
    """Drive ``gen`` as ``yield from`` would, timing only its own steps."""
    value, exc = None, None
    while True:
        with rec.span(layer):
            try:
                event = gen.send(value) if exc is None else gen.throw(exc)
            except StopIteration as stop:
                return stop.value
        exc = None
        try:
            value = yield event
        except GeneratorExit:
            gen.close()
            raise
        except BaseException as thrown:  # forwarded into gen, which re-raises it
            value, exc = None, thrown


def _install(rec: Recorder, obj, attr: str, layer: str, make) -> None:
    fn = getattr(obj, attr, None)
    if fn is None:
        rec.mark_absent(layer, f"{getattr(obj, '__name__', type(obj).__name__)}.{attr}")
        return
    setattr(obj, attr, make(rec, layer, fn))


def wrap_training(rec: Recorder) -> None:
    """Meta-OPT labelling and the GBDT fit, as ``origami_model`` calls them."""
    from repro.harness import experiments

    _install(rec, experiments, "collect_training_data", "training.labels", _spanned)
    _install(rec, experiments, "train_origami_model", "training.fit", _spanned)


def wrap_timeline(rec: Recorder, timeline) -> None:
    _install(rec, timeline, "record_op", "obs.timeline", _per_op)
    _install(rec, timeline, "advance", "obs.timeline", _per_op)


def wrap_cluster(rec: Recorder, fs) -> None:
    """Every layer reached from ``fs.run()``; call after ``OrigamiFS(...)``."""
    from repro.ml.dataset import FeatureExtractor

    policy = fs.policy
    _install(rec, policy, "rebalance", "balancer.rebalance", _spanned)
    # only the ML balancers have a model; the others have nothing to time
    model = getattr(policy, "model", None)
    if model is not None:
        _install(rec, model, "predict", "balancer.predict", _spanned)
    _install(rec, FeatureExtractor, "extract", "balancer.features", _spanned)
    _install(rec, fs.stats, "snapshot_and_reset", "stats.snapshot", _spanned)
    _install(rec, fs.migrator, "apply", "migrator.apply", _per_resume)
    for server in fs.servers:
        # deletes are writes: they share the put layer
        _install(rec, server, "kv_put", "kvstore.put", _per_op)
        _install(rec, server, "kv_delete", "kvstore.put", _per_op)
        _install(rec, server, "kv_get", "kvstore.get", _per_op)


def summarize(rec: Recorder, fs, result, inodes: int, replay_s: float) -> Dict[str, float]:
    """The per-layer metrics of one traced run (tracing overhead aside)."""
    rebalance = rec.total("balancer.rebalance")
    features = rec.total("balancer.features")
    predict = rec.total("balancer.predict")
    epochs = rec.count("balancer.rebalance")
    snapshot = rec.total("stats.snapshot")
    migrator = rec.total("migrator.apply")
    put_s, put_calls = rec.per_op["kvstore.put"]
    get_s, get_calls = rec.per_op["kvstore.get"]
    timeline_s = rec.per_op["obs.timeline"][0]
    kv = result.kvstore or {}
    faults = result.faults or {}
    tracer = fs.obs.tracer
    return {
        "workloads.build_s": rec.total("workloads.build"),
        "namespace.inodes": inodes,
        "training.labels_s": rec.total("training.labels"),
        "training.fit_s": rec.total("training.fit"),
        "fs.init_s": rec.total("fs.init"),
        "sim.replay_s": replay_s,
        "sim.events": result.engine_events,
        "sim.events_per_s": result.engine_events / replay_s,
        "sim.loop_self_s": replay_s - (rebalance + snapshot + migrator + put_s + get_s + timeline_s),
        "sim.outside_engine_s": replay_s - result.wall_s,
        "stats.snapshot_s": snapshot,
        "balancer.epochs": epochs,
        "balancer.rebalance_s": rebalance,
        "balancer.features_s": features,
        "balancer.predict_s": predict,
        "balancer.search_s": rebalance - features - predict,
        "balancer.decision_ms_per_epoch": 1000.0 * rebalance / epochs if epochs else 0.0,
        "balancer.imbalance_busytime": result.imbalance().busytime,
        "migrator.apply_s": migrator,
        "migrator.migrations": result.migrations,
        "migrator.inodes_moved": result.inodes_migrated,
        "kvstore.put_s": put_s,
        "kvstore.get_s": get_s,
        "kvstore.calls": put_calls + get_calls,
        "kvstore.wal_appends": kv.get("wal_appends", 0.0),
        "kvstore.wal_bytes": kv.get("wal_bytes", 0.0),
        "kvstore.fsyncs": kv.get("fsyncs", 0.0),
        "kvstore.write_amp": kv.get("write_amplification", 0.0),
        "kvstore.read_amp": kv.get("read_amplification", 0.0),
        "durability.recovery_ms": kv.get("recovery_ms", 0.0),
        "faults.retries": faults.get("retries", 0.0),
        "faults.failovers": faults.get("failovers", 0.0),
        "obs.timeline_s": timeline_s,
        "obs.spans": len(tracer.spans) if tracer.enabled else 0,
        "cache.hit_rate": result.cache_hit_rate,
    }
