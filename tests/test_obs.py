"""Unit tests for the observability layer: registry, tracing, audit, report."""

import json
import math

import pytest

from repro.obs import (
    NULL_OBS,
    NULL_REGISTRY,
    NULL_TRACER,
    BalancerAudit,
    JsonlTracer,
    MetricsRegistry,
    Observability,
    PhaseProfiler,
    Tracer,
)
from repro.obs.registry import DEFAULT_BUCKETS, Counter, Gauge, Histogram
from repro.obs.report import decompose, load_spans, render_trace_report
from repro.obs.tracing import SPAN_SCHEMA_VERSION, Span


# ------------------------------------------------------------------ registry
def test_counter_monotonic():
    c = Counter()
    c.inc()
    c.inc(2.5)
    assert c.get() == 3.5
    with pytest.raises(ValueError):
        c.inc(-1)


def test_gauge_set_inc_dec():
    g = Gauge()
    g.set(10)
    g.inc(5)
    g.dec(2)
    assert g.get() == 13.0


def test_histogram_buckets_cumulative():
    h = Histogram(buckets=(1.0, 10.0))
    for v in (0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    snap = h.get()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(56.0)
    # cumulative: <=1 -> 2, <=10 -> 3, +Inf -> 4
    assert snap["buckets"] == [[1.0, 2], [10.0, 3], [math.inf, 4]]
    assert h.mean == pytest.approx(14.0)


def test_registry_families_and_labels():
    reg = MetricsRegistry()
    fam = reg.counter("rpcs_total", "rpc count")
    fam.labels(mds=0).inc(3)
    fam.labels(mds=1).inc()
    fam.labels(mds=0).inc()  # same child resolved again
    snap = reg.snapshot()["rpcs_total"]
    assert snap["type"] == "counter"
    values = {s["labels"]["mds"]: s["value"] for s in snap["series"]}
    assert values == {"0": 4.0, "1": 1.0}


def test_registry_unlabelled_family_acts_as_instrument():
    reg = MetricsRegistry()
    ops = reg.counter("ops_total")
    ops.inc(7)
    assert ops.get() == 7.0
    lat = reg.histogram("lat_ms", buckets=(1.0,))
    lat.observe(0.5)
    assert lat.get()["count"] == 1


def test_registry_kind_clash_raises():
    reg = MetricsRegistry()
    reg.counter("x_total")
    with pytest.raises(ValueError):
        reg.gauge("x_total")


def test_null_registry_is_noop_and_shared():
    a = NULL_REGISTRY.counter("anything")
    b = NULL_REGISTRY.histogram("else")
    assert a is b
    a.inc()
    a.labels(mds=3).observe(1.0)
    assert a.get() == 0.0
    assert NULL_REGISTRY.snapshot() == {}


def test_registry_round_trips_through_json(tmp_path):
    reg = MetricsRegistry()
    reg.gauge("g").set(1.5)
    path = tmp_path / "m.json"
    reg.write(str(path))
    blob = json.loads(path.read_text())
    assert blob["g"]["series"][0]["value"] == 1.5


# ------------------------------------------------------------------- tracing
def _make_span(i=0, latency=2.0, queue=0.5, service=1.0, net=0.5):
    s = Span(op_index=i, op=0, worker=0, dir_ino=1, depth=2, start_ms=10.0)
    s.queue_ms, s.service_ms, s.net_ms = queue, service, net
    s.rpcs = 1
    return s, 10.0 + latency


def test_tracer_collects_spans_in_memory():
    t = Tracer()
    s, end = _make_span()
    t.finish(s, end)
    assert len(t.spans) == 1
    assert t.spans[0].latency_ms == pytest.approx(2.0)


def test_span_dict_schema():
    s, end = _make_span()
    s.end_ms = end
    d = s.to_dict()
    assert d["v"] == SPAN_SCHEMA_VERSION
    assert d["op"] == "stat"
    assert d["latency_ms"] == pytest.approx(2.0)
    assert d["queue_ms"] + d["service_ms"] + d["net_ms"] == pytest.approx(d["latency_ms"])


def test_jsonl_tracer_streams_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    t = JsonlTracer(str(path))
    for i in range(3):
        s, end = _make_span(i)
        t.finish(s, end)
    t.close()
    lines = path.read_text().splitlines()
    assert len(lines) == 3
    assert [json.loads(l)["op_index"] for l in lines] == [0, 1, 2]
    # streaming tracers do not retain spans in memory by default
    assert t.spans == []


def test_null_tracer_is_falsy_and_refuses_spans():
    assert not NULL_TRACER
    with pytest.raises(RuntimeError):
        NULL_TRACER.start(0, 0, 0, 0, 0, 0.0)


# -------------------------------------------------------------------- report
def test_decompose_identity_and_report(tmp_path):
    t = Tracer()
    for i in range(10):
        s, end = _make_span(i, latency=2.0)
        t.finish(s, end)
    dicts = [s.to_dict() for s in t.spans]
    d = decompose(dicts)
    assert d.n_spans == 10
    assert d.queue_ms + d.service_ms + d.net_ms == pytest.approx(d.latency_ms)
    assert d.residual_fraction < 0.01
    text = render_trace_report(dicts, source="unit")
    assert "WITHIN 1% tolerance" in text
    assert "queue wait" in text


def test_load_spans_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"ok": 1}\nnot json\n')
    with pytest.raises(ValueError, match=r"bad\.jsonl:2"):
        load_spans(str(path))


# --------------------------------------------------------------------- audit
def test_audit_records_and_resolves():
    from repro.cluster.migration import AppliedMigration, MigrationDecision

    audit = BalancerAudit(top_k=2)
    audit.note_candidates(0, roots=[5, 9, 7], predicted=[1.0, 30.0, 2.0])
    dec = MigrationDecision(subtree_root=9, src=0, dst=1, predicted_benefit=30.0)
    rec = AppliedMigration(decision=dec, dirs_moved=5, inodes_moved=100, epoch=0)
    audit.record_decisions(0, mds_load=[100.0, 0.0], duration_ms=50.0, applied=[rec])
    (e,) = audit.entries
    assert e.candidate_count == 3
    assert e.top_candidates == [[9, 30.0], [7, 2.0]]  # top_k=2 kept
    assert not e.resolved

    # next epoch: bottleneck rate drops from 100/50 to 60/50
    audit.observe_epoch(1, mds_load=[60.0, 55.0], duration_ms=50.0)
    assert e.resolved
    assert e.realized_benefit_ms == pytest.approx(40.0)
    s = audit.summary()
    assert s == {
        "migrations": 1,
        "resolved": 1,
        "mean_predicted_ms": 30.0,
        "mean_realized_ms": pytest.approx(40.0),
        "sign_agreement": 1.0,
    }


def test_audit_shares_epoch_benefit_among_migrations(tmp_path):
    from repro.cluster.migration import AppliedMigration, MigrationDecision

    audit = BalancerAudit()
    recs = [
        AppliedMigration(
            decision=MigrationDecision(subtree_root=r, src=0, dst=1, predicted_benefit=10.0),
            dirs_moved=1,
            inodes_moved=1,
            epoch=0,
        )
        for r in (3, 4)
    ]
    audit.record_decisions(0, mds_load=[80.0, 0.0], duration_ms=40.0, applied=recs)
    audit.observe_epoch(1, mds_load=[40.0, 40.0], duration_ms=40.0)
    assert [e.realized_benefit_ms for e in audit.entries] == [20.0, 20.0]
    assert audit.entries[0].epoch_realized_benefit_ms == pytest.approx(40.0)

    path = tmp_path / "audit.jsonl"
    audit.write(str(path))
    rows = [json.loads(l) for l in path.read_text().splitlines()]
    assert len(rows) == 2
    assert rows[0]["realized_benefit_ms"] == pytest.approx(20.0)


# ----------------------------------------------------------- bundle/profiler
def test_null_obs_is_fully_disabled():
    assert NULL_OBS.registry is NULL_REGISTRY
    assert not NULL_OBS.tracer.enabled
    assert NULL_OBS.audit is None


def test_observability_bundle_wiring(tmp_path):
    obs = Observability(metrics=True, trace=True, audit=True)
    assert obs.registry.enabled
    assert obs.tracer.enabled
    assert obs.audit is not None
    snap = obs.metrics_snapshot()
    assert set(snap) == {"metrics", "balancer_audit", "trace"}


def test_phase_profiler_disabled_is_noop():
    p = PhaseProfiler(enabled=False)
    with p.phase("x"):
        pass
    assert p.summary() == []
    assert "no phases" in p.render()


def test_phase_profiler_accumulates():
    p = PhaseProfiler(enabled=True)
    for _ in range(2):
        with p.phase("work"):
            pass
    ((name, secs, calls),) = p.summary()
    assert name == "work"
    assert calls == 2
    assert secs >= 0.0
    assert "work" in p.render()


# ------------------------------------------------------------------- export
def _window_row(w, start_ms=0.0, window_ms=10.0, n_mds=2, ops=10):
    return {
        "w": w,
        "start_ms": start_ms,
        "end_ms": start_ms + window_ms,
        "ops": ops,
        "ops_per_sec": ops / (window_ms / 1e3),
        "p50_ms": 1.0,
        "p95_ms": 2.0,
        "p99_ms": 3.0,
        "mean_ms": 1.2,
        "events_per_sec": 4000.0,
        "cache_hit_rate": 0.5,
        "migrations": 0,
        "imbalance": 0.1,
        "mds_ops": [ops - 2, 2][:n_mds] if n_mds == 2 else [ops],
        "mds_busy_ms": [1.0] * n_mds,
    }


def test_timeline_jsonl_roundtrip(tmp_path):
    from repro.obs.export import load_timeline, write_timeline_jsonl

    path = str(tmp_path / "tl.jsonl")
    meta = {"kind": "timeline", "window_ms": 10.0, "n_mds": 2}
    rows = [_window_row(0), _window_row(1, start_ms=10.0)]
    write_timeline_jsonl(path, meta, rows)
    got_meta, got_rows = load_timeline(path)
    assert got_meta == meta
    assert got_rows == rows


def test_load_timeline_rejects_non_timeline_inputs(tmp_path):
    from repro.obs.export import load_timeline

    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(ValueError, match="empty file"):
        load_timeline(str(empty))

    garbage = tmp_path / "garbage.jsonl"
    garbage.write_text("not json at all\n")
    with pytest.raises(ValueError, match="header is not JSON"):
        load_timeline(str(garbage))

    spans = tmp_path / "spans.jsonl"
    spans.write_text('{"kind": "trace", "schema": 3}\n')
    with pytest.raises(ValueError, match="not a timeline file"):
        load_timeline(str(spans))


def test_prometheus_text_renders_all_family_kinds():
    from repro.obs.export import prometheus_text

    reg = MetricsRegistry()
    reg.counter("fs.ops_total", "total ops").labels(mds="0").inc(7)
    reg.gauge("fs.queue_depth", "queued").set(3)
    reg.histogram("fs.latency_ms", "latency", buckets=(1.0, 10.0)).observe(0.5)
    text = prometheus_text(reg.snapshot())

    assert "# HELP repro_fs_ops_total total ops" in text
    assert "# TYPE repro_fs_ops_total counter" in text
    assert 'repro_fs_ops_total{mds="0"} 7' in text
    assert "# TYPE repro_fs_queue_depth gauge" in text
    assert "repro_fs_queue_depth 3" in text
    assert "# TYPE repro_fs_latency_ms histogram" in text
    assert 'repro_fs_latency_ms_bucket{le="1"} 1' in text
    assert 'repro_fs_latency_ms_bucket{le="+Inf"} 1' in text
    assert "repro_fs_latency_ms_sum 0.5" in text
    assert "repro_fs_latency_ms_count 1" in text
    assert 'repro_fs_latency_ms{quantile="0.50"}' in text
    assert text.endswith("\n")


def test_prom_name_sanitization():
    from repro.obs.export import _prom_name

    assert _prom_name("fs.ops_total") == "repro_fs_ops_total"
    assert _prom_name("weird-name.v2") == "repro_weird_name_v2"
    assert _prom_name("9lives") == "repro__9lives"


def test_render_timeline_table_limit_and_empty():
    from repro.obs.export import render_timeline_table

    assert render_timeline_table([]) == "(empty timeline)"
    rows = [_window_row(w, start_ms=10.0 * w) for w in range(5)]
    full = render_timeline_table(rows)
    assert "win" in full and "omitted" not in full
    limited = render_timeline_table(rows, limit=2)
    assert "... 3 earlier window(s) omitted ..." in limited
    # only the last two data rows survive
    assert f"{3:>5}" in limited and f"{0:>5} {0.0:>10.1f}" not in limited


def test_render_heatmap_paths():
    from repro.obs.export import render_heatmap

    with pytest.raises(ValueError, match="unknown heatmap metric"):
        render_heatmap([], metric="nope")
    assert render_heatmap([], metric="ops") == "(empty timeline)"

    rows = [_window_row(w, start_ms=10.0 * w) for w in range(3)]
    out = render_heatmap(rows, metric="ops")
    assert "per-MDS ops heatmap" in out
    assert "mds0" in out and "mds1" in out
    assert "@" in out  # the peak cell renders at full shade

    # rows carry no per-MDS rpc column -> graceful message, not a crash
    assert "lack per-MDS column" in render_heatmap(rows, metric="rpcs")


def test_histogram_percentile_and_serialized_quantiles():
    h = Histogram(buckets=(1.0, 10.0, 100.0))
    for v in (0.5, 5.0, 50.0, 50.0):
        h.observe(v)
    assert h.percentile(0.0) == 0.0 or h.percentile(0.0) >= 0.0
    with pytest.raises(ValueError):
        h.percentile(101.0)
    snap = h.get()
    assert snap["count"] == 4
    assert snap["sum"] == pytest.approx(105.5)
    assert set(snap) >= {"p50", "p95", "p99", "buckets"}
    # p99 rank lands in the (10, 100] bucket; interpolation stays inside it
    assert 10.0 <= snap["p99"] <= 100.0
    assert snap["p50"] <= snap["p95"] <= snap["p99"]
    assert Histogram().percentile(50.0) == 0.0


def test_jsonl_tracer_rejects_bad_sample(tmp_path):
    with pytest.raises(ValueError, match="sample must be >= 1"):
        JsonlTracer(str(tmp_path / "t.jsonl"), sample=0)
