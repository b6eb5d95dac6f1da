"""Tests for the experiment harness plumbing (reporting, config, wiring)."""

import json
import os

import numpy as np
import pytest

from repro.fs import SimResult
from repro.fs.metrics import EpochMetrics
from repro.harness.config import SCALES, default_params, get_scale
from repro.harness.experiments import (
    STRATEGY_FACTORIES,
    build_workload,
    run_strategy,
)
from repro.harness.report import Report, format_table
from repro.sim import SeedSequenceFactory
from repro.workloads import WORKLOADS


# ------------------------------------------------------------------- report


def test_format_table_alignment_and_values():
    out = format_table(
        ["name", "value"],
        [["alpha", 1.2345], ["b", 10_000.0]],
        title="T",
    )
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "name" in lines[1] and "value" in lines[1]
    assert "alpha" in lines[3]
    assert "1.234" in out  # float formatting
    assert "10,000" in out  # thousands grouping


def test_format_table_rejects_ragged_rows():
    with pytest.raises(ValueError):
        format_table(["a", "b"], [[1]])


def test_report_render_and_json():
    rep = Report("exp", "desc")
    rep.add_table(["x"], [[1], [2]])
    rep.add_series("s", [1.0, 2.0])
    rep.put("k", {"nested": 3})
    text = rep.render()
    assert "=== exp ===" in text and "desc" in text
    blob = json.loads(rep.to_json())
    assert blob["experiment"] == "exp"
    assert blob["data"]["s"] == [1.0, 2.0]
    assert blob["data"]["k"]["nested"] == 3
    assert str(rep) == text


def test_report_json_handles_numpy():
    rep = Report("np")
    rep.put("arr", np.arange(3))
    blob = json.loads(rep.to_json())
    assert blob["data"]["arr"] == [0, 1, 2]


# ------------------------------------------------------------------- config


def test_get_scale_resolution(monkeypatch):
    assert get_scale("smoke").name == "smoke"
    monkeypatch.setenv("REPRO_SCALE", "full")
    assert get_scale().name == "full"
    monkeypatch.delenv("REPRO_SCALE")
    assert get_scale().name == "default"
    with pytest.raises(ValueError):
        get_scale("bogus")


def test_scales_are_ordered():
    assert SCALES["smoke"].n_ops < SCALES["default"].n_ops < SCALES["full"].n_ops


def test_default_params_cache():
    p = default_params()
    assert p.cache_depth == 2
    assert default_params(0).cache_depth == 0


# ------------------------------------------------ strategy / workload tables


@pytest.mark.parametrize("name", list(STRATEGY_FACTORIES))
def test_every_strategy_replays_a_trace_without_losing_ops(name):
    n_ops = 2000
    r = run_strategy(name, "rw", get_scale("smoke"), seed=5, n_clients=6, n_ops=n_ops)
    assert r.strategy == name
    assert r.ops_completed + r.vanished_ops + r.fault_failed_ops == n_ops


def _columns(trace):
    think = None if trace.think_ms is None else trace.think_ms.tolist()
    return trace.op.tolist(), trace.dir_ino.tolist(), trace.aux.tolist(), trace.names, think


@pytest.mark.parametrize("kind", list(WORKLOADS))
def test_tree_scale_sizes_every_workload_family(kind):
    built, trace = build_workload(kind, 600, seed=3)
    bigger, _ = build_workload(kind, 600, seed=3, tree_scale=2.0)
    assert len(bigger.tree) > len(built.tree)
    # at 1.0 no size keyword is passed: the generator's defaults, exactly
    generate, _ = WORKLOADS[kind]
    _, direct = generate(SeedSequenceFactory(3).stream(f"workload-{kind}"), n_ops=600)
    assert _columns(trace) == _columns(direct)


# --------------------------------------------------------------- sim result


def make_result(busy_rows, qps_rows, epoch_ms=100.0):
    epochs = [
        EpochMetrics(
            epoch=i,
            duration_ms=epoch_ms,
            busy_ms=np.asarray(b, dtype=float),
            qps=np.asarray(q, dtype=float),
            rpcs=np.asarray(q, dtype=float),
            inodes=np.asarray(b, dtype=float),
        )
        for i, (b, q) in enumerate(zip(busy_rows, qps_rows))
    ]
    return SimResult(
        strategy="t",
        n_mds=len(busy_rows[0]),
        epoch_ms=epoch_ms,
        ops_completed=int(sum(sum(q) for q in qps_rows)),
        duration_ms=epoch_ms * len(busy_rows),
        mean_latency_ms=1.0,
        p50_latency_ms=1.0,
        p99_latency_ms=2.0,
        total_rpcs=100,
        per_epoch=epochs,
    )


def test_steady_state_skips_warmup():
    # warmup epoch has low qps; steady epochs are high
    r = make_result(
        busy_rows=[[10, 0], [50, 50], [50, 50], [50, 50]],
        qps_rows=[[100, 0], [500, 500], [500, 500], [500, 500]],
    )
    ss = r.steady_state_throughput(skip_fraction=0.5)
    # skips the first of the 3 non-trailing epochs -> 2000 ops / 0.2 s
    assert ss == pytest.approx(10_000.0)
    overall = r.throughput_ops_per_sec
    assert overall < ss


def test_efficiency_series_uses_actual_durations():
    r = make_result(
        busy_rows=[[50, 50], [100, 100]],
        qps_rows=[[1, 1], [1, 1]],
    )
    r.per_epoch[1].duration_ms = 200.0  # stretched epoch
    eff = r.efficiency_series()
    assert eff[0] == pytest.approx(0.5)
    assert eff[1] == pytest.approx(0.5)  # 100 busy over 200 ms


def test_imbalance_report_from_result():
    r = make_result(busy_rows=[[90, 10]], qps_rows=[[90, 10]])
    rep = r.imbalance()
    assert 0 < rep.qps < 1
    assert rep.busytime == rep.qps  # identical loads by construction


def test_throughput_zero_duration():
    r = make_result(busy_rows=[[1, 1]], qps_rows=[[1, 1]])
    r.duration_ms = 0.0
    assert r.throughput_ops_per_sec == 0.0
    assert r.end_to_end_throughput == 0.0
