"""CLI tests (parser wiring + the fast subcommands end-to-end)."""

import json

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_parser_rejects_unknown_experiment():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "fig99"])


def test_experiments_listing(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "fig5_overall" in out
    assert "theorem1_gap" in out


@pytest.mark.parametrize("argv", [
    ["simulate", "Lunule", "rw", "--ops", "500"],
    ["run", "fig2_even_partitioning"],
])
def test_bad_scale_env_is_a_usage_error(monkeypatch, capsys, argv):
    monkeypatch.setenv("REPRO_SCALE", "bogus")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"repro {argv[0]}: unknown scale 'bogus'; choose from [")


def test_workload_description(capsys):
    assert main(["workload", "rw", "--ops", "3000"]) == 0
    out = capsys.readouterr().out
    assert "Trace-RW" in out
    assert "write fraction" in out
    assert "3,000" in out


def test_workload_save_bundle(tmp_path, capsys):
    path = str(tmp_path / "w.npz")
    assert main(["workload", "ro", "--ops", "2000", "--save", path]) == 0
    from repro.workloads.serialize import load_bundle

    tree, trace = load_bundle(path)
    assert len(trace) == 2000
    assert trace.write_fraction() == 0.0


def test_plan_command(capsys):
    assert main(["plan", "wi", "--ops", "3000", "--moves", "4"]) == 0
    out = capsys.readouterr().out
    assert "JCT" in out
    assert "MDS0 ->" in out


def test_simulate_command(capsys):
    assert main([
        "simulate", "Lunule", "rw", "--ops", "6000", "--mds", "3", "--clients", "20",
    ]) == 0
    out = capsys.readouterr().out
    assert "throughput" in out
    assert "Lunule" in out


def test_run_theorem1_with_json(tmp_path, capsys):
    out_path = str(tmp_path / "t1.json")
    assert main(["run", "theorem1_gap", "--json", out_path]) == 0
    blob = json.load(open(out_path))
    assert blob["data"]["all_within_bound"] is True
    printed = capsys.readouterr().out
    assert "Theorem 1" in printed


def test_simulate_extension_strategies(capsys):
    for strategy in ("AdaM-RL",):
        assert main([
            "simulate", strategy, "rw", "--ops", "5000", "--mds", "3", "--clients", "20",
        ]) == 0
        assert "throughput" in capsys.readouterr().out


def test_experiments_list_includes_extensions(capsys):
    main(["experiments"])
    out = capsys.readouterr().out
    assert "ablation_online_learning" in out
    assert "ablation_cache_design" in out


def test_simulate_with_observability_exports(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    metrics = str(tmp_path / "m.json")
    audit = str(tmp_path / "a.jsonl")
    result = str(tmp_path / "r.json")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "5000", "--mds", "3", "--clients", "20",
        "--trace", trace, "--metrics", metrics, "--audit", audit, "--json", result,
    ]) == 0
    out = capsys.readouterr().out
    assert "balancer audit" in out

    spans = [json.loads(l) for l in open(trace)]
    assert len(spans) == 5000
    s = spans[0]
    assert s["queue_ms"] + s["service_ms"] + s["net_ms"] == pytest.approx(s["latency_ms"])

    blob = json.load(open(metrics))
    assert "client_ops_total" in blob["metrics"]
    assert blob["metrics"]["client_ops_total"]["series"][0]["value"] == 5000
    assert blob["balancer_audit"]["summary"]["migrations"] >= 0

    audits = [json.loads(l) for l in open(audit)]
    assert all("predicted_benefit_ms" in a and "realized_benefit_ms" in a for a in audits)

    full = json.load(open(result))
    assert full["ops_completed"] == 5000
    assert len(full["per_epoch"]) >= 1
    assert full["per_epoch"][0]["busy_ms"]  # arrays serialized


def test_simulate_kvstore_summary(capsys):
    assert main([
        "simulate", "Lunule", "rw", "--ops", "4000", "--mds", "3", "--clients", "20",
        "--kvstore",
    ]) == 0
    out = capsys.readouterr().out
    assert "read/write amplification" in out


def test_report_command(tmp_path, capsys):
    trace = str(tmp_path / "t.jsonl")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "4000", "--mds", "3", "--clients", "20",
        "--trace", trace,
    ]) == 0
    capsys.readouterr()
    assert main(["report", trace]) == 0
    out = capsys.readouterr().out
    assert "latency decomposition" in out
    assert "WITHIN 1% tolerance" in out
    assert "per-operation breakdown" in out


def test_simulate_data_dir_checkpoint_resume_roundtrip(tmp_path, capsys):
    data_dir = str(tmp_path / "stores")
    ckpt = str(tmp_path / "run.ckpt")
    args = ["simulate", "Lunule", "rw", "--ops", "4000", "--mds", "3",
            "--clients", "20", "--data-dir", data_dir]
    assert main(args + ["--checkpoint", ckpt]) == 0
    out = capsys.readouterr().out
    assert "WAL appends" in out
    assert "checkpoint written" in out
    # resuming a finished run replays nothing new but must succeed cleanly
    assert main(args + ["--resume", ckpt]) == 0
    out = capsys.readouterr().out
    assert "resumed from" in out


def test_simulate_resume_rejects_mismatched_config(tmp_path, capsys):
    data_dir = str(tmp_path / "stores")
    ckpt = str(tmp_path / "run.ckpt")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "3000", "--mds", "3",
        "--clients", "20", "--data-dir", data_dir, "--checkpoint", ckpt,
    ]) == 0
    capsys.readouterr()
    # different cluster size than the checkpoint was captured with
    assert main([
        "simulate", "Lunule", "rw", "--ops", "3000", "--mds", "4",
        "--clients", "20", "--data-dir", data_dir, "--resume", ckpt,
    ]) == 1
    assert "cannot resume" in capsys.readouterr().err


def test_recover_command(tmp_path, capsys):
    data_dir = str(tmp_path / "stores")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "4000", "--mds", "3",
        "--clients", "20", "--data-dir", data_dir,
    ]) == 0
    capsys.readouterr()
    report = str(tmp_path / "recover.json")
    assert main(["recover", data_dir, "--json", report]) == 0
    out = capsys.readouterr().out
    assert "mds-0" in out and "mds-2" in out
    assert "total modeled recovery" in out
    blob = json.load(open(report))
    assert len(blob) == 3
    assert all(b["modeled_recovery_ms"] >= 0 for b in blob)


def test_recover_command_rejects_missing_dir(tmp_path, capsys):
    assert main(["recover", str(tmp_path / "nope")]) == 1
    assert "not a directory" in capsys.readouterr().err


def test_run_profile_flag(capsys):
    assert main(["run", "fig2_even_partitioning", "--scale", "smoke", "--profile"]) == 0
    out = capsys.readouterr().out
    assert "[profile] wall-clock phases" in out
    assert "simulate:" in out


def test_simulate_timeline_slo_and_sampled_trace(tmp_path, capsys):
    timeline = str(tmp_path / "tl.jsonl")
    trace = str(tmp_path / "spans.jsonl")
    spec = tmp_path / "slo.json"
    spec.write_text(json.dumps({
        "name": "loose",
        "objectives": [
            {"name": "p99", "metric": "p99_ms", "target_ms": 1e9},
            {"name": "hits", "metric": "cache_hit_rate", "target": 0.0,
             "error_budget": 0.99},
        ],
    }))
    assert main([
        "simulate", "Lunule", "rw", "--ops", "5000", "--mds", "3",
        "--clients", "20", "--timeline", timeline, "--slo", str(spec),
        "--trace", trace, "--trace-sample", "5",
    ]) == 0
    out = capsys.readouterr().out
    assert "engine throughput" in out
    assert "timeline" in out
    assert "overall: OK" in out
    assert "1-in-5 sampled" in out

    lines = open(timeline).read().splitlines()
    meta = json.loads(lines[0])
    assert meta["kind"] == "timeline" and meta["n_windows"] == len(lines) - 1
    rows = [json.loads(l) for l in lines[1:]]
    assert sum(r["ops"] for r in rows) == 5000
    spans = open(trace).read().splitlines()
    assert len(spans) == (5000 + 4) // 5

    # breach path: impossible latency target must exit 1
    spec.write_text(json.dumps({
        "objectives": [{"name": "p99", "metric": "p99_ms", "target_ms": 0.0,
                        "error_budget": 0.01}],
    }))
    capsys.readouterr()
    assert main([
        "simulate", "Lunule", "rw", "--ops", "5000", "--mds", "3",
        "--clients", "20", "--slo", str(spec),
    ]) == 1
    assert "SLO BREACHED" in capsys.readouterr().out


def test_simulate_rejects_bad_trace_sample_and_slo(tmp_path, capsys):
    assert main([
        "simulate", "Lunule", "rw", "--ops", "1000", "--trace-sample", "0",
    ]) == 2
    assert "--trace-sample" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{]")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "1000", "--slo", str(bad),
    ]) == 2
    assert "invalid JSON" in capsys.readouterr().err


def _make_timeline(tmp_path, capsys, ops=5000):
    timeline = str(tmp_path / "tl.jsonl")
    assert main([
        "simulate", "Lunule", "rw", "--ops", str(ops), "--mds", "3",
        "--clients", "20", "--timeline", timeline,
    ]) == 0
    capsys.readouterr()
    return timeline


def test_obs_timeline_and_heatmap_commands(tmp_path, capsys):
    timeline = _make_timeline(tmp_path, capsys)
    assert main(["obs", "timeline", timeline, "--limit", "5"]) == 0
    out = capsys.readouterr().out
    assert "ops/s" in out and "p99" in out

    for metric in ("ops", "busy", "queue"):
        assert main(["obs", "heatmap", timeline, "--metric", metric]) == 0
        out = capsys.readouterr().out
        assert "mds0" in out and "mds2" in out

    assert main(["obs", "timeline", str(tmp_path / "missing.jsonl")]) == 2
    assert "repro obs" in capsys.readouterr().err


def test_obs_slo_command_gates(tmp_path, capsys):
    timeline = _make_timeline(tmp_path, capsys)
    spec = tmp_path / "slo.json"
    spec.write_text(json.dumps({
        "objectives": [{"name": "p99", "metric": "p99_ms", "target_ms": 1e9}],
    }))
    report = str(tmp_path / "report.json")
    assert main(["obs", "slo", timeline, str(spec), "--json", report]) == 0
    assert "overall: OK" in capsys.readouterr().out
    assert json.load(open(report))["ok"] is True

    spec.write_text(json.dumps({
        "objectives": [{"name": "p99", "metric": "p99_ms", "target_ms": 0.0}],
    }))
    assert main(["obs", "slo", timeline, str(spec)]) == 1
    assert "SLO BREACHED" in capsys.readouterr().out


def test_report_timeline_section(tmp_path, capsys):
    trace = str(tmp_path / "spans.jsonl")
    timeline = str(tmp_path / "tl.jsonl")
    assert main([
        "simulate", "Lunule", "rw", "--ops", "5000", "--mds", "3",
        "--clients", "20", "--trace", trace, "--timeline", timeline,
    ]) == 0
    capsys.readouterr()
    assert main(["report", trace, "--timeline", timeline]) == 0
    out = capsys.readouterr().out
    assert "steady-state" in out
    assert "kevents/virtual s" in out
