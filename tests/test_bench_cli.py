"""End-to-end CLI coverage for ``repro bench run|list|compare|report``."""

import json
import pathlib

import pytest

from repro.bench.scenario import BenchScenario, BenchVariant, register_scenario
from repro.bench.store import load_artifact, write_json
from repro.cli import build_parser, main

register_scenario(
    BenchScenario(
        name="_test_cli_rw",
        description="CLI test scenario",
        kind="rw",
        variants=(
            BenchVariant("even", strategy="Even", n_mds=3, n_clients=16, ops_factor=0.1),
        ),
        seeds=(3,),
        scale="smoke",
    ),
    replace=True,
)


def test_parser_bench_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["bench"])


def test_bench_list(capsys):
    assert main(["bench", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig5_overall" in out
    assert "crash_failover_rw" in out
    assert "registered bench scenarios" in out


def test_experiments_lists_bench_scenarios(capsys):
    assert main(["experiments"]) == 0
    out = capsys.readouterr().out
    assert "bench scenarios" in out
    assert "fig2_even_partitioning" in out
    assert "2 variants x 2 seeds" in out


def test_bench_run_report_compare_round_trip(tmp_path, capsys):
    out_dir = tmp_path / "artifacts"
    assert main([
        "bench", "run", "--scenario", "_test_cli_rw",
        "--workers", "2", "--out-dir", str(out_dir),
    ]) == 0
    out = capsys.readouterr().out
    assert "BENCH _test_cli_rw" in out
    path = out_dir / "BENCH__test_cli_rw.json"
    assert path.exists()
    raw = path.read_text()
    assert raw.endswith("\n")
    assert json.loads(raw)["schema_version"] == 1

    assert main(["bench", "report", str(path)]) == 0
    assert "per-variant aggregates" in capsys.readouterr().out

    # self-compare passes
    assert main(["bench", "compare", str(path), str(path)]) == 0
    assert "PASS" in capsys.readouterr().out

    # perturb the candidate beyond threshold -> non-zero exit
    art = load_artifact(path)
    art["aggregates"]["even"]["mean_latency_ms"]["mean"] *= 2.0
    worse = tmp_path / "BENCH__test_cli_rw.json"
    write_json(worse, art)
    assert main(["bench", "compare", str(path), str(worse)]) == 1
    assert "FAIL" in capsys.readouterr().out
    # ...unless the gate is explicitly loosened
    assert main([
        "bench", "compare", str(path), str(worse),
        "--threshold", "mean_latency_ms=2.0",
    ]) == 0


def test_bench_run_unknown_scenario(capsys):
    assert main(["bench", "run", "--scenario", "no_such_scenario"]) == 2
    assert "unknown scenario" in capsys.readouterr().err


def test_bench_run_bad_seeds(capsys):
    assert main([
        "bench", "run", "--scenario", "_test_cli_rw", "--seeds", "1,x",
    ]) == 2
    assert "bad --seeds" in capsys.readouterr().err


def test_bench_compare_bad_inputs(tmp_path, capsys):
    missing = tmp_path / "missing.json"
    assert main(["bench", "compare", str(missing), str(missing)]) == 2
    assert "cannot read" in capsys.readouterr().err

    good = tmp_path / "good.json"
    write_json(good, {
        "schema_version": 1, "scenario": "x", "scale": "smoke",
        "seeds": [1], "runs": [], "aggregates": {},
    })
    assert main([
        "bench", "compare", str(good), str(good), "--threshold", "oops",
    ]) == 2
    assert "bad --threshold" in capsys.readouterr().err


CRASH_BASELINE = str(
    pathlib.Path(__file__).parent.parent / "benchmarks/baselines/BENCH_crash_failover_rw.json"
)


@pytest.mark.parametrize("override,why", [
    ("p99_latncy_ms=0.0", "no variant in both artifacts carries 'p99_latncy_ms'"),
    ("mean_latency_ms=nan", "FRAC must be finite and >= 0"),
    ("mean_latency_ms=inf", "FRAC must be finite and >= 0"),
    ("mean_latency_ms=-0.1", "FRAC must be finite and >= 0"),
])
def test_bench_compare_rejects_a_threshold_that_gates_nothing(override, why, capsys):
    argv = ["bench", "compare", CRASH_BASELINE, CRASH_BASELINE]
    assert main(argv + ["--threshold", "mean_latency_ms=0.0"]) == 0
    capsys.readouterr()
    assert main(argv + ["--threshold", override]) == 2
    err = capsys.readouterr().err
    assert err == f"repro bench compare: bad --threshold {override!r}: {why}\n"


def test_bench_compare_rejects_a_threshold_one_artifact_lacks(tmp_path, capsys):
    artifact = load_artifact(CRASH_BASELINE)
    del artifact["perf"]["Lunule"]["wall_s"]
    lacking = tmp_path / "lacking.json"
    write_json(lacking, artifact)
    assert main(["bench", "compare", CRASH_BASELINE, str(lacking),
                 "--threshold", "wall_s=0.5"]) == 2
    assert "no variant in both artifacts carries 'wall_s'" in capsys.readouterr().err


def test_bench_report_rejects_future_schema(tmp_path, capsys):
    future = tmp_path / "future.json"
    write_json(future, {
        "schema_version": 99, "scenario": "x", "scale": "smoke",
        "seeds": [1], "runs": [], "aggregates": {},
    })
    assert main(["bench", "report", str(future)]) == 2
    assert "newer than the supported" in capsys.readouterr().err
