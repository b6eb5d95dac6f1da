"""Tests of the end-to-end benchmark itself, at ``--size smoke``.

Run with ``PYTHONPATH=src python -m pytest benchmarks/e2e`` from the
repository root (the parent ``benchmarks/conftest.py`` imports the
simulator).  The whole module runs every workload a few times at smoke size
and takes well under a minute on a 2-core host.
"""

from __future__ import annotations

import copy
import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import hostspeed
import layers
import run
from spec import END_TO_END, METRICS, PER_LAYER, WORKLOADS, pass_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def last_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """All four workloads: one untraced and one traced run each."""
    out = tmp_path_factory.mktemp("e2e") / "results.json"
    proc = bench("--size", "smoke", "--repeats", "1", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    return proc, json.loads(out.read_text())


def test_benchmark_json_matches_the_metric_table():
    for section, kinds in (("end_to_end", ("host", "virtual")), ("per_layer", ("layer",))):
        for m in BENCH[section]:
            spec = METRICS[m["name"]]
            assert (m["unit"], m["better"]) == (spec.unit, spec.better), m["name"]
            assert spec.kind in kinds, m["name"]
    # --compare takes every host metric's bound from BENCHMARK.json
    bounded = {m["name"] for m in BENCH["end_to_end"]}
    assert {m.name for m in END_TO_END if m.kind == "host"} <= bounded
    assert [w["name"] for w in BENCH["workloads"]] == list(WORKLOADS)


def test_printed_metrics_carry_their_units(smoke):
    proc, _ = smoke
    result = last_line(proc.stdout)
    assert result["correct"] and result["failed"] == 0
    for w in WORKLOADS:
        for m in END_TO_END:
            assert result["metrics"][f"{w}/{m.name}"]["unit"] == m.unit
        for m in BENCH["end_to_end"]:
            assert any(line.split()[:2] == [m["name"], m["unit"]]
                       for line in proc.stdout.splitlines()), m["name"]


def test_a_pass_fits_run_seconds_and_every_child_runs_5_s():
    run_s = BENCH["run_seconds"]
    for name, sizes in WORKLOADS.items():
        w = sizes["full"]
        assert w.wall_s >= 5.0, name
        assert pass_seconds(w) <= run_s, name
        # --trace 1: the traced pass, at most 30% slower, and one more child
        traced = 1.3 * pass_seconds(w) + pass_seconds(w) / w.instances
        assert traced <= run.CHILD_TIMEOUT_S, name


@pytest.mark.parametrize("trace, section", [("0", "end_to_end"), ("1", "per_layer")])
def test_trace_mode_result_line_holds_exactly_the_benchmark_metrics(trace, section):
    proc = bench("--workload", "ro_replay", "--size", "smoke", "--seed", "7",
                 "--seconds", str(BENCH["run_seconds"]), "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = last_line(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in BENCH[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_every_layer_is_reported_or_marked_absent(smoke):
    proc, results = smoke
    for w, entry in results["workloads"].items():
        (traced,) = entry["traced"]
        for m in PER_LAYER:
            if m.name != "tracing.overhead_frac":
                assert m.name in traced["layers"] or m.name in traced["absent"], (w, m.name)
    for m in PER_LAYER:
        assert m.name in proc.stdout


def test_a_missing_wrapper_target_marks_its_layer_absent(capsys):
    rec = layers.Recorder(enabled=True)
    layers._install(rec, object(), "apply", "migrator.apply", layers._per_resume)
    assert rec.absent == {"migrator.apply"}
    assert "absent" in capsys.readouterr().err


def test_host_speed_scales_a_region_and_leaves_out_its_slices():
    sampler = hostspeed.Sampler()
    ref0, ref1 = hostspeed.REFERENCE_S
    # the first kernel ran at twice the reference speed, the second at 8x
    sampler.slices = [(0.2, ref0 / 2, 0), (0.6, ref1 / 8, 1)]
    assert sampler.speed(0.0, 1.0) == pytest.approx(4.0)
    slices = ref0 / 2 + ref1 / 8
    assert sampler.seconds(0.0, 1.0) == pytest.approx((1.0 - slices) * 4.0)
    # a region without a slice of each kernel takes every slice
    assert sampler.speed(0.0, 0.5) == pytest.approx(4.0)
    assert sampler.seconds(2.0, 2.01) == pytest.approx(0.04)


def test_the_sampler_slices_a_busy_loop_and_restores_the_alarm():
    before = signal.getsignal(signal.SIGALRM)
    with hostspeed.Sampler(period_s=0.005) as sampler:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    assert len(sampler.slices) > 2 * len(hostspeed.KERNELS)
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def children_of(pid: int) -> list:
    kids = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid:
            kids.append(int(stat.parent.name))
    return kids


def test_sigterm_stops_the_running_child():
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--workload", "durable_crash_rw",
         "--size", "smoke", "--trace", "0"],
        cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
    )
    try:
        deadline = time.monotonic() + 30
        while not children_of(proc.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        kids = children_of(proc.pid)
        assert kids, "run.py started no child"
        proc.send_signal(signal.SIGTERM)
        assert proc.wait(timeout=30) != 0
    finally:
        proc.kill()
        proc.wait()
    for kid in kids:
        assert not Path(f"/proc/{kid}").exists()


def test_correctness_checks_fire_on_a_broken_result(smoke):
    _, results = smoke
    entry = results["workloads"]["durable_crash_rw"]
    runs, traced = entry["runs"], entry["traced"]
    assert run.check("durable_crash_rw", runs, traced) == []

    lost = copy.deepcopy(runs)
    lost[0]["ops_completed"] -= 1
    assert any("ops lost" in e for e in run.check("w", lost, traced))

    moved = copy.deepcopy(traced)
    moved[0]["virtual"]["p99_latency_ms"] += 1e-9
    assert any("p99_latency_ms" in e for e in run.check("w", runs, moved))

    disordered = copy.deepcopy(runs)
    disordered[0]["virtual"]["p50_latency_ms"] = 1e9
    assert any("out of order" in e for e in run.check("w", disordered, []))


def test_a_failed_check_exits_1_with_correct_false(smoke, monkeypatch, capsys):
    _, results = smoke
    broken = copy.deepcopy(results["workloads"]["ro_replay"])
    broken["runs"][0]["ops_completed"] -= 1
    for r in broken["traced"]:
        r["spans"] = []
    monkeypatch.setattr(run, "collect", lambda names, args: {"ro_replay": broken})
    assert run.main(["--workload", "ro_replay", "--trace", "0"]) == 1
    assert last_line(capsys.readouterr().out)["correct"] is False


def test_compare_accepts_a_file_against_itself_and_flags_changes(smoke, tmp_path):
    _, results = smoke
    base = tmp_path / "base.json"
    base.write_text(json.dumps(results))
    assert run.main(["--compare", str(base), str(base)]) == 0

    slower = copy.deepcopy(results)
    for entry in slower["workloads"].values():
        for r in entry["runs"]:
            r["host"]["wall_s"] *= 2.0
    new = tmp_path / "slower.json"
    new.write_text(json.dumps(slower))
    assert run.main(["--compare", str(base), str(new)]) == 1

    changed = copy.deepcopy(results)
    changed["workloads"]["ro_replay"]["runs"][0]["virtual"]["p50_latency_ms"] += 1.0
    new.write_text(json.dumps(changed))
    assert run.main(["--compare", str(base), str(new)]) == 1


def test_a_claim_needs_nine_of_ten_pairs():
    base = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    faster = [x * 0.8 for x in base]
    verdict, _ = run.host_verdict(base, faster, "lower", 0.05, True, False)
    assert verdict == "IMPROVED"
    mixed = faster[:8] + [1.5, 1.5]
    verdict, _ = run.host_verdict(base, mixed, "lower", 0.05, True, False)
    assert verdict == "NOT MET"
    verdict, _ = run.host_verdict(base, faster, "lower", 0.05, True, True)
    assert verdict == "NOT MET"


def test_without_the_simulator_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "ro_replay", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
