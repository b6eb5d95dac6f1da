"""End-to-end benchmark of the simulator: four workloads, host-time and
modelled metrics, and per-layer numbers from a traced pass.

Usage (from the repository root)::

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed 42]
        [--repeats N] [--seconds S] [--trace 0|1] [--size full|smoke]
        [--out results.json]
    python3 benchmarks/e2e/run.py --compare BASE.json NEW.json
        [--claim WORKLOAD.METRIC]...

A pass replays each workload's instances (``spec.instance_seeds``), each in
a fresh child process (``child.py``), one child at a time, interleaved
across workloads.  ``--repeats`` passes run.  With no ``--trace`` one traced
pass follows; ``--trace 0`` skips it; ``--trace 1`` runs the traced pass and
one untraced child per workload, for the tracing overhead.

A pass has a fixed size, so that what it measures does not depend on the
host's speed, and its host times are scaled to a reference host speed that
each child samples while it runs (``hostspeed.py``).  ``spec.py`` sizes one
workload's pass to fit the ``run_seconds`` of ``BENCHMARK.json``, which
callers pass as ``--seconds``; the flag is accepted for them and changes
nothing.

The report prints every metric by name and unit.  The last line of stdout
is one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``
(with ``--trace 0`` the ``BENCHMARK.json`` end-to-end metrics, with
``--trace 1`` its per-layer metrics, without ``--trace`` every metric).  A
failed correctness check exits 1; a run that cannot measure exits 2
without a result line.

``--compare`` checks two ``--out`` files against the metric bounds, one row
per workload and metric; README.md describes the rules.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

from spec import (END_TO_END, METRICS, PER_LAYER, SETUP_LAYERS, SIZES, WORKLOADS,
                  instance_seeds)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: run outputs (durable stores, spans.jsonl); ignored by git
WORK = ROOT / "benchmarks" / "results" / "e2e"
#: no single child may run longer; an invocation for one workload must end
#: within 180 s
CHILD_TIMEOUT_S = 170.0
RESULTS_FORMAT = "e2e-bench/1"
HOST = [m for m in END_TO_END if m.kind == "host"]
VIRTUAL = [m for m in END_TO_END if m.kind == "virtual"]


class BenchError(Exception):
    """A run that produced no valid measurement."""


def load_benchmark_json() -> dict:
    path = ROOT / "BENCHMARK.json"
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        raise BenchError(f"cannot read {path}: {exc}") from None


# ------------------------------------------------------------------ running
def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(WORK / "tmp")
    # one child at a time on a 2-core host: no hidden BLAS threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(workload: str, seed: int, size: str, traced: bool) -> dict:
    cmd = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--size", size,
        "--data-root", str(WORK / "tmp"),
    ]
    if traced:
        cmd.append("--traced")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=child_env(),
                              timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} seed {seed}: child ran over {CHILD_TIMEOUT_S:.0f} s") from None
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchError(f"{workload} seed {seed}: child exited {proc.returncode}")
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        raise BenchError(f"{workload} seed {seed}: child printed no result") from None


def collect(names: List[str], args) -> Dict[str, dict]:
    """Passes of fresh children; see the module docstring."""
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    seeds = {n: instance_seeds(args.seed, WORKLOADS[n][args.size].instances) for n in names}
    results = {n: {"runs": [], "traced": []} for n in names}

    def one_pass(p: int, traced: bool) -> None:
        for j in range(max(len(s) for s in seeds.values())):
            for n in names:
                if j < len(seeds[n]):
                    rec = run_child(n, seeds[n][j], args.size, traced)
                    rec["pass"] = p
                    results[n]["traced" if traced else "runs"].append(rec)

    if args.trace == 1:
        one_pass(0, traced=True)
        for n in names:
            rec = run_child(n, seeds[n][0], args.size, False)
            rec["pass"] = 0
            results[n]["runs"].append(rec)
        return results
    for p in range(args.repeats):
        one_pass(p, traced=False)
    if args.trace is None:
        one_pass(0, traced=True)
    return results


# -------------------------------------------------------------- correctness
def check(workload: str, runs: List[dict], traced: List[dict]) -> List[str]:
    """Every failed correctness check of one workload's records."""
    errors = []
    first: Dict[int, dict] = {}
    for r in runs + traced:
        where = f"{workload} seed {r['seed']}{' traced' if r['traced'] else ''}"
        lost = r["n_ops"] - (r["ops_completed"] + r["vanished_ops"] + r["fault_failed_ops"])
        if lost:
            errors.append(f"{where}: {lost} ops lost")
        v = r["virtual"]
        if not v["p50_latency_ms"] <= v["p99_latency_ms"] <= v["p999_latency_ms"]:
            errors.append(f"{where}: latency percentiles out of order")
        if not (v["throughput_ops_s"] > 0 and v["rpcs_per_request"] >= 1):
            errors.append(f"{where}: no throughput or under one RPC per op")
        ref = first.setdefault(r["seed"], v)
        moved = sorted(k for k in ref if v.get(k) != ref[k])
        if moved:
            errors.append(f"{where}: virtual metrics differ between runs: {', '.join(moved)}")
    return errors


# ---------------------------------------------------------------- summaries
def quartiles(values: List[float]):
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def pass_host(recs: List[dict]) -> Dict[str, float]:
    """The host metrics of one pass, from times at reference host speed:
    the mean wall time of its children, their events over their summed
    replay time, and the median set-up time and memory."""
    med = lambda key: statistics.median(r["host"][key] for r in recs)
    return {
        "setup_s": med("setup_s"),
        "wall_s": statistics.fmean(r["host"]["wall_s"] for r in recs),
        "sim_events_per_s": (sum(r["virtual"]["engine_events"] for r in recs)
                             / sum(r["host"]["replay_s"] for r in recs)),
        "peak_rss_mb": med("peak_rss_mb"),
    }


def by_pass(runs: List[dict]) -> List[Dict[str, float]]:
    passes: Dict[int, list] = {}
    for r in runs:
        passes.setdefault(r["pass"], []).append(r)
    return [pass_host(passes[p]) for p in sorted(passes)]


def by_seed(records: List[dict]) -> Dict[int, list]:
    out: Dict[int, list] = {}
    for r in records:
        out.setdefault(r["seed"], []).append(r)
    return out


def summarize(entry: dict) -> dict:
    runs, traced = entry["runs"], entry["traced"]
    passes = by_pass(runs)
    instances = by_seed(runs)
    out = {
        "host": {m.name: quartiles([p[m.name] for p in passes]) for m in HOST},
        # per-instance virtual metrics are identical across runs (checked);
        # the workload's value is their median over the instances
        "virtual": {
            m.name: statistics.median(rs[0]["virtual"][m.name] for rs in instances.values())
            for m in VIRTUAL
        },
        "passes": len(passes),
        "instances": len(instances),
        "attempted": sum(r["n_ops"] for r in runs + traced),
        "failed": sum(r["failed_ops"] for r in runs + traced),
        "latency_samples": min(r["latency_samples"] for r in runs),
        "layers": None,
        "absent": sorted({a for r in traced for a in r["absent"]}),
    }
    if traced:
        layers = {
            k: statistics.median(r["layers"][k] for r in traced) for k in traced[0]["layers"]
        }
        both = [s for s in by_seed(traced) if s in instances]
        untraced_s = sum(statistics.median(r["host"]["replay_s"] for r in instances[s]) for s in both)
        traced_s = sum(r["host"]["replay_s"] for r in traced if r["seed"] in both)
        layers["tracing.overhead_frac"] = traced_s / untraced_s - 1.0
        out["layers"] = layers
    return out


def self_times(spans: List[dict]) -> Dict[str, list]:
    """name -> [calls, total s, self s]; self = span minus its child spans."""
    child_s: Dict[int, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    table: Dict[str, list] = {}
    for s in spans:
        row = table.setdefault(s["name"], [0, 0.0, 0.0])
        dur = s["end"] - s["start"]
        row[0] += 1
        row[1] += dur
        row[2] += dur - child_s.get(s["id"], 0.0)
    return table


def fmt(x: float) -> str:
    return f"{x:.6g}"


def report(name: str, entry: dict, s: dict) -> None:
    traced = entry["traced"]
    print(f"\n== {name}: {s['instances']} instances x {s['passes']} passes"
          f"{' + traced pass' if traced else ''}, size {entry['runs'][0]['size']} ==")
    print(f"{'end-to-end metric':<26}{'unit':<10}{'median':>14}  q1 .. q3 over passes")
    for m in HOST:
        q1, med, q3 = s["host"][m.name]
        print(f"{m.name:<26}{m.unit:<10}{fmt(med):>14}  {fmt(q1)} .. {fmt(q3)}")
    speed = [r["host"]["speed"] for r in entry["runs"]]
    clock = [r["host"]["clock_s"] for r in entry["runs"]]
    print(f"(times at reference host speed; the host ran at {min(speed):.2f} .. "
          f"{max(speed):.2f} of it, and a child's clock time was "
          f"{fmt(min(clock))} .. {fmt(max(clock))} s)")
    for m in VIRTUAL:
        note = "median over instances, each identical in all its runs"
        if m.name == "p999_latency_ms":
            n = s["latency_samples"]
            note += f"; >= {n} samples, {n - int(n * 0.999)} beyond"
        print(f"{m.name:<26}{m.unit:<10}{fmt(s['virtual'][m.name]):>14}  ({note})")
    print(f"failed ops: {s['failed']} of {s['attempted']} attempted")
    layers = s["layers"]
    if layers is None:
        return
    # spans are clock seconds: so are the times their shares are of
    wall = statistics.median(r["host"]["clock_s"] for r in traced)
    replay = layers["sim.replay_s"]
    print(f"{'per-layer metric (traced pass)':<34}{'unit':<7}{'median':>14}  share")
    for m in PER_LAYER:
        if m.name in s["absent"]:
            print(f"{m.name:<34}{m.unit:<7}{'absent':>14}")
            continue
        value = layers[m.name]
        share = ""
        if m.unit == "s" and m.name != "sim.replay_s":
            base, of = (wall, "wall") if m.name in SETUP_LAYERS else (replay, "replay")
            share = f"{100.0 * value / base:5.1f}% of {of}"
        print(f"{m.name:<34}{m.unit:<7}{fmt(value):>14}  {share}")
    print(f"{'span (first traced run)':<34}{'calls':>7}{'total s':>14}{'self s':>12}")
    for span, (calls, total, own) in self_times(traced[0]["spans"]).items():
        print(f"{span:<34}{calls:>7}{fmt(total):>14}{fmt(own):>12}")


def write_spans(results: Dict[str, dict]) -> Optional[Path]:
    rows = [
        {"workload": name, "seed": r["seed"], **span}
        for name, entry in results.items()
        for r in entry["traced"]
        for span in r["spans"]
    ]
    if not rows:
        return None
    path = WORK / "spans.jsonl"
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")
    return path


def result_line(summaries: Dict[str, dict], names: List[str], bench: dict,
                trace: Optional[int], correct: bool) -> dict:
    """With ``--trace`` the ``BENCHMARK.json`` metrics of that kind, without
    it every metric; keys carry the workload name when there are several."""
    if trace is None:
        keys = list(METRICS)
    else:
        keys = [m["name"] for m in bench["per_layer" if trace == 1 else "end_to_end"]]
    metrics = {}
    for name in names:
        s = summaries[name]
        for key in keys:
            kind = METRICS[key].kind
            if kind == "host":
                value = s["host"][key][1]
            elif kind == "virtual":
                value = s["virtual"][key]
            elif s["layers"] is not None:
                value = s["layers"][key]
            else:
                continue
            label = key if len(names) == 1 else f"{name}/{key}"
            metrics[label] = {"value": value, "unit": METRICS[key].unit}
    return {
        "correct": correct,
        "attempted": sum(summaries[n]["attempted"] for n in names),
        "failed": sum(summaries[n]["failed"] for n in names),
        "metrics": metrics,
    }


def save(path: Path, results: Dict[str, dict], args) -> None:
    """Write ``--out``.  An existing file of the same seed and size gains the
    new passes, so alternating invocations on two commits build pairs."""
    doc = {"format": RESULTS_FORMAT, "seed": args.seed, "size": args.size,
           "nproc": os.cpu_count(), "python": platform.python_version(),
           "workloads": {}}
    if path.exists():
        old = json.loads(path.read_text())
        if (old.get("format"), old.get("seed"), old.get("size")) != (
            RESULTS_FORMAT, args.seed, args.size,
        ):
            raise BenchError(f"{path} holds runs of another seed, size or format")
        doc["workloads"] = old["workloads"]
    for name, entry in results.items():
        slot = doc["workloads"].setdefault(name, {"runs": [], "traced": []})
        offset = 1 + max((r["pass"] for r in slot["runs"] + slot["traced"]), default=-1)
        for key in ("runs", "traced"):
            for r in entry[key]:
                # spans stay in spans.jsonl; the results file keeps numbers
                slot[key].append({**{k: v for k, v in r.items() if k != "spans"},
                                  "pass": r["pass"] + offset})
    path.write_text(json.dumps(doc, indent=1) + "\n")


# ------------------------------------------------------------------ compare
def compare(base_path: Path, new_path: Path, claims: List[str], bench: dict) -> int:
    """Per workload and metric: same/CHANGED for virtual metrics (exact, per
    instance), and for host metrics ok, REGRESSION, unresolved, better,
    IMPROVED or NOT MET over the passes of each side."""
    base, new = (json.loads(Path(p).read_text()) for p in (base_path, new_path))
    if (base["seed"], base["size"]) != (new["seed"], new["size"]):
        raise BenchError("the two files measure different seeds or sizes")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    failures = 0
    print(f"{'workload':<18}{'metric':<20}{'base':>12}{'new':>12}{'change':>9}"
          f"{'bound':>7}{'spread':>8}  verdict")
    for w in sorted(set(base["workloads"]) & set(new["workloads"])):
        b_runs, n_runs = base["workloads"][w]["runs"], new["workloads"][w]["runs"]
        shares = {}
        for label, runs in (("base", b_runs), ("new", n_runs)):
            failed, attempted = sum(r["failed_ops"] for r in runs), sum(r["n_ops"] for r in runs)
            shares[label] = failed / attempted
            print(f"{w:<18}{'failed ops, ' + label:<20}{failed:>12}{attempted:>12}"
                  f"  {shares[label]:.3%} of attempted")
        b_seed, n_seed = by_seed(b_runs), by_seed(n_runs)
        for m in VIRTUAL:
            common = sorted(set(b_seed) & set(n_seed))
            same = all(b_seed[s][0]["virtual"][m.name] == n_seed[s][0]["virtual"][m.name]
                       for s in common)
            failures += not same
            print(f"{w:<18}{m.name:<20}{len(common):>12}{'instances':>12}{'':>9}"
                  f"{'exact':>7}{'':>8}  {'same' if same else 'CHANGED'}")
        b_pass, n_pass = by_pass(b_runs), by_pass(n_runs)
        for m in HOST:
            verdict, row = host_verdict(
                [p[m.name] for p in b_pass], [p[m.name] for p in n_pass],
                m.better, bounds[m.name], f"{w}.{m.name}" in claims,
                failed_more=shares["new"] > shares["base"],
            )
            failures += verdict in ("REGRESSION", "NOT MET")
            print(f"{w:<18}{m.name:<20}{row}  {verdict}")
    return 1 if failures else 0


def host_verdict(base: List[float], new: List[float], better: str, bound: float,
                 claimed: bool, failed_more: bool):
    """One host metric's verdict from per-pass values; pass i of each side
    is a pair.  A claim needs >= 10 pairs, 9 in 10 won, a median gap wider
    than the base's own quartile spread, and no more failed ops."""
    bq1, bmed, bq3 = quartiles(base)
    nq1, nmed, nq3 = quartiles(new)
    sign = 1.0 if better == "lower" else -1.0
    change = (nmed - bmed) / bmed
    spread = max((bq3 - bq1) / bmed, (nq3 - nq1) / nmed)
    row = f"{fmt(bmed):>12}{fmt(nmed):>12}{change:>+9.1%}{bound:>7.0%}{spread:>8.1%}"
    pairs = list(zip(base, new))
    wins = sum(1 for b, n in pairs if sign * (n - b) < 0)
    if claimed:
        met = (len(pairs) >= 10 and wins >= 0.9 * len(pairs)
               and abs(nmed - bmed) > bq3 - bq1 and not failed_more)
        return ("IMPROVED" if met else "NOT MET"), row + f"  ({wins}/{len(pairs)} pairs)"
    if all(sign * (n - b) < 0 for n in new for b in base):
        return "better (every run)", row
    if spread > bound:
        return "unresolved", row
    if sign * change > bound:
        return "REGRESSION", row
    return "ok", row


# --------------------------------------------------------------------- main
def parse_args(argv):
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                    help="repeatable; default: all four")
    ap.add_argument("--seed", type=int, default=42,
                    help="benchmark seed (default 42; 43 is held out for claims)")
    ap.add_argument("--repeats", type=int, default=1, help="untraced passes")
    ap.add_argument("--seconds", type=float,
                    help="accepted and ignored: a pass has a fixed size")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=None)
    ap.add_argument("--size", choices=SIZES, default="full")
    ap.add_argument("--out", type=Path, help="write (or extend) a results file")
    ap.add_argument("--compare", nargs=2, type=Path, metavar=("BASE", "NEW"))
    ap.add_argument("--claim", action="append", default=[],
                    metavar="WORKLOAD.METRIC", help="a gain --compare must confirm")
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        bench = load_benchmark_json()
        if args.compare:
            return compare(*args.compare, args.claim, bench)
        if not (ROOT / "src" / "repro").is_dir():
            raise BenchError(f"simulator sources not found under {ROOT / 'src'}")
        names = args.workload or list(WORKLOADS)
        results = collect(names, args)
        errors = [e for n in names for e in check(n, results[n]["runs"], results[n]["traced"])]
        summaries = {n: summarize(results[n]) for n in names}
        for n in names:
            report(n, results[n], summaries[n])
        spans = write_spans(results)
        if spans is not None:
            print(f"\nspans: {spans}")
        if args.out is not None:
            save(args.out, results, args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for e in errors:
        print(f"CHECK FAILED: {e}", file=sys.stderr)
    print(json.dumps(result_line(summaries, names, bench, args.trace, not errors)))
    return 1 if errors else 0


def _terminate(signum, frame):
    # unwinds through subprocess.run, which kills and reaps the running child
    raise SystemExit(128 + signum)


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
