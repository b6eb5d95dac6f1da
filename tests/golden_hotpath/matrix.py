"""The differential-equivalence cell matrix for the hot-path golden suite.

Shared by ``capture.py`` (regenerates the fixtures) and
``tests/test_hotpath_equivalence.py`` (asserts fresh runs match them), so
both sides execute the *same* code path — the only difference is whether
the captured dict is written to disk or compared against it.

Each cell runs one small simulation with full observability (in-memory
span tracer + windowed timeline) and reduces every deterministic output to
a JSON-stable form:

* the full ``SimResult.to_dict()`` minus the volatile wall-clock keys;
* a SHA-256 over the canonical JSON of every finished span;
* the timeline meta plus a SHA-256 over the canonical JSON of its windows;
* (Origami cells) a SHA-256 over the canonical JSON of every balancer
  audit entry, so each GBDT-driven decision and its scored candidates are
  pinned, not just their effect on the run;
* (one dedicated cell) a benchmark artifact with its volatile sections and
  machine fingerprint stripped, reduced to a SHA-256.

The fixtures were captured BEFORE the hot-path optimization landed (the
Origami cells before GBDT inference walked only distinct binned rows), so
a pass proves the optimized simulator is bit-identical to the pre-change
build in every deterministic output, across seeds × workloads ×
{healthy, faults, durability, Origami}.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from typing import Any, Dict

#: run shape — small enough for CI, large enough to cross several epochs,
#: exercise migrations, and (fault cells) straddle a crash + restart
N_OPS = 2500
N_MDS = 3
N_CLIENTS = 12
EPOCH_MS = 60.0
CACHE_DEPTH = 2

#: Origami cells run longer: 2,500 ops reach only two epochs, too few for
#: the trained model to decide anything worth pinning
ORIGAMI_N_OPS = 20_000

#: SimResult keys that are wall-clock (machine-speed) measurements
VOLATILE_RESULT_KEYS = ("wall_s", "engine_events_per_wall_sec")

#: cell name -> (workload kind, seed, config flavor)
CELLS = {
    "healthy_rw_seed0": ("rw", 0, "healthy"),
    "healthy_rw_seed1": ("rw", 1, "healthy"),
    "healthy_ro_seed0": ("ro", 0, "healthy"),
    "healthy_ro_seed1": ("ro", 1, "healthy"),
    "healthy_wi_seed0": ("wi", 0, "healthy"),
    "healthy_wi_seed1": ("wi", 1, "healthy"),
    "faults_rw_seed0": ("rw", 0, "faults"),
    "faults_rw_seed1": ("rw", 1, "faults"),
    "faults_wi_seed0": ("wi", 0, "faults"),
    "durability_wi_seed0": ("wi", 0, "durability"),
    "durability_rw_seed1": ("rw", 1, "durability"),
    "origami_wi_seed0": ("wi", 0, "origami"),
    "origami_rw_seed1": ("rw", 1, "origami"),
}

#: the dedicated bench-artifact cell (runs through repro.bench end to end)
BENCH_CELL = "bench_artifact"
BENCH_SCENARIO_NAME = "hotpath_equiv_micro"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _canonical(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def fault_schedule():
    """A deterministic schedule landing inside a ~100-virtual-ms run."""
    from repro.fs.faults import Crash, FaultSchedule, RpcDelay, Slowdown

    return FaultSchedule(
        events=[
            Crash(mds=0, start_ms=30.0, end_ms=60.0, warmup_ms=10.0, warmup_factor=2.0),
            Slowdown(mds=1, start_ms=20.0, end_ms=50.0, factor=3.0),
            RpcDelay(mds=2, start_ms=25.0, end_ms=45.0, extra_ms=0.02),
        ]
    )


def run_cell(name: str) -> Dict[str, Any]:
    """Execute one matrix cell and reduce it to its comparable form."""
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.harness.config import get_scale
    from repro.harness.experiments import build_workload, make_policy
    from repro.obs import Observability

    kind, seed, flavor = CELLS[name]
    origami = flavor == "origami"
    built, trace = build_workload(kind, ORIGAMI_N_OPS if origami else N_OPS, seed)
    obs = Observability(
        trace=True,  # in-memory tracer: spans retained, no file
        timeline=True,
        timeline_window_ms=EPOCH_MS / 5.0,
        audit=origami,
    )
    if origami:
        policy, _ = make_policy("Origami", kind, get_scale("smoke"))
    else:
        policy = LunulePolicy()
    with tempfile.TemporaryDirectory(prefix="repro-hotpath-golden-") as scratch:
        config = SimConfig(
            n_mds=N_MDS,
            n_clients=N_CLIENTS,
            epoch_ms=EPOCH_MS,
            params=CostParams(cache_depth=CACHE_DEPTH),
            seed=seed,
            obs=obs,
            faults=fault_schedule() if flavor == "faults" else None,
            data_dir=f"{scratch}/stores" if flavor == "durability" else None,
        )
        result = run_simulation(built.tree, trace, policy, config)

    result_dict = result.to_dict()
    for key in VOLATILE_RESULT_KEYS:
        result_dict.pop(key, None)

    span_lines = [_canonical(s.to_dict()) for s in obs.tracer.spans]
    timeline_rows = obs.timeline.to_rows()
    payload = {
        "cell": name,
        "result": result_dict,
        "n_spans": len(span_lines),
        "spans_sha256": _sha256("\n".join(span_lines)),
        "timeline_meta": obs.timeline.meta(),
        "n_windows": len(timeline_rows),
        "timeline_sha256": _sha256("\n".join(_canonical(r) for r in timeline_rows)),
    }
    if origami:
        audit_lines = [_canonical(e) for e in obs.audit.to_dicts()]
        payload["n_audit_entries"] = len(audit_lines)
        payload["audit_sha256"] = _sha256("\n".join(audit_lines))
    return payload


def _ensure_bench_scenario():
    """Register (idempotently) the tiny scenario the bench cell runs."""
    from repro.bench.scenario import (
        BenchScenario,
        BenchVariant,
        get_scenario,
        register_scenario,
    )

    try:
        return get_scenario(BENCH_SCENARIO_NAME)
    except KeyError:
        pass
    scn = BenchScenario(
        name=BENCH_SCENARIO_NAME,
        description="micro scenario backing the hot-path equivalence fixture",
        kind="rw",
        variants=(
            BenchVariant(
                name="lunule", strategy="Lunule", n_mds=3, n_clients=12,
                ops_factor=0.2,
            ),
            BenchVariant(
                name="chash", strategy="C-Hash", n_mds=3, n_clients=12,
                ops_factor=0.2,
            ),
        ),
        seeds=(0,),
        scale="smoke",
        tags=("equivalence",),
    )
    register_scenario(scn)
    return scn


def run_bench_cell() -> Dict[str, Any]:
    """Run the micro bench scenario and reduce its deterministic core."""
    from repro.bench.runner import run_scenario
    from repro.bench.store import strip_volatile

    scn = _ensure_bench_scenario()
    artifact = strip_volatile(run_scenario(scn, workers=1))
    canon = _canonical(artifact)
    return {
        "cell": BENCH_CELL,
        "n_runs": len(artifact["runs"]),
        "artifact_sha256": _sha256(canon),
        # the headline rates are kept in the clear so a digest mismatch
        # still shows *what* moved without rerunning by hand
        "engine_events": {
            r["variant"]: r["metrics"]["engine_events"] for r in artifact["runs"]
        },
    }
