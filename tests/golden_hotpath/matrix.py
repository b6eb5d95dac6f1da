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
* a SHA-256 over the metrics registry, both as canonical JSON and as
  Prometheus text (the registry is passive: turning it on moves no other
  key);
* (one dedicated cell) a benchmark artifact with its volatile sections and
  machine fingerprint stripped, reduced to a SHA-256.

The healthy cells are also replayed with no ``Observability`` at all
(:func:`replay` with ``obs=None``): their pinned ``result``, apart from the
timeline summary, must come back, so observing a run never moves it.

Three more runs pin only the registry (``registry_pins.json``): fault
families that the main fault schedule leaves empty (a partition and RPC
drops), an elastic pool that breathes, and a checkpointed run resumed with
a fresh registry on each segment.  The registry digests were captured while
every counter was still written per event, before ``finalize`` took over
publishing them from component totals.

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
    "healthy_rw_seed2": ("rw", 2, "healthy"),
    "healthy_ro_seed0": ("ro", 0, "healthy"),
    "healthy_ro_seed1": ("ro", 1, "healthy"),
    "healthy_wi_seed0": ("wi", 0, "healthy"),
    "healthy_wi_seed1": ("wi", 1, "healthy"),
    "healthy_wi_seed2": ("wi", 2, "healthy"),
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
    from repro.obs import Observability

    obs = Observability(
        metrics=True,
        trace=True,  # in-memory tracer: spans retained, no file
        timeline=True,
        timeline_window_ms=EPOCH_MS / 5.0,
        audit=CELLS[name][2] == "origami",
    )
    result_dict = replay(name, obs)
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
    if obs.audit is not None:
        audit_lines = [_canonical(e) for e in obs.audit.to_dicts()]
        payload["n_audit_entries"] = len(audit_lines)
        payload["audit_sha256"] = _sha256("\n".join(audit_lines))
    payload.update(registry_digests(obs))
    return payload


def replay(name: str, obs) -> Dict[str, Any]:
    """Run one cell's simulation under ``obs`` (None: no observability) and
    return ``SimResult.to_dict()`` minus the volatile wall-clock keys."""
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.harness.config import get_scale
    from repro.harness.experiments import build_workload, make_policy

    kind, seed, flavor = CELLS[name]
    origami = flavor == "origami"
    built, trace = build_workload(kind, ORIGAMI_N_OPS if origami else N_OPS, seed)
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
    return result_dict


def registry_digests(obs) -> Dict[str, Any]:
    """The registry reduced to SHA-256s of its JSON and Prometheus forms."""
    from repro.obs.export import prometheus_text

    snap = obs.registry.snapshot()
    return {
        "registry_sha256": _sha256(_canonical(snap)),
        "prometheus_sha256": _sha256(prometheus_text(snap)),
        # series per family in the clear: a digest mismatch still shows a
        # family that lost or gained its series
        "registry_series": {name: len(f["series"]) for name, f in snap.items()},
    }


#: the registry-only runs pinned in ``registry_pins.json``
REGISTRY_PINS = ("partition_drop_rw_seed0", "elastic_flash_seed7", "resume_rw_seed5")
REGISTRY_PINS_FIXTURE = "registry_pins"


def _partition_drop_schedule():
    """Timeouts, drops and retries, but no crash: the crash, restart,
    refusal and abort families stay empty."""
    from repro.fs.faults import FaultSchedule, Partition, RpcDrop

    # MDS 1 and 2 take traffic from the first rebalance (60 ms) on
    return FaultSchedule(
        events=[
            Partition(mds=1, start_ms=70.0, end_ms=90.0),
            RpcDrop(mds=2, start_ms=60.0, end_ms=120.0, probability=0.2),
        ]
    )


def run_registry_pin(name: str) -> Dict[str, Any]:
    """Run one registry pin and reduce it to its registry digests."""
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.harness.experiments import build_workload
    from repro.obs import Observability

    if name == "partition_drop_rw_seed0":
        built, trace = build_workload("rw", N_OPS, 0)
        obs = Observability(metrics=True)
        config = SimConfig(
            n_mds=N_MDS,
            n_clients=N_CLIENTS,
            epoch_ms=EPOCH_MS,
            params=CostParams(cache_depth=CACHE_DEPTH),
            seed=0,
            obs=obs,
            faults=_partition_drop_schedule(),
        )
        run_simulation(built.tree, trace, LunulePolicy(), config)
        return registry_digests(obs)
    if name == "elastic_flash_seed7":
        from repro.fs.elastic import AutoscaleSpec, ScaleEvent
        from repro.harness.config import get_scale
        from repro.harness.experiments import run_strategy

        spec = AutoscaleSpec(
            policy="schedule", min_mds=1, max_mds=5, warmup_ms=5.0,
            events=(ScaleEvent(0, "join", 2), ScaleEvent(1, "drain", 2)),
        )
        obs = Observability(metrics=True)
        run_strategy(
            "Lunule", "flash", get_scale("smoke"), seed=7, n_mds=2,
            n_ops=12000, autoscale=spec, obs=obs,
        )
        return registry_digests(obs)
    if name == "resume_rw_seed5":
        from repro.durability import Checkpointer
        from repro.fs.filesystem import OrigamiFS

        # short epochs: both segments cross boundaries and migrate
        built, trace = build_workload("rw", 2400, seed=7)
        segments = {}
        fs = None
        for segment in ("first", "resumed"):
            obs = Observability(metrics=True)
            config = SimConfig(n_mds=3, seed=5, epoch_ms=15.0, obs=obs)
            if fs is None:
                fs = OrigamiFS(built.tree, trace[:1200], LunulePolicy(), config)
            else:
                ckpt = Checkpointer().capture(fs)
                fs = Checkpointer().restore(ckpt, trace, LunulePolicy(), config)
            fs.run()
            segments[segment] = registry_digests(obs)
        return segments
    raise KeyError(name)


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
