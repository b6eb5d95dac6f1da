"""Hot-path equivalence suite: the optimized simulator must be bit-identical.

The million-entity hot-path PR rewrote the DES inner loop (packed heap keys,
inlined ``Environment.run``, flat event construction), the client planner
(memoised RPC plans), the namespace/partition read paths, and the workload
generators — all as *constant-factor* optimizations.  None of them may move a
single deterministic output bit.  This suite proves that along four axes:

1. **Golden differential cells** — ``tests/golden_hotpath/`` holds fixtures
   captured from the tree *before* any optimization landed (see
   ``capture.py`` there).  Each cell re-runs the same simulation through the
   optimized build and demands byte-identity of the full ``SimResult``,
   every finished span, every timeline window, the metrics registry,
   (Origami cells) every balancer audit entry, and (one cell) a whole
   bench artifact — across seeds × workloads × {healthy, faults,
   durability, Origami}.

2. **Property tests** (hypothesis) — for *random* seeds and configurations
   the suite never saw at capture time, two fresh runs in the same process
   must be identical: determinism is a property of the simulator, not of the
   captured points.

3. **Observational equivalence** — a run with the span tracer on gives
   the same result and timeline as the same run with it off, across
   healthy, faulted and durable configurations.

4. **Scheduler-ordering invariants** — the packed heap key
   (``priority << 62 | seq``) must order exactly like the old
   ``(time, priority, seq)`` tuple: FIFO among same-time/same-priority
   events, URGENT before NORMAL at equal time, and strictly increasing
   virtual time overall.
"""

import importlib.util
import json
import math
import pathlib

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

GOLDEN_DIR = pathlib.Path(__file__).parent / "golden_hotpath"


def _load_matrix():
    spec = importlib.util.spec_from_file_location(
        "hotpath_matrix", GOLDEN_DIR / "matrix.py"
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


MATRIX = _load_matrix()


def _assert_equal(path: str, old, new) -> None:
    """Recursive equality with bitwise floats and pinpointed diff paths."""
    if isinstance(old, float):
        # fixtures round-trip through JSON, so decimal repr is exact: demand
        # bitwise equality (isclose only as an inf/nan guard)
        assert old == new or math.isclose(old, new, rel_tol=0.0, abs_tol=0.0), (
            f"{path}: {old!r} != {new!r}"
        )
    elif isinstance(old, dict):
        assert isinstance(new, dict), f"{path}: expected dict, got {type(new)}"
        assert set(old) == set(new), (
            f"{path}: key drift (lost {set(old) - set(new)}, "
            f"gained {set(new) - set(old)})"
        )
        for k in old:
            _assert_equal(f"{path}.{k}", old[k], new[k])
    elif isinstance(old, list):
        assert isinstance(new, list) and len(old) == len(new), (
            f"{path}: length {len(old) if isinstance(old, list) else '?'} != {len(new)}"
        )
        for i, (a, b) in enumerate(zip(old, new)):
            _assert_equal(f"{path}[{i}]", a, b)
    else:
        assert old == new, f"{path}: {old!r} != {new!r}"


# --------------------------------------------------------------------------
# 1. golden differential cells (fixtures captured pre-optimization)
# --------------------------------------------------------------------------
def test_fixture_set_is_complete():
    """Every matrix cell has its pre-change fixture on disk (and vice versa)."""
    expected = set(MATRIX.CELLS) | {MATRIX.BENCH_CELL, MATRIX.REGISTRY_PINS_FIXTURE}
    on_disk = {p.stem for p in GOLDEN_DIR.glob("*.json")}
    assert on_disk == expected, (
        f"fixture drift: missing {expected - on_disk}, stray {on_disk - expected}"
    )


def test_healthy_matrix_is_complete():
    """Both workload families run healthy under seeds 0-2, each cell pinned
    on disk: the matrix the obs-off replay below covers."""
    for kind in ("rw", "wi"):
        for seed in (0, 1, 2):
            cell = f"healthy_{kind}_seed{seed}"
            assert MATRIX.CELLS.get(cell) == (kind, seed, "healthy"), cell
            assert (GOLDEN_DIR / f"{cell}.json").exists(), cell


@pytest.mark.parametrize("cell", sorted(MATRIX.CELLS))
def test_cell_matches_pre_optimization_fixture(cell: str):
    fixture = json.loads((GOLDEN_DIR / f"{cell}.json").read_text())
    fresh = MATRIX.run_cell(cell)
    _assert_equal(cell, fixture, fresh)


@pytest.mark.parametrize(
    "cell", sorted(c for c, (_, _, flavor) in MATRIX.CELLS.items() if flavor == "healthy")
)
def test_healthy_cell_without_observability(cell: str):
    """With no Observability at all, a healthy cell gives its pinned
    result: only the timeline summary, which needs a timeline, is absent."""
    pinned = json.loads((GOLDEN_DIR / f"{cell}.json").read_text())["result"]
    assert pinned.pop("timeline") is not None
    fresh = MATRIX.replay(cell, None)
    assert fresh.pop("timeline") is None
    _assert_equal(cell, pinned, fresh)


def test_bench_artifact_matches_pre_optimization_fixture():
    fixture = json.loads((GOLDEN_DIR / f"{MATRIX.BENCH_CELL}.json").read_text())
    fresh = MATRIX.run_bench_cell()
    _assert_equal(MATRIX.BENCH_CELL, fixture, fresh)


# --------------------------------------------------------------------------
# 2. determinism as a property: random seeds/configs the fixtures never saw
# --------------------------------------------------------------------------
def _tiny_run(kind: str, seed: int, with_faults: bool):
    """One small fully-observed run, reduced to its deterministic outputs."""
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.harness.experiments import build_workload
    from repro.obs import Observability

    built, trace = build_workload(kind, 400, seed)
    obs = Observability(trace=True, timeline=True, timeline_window_ms=10.0)
    config = SimConfig(
        n_mds=3,
        n_clients=8,
        epoch_ms=40.0,
        params=CostParams(cache_depth=2),
        seed=seed,
        obs=obs,
        faults=MATRIX.fault_schedule() if with_faults else None,
    )
    result = run_simulation(built.tree, trace, LunulePolicy(), config)
    rd = result.to_dict()
    for key in MATRIX.VOLATILE_RESULT_KEYS:
        rd.pop(key, None)
    return {
        "result": rd,
        "spans": [s.to_dict() for s in obs.tracer.spans],
        "windows": obs.timeline.to_rows(),
    }


@settings(
    max_examples=6,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    kind=st.sampled_from(["rw", "ro", "wi"]),
    seed=st.integers(min_value=0, max_value=2**31 - 1),
    with_faults=st.booleans(),
)
def test_same_seed_runs_are_bit_identical(kind, seed, with_faults):
    first = _tiny_run(kind, seed, with_faults)
    second = _tiny_run(kind, seed, with_faults)
    _assert_equal(f"{kind}/seed{seed}/faults={with_faults}", first, second)


@settings(max_examples=10, deadline=None)
@given(
    seed_a=st.integers(min_value=0, max_value=2**31 - 1),
    seed_b=st.integers(min_value=0, max_value=2**31 - 1),
)
def test_distinct_seeds_produce_distinct_traces(seed_a, seed_b):
    """Seed actually matters: different seeds give different op streams."""
    from repro.harness.experiments import build_workload

    if seed_a == seed_b:
        return
    _, ta = build_workload("rw", 300, seed_a)
    _, tb = build_workload("rw", 300, seed_b)
    assert ta.op.tolist() != tb.op.tolist() or ta.dir_ino.tolist() != tb.dir_ino.tolist()


# --------------------------------------------------------------------------
# 3. observation does not perturb the run: span tracer on vs off
# --------------------------------------------------------------------------
def _replay(kind: str, seed: int, flavor: str, traced: bool, tmp_dir):
    """One run reduced to its deterministic outputs, with or without spans."""
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.harness.experiments import build_workload
    from repro.obs import Observability

    built, trace = build_workload(kind, 1500, seed)
    obs = Observability(trace=traced, timeline=True, timeline_window_ms=12.0)
    config = SimConfig(
        n_mds=3,
        n_clients=8,
        epoch_ms=40.0,
        params=CostParams(cache_depth=2),
        seed=seed,
        obs=obs,
        faults=MATRIX.fault_schedule() if flavor == "faults" else None,
        data_dir=str(tmp_dir / f"stores-{traced}") if flavor == "durable" else None,
    )
    rd = run_simulation(built.tree, trace, LunulePolicy(), config).to_dict()
    for key in MATRIX.VOLATILE_RESULT_KEYS:
        rd.pop(key, None)
    return {"result": rd, "windows": obs.timeline.to_rows()}, len(obs.tracer.spans)


@pytest.mark.parametrize(
    "kind,seed,flavor",
    [
        ("rw", 0, "healthy"),
        ("wi", 1, "healthy"),
        ("ro", 0, "healthy"),
        ("rw", 0, "faults"),
        ("wi", 0, "durable"),
    ],
)
def test_tracer_on_off_bit_identical(kind, seed, flavor, tmp_path):
    """Every deterministic output bit, including the windowed timeline, is
    the same with the span tracer on and off.  The golden cells all trace,
    so this pins the untraced runs the benchmark times to the same bits."""
    traced, n_spans = _replay(kind, seed, flavor, True, tmp_path)
    bare, no_spans = _replay(kind, seed, flavor, False, tmp_path)
    assert n_spans == 1500 and no_spans == 0
    if flavor == "faults":
        assert traced["result"]["faults"]["crashes"] == 1
    if flavor == "durable":
        assert traced["result"]["kvstore"]["wal_appends"] > 0
    _assert_equal(f"tracer-on-off/{kind}/seed{seed}/{flavor}", traced, bare)


# --------------------------------------------------------------------------
# 4. ordering invariants of the packed-key scheduler
# --------------------------------------------------------------------------
def _fire_order(entries):
    """Schedule ``entries`` = [(delay, priority), ...] and return fire order."""
    from repro.sim.engine import Environment, Event

    env = Environment()
    fired = []

    def make(idx):
        ev = Event(env)
        ev._triggered = True
        ev._value = None
        ev.callbacks.append(lambda _e, i=idx: fired.append(i))
        return ev

    for idx, (delay, priority) in enumerate(entries):
        env._schedule(make(idx), priority, delay)
    env.run()
    return fired


@settings(max_examples=50, deadline=None)
@given(
    entries=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.5, 1.0, 1.5, 2.0]),  # collision-heavy times
            st.sampled_from([0, 1]),  # URGENT, NORMAL
        ),
        min_size=1,
        max_size=40,
    )
)
def test_packed_key_orders_like_time_priority_seq(entries):
    """Fire order == stable sort by (time, priority): the packed integer key
    must never reorder what the old 3-tuple key would have preserved."""
    fired = _fire_order(entries)
    expected = sorted(range(len(entries)), key=lambda i: (entries[i][0], entries[i][1]))
    assert fired == expected


def test_urgent_fires_before_normal_at_same_time():
    fired = _fire_order([(1.0, 1), (1.0, 0), (1.0, 1), (1.0, 0)])
    assert fired == [1, 3, 0, 2]


def test_same_priority_same_time_is_fifo():
    fired = _fire_order([(2.0, 1)] * 8 + [(1.0, 1)] * 3)
    assert fired == [8, 9, 10, 0, 1, 2, 3, 4, 5, 6, 7]


@settings(max_examples=100, deadline=None)
@given(
    p1=st.sampled_from([0, 1]),
    p2=st.sampled_from([0, 1]),
    s1=st.integers(min_value=0, max_value=2**62 - 1),
    s2=st.integers(min_value=0, max_value=2**62 - 1),
)
def test_packed_key_is_order_isomorphic_to_pair(p1, p2, s1, s2):
    """(p << 62) | s compares exactly like the tuple (p, s) for s < 2**62."""
    k1, k2 = (p1 << 62) | s1, (p2 << 62) | s2
    assert (k1 < k2) == ((p1, s1) < (p2, s2))
    assert (k1 == k2) == ((p1, s1) == (p2, s2))


def test_clock_is_monotonic_and_events_counted():
    """The inlined run loop advances time monotonically and flushes the
    event counter (the timeline reads it mid-run) exactly once per event."""
    from repro.sim.engine import Environment

    env = Environment()
    times = []

    def proc():
        for d in (3.0, 0.0, 1.5, 0.0, 2.0):
            yield d
            times.append(env.now)

    env.process(proc())
    env.run()
    assert times == sorted(times)
    # bootstrap + 5 sleeps + process-termination event
    assert env.events_processed == 7
