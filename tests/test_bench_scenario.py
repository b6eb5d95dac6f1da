"""Scenario model + registry: validation, lookup, built-ins."""

from dataclasses import replace

import pytest

from repro.bench.execute import run_variant
from repro.bench.scenario import (
    DATAPATH,
    FIGURE_STRATEGIES,
    BenchScenario,
    BenchVariant,
    get_scenario,
    iter_scenarios,
    register_scenario,
    scenario_names,
)
from repro.fs.faults import FaultSchedule, Slowdown
from repro.harness.config import get_scale


def make_scenario(name="tmp_scn", **kw):
    defaults = dict(
        description="test scenario",
        kind="rw",
        variants=(BenchVariant("a", strategy="C-Hash"),),
        seeds=(1, 2),
    )
    defaults.update(kw)
    return BenchScenario(name=name, **defaults)


def test_builtin_scenarios_registered():
    names = scenario_names()
    for expected in (
        "fig2_even_partitioning",
        "fig5_overall",
        "fig5_latency",
        "table2_cache",
        "fig8_scalability",
        "fig9_rw",
        "fig9_ro",
        "fig9_wi",
        "crash_failover_rw",
        "mdtest_uniform",
        "cache_depth_origami",
    ):
        assert expected in names


def test_builtins_subsume_figure_configs():
    fig5 = get_scenario("fig5_overall")
    assert [v.strategy for v in fig5.variants] == [
        "Single", "C-Hash", "F-Hash", "ML-tree", "Origami",
    ]
    fig8 = get_scenario("fig8_scalability")
    sizes = sorted({v.n_mds for v in fig8.variants if v.strategy == "Origami"})
    assert sizes == [2, 3, 4, 5]
    faulted = get_scenario("crash_failover_rw")
    assert faulted.faults is not None and faulted.faults.crash_edges()

    def cells(name, *fields):
        return [tuple(getattr(v, f) for f in fields) for v in get_scenario(name).variants]

    # Fig 5b: one client on a quarter-length trace
    assert cells("fig5_latency", "strategy", "n_clients", "ops_factor") == [
        (s, 1, 0.25) for s in FIGURE_STRATEGIES
    ]
    # Table 2: each strategy with the near-root cache off and on
    assert cells("table2_cache", "strategy", "cache_depth", "n_clients") == [
        (s, d, None)
        for s in ("C-Hash", "F-Hash", "ML-tree", "Origami")
        for d in (0, 2)
    ]
    # Fig 9: each strategy without and with the data path, one trace each
    for kind in ("rw", "ro", "wi"):
        assert get_scenario(f"fig9_{kind}").kind == kind
        assert cells(f"fig9_{kind}", "strategy", "datapath", "cache_depth", "n_clients") == [
            (s, on, 2, None) for s in FIGURE_STRATEGIES for on in (False, True)
        ]
    # the cache-depth and mdtest ablations
    assert cells("cache_depth_origami", "strategy", "cache_depth") == [
        ("Origami", d) for d in range(5)
    ]
    assert cells("mdtest_uniform", "strategy", "n_mds", "datapath") == [
        (s, None, False) for s in ("Single", "Even", "C-Hash", "Lunule", "Origami")
    ]


def test_datapath_key_only_on_datapath_variants():
    # absent when off, so the committed BENCH_*.json config blocks stay byte-equal
    assert "datapath" not in BenchVariant("a", strategy="C-Hash").to_dict()
    on = BenchVariant("a", strategy="C-Hash", datapath=True).to_dict()
    assert on["datapath"] == DATAPATH


def test_datapath_variant_moves_data_and_its_twin_does_not():
    scn = get_scenario("fig9_rw")
    scale = replace(get_scale("smoke"), n_ops=600, n_clients=6)
    meta, _ = run_variant(scn, scn.variant("C-Hash"), seed=1, scale=scale)
    full, _ = run_variant(scn, scn.variant("C-Hash+data"), seed=1, scale=scale)
    assert meta.data_ops_completed == 0
    assert full.data_ops_completed > 0


def test_validation_rejects_bad_scenarios():
    with pytest.raises(ValueError, match="unknown workload kind"):
        make_scenario(kind="nope")
    with pytest.raises(ValueError, match="at least one variant"):
        make_scenario(variants=())
    with pytest.raises(ValueError, match="duplicate variant names"):
        make_scenario(
            variants=(BenchVariant("a", strategy="Even"), BenchVariant("a", strategy="C-Hash"))
        )
    with pytest.raises(ValueError, match="duplicate seeds"):
        make_scenario(seeds=(3, 3))
    with pytest.raises(ValueError, match="at least one seed"):
        make_scenario(seeds=())
    with pytest.raises(ValueError, match="ops_factor"):
        BenchVariant("a", strategy="Even", ops_factor=0.0)


def test_registry_lookup_and_replace():
    scn = make_scenario("tmp_registry_scn")
    register_scenario(scn, replace=True)
    assert get_scenario("tmp_registry_scn") is scn
    with pytest.raises(ValueError, match="already registered"):
        register_scenario(scn)
    register_scenario(make_scenario("tmp_registry_scn", kind="ro"), replace=True)
    assert get_scenario("tmp_registry_scn").kind == "ro"
    with pytest.raises(KeyError, match="unknown scenario"):
        get_scenario("never_registered")


def test_runs_matrix_order_and_overrides():
    scn = make_scenario(
        variants=(BenchVariant("a", strategy="Even"), BenchVariant("b", strategy="C-Hash")),
        seeds=(5, 6),
    )
    matrix = [(v.name, s) for v, s in scn.runs()]
    assert matrix == [("a", 5), ("a", 6), ("b", 5), ("b", 6)]
    assert scn.n_runs == 4
    assert [(v.name, s) for v, s in scn.runs(seeds=[9])] == [("a", 9), ("b", 9)]
    assert scn.with_seeds([7]).seeds == (7,)
    assert scn.variant("b").strategy == "C-Hash"
    with pytest.raises(KeyError):
        scn.variant("c")


def test_to_dict_round_trips_faults():
    faults = FaultSchedule([Slowdown(mds=0, start_ms=1.0, end_ms=2.0, factor=2.0)])
    scn = make_scenario("tmp_faulted", faults=faults)
    d = scn.to_dict()
    assert d["faults"] is not None
    assert FaultSchedule.from_dict(d["faults"]) == faults
    assert d["variants"][0]["strategy"] == "C-Hash"
    assert make_scenario().to_dict()["faults"] is None


def test_iter_scenarios_sorted():
    names = [s.name for s in iter_scenarios()]
    assert names == sorted(names)
