"""Fig. 5 (§5.2): overall performance on Trace-RW.

(a) aggregate metadata throughput under 50-thread-equivalent saturation for
Single / C-Hash / F-Hash / ML-tree / Origami; (b) single-thread latency.
Paper shape: Origami highest throughput (3.86x single, 1.73x the best
baseline); latency penalty ordering F-Hash > C-Hash > ML-tree ~ Origami.

The strategy matrix comes from the ``fig5_overall`` bench scenario — the
same registry entry ``repro bench run --scenario fig5_overall`` executes —
so the paper figure and the perf-tracking artifact share one config source.
"""

from repro.bench.scenario import get_scenario
from repro.harness import experiments as E

SCENARIO = get_scenario("fig5_overall")


def test_fig5_overall(benchmark, scale, save_report):
    rep = benchmark.pedantic(lambda: E.fig5_overall(scale), rounds=1, iterations=1)
    save_report(rep, "fig5_overall")
    tput = rep.data["throughput_x"]
    # the figure covers exactly the registered scenario's variants
    assert set(tput) == {v.strategy for v in SCENARIO.variants}
    # who-wins shape (the paper's central claim)
    assert tput["Origami"] > tput["C-Hash"] > tput["F-Hash"] > 1.0
    assert tput["Origami"] > tput["ML-tree"]
    lat = rep.data["latency_x"]
    # locality destruction shows up as single-thread latency
    assert lat["F-Hash"] > lat["C-Hash"] > 1.0
    assert lat["Origami"] < lat["F-Hash"]
