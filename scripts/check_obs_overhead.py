#!/usr/bin/env python
"""CI gate: the windowed-telemetry pipeline must stay cheap.

Runs the same smoke-scale simulation with observability fully disabled
vs. with the timeline collector enabled, and fails (exit 1) when the
timeline run costs more than ``--budget`` fractional wall time over the
bare one.  Repeats are interleaved (bare, timeline, bare, timeline, …)
so slow machine drift hits both configurations equally, and each side is
scored by its min (min, not mean: scheduling noise only ever adds time).

The parity suite proves the collector changes no *simulated* number;
this script bounds what it costs in *real* time.  A combined run with
the metrics registry also enabled is reported informationally — the
registry predates this pipeline and pays one histogram observe per op
(its counters are published once, at the end of the run), so it is not
held to the timeline's budget.

Usage (CI runs the defaults):

    PYTHONPATH=src python scripts/check_obs_overhead.py
    PYTHONPATH=src python scripts/check_obs_overhead.py --ops 20000 --budget 0.05
"""

from __future__ import annotations

import argparse
import sys
import time


def run_once(n_ops: int, window_ms: float, kind: str) -> float:
    from repro.balancers import LunulePolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation
    from repro.obs import Observability
    from repro.sim import SeedSequenceFactory
    from repro.workloads import generate_trace_rw

    ssf = SeedSequenceFactory(0)
    built, trace = generate_trace_rw(ssf.stream("w"), n_ops=n_ops)
    obs = None
    if kind == "timeline":
        obs = Observability(timeline=True, timeline_window_ms=window_ms)
    elif kind == "full":
        obs = Observability(metrics=True, timeline=True, timeline_window_ms=window_ms)
    config = SimConfig(
        n_mds=3,
        n_clients=20,
        epoch_ms=50.0,
        params=CostParams(cache_depth=2),
        seed=0,
        obs=obs,
    )
    t0 = time.perf_counter()
    run_simulation(built.tree, trace, LunulePolicy(), config)
    return time.perf_counter() - t0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--ops", type=int, default=8000, help="trace length")
    parser.add_argument("--repeats", type=int, default=7,
                        help="interleaved runs per configuration; min is compared")
    parser.add_argument("--budget", type=float, default=0.10,
                        help="max fractional timeline overhead (0.10 = 10%%)")
    parser.add_argument("--window-ms", type=float, default=10.0,
                        help="timeline window (small = worst case: more closes)")
    args = parser.parse_args(argv)

    kinds = ("bare", "timeline", "full")
    # warm every path once (imports, allocator, branch caches) before timing
    for kind in kinds:
        run_once(args.ops, args.window_ms, kind)
    times = {kind: [] for kind in kinds}
    for _ in range(args.repeats):
        for kind in kinds:
            times[kind].append(run_once(args.ops, args.window_ms, kind))

    bare = min(times["bare"])
    timeline = min(times["timeline"])
    full = min(times["full"])
    overhead = timeline / bare - 1.0

    print(f"obs overhead check: {args.ops} ops, {args.repeats} repeats, "
          f"{args.window_ms:g} ms windows")
    print(f"  bare               : {bare * 1e3:8.1f} ms")
    print(f"  timeline           : {timeline * 1e3:8.1f} ms  "
          f"({overhead:+.1%}, budget {args.budget:.0%})")
    print(f"  metrics + timeline : {full * 1e3:8.1f} ms  "
          f"({full / bare - 1.0:+.1%}, informational)")
    if overhead > args.budget:
        print("FAIL — timeline pipeline exceeds its overhead budget",
              file=sys.stderr)
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main())
