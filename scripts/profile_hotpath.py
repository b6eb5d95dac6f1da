#!/usr/bin/env python
"""Profile the DES hot path and print a sorted cost table.

The hot-path optimization PR was profile-driven: every change started from
this table (which functions own the wall time of a default-tier run) and
ended with the golden-equivalence suite proving the output bits unchanged.
This script keeps that loop reproducible:

    PYTHONPATH=src python scripts/profile_hotpath.py
    PYTHONPATH=src python scripts/profile_hotpath.py --kind wi --scale smoke
    PYTHONPATH=src python scripts/profile_hotpath.py --sort cumtime --top 40
    PYTHONPATH=src python scripts/profile_hotpath.py --repeat 3   # throughput too

``--repeat N`` additionally reports the un-profiled engine throughput
(``engine_events_per_wall_sec``, best of N) — the headline number the
``scale_large_hotpath``/default-tier acceptance gates track — since cProfile
instrumentation itself roughly halves it.

The same table is available on any simulation via ``repro simulate
--profile``; this helper just fixes the configuration to the one the
optimization work measured (Lunule on Trace-RW, default tier, seed 42).
"""

from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import sys


def run(kind: str, scale, seed: int):
    from repro.harness.experiments import run_strategy

    return run_strategy("Lunule", kind, scale, seed=seed)


def _hotspot_rows(stats: pstats.Stats, top: int) -> list:
    """The sorted cost table as plain dicts (one per function)."""
    rows = []
    for func in (stats.fcn_list or sorted(stats.stats))[:top]:
        cc, nc, tt, ct, _callers = stats.stats[func]
        filename, lineno, name = func
        rows.append(
            {
                "function": f"{filename}:{lineno}({name})",
                "ncalls": int(nc),
                "primitive_calls": int(cc),
                "tottime_s": round(tt, 6),
                "cumtime_s": round(ct, 6),
            }
        )
    return rows


def main(argv=None) -> int:
    from repro.harness.config import SCALES
    from repro.workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--kind", default="rw", choices=tuple(WORKLOADS))
    ap.add_argument("--scale", default="default", choices=tuple(SCALES))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--sort", default="tottime",
                    choices=("tottime", "cumtime", "ncalls"))
    ap.add_argument("--top", type=int, default=30,
                    help="rows of the cost table to print (default 30)")
    ap.add_argument("--repeat", type=int, default=0, metavar="N",
                    help="also run N un-profiled passes and report the best "
                         "engine_events_per_wall_sec (0 = skip)")
    ap.add_argument("--json", metavar="PATH", dest="json_path",
                    help="also write the top-N hotspots plus the run summary "
                         "as a machine-readable JSON artifact (CI uploads "
                         "this from the hotpath-equivalence job)")
    args = ap.parse_args(argv)

    scale = SCALES[args.scale]
    print(f"profiling Lunule on Trace-{args.kind.upper()}, scale={scale.name} "
          f"({scale.n_ops:,} ops, {scale.n_clients:,} clients, "
          f"tree_scale={scale.tree_scale:g}), seed={args.seed}")

    profiler = cProfile.Profile()
    profiler.enable()
    result = run(args.kind, scale, args.seed)
    profiler.disable()

    print(f"run: {result.ops_completed:,} ops, {result.engine_events:,} engine "
          f"events in {result.wall_s:.2f} wall s "
          f"({result.engine_events_per_wall_sec:,.0f} ev/s under the profiler)")
    print()
    stats = pstats.Stats(profiler, stream=sys.stdout)
    stats.sort_stats(args.sort).print_stats(args.top)

    best = None
    if args.repeat > 0:
        best = 0.0
        for i in range(args.repeat):
            r = run(args.kind, scale, args.seed)
            rate = r.engine_events_per_wall_sec
            best = max(best, rate)
            print(f"un-profiled pass {i + 1}/{args.repeat}: {rate:,.0f} ev/s")
        print(f"best engine_events_per_wall_sec: {best:,.0f}")

    if args.json_path:
        payload = {
            "kind": args.kind,
            "scale": scale.name,
            "seed": args.seed,
            "sort": args.sort,
            "top": args.top,
            "run": {
                "ops_completed": int(result.ops_completed),
                "engine_events": int(result.engine_events),
                "wall_s_profiled": round(float(result.wall_s), 3),
                "engine_events_per_wall_sec_profiled": round(
                    float(result.engine_events_per_wall_sec), 1
                ),
            },
            "best_unprofiled_events_per_wall_sec": (
                round(best, 1) if best is not None else None
            ),
            "hotspots": _hotspot_rows(stats, args.top),
        }
        with open(args.json_path, "w") as f:
            json.dump(payload, f, indent=2)
            f.write("\n")
        print(f"wrote hotspot JSON to {args.json_path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
