"""Regenerate the hot-path equivalence fixtures.

    PYTHONPATH=src python tests/golden_hotpath/capture.py

IMPORTANT: these fixtures are the pre-optimization reference. They must
only be regenerated when a change is *intended* to alter simulation
behavior (and says so in its changelog); a hot-path/performance PR must
leave every fixture byte-identical.
"""

from __future__ import annotations

import json
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from matrix import (  # noqa: E402
    BENCH_CELL,
    CELLS,
    REGISTRY_PINS,
    REGISTRY_PINS_FIXTURE,
    run_bench_cell,
    run_cell,
    run_registry_pin,
)


def main() -> None:
    for name in CELLS:
        payload = run_cell(name)
        out = HERE / f"{name}.json"
        out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
        print(f"captured {out.name}: {payload['result']['engine_events']} events, "
              f"{payload['n_spans']} spans, {payload['n_windows']} windows")
    payload = run_bench_cell()
    out = HERE / f"{BENCH_CELL}.json"
    out.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    print(f"captured {out.name}: {payload['n_runs']} bench runs")
    pins = {name: run_registry_pin(name) for name in REGISTRY_PINS}
    out = HERE / f"{REGISTRY_PINS_FIXTURE}.json"
    out.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    print(f"captured {out.name}: {len(pins)} registry pins")


if __name__ == "__main__":
    main()
