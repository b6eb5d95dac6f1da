"""Every paper experiment's smoke report, pinned byte for byte.

``benchmarks/report_pins.json`` holds the SHA-256 of each experiment's
JSON report and of its printed report, run as ``repro run <name> --scale
smoke`` runs it (seed 42).  A harness refactor must leave both unchanged.
A change meant to move a number re-captures the pins and says why:

    PYTHONPATH=src python benchmarks/test_report_pins.py --capture

``ablation_models`` is not pinned: its MLP and ridge fits go through BLAS
matrix products, whose last bits may differ across CPUs.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from repro.bench.store import write_json
from repro.cli import main
from repro.harness.experiments import EXPERIMENTS

PINS = pathlib.Path(__file__).with_name("report_pins.json")
UNPINNED = ("ablation_models",)
PINNED = tuple(name for name in EXPERIMENTS if name not in UNPINNED)


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def report_digests(name: str, out_dir: pathlib.Path) -> dict:
    """Digests of one ``repro run <name> --scale smoke --json`` invocation."""
    out = out_dir / f"{name}.json"
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        assert main(["run", name, "--scale", "smoke", "--json", str(out)]) == 0
    # the CLI prints the rendered report, then a blank line and the JSON path
    rendered = printed.getvalue().rsplit("\n\n[json written to ", 1)[0]
    return {"json": _sha256(out.read_bytes()), "render": _sha256(rendered.encode())}


def test_every_experiment_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == sorted(PINNED)


@pytest.mark.parametrize("name", PINNED)
def test_smoke_report_matches_pin(name, tmp_path):
    assert report_digests(name, tmp_path) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(f"usage: {sys.argv[0]} --capture")
    with tempfile.TemporaryDirectory() as tmp:
        pins = {name: report_digests(name, pathlib.Path(tmp)) for name in PINNED}
    write_json(PINS, pins)
    print(f"pinned {len(pins)} experiments in {PINS}")
