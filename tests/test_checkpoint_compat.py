"""Checkpoints in the earlier payload layout still resume, bit for bit.

Before the tree payload became five columns, a checkpoint carried the
tree's internal arrays and counters (twelve keys) and kept the fault
injector's two streams in a ``fault_rng`` block of their own.
``tests/legacy_checkpoints/`` holds four such checkpoints, gzip-compressed,
each written by commit 25c4461 after the first half of a run:

* ``memory``: in-memory stores, on a ``wi`` tree with removed entries;
* ``kvstore``: per-MDS LSM stores (``use_kvstore``);
* ``durable``: durable stores under ``data_dir``;
* ``faults``: RPC drops on MDS 0 all run long and a crash of MDS 1 that
  restarts after the seam, so both fault streams draw on each side of it.

``digests.json`` pins the ``SimResult.to_dict()`` digest each one resumed
to at that commit; it must resume to the same digest now.  A durable
checkpoint names stores on disk, which are not kept here: the test
writes them again by replaying the first half, which writes the same
stores the capturing run wrote.

The fixtures are only meaningful if written by code that still uses the
old layout; to write them again, with a checkout of 25c4461::

    PYTHONPATH=<that checkout>/src python tests/test_checkpoint_compat.py --capture
"""

from __future__ import annotations

import gzip
import hashlib
import json
import pathlib
import sys
import tempfile

import pytest

from repro.balancers import LunulePolicy
from repro.durability import Checkpointer, SimCheckpoint
from repro.fs.faults import Crash, FaultSchedule, RpcDrop
from repro.fs.filesystem import OrigamiFS, SimConfig
from repro.harness.experiments import build_workload
from repro.sim import SeedSequenceFactory

FIXTURES = pathlib.Path(__file__).with_name("legacy_checkpoints")
DIGESTS = FIXTURES / "digests.json"
CASES = ("memory", "kvstore", "durable", "faults")
N_OPS, SPLIT, SEED = 1200, 600, 5


def _workload(case: str):
    kind = "rw" if case == "faults" else "wi"
    return build_workload(kind, N_OPS, seed=7, tree_scale=0.125)


def _config(case: str, data_dir: str) -> SimConfig:
    extra = {
        "memory": {},
        "kvstore": {"use_kvstore": True},
        "durable": {"data_dir": data_dir},
        "faults": {"faults": FaultSchedule([
            RpcDrop(0, 0.0, 10_000.0, probability=0.02),
            Crash(1, 10.0, 60.0, warmup_ms=5.0),
        ])},
    }[case]
    return SimConfig(n_mds=3, seed=SEED, epoch_ms=15.0, **extra)


def first_half(case: str, data_dir: str) -> OrigamiFS:
    built, trace = _workload(case)
    fs = OrigamiFS(built.tree, trace[:SPLIT], LunulePolicy(), _config(case, data_dir))
    fs.run()
    return fs


def resume(checkpoint: SimCheckpoint, case: str, data_dir: str) -> OrigamiFS:
    _, trace = _workload(case)
    return Checkpointer().restore(checkpoint, trace, LunulePolicy(), _config(case, data_dir))


def result_digest(result) -> str:
    blob = json.dumps(result.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def _fixture(case: str) -> pathlib.Path:
    return FIXTURES / f"{case}.ckpt.gz"


def _legacy(case: str, tmp_path):
    """The fixture's raw payload and its checkpoint, loaded as a file."""
    raw = gzip.decompress(_fixture(case).read_bytes())
    path = tmp_path / f"{case}.ckpt"
    path.write_bytes(raw)
    return json.loads(raw)["checkpoint"], SimCheckpoint.load(str(path))


@pytest.mark.parametrize("case", CASES)
def test_legacy_checkpoint_resumes_to_its_pinned_digest(case, tmp_path):
    data_dir = str(tmp_path / "stores")
    if case == "durable":
        first_half(case, data_dir)
    payload, checkpoint = _legacy(case, tmp_path)
    assert len(payload["tree"]) == 12 and "fault_rng" in payload  # the old layout
    fs = resume(checkpoint, case, data_dir)
    assert result_digest(fs.run()) == json.loads(DIGESTS.read_text())[case]
    if case == "faults":
        fresh = SeedSequenceFactory(SEED)
        for key in ("drop", "retry"):
            name = f"fault-{key}"
            at_seam = payload["fault_rng"][key]
            assert at_seam != fresh.stream(name).generator.bit_generator.state
            assert fs.rng_streams.state()[name] != at_seam


def test_old_layout_payload_resumes_like_the_new_one():
    from tests.test_workload_pins import tree_state

    fs = first_half("faults", None)
    new = Checkpointer().capture(fs).to_dict()
    assert set(new["tree"]) == {"parent", "name", "ftype", "alive", "size"}
    old = dict(new, tree=tree_state(fs.tree), rng_streams=dict(new["rng_streams"]))
    old["fault_rng"] = {
        key: old["rng_streams"].pop(f"fault-{key}") for key in ("drop", "retry")
    }
    # the fixture carries the clock of the code that wrote it (the crash's
    # restart edge, 60 ms), this first half its last completion: compare
    # the two layouts of the same payload with each other
    new_digest, old_digest = (
        result_digest(resume(SimCheckpoint.from_dict(payload), "faults", None).run())
        for payload in (new, old)
    )
    assert new_digest == old_digest


def capture() -> None:
    """Write the fixtures and the digests their resumed runs give."""
    FIXTURES.mkdir(exist_ok=True)
    digests = {}
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            data_dir = str(pathlib.Path(tmp) / "stores")
            path = str(pathlib.Path(tmp) / "run.ckpt")
            Checkpointer().capture(first_half(case, data_dir)).save(path)
            raw = pathlib.Path(path).read_bytes()
            _fixture(case).write_bytes(gzip.compress(raw, 9, mtime=0))
            fs = resume(SimCheckpoint.load(path), case, data_dir)
            digests[case] = result_digest(fs.run())
    DIGESTS.write_text(json.dumps(digests, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(__doc__)
    capture()
