"""Every workload family's build, pinned byte for byte.

``tests/workload_pins.json`` holds one SHA-256 per case: every kind in
:data:`repro.workloads.WORKLOADS` at seeds 0 and 4200 and ``tree_scale``
1 and 4, plus ``wi`` at 16 (the tree the ``origami_cloud`` benchmark
replays), each at 5,000 ops; and the two full-size ``wi`` builds the
benchmark times (``FULL_SIZE``).  A digest covers the tree's full state (with
child-map order), the built namespace's read dirs, write dirs and info,
every trace column, and the workload stream's bit-generator state after
the build.  A change to how workloads are built must leave all of them
unchanged; a change meant to move a workload re-captures the pins and says
why:

    PYTHONPATH=src python tests/test_workload_pins.py --capture
"""

from __future__ import annotations

import hashlib
import inspect
import json
import pathlib
import sys

import numpy as np
import pytest

from repro.bench.store import write_json
from repro.sim import SeedSequenceFactory
from repro.workloads import WORKLOADS

PINS = pathlib.Path(__file__).with_name("workload_pins.json")
N_OPS = 5_000
#: ``origami_cloud``'s and ``million_wi``'s ``wi`` builds at workload seed
#: 4200, the first instance of benchmark seed 42
FULL_SIZE = (("wi", 4200, 16.0, 190_000), ("wi", 4200, 256.0, 200_000))
CASES = tuple(
    (kind, seed, scale, N_OPS)
    for kind in WORKLOADS
    for seed in (0, 4200)
    for scale in (1.0, 4.0)
) + tuple(("wi", seed, 16.0, N_OPS) for seed in (0, 4200)) + FULL_SIZE


def case_id(kind: str, seed: int, scale: float, n_ops: int = N_OPS) -> str:
    base = f"{kind}-seed{seed}-scale{scale:g}"
    return base if n_ops == N_OPS else f"{base}-ops{n_ops}"


def _plain(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot pin {type(obj).__name__}")


def tree_state(tree) -> dict:
    """Every internal array and counter of a NamespaceTree, JSON-ready.

    The numpy columns are sliced to the logical extent and converted to
    plain Python scalars; each child map stays a dict.
    """
    n = tree.capacity
    return {
        "parent": tree._parent[:n].tolist(),
        "name": list(tree._name),
        "ftype": tree._ftype[:n].tolist(),
        "depth": tree._depth[:n].tolist(),
        "alive": tree._alive[:n].tolist(),
        "size": tree._size[:n].tolist(),
        "children": [
            None if kids is None else dict(kids) for kids in tree._children
        ],
        "n_child_files": tree._n_child_files[:n].tolist(),
        "n_child_dirs": tree._n_child_dirs[:n].tolist(),
        "num_dirs": tree._num_dirs,
        "num_files": tree._num_files,
        "version": tree.version,
    }


def full_state(tree) -> dict:
    """:func:`tree_state` with each child map's insertion order pinned too."""
    state = tree_state(tree)
    state["children"] = [
        None if kids is None else list(kids.items()) for kids in tree._children
    ]
    return state


def _column(arr) -> list:
    return None if arr is None else [arr.dtype.str, arr.tobytes().hex()]


def workload_digest(kind: str, seed: int, scale: float, n_ops: int = N_OPS) -> str:
    """SHA-256 of one build, made as ``build_workload`` makes it."""
    generate, size_kw = WORKLOADS[kind]
    rng = SeedSequenceFactory(seed).stream(f"workload-{kind}")
    kwargs = {}
    if scale != 1.0:
        base = inspect.signature(generate).parameters[size_kw].default
        kwargs[size_kw] = max(1, int(round(base * scale)))
    built, trace = generate(rng, n_ops=n_ops, **kwargs)
    record = {
        "tree": full_state(built.tree),
        "read_dirs": built.read_dirs,
        "write_dirs": built.write_dirs,
        "info": built.info,
        "trace": {
            "op": _column(trace.op),
            "dir_ino": _column(trace.dir_ino),
            "aux": _column(trace.aux),
            "names": trace.names,
            "label": trace.label,
            "think_ms": _column(trace.think_ms),
        },
        "rng_state": rng.generator.bit_generator.state,
    }
    blob = json.dumps(record, sort_keys=True, separators=(",", ":"), default=_plain)
    return hashlib.sha256(blob.encode()).hexdigest()


def test_every_case_is_pinned():
    assert sorted(json.loads(PINS.read_text())) == sorted(case_id(*c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[case_id(*c) for c in CASES])
def test_workload_build_matches_pin(case):
    assert workload_digest(*case) == json.loads(PINS.read_text())[case_id(*case)]


if __name__ == "__main__":
    if sys.argv[1:] != ["--capture"]:
        sys.exit(f"usage: {sys.argv[0]} --capture")
    pins = {case_id(*case): workload_digest(*case) for case in CASES}
    write_json(PINS, pins)
    print(f"pinned {len(pins)} workload builds in {PINS}")
