"""Round-trip tests for the trace/namespace bundle format."""

import numpy as np
import pytest

from repro.namespace import NamespaceTree
from repro.sim import SeedSequenceFactory
from repro.workloads import generate_trace_rw
from repro.workloads.serialize import load_bundle, save_bundle


def test_roundtrip_generated_workload(tmp_path):
    built, trace = generate_trace_rw(
        SeedSequenceFactory(5).stream("w"), n_ops=4000
    )
    path = str(tmp_path / "bundle.npz")
    save_bundle(path, built.tree, trace)
    tree2, trace2 = load_bundle(path)

    assert tree2.num_dirs == built.tree.num_dirs
    assert tree2.num_files == built.tree.num_files
    tree2.validate()
    # ino numbering preserved: paths resolve identically
    for d in built.tree.iter_dirs():
        assert tree2.path_of(d) == built.tree.path_of(d)
    assert trace2 is not None
    np.testing.assert_array_equal(trace2.op, trace.op)
    np.testing.assert_array_equal(trace2.dir_ino, trace.dir_ino)
    np.testing.assert_array_equal(trace2.aux, trace.aux)
    assert trace2.names == trace.names
    assert trace2.label == trace.label


def test_roundtrip_tree_only(tmp_path):
    tree = NamespaceTree()
    a = tree.makedirs("/a/b")
    tree.create_file(a, "f", size=77)
    path = str(tmp_path / "t.npz")
    save_bundle(path, tree)
    tree2, trace2 = load_bundle(path)
    assert trace2 is None
    f = tree2.lookup("/a/b/f")
    assert tree2.columns()["size"][f] == 77


def test_roundtrip_with_deletions_and_name_reuse(tmp_path):
    tree = NamespaceTree()
    a = tree.makedirs("/a")
    f1 = tree.create_file(a, "x")
    tree.remove(f1)
    f2 = tree.create_file(a, "x")  # reuse the name with a new ino
    d = tree.create_dir(a, "sub")
    tree.remove(d)  # dead directory
    path = str(tmp_path / "d.npz")
    save_bundle(path, tree)
    tree2, _ = load_bundle(path)
    tree2.validate()
    assert tree2.lookup("/a/x") == f2
    assert not tree2.is_alive(f1)
    assert not tree2.is_alive(d)
    assert tree2.num_files == 1


def test_replay_loaded_bundle_in_simulator(tmp_path):
    """A loaded bundle must be directly replayable (the point of the format)."""
    from repro.balancers import SingleMdsPolicy
    from repro.costmodel import CostParams
    from repro.fs import SimConfig, run_simulation

    built, trace = generate_trace_rw(SeedSequenceFactory(6).stream("w"), n_ops=3000)
    path = str(tmp_path / "replay.npz")
    save_bundle(path, built.tree, trace)
    tree2, trace2 = load_bundle(path)
    r = run_simulation(
        tree2, trace2, SingleMdsPolicy(),
        SimConfig(n_mds=1, n_clients=5, epoch_ms=50.0, params=CostParams(cache_depth=2)),
    )
    assert r.ops_completed == len(trace2)


def test_load_rejects_bad_version(tmp_path):
    import json

    path = str(tmp_path / "bad.npz")
    header = np.frombuffer(json.dumps({"version": 99}).encode(), dtype=np.uint8)
    np.savez(path, header=header)
    with pytest.raises(ValueError):
        load_bundle(path)


def _saved_arrays(tmp_path, tree):
    path = str(tmp_path / "ok.npz")
    save_bundle(path, tree)
    with np.load(path) as z:
        return {name: z[name].copy() for name in z.files}


def _load_corrupt(tmp_path, arrays, names=None):
    if names is not None:
        arrays["names"] = np.frombuffer("\x00".join(names).encode(), dtype=np.uint8)
    path = str(tmp_path / "corrupt.npz")
    np.savez(path, **arrays)
    return load_bundle(path)


def test_load_rejects_parent_after_child(tmp_path):
    tree = NamespaceTree()
    a = tree.create_dir(0, "a")
    tree.create_file(a, "f")
    arrays = _saved_arrays(tmp_path, tree)
    arrays["parent"][a] = 2  # a's parent is its own later child
    with pytest.raises(ValueError, match="bundle is corrupt"):
        _load_corrupt(tmp_path, arrays)


def test_load_rejects_file_as_parent(tmp_path):
    tree = NamespaceTree()
    tree.create_file(0, "f")
    d = tree.create_dir(0, "d")
    arrays = _saved_arrays(tmp_path, tree)
    arrays["parent"][d] = 1  # d under the file f
    with pytest.raises(ValueError, match="bundle is corrupt"):
        _load_corrupt(tmp_path, arrays)


def test_load_rejects_duplicate_sibling(tmp_path):
    tree = NamespaceTree()
    tree.create_dir(0, "a")
    tree.create_file(0, "b")
    arrays = _saved_arrays(tmp_path, tree)
    with pytest.raises(ValueError, match="bundle is corrupt"):
        _load_corrupt(tmp_path, arrays, names=["", "a", "a"])
