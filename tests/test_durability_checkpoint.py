"""Simulation checkpoint capture/restore tests (repro.durability.checkpoint)."""

import copy
import json
import os
import pathlib
import subprocess
import sys
import zlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balancers import LunulePolicy
from repro.cli import main
from repro.durability import CHECKPOINT_SCHEMA_VERSION, Checkpointer, SimCheckpoint
from repro.durability.checkpoint import _canonical
from repro.durability.errors import CheckpointError
from repro.fs.filesystem import OrigamiFS, SimConfig
from repro.harness.experiments import build_workload
from repro.namespace.tree import _DIR, ROOT_INO, NamespaceTree
from repro.workloads.serialize import load_bundle, save_bundle

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _segmented_run(tmp_path, *, use_kvstore=False, data_dir=None, n_ops=1200, split=600,
                   seed=7):
    """Run the first `split` ops, checkpoint, save+load, restore, finish."""
    built, trace = build_workload("rw", n_ops, seed=seed)
    cfg = dict(n_mds=3, seed=5, use_kvstore=use_kvstore, data_dir=data_dir)
    fs1 = OrigamiFS(built.tree, trace[:split], LunulePolicy(), SimConfig(**cfg))
    r1 = fs1.run()
    ck = Checkpointer().capture(fs1)
    path = str(tmp_path / "run.ckpt")
    ck.save(path)
    ck2 = SimCheckpoint.load(path)
    fs2 = Checkpointer().restore(ck2, trace, LunulePolicy(), SimConfig(**cfg))
    r2 = fs2.run()
    return r1, r2, ck2, trace


def test_inmemory_resume_conserves_ops(tmp_path):
    r1, r2, ck, trace = _segmented_run(tmp_path)
    assert ck.cursor == 600
    assert r2.ops_completed + r2.failed_ops == len(trace)
    assert r2.ops_completed > r1.ops_completed
    assert r2.duration_ms > r1.duration_ms
    # epoch ids continue monotonically across the seam
    ids = [e.epoch for e in r2.per_epoch]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)


def test_resume_equals_with_kvstore(tmp_path):
    r1, r2, ck, trace = _segmented_run(tmp_path, use_kvstore=True)
    assert r2.ops_completed + r2.failed_ops == len(trace)
    assert r2.kvstore is not None


def test_durable_resume_reopens_stores(tmp_path):
    data_dir = str(tmp_path / "stores")
    r1, r2, ck, trace = _segmented_run(tmp_path, use_kvstore=True, data_dir=data_dir)
    assert r2.ops_completed + r2.failed_ops == len(trace)
    # each of the 3 MDS stores went through one recovery on restore
    assert r2.kvstore["recoveries"] == 3.0
    assert ck.durable and ck.data_dir == data_dir


def test_capture_restore_capture_is_exact(tmp_path):
    built, trace = build_workload("rw", 800, seed=11)
    cfg = dict(n_mds=3, seed=2, use_kvstore=False)
    fs1 = OrigamiFS(built.tree, trace[:400], LunulePolicy(), SimConfig(**cfg))
    fs1.run()
    ck1 = Checkpointer().capture(fs1)
    fs2 = Checkpointer().restore(ck1, trace, LunulePolicy(), SimConfig(**cfg))
    ck2 = Checkpointer().capture(fs2)
    assert ck1.to_dict() == ck2.to_dict()


def test_checkpoint_file_is_crc_framed(tmp_path):
    built, trace = build_workload("rw", 300, seed=1)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), SimConfig(n_mds=2, seed=0))
    fs.run()
    path = str(tmp_path / "x.ckpt")
    Checkpointer().capture(fs).save(path)
    doc = json.load(open(path))
    assert doc["v"] == CHECKPOINT_SCHEMA_VERSION
    assert isinstance(doc["crc"], int)
    # no stray temp file left behind by the atomic write
    assert os.listdir(tmp_path) == ["x.ckpt"]


def _saved_checkpoint(tmp_path, **cfg_kw):
    built, trace = build_workload("rw", 300, seed=1)
    cfg = dict(n_mds=2, seed=0)
    cfg.update(cfg_kw)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), SimConfig(**cfg))
    fs.run()
    path = str(tmp_path / "x.ckpt")
    Checkpointer().capture(fs).save(path)
    return path, trace


def test_load_rejects_tampered_payload(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    doc = json.load(open(path))
    doc["checkpoint"]["counters"]["ops_completed"] += 1
    json.dump(doc, open(path, "w"))
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(path)


def test_load_rejects_wrong_version(tmp_path):
    path, _ = _saved_checkpoint(tmp_path)
    doc = json.load(open(path))
    doc["v"] = CHECKPOINT_SCHEMA_VERSION + 1
    json.dump(doc, open(path, "w"))
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(path)


def test_load_rejects_garbage_and_missing(tmp_path):
    p = str(tmp_path / "junk.ckpt")
    open(p, "w").write("not json{")
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(p)
    with pytest.raises(CheckpointError):
        SimCheckpoint.load(str(tmp_path / "missing.ckpt"))


def test_restore_validates_strategy_and_seed(tmp_path):
    path, trace = _saved_checkpoint(tmp_path)
    ck = SimCheckpoint.load(path)
    from repro.balancers import CoarseHashPolicy

    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, CoarseHashPolicy(), SimConfig(n_mds=2, seed=0))
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=2, seed=99))
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=4, seed=0))


def test_restore_validates_trace_length(tmp_path):
    path, trace = _saved_checkpoint(tmp_path)
    ck = SimCheckpoint.load(path)
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace[: ck.cursor - 1], LunulePolicy(),
                               SimConfig(n_mds=2, seed=0))


def test_restore_builds_default_config(tmp_path):
    # config=None: the restore derives a SimConfig from the checkpoint itself
    path, trace = _saved_checkpoint(tmp_path)
    ck = SimCheckpoint.load(path)
    fs = Checkpointer().restore(ck, trace, LunulePolicy())
    assert fs.config.n_mds == ck.n_mds
    assert fs.env.now == ck.now_ms


def test_restored_tree_preserves_ino_numbering(tmp_path):
    built, trace = build_workload("rw", 500, seed=3)
    fs1 = OrigamiFS(built.tree, trace[:250], LunulePolicy(), SimConfig(n_mds=3, seed=5))
    fs1.run()
    ck = Checkpointer().capture(fs1)
    fs2 = Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=3, seed=5))
    t1, t2 = fs1.tree, fs2.tree
    assert t1.capacity == t2.capacity
    assert t1.num_dirs == t2.num_dirs and t1.num_files == t2.num_files
    for ino in range(t1.capacity):
        assert t1.is_alive(ino) == t2.is_alive(ino)
        if t1.is_alive(ino):
            assert t1.path_of(ino) == t2.path_of(ino)
    # ownership came back ino-for-ino as well
    import numpy as np

    assert np.array_equal(fs1.pmap.owner_array(), fs2.pmap.owner_array())


# ------------------------------------------------------ malformed payloads
MALFORMED_TREES = (
    "short column",
    "parent past the end",
    "parent after its child",
    "file as a parent",
    "duplicate sibling",
)


def _malformed_tree(tree: dict, how: str) -> dict:
    """A copy of a checkpoint's tree payload, broken one way."""
    t = copy.deepcopy(tree)
    live = [i for i in range(1, len(t["parent"])) if t["alive"][i]]
    dirs = [i for i in live if t["ftype"][i] == _DIR]
    if how == "short column":
        t["alive"].pop()
    elif how == "parent past the end":
        t["parent"][live[-1]] = len(t["parent"]) + 3
    elif how == "parent after its child":
        t["parent"][live[0]] = dirs[-1]
    elif how == "file as a parent":
        t["parent"][live[-1]] = next(i for i in live[:-1] if i not in dirs)
    else:
        a, b = next((a, b) for a, b in zip(live, live[1:]) if t["parent"][a] == t["parent"][b])
        t["name"][b] = t["name"][a]
    return t


def malformed_tree_outcomes() -> dict:
    """The exception each malformed tree payload's restore raises, by name
    (None for a restore that succeeds)."""
    built, trace = build_workload("rw", 300, seed=1)
    fs = OrigamiFS(built.tree, trace, LunulePolicy(), SimConfig(n_mds=2, seed=0))
    fs.run()
    payload = Checkpointer().capture(fs).to_dict()
    outcomes = {}
    for how in MALFORMED_TREES:
        ck = SimCheckpoint.from_dict(dict(payload, tree=_malformed_tree(payload["tree"], how)))
        try:
            Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=2, seed=0))
            outcomes[how] = None
        except Exception as exc:
            outcomes[how] = type(exc).__name__
    return outcomes


def test_malformed_tree_payload_is_a_checkpoint_error():
    assert malformed_tree_outcomes() == dict.fromkeys(MALFORMED_TREES, "CheckpointError")


def test_malformed_tree_payload_is_a_checkpoint_error_under_python_O():
    # python -O strips assert statements: the checks must not be asserts
    code = (
        "import json; from tests.test_durability_checkpoint import "
        "malformed_tree_outcomes; print(json.dumps(malformed_tree_outcomes()))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    outcomes = json.loads(out.stdout.splitlines()[-1])
    assert outcomes == dict.fromkeys(MALFORMED_TREES, "CheckpointError")


@pytest.mark.parametrize("key, broken", [
    ("epochs", [{"epoch": 0}]),
    ("cache", {"hits": "many"}),
    ("latency", {"count": 3}),
    ("rng_streams", {"fs": {"bit_generator": "MT19937"}}),
])
def test_malformed_component_state_is_a_checkpoint_error(tmp_path, key, broken):
    path, trace = _saved_checkpoint(tmp_path)
    payload = SimCheckpoint.load(path).to_dict()
    ck = SimCheckpoint.from_dict(dict(payload, **{key: broken}))
    with pytest.raises(CheckpointError):
        Checkpointer().restore(ck, trace, LunulePolicy(), SimConfig(n_mds=2, seed=0))


def _bury_placeholder_name(tree) -> None:
    """Remove a fresh root entry and give a live sibling the name its dead
    ino is rebuilt under."""
    ino = tree.create_file(ROOT_INO, "x")
    tree.remove(ino)
    tree.create_file(ROOT_INO, f"__dead_{ino}")


def test_live_entry_named_like_a_dead_placeholder_round_trips(tmp_path):
    """``from_columns`` rebuilds dead inos under placeholder names; a live
    sibling may bear the obvious one, through the columns, a workload
    bundle and a checkpoint alike."""
    tree = NamespaceTree()
    _bury_placeholder_name(tree)
    assert tree.children(ROOT_INO) == {"__dead_1": 2}
    rebuilt = NamespaceTree.from_columns(**tree.columns())
    assert rebuilt.columns() == tree.columns()
    rebuilt.validate()
    path = str(tmp_path / "tree.npz")
    save_bundle(path, tree)
    loaded, _ = load_bundle(path)
    assert loaded.columns() == tree.columns()

    built, trace = build_workload("rw", 600, seed=7)
    _bury_placeholder_name(built.tree)
    cfg = dict(n_mds=3, seed=5)
    fs1 = OrigamiFS(built.tree, trace[:300], LunulePolicy(), SimConfig(**cfg))
    fs1.run()
    ck = Checkpointer().capture(fs1)
    ck.save(str(tmp_path / "run.ckpt"))
    fs2 = Checkpointer().restore(
        SimCheckpoint.load(str(tmp_path / "run.ckpt")), trace, LunulePolicy(), SimConfig(**cfg)
    )
    assert fs2.tree.columns() == fs1.tree.columns()


# ------------------------------------------------ CRC-valid bad values
def _rewrite(src: str, dst: str, edit) -> None:
    """Copy checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    payload and the CRC recomputed, as a writer with a bug would."""
    with open(src) as f:
        frame = json.load(f)
    edit(frame["checkpoint"])
    frame["crc"] = zlib.crc32(_canonical(frame["checkpoint"]))
    with open(dst, "w") as f:
        json.dump(frame, f)


SIM_ARGS = ["simulate", "Lunule", "rw", "--mds", "3", "--clients", "12", "--seed", "1"]

#: one bad value per field; each used to resume, or die with a traceback
BAD_VALUES = {
    "clock": lambda p: p.update(now_ms=-5.0),
    "counter": lambda p: p["counters"].update(ops_completed="many"),
    "cursor": lambda p: p.update(cursor=-3),
    "owner": lambda p: p["owners"].__setitem__(0, 7),  # the root, on 3 MDSs
    "fractional owner": lambda p: p["owners"].__setitem__(0, 1.5),  # read as 1
}


def bad_value_outcomes(tmp: str) -> dict:
    """Exit code and stderr lines of ``repro simulate --resume`` on a
    checkpoint with each bad value."""
    good = os.path.join(tmp, "run.ckpt")
    if main([*SIM_ARGS, "--ops", "1200", "--checkpoint", good]) != 0:  # not an assert: -O
        raise RuntimeError("the checkpointed run failed")
    outcomes = {}
    for field, edit in BAD_VALUES.items():
        bad = os.path.join(tmp, f"{field}.ckpt")
        _rewrite(good, bad, edit)
        err_path = os.path.join(tmp, f"{field}.err")
        with open(err_path, "w") as err:
            saved, sys.stderr = sys.stderr, err
            try:
                rc = main([*SIM_ARGS, "--ops", "2400", "--resume", bad])
            finally:
                sys.stderr = saved
        with open(err_path) as err:
            outcomes[field] = [rc, err.read().splitlines()]
    return outcomes


def _assert_each_cannot_resume(outcomes: dict) -> None:
    assert sorted(outcomes) == sorted(BAD_VALUES)
    for field, (rc, err) in outcomes.items():
        assert rc == 1, field
        assert len(err) == 1 and err[0].startswith("repro simulate: cannot resume: "), err


def test_crc_valid_bad_values_cannot_resume(tmp_path, capsys):
    _assert_each_cannot_resume(bad_value_outcomes(str(tmp_path)))


def test_crc_valid_bad_values_cannot_resume_under_python_O(tmp_path):
    # python -O strips assert statements: the checks must not be asserts
    code = (
        "import json, sys; from tests.test_durability_checkpoint import "
        "bad_value_outcomes; out = bad_value_outcomes(sys.argv[1]); "
        "print(json.dumps(out))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT / "src"), str(ROOT))))
    out = subprocess.run(
        [sys.executable, "-O", "-c", code, str(tmp_path)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    _assert_each_cannot_resume(json.loads(out.stdout.splitlines()[-1]))


#: any JSON value, NaN and the infinities included (``json`` writes them)
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=6), kids, max_size=4),
    max_leaves=10,
)


@pytest.fixture(scope="module")
def fuzz_base(tmp_path_factory):
    built, trace = build_workload("rw", 300, seed=1)
    fs = OrigamiFS(built.tree, trace[:150], LunulePolicy(), SimConfig(n_mds=2, seed=0))
    fs.run()
    path = str(tmp_path_factory.mktemp("fuzz") / "base.ckpt")
    Checkpointer().capture(fs).save(path)
    with open(path) as f:
        fields = sorted(json.load(f)["checkpoint"])
    return path, trace, fields


@settings(max_examples=80, deadline=None)
@given(data=st.data(), value=JSON)
def test_a_checkpoint_with_one_field_replaced_restores_or_is_refused(fuzz_base, data, value):
    """The whole-file fuzzer: one payload field (or one run counter)
    replaced by generated JSON under a recomputed CRC either restores, and
    the restored run finishes, or raises CheckpointError."""
    base, trace, fields = fuzz_base
    counters = [f"counters.{name}" for name in ("ops_completed", "last_completion_ms")]
    field = data.draw(st.sampled_from(fields + counters))

    def edit(payload):
        if field.startswith("counters."):
            payload["counters"][field.split(".", 1)[1]] = value
        else:
            payload[field] = value

    path = base + ".fuzzed"
    _rewrite(base, path, edit)
    try:
        fs = Checkpointer().restore(
            SimCheckpoint.load(path), trace, LunulePolicy(), SimConfig(n_mds=2, seed=0)
        )
    except CheckpointError:
        return
    fs.run()
