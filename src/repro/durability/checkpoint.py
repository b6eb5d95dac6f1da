"""Simulation checkpointing: snapshot a quiescent run, warm-restart it later.

A :class:`SimCheckpoint` frames the state each component of a run hands
out itself, enough to continue replaying a trace from where a previous
segment stopped:

* the **namespace tree** as its five per-ino columns
  (:meth:`~repro.namespace.tree.NamespaceTree.columns`), rebuilt by
  :meth:`~repro.namespace.tree.NamespaceTree.from_columns` with the
  captured ino numbering (replay-order reconstruction would not guarantee
  it) — the one rebuild workload bundles use too;
* the **partition map** (dense owner array, restored via ``assign_bulk``);
* every **RNG stream** the run has handed out
  (``OrigamiFS.rng_streams.state()``, the fault injector's drop/backoff
  streams among them) and the latency recorder's reservoir RNG, so a
  resumed run draws the same random sequence an uninterrupted run would;
* the **virtual clock** (restored with :meth:`Environment.warp` onto the
  empty calendar of a freshly built cluster) and the run counters
  (cursor, completed/failed ops, RPCs, per-epoch metrics, the latency
  recorder's and the client cache's own ``state()``).

Per-MDS store contents come back one of two ways:

* **durable runs** (``SimConfig.data_dir``): the stores' own WAL + MANIFEST
  + SSTables on disk are the authoritative copy; restore simply reopens
  them through the normal crash-recovery path and skips the in-memory
  population pass entirely;
* **in-memory runs**: store contents are regenerated from the restored
  tree under the restored owner array — semantically identical to the
  captured stores (the live key set is exactly the tree's entries).

What a checkpoint deliberately does **not** carry (documented per-segment
state): balancer access statistics (the Data Collector re-learns within an
epoch), the balancer policy's own state, MDS busy/queue counters, fault
injector totals, and migration log entries.  A resumed run remains a valid
continuation; it reports those per segment.

Capture requires a *quiescent point*: the DES calendar must be empty, which
is exactly the state :meth:`OrigamiFS.run` leaves behind.  Capturing a live
cluster mid-event raises :class:`CheckpointError`.

Checkpoints written before the five-column layout carry the tree's
internal arrays and counters (seven more keys, all derived, so ignored) and
the fault streams in a ``fault_rng`` block, which :meth:`SimCheckpoint.from_dict`
folds into ``rng_streams``.
"""

from __future__ import annotations

import json
import math
import zlib
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.durability.atomic import write_atomic
from repro.durability.errors import CheckpointError
from repro.namespace.tree import NamespaceTree

__all__ = ["SimCheckpoint", "Checkpointer", "CHECKPOINT_SCHEMA_VERSION"]

#: bump when the checkpoint payload changes incompatibly
CHECKPOINT_SCHEMA_VERSION = 1

#: OrigamiFS counters snapshotted/restored verbatim
_COUNTER_FIELDS = (
    "ops_completed",
    "failed_ops",
    "vanished_ops",
    "fault_failed_ops",
    "total_rpcs",
    "stale_decisions",
    "data_ops_completed",
    "last_completion_ms",
)


def _canonical(obj: Any) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _count(value: Any, what: str, least: int = 0) -> int:
    """``value`` as a count: a JSON integer >= ``least``, not a bool."""
    if value.__class__ is not int or value < least:
        raise CheckpointError(f"{what} must be an integer >= {least}, not {value!r}")
    return value


def _typed(payload: Dict[str, Any], key: str, classes: tuple, expected: str) -> Any:
    """``payload[key]`` itself if it is one of the JSON ``classes``, never a
    coercion of it."""
    value = payload[key]
    if value.__class__ not in classes:
        raise CheckpointError(f"{key} must be {expected}, not {value!r}")
    return value


def _clock(value: Any, what: str) -> float:
    """``value`` as a virtual time: a finite JSON number >= 0, not a bool."""
    if value.__class__ not in (int, float) or not 0.0 <= value < math.inf:
        raise CheckpointError(f"{what} must be a finite time >= 0 ms, not {value!r}")
    return float(value)


# --------------------------------------------------------------- checkpoint
@dataclass
class SimCheckpoint:
    """A quiescent-point snapshot of an :class:`OrigamiFS` run."""

    strategy: str
    seed: int
    n_mds: int
    use_kvstore: bool
    durable: bool
    data_dir: Optional[str]
    now_ms: float
    cursor: int
    counters: Dict[str, Any]
    owners: List[int]
    tree: Dict[str, Any]
    rng_streams: Dict[str, Any]
    latency: Dict[str, Any]
    cache: Dict[str, Any]
    epochs: List[Dict[str, Any]] = field(default_factory=list)

    # ------------------------------------------------------- serialisation
    def to_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SimCheckpoint":
        try:
            rng_streams = dict(payload["rng_streams"])
            # the layout in which the fault injector kept its streams apart
            rng_streams.update(
                (f"fault-{key}", state) for key, state in payload.get("fault_rng", {}).items()
            )
            counters = dict(payload["counters"])
            for name in _COUNTER_FIELDS:
                if name in counters:
                    check = _clock if name == "last_completion_ms" else _count
                    counters[name] = check(counters[name], f"counter {name}")
            # whether each directory's owner is an MDS of the pool is the
            # partition map's check (apply_partition)
            owners = list(payload["owners"])
            if any(o.__class__ is not int for o in owners):
                raise CheckpointError("every owner must be an integer")
            # earlier payloads also list the run's created file inos
            # (``created_files``), which nothing reads
            return cls(
                strategy=_typed(payload, "strategy", (str,), "a string"),
                seed=_count(payload["seed"], "seed"),
                n_mds=_count(payload["n_mds"], "n_mds", least=1),
                use_kvstore=_typed(payload, "use_kvstore", (bool,), "true or false"),
                durable=_typed(payload, "durable", (bool,), "true or false"),
                data_dir=_typed(payload, "data_dir", (str, type(None)), "null or a string"),
                now_ms=_clock(payload["now_ms"], "now_ms"),
                cursor=_count(payload["cursor"], "cursor"),
                counters=counters,
                owners=owners,
                tree=payload["tree"],
                rng_streams=rng_streams,
                latency=dict(payload["latency"]),
                cache=dict(payload["cache"]),
                epochs=list(payload["epochs"]),
            )
        except (KeyError, TypeError, ValueError, AttributeError, OverflowError) as exc:
            raise CheckpointError(f"malformed checkpoint payload: {exc}") from None

    def save(self, path: str) -> None:
        """Atomically write the checkpoint as CRC-framed JSON."""
        payload = self.to_dict()
        frame = {
            "v": CHECKPOINT_SCHEMA_VERSION,
            "crc": zlib.crc32(_canonical(payload)),
            "checkpoint": payload,
        }
        write_atomic(path, json.dumps(frame).encode("utf-8"))

    @classmethod
    def load(cls, path: str) -> "SimCheckpoint":
        try:
            with open(path) as f:
                frame = json.load(f)
        except OSError as exc:
            raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(f"checkpoint {path} is not valid JSON: {exc}") from None
        if not isinstance(frame, dict) or "checkpoint" not in frame:
            raise CheckpointError(f"checkpoint {path} has no payload")
        version = frame.get("v")
        if version != CHECKPOINT_SCHEMA_VERSION:
            raise CheckpointError(
                f"checkpoint {path} has schema v{version}, "
                f"expected v{CHECKPOINT_SCHEMA_VERSION}"
            )
        payload = frame["checkpoint"]
        if zlib.crc32(_canonical(payload)) != frame.get("crc"):
            raise CheckpointError(f"checkpoint {path} failed its CRC check")
        return cls.from_dict(payload)

    # ---------------------------------------------- hooks used by OrigamiFS
    # These run inside OrigamiFS.__init__ via the ``restore_from`` kwarg so
    # ordering constraints (owners before store population, streams and
    # clock before the fault injector takes its streams and schedules its
    # timeline) hold by construction.
    def apply_partition(self, fs) -> None:
        """Overwrite the freshly built partition map with the captured one."""
        try:
            # refuses an owner list not of the tree's capacity, and a
            # directory owned by no MDS of the pool
            fs.pmap.assign_bulk(np.asarray(self.owners, dtype=np.int64))
        except (ValueError, OverflowError) as exc:
            raise CheckpointError(f"cannot restore the partition map: {exc}") from None

    def apply_runtime(self, fs) -> None:
        """Restore counters, RNG streams, latency/cache state, and the clock."""
        from repro.fs.metrics import EpochMetrics

        fs.cursor = self.cursor
        fs.replay_done = fs.cursor >= len(fs.trace)
        for name in _COUNTER_FIELDS:
            if name in self.counters:
                setattr(fs, name, self.counters[name])
        try:
            fs.epochs = [
                EpochMetrics(
                    epoch=int(e["epoch"]),
                    duration_ms=float(e["duration_ms"]),
                    busy_ms=np.asarray(e["busy_ms"], dtype=np.float64),
                    qps=np.asarray(e["qps"], dtype=np.float64),
                    rpcs=np.asarray(e["rpcs"], dtype=np.float64),
                    inodes=np.asarray(e["inodes"], dtype=np.float64),
                    migrations=int(e.get("migrations", 0)),
                )
                for e in self.epochs
            ]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise CheckpointError(f"malformed epoch metrics: {exc}") from None
        for what, component, state in (
            ("RNG streams", fs.rng_streams, self.rng_streams),
            ("latency recorder", fs.latency, self.latency),
            ("client cache", fs.cache, self.cache),
        ):
            try:
                component.restore(state)
            except (KeyError, TypeError, ValueError, AttributeError) as exc:
                raise CheckpointError(f"cannot restore the {what}: {exc}") from None
        fs.env.warp(self.now_ms)


# -------------------------------------------------------------- checkpointer
class Checkpointer:
    """Capture a quiescent :class:`OrigamiFS` and warm-restart it later.

    The segmented-run protocol::

        fs1 = OrigamiFS(tree, trace[:n], policy, config)
        fs1.run()                                   # calendar drains
        ckpt = Checkpointer().capture(fs1)
        ckpt.save("run.ckpt")

        ckpt = SimCheckpoint.load("run.ckpt")
        fs2 = Checkpointer().restore(ckpt, trace, policy, config)
        result = fs2.run()                          # replays trace[n:]

    ``restore`` rebuilds the namespace tree from the checkpoint (callers do
    not pass one), so the trace argument must be the *full* trace the
    captured run was a prefix of.
    """

    def capture(self, fs) -> SimCheckpoint:
        env = fs.env
        if env.queue_len != 0:
            raise CheckpointError(
                f"checkpoint requires a quiescent simulation "
                f"({env.queue_len} events still on the calendar)"
            )
        if fs.config.data_dir is not None:
            # make the on-disk copy current: a mid-life capture may hold
            # unsynced WAL appends (run() already closed the stores, in
            # which case there is nothing to do)
            for s in fs.servers:
                backend = s.store.backend if s.store is not None else None
                if backend is not None and not backend.closed:
                    s.store.sync()

        return SimCheckpoint(
            strategy=fs.policy.name,
            seed=fs.config.seed,
            n_mds=fs.config.n_mds,
            use_kvstore=fs.use_kvstore,
            durable=fs.config.data_dir is not None,
            data_dir=fs.config.data_dir,
            now_ms=env.now,
            cursor=fs.cursor,
            counters={name: getattr(fs, name) for name in _COUNTER_FIELDS},
            owners=[int(o) for o in fs.pmap.owner_array()],
            tree=fs.tree.columns(),
            rng_streams=fs.rng_streams.state(),
            latency=fs.latency.state(),
            cache=fs.cache.state(),
            epochs=[e.to_dict() for e in fs.epochs],
        )

    def restore(self, checkpoint: SimCheckpoint, trace, policy, config=None):
        """Build a warm OrigamiFS continuing the captured run over ``trace``."""
        from repro.fs.filesystem import OrigamiFS, SimConfig

        if config is None:
            config = SimConfig(
                n_mds=checkpoint.n_mds,
                seed=checkpoint.seed,
                use_kvstore=checkpoint.use_kvstore,
                data_dir=checkpoint.data_dir,
            )
        if policy.name != checkpoint.strategy:
            raise CheckpointError(
                f"checkpoint was captured under strategy {checkpoint.strategy!r}, "
                f"cannot resume under {policy.name!r}"
            )
        if config.seed != checkpoint.seed:
            raise CheckpointError(
                f"checkpoint seed {checkpoint.seed} != config seed {config.seed}: "
                f"restored RNG streams would not mean what they meant"
            )
        if config.n_mds != checkpoint.n_mds:
            raise CheckpointError(
                f"checkpoint has {checkpoint.n_mds} MDSs, config has {config.n_mds}"
            )
        if checkpoint.durable and config.data_dir is None:
            raise CheckpointError(
                "checkpoint references durable stores; set SimConfig.data_dir "
                "to the captured data directory"
            )
        if not checkpoint.durable and config.data_dir is not None:
            raise CheckpointError(
                "checkpoint captured in-memory stores; unset SimConfig.data_dir"
            )
        if len(trace) < checkpoint.cursor:
            raise CheckpointError(
                f"trace has {len(trace)} ops but the checkpoint already "
                f"replayed {checkpoint.cursor}: pass the full original trace"
            )
        columns = checkpoint.tree
        try:
            tree = NamespaceTree.from_columns(
                columns["parent"], columns["name"], columns["ftype"],
                columns["alive"], columns["size"],
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(f"malformed tree state: {exc}") from None
        return OrigamiFS(tree, trace, policy, config, restore_from=checkpoint)
