"""Client workers: the OrigamiFS SDK replaying the shared trace.

Each worker is a closed-loop client thread: fetch the next operation from
the shared cursor, resolve the path (consulting the near-root cache),
contact each involved MDS in path order, apply the namespace mutation, then
immediately fetch the next operation.  A ``RENAME`` pays its Eq. (2) cost
and moves nothing: tree entries never move (see
:mod:`repro.namespace.tree`).  Fifty workers against five MDSs is
the saturation setup of §5.2; one worker gives the single-thread latency
measurement of Fig. 5b.

The per-owner service times are the exact DES realisation of Eq. (2): each
contacted MDS reads its share of the path's inodes plus one fake inode, the
primary additionally pays ``T_exec`` and the op-specific extra.  With an
uncontended server the client-observed latency reproduces the analytic RCT
to float precision (asserted in tests/test_fs_parity.py).

Every run replays through the one loop in :meth:`ClientWorker.run`, built
for speed at a hundred thousand clients:

* **one frame per engine resume** — planning, the RPC legs and the
  :meth:`~repro.fs.server.MdsServer.service` hold of each leg are inlined,
  so the engine re-enters a single generator.  Only a mutation's extra
  holds on its primary (lease recall, cross-MDS coordination, WAL drain)
  and the data-path transfer delegate to their owners' generators;
* **compiled plans** — per ``(dir_ino, lsdir?)`` the RPC schedule is
  compiled into step tuples once per ``(pmap.dir_version, tree.version)``
  window and shared by every worker in ``fs._plan_cache``;
* **deferred counters** — completion totals nothing reads mid-run, and
  per-directory access counts (queued through
  :class:`~repro.namespace.stats.AccessStats`'s ``charge_read`` and
  ``charge_write``), are folded in later rather than per op.

Everything else is a branch on a value fixed for the run (see
:func:`run_state`): span tracing, fault gates with retry/backoff/failover,
crash and warm-up checks on each hold, lease recalls, kvstore reads,
durability drains and the data path.

When tracing is enabled each operation carries a
:class:`~repro.obs.tracing.Span` decomposing its latency into queue wait,
MDS service, and network time; recording is passive (no RNG draws, no
events), so traced runs replay bit-identically to untraced ones.

When a fault schedule is installed the client grows the robustness layer of
a real SDK: every RPC passes the injector's gate (timeouts, drops, refused
connections), a failed attempt is retried with bounded exponential backoff
and seeded jitter, and each retry re-plans the op from the *current*
partition map — so when the balancer evacuates a crashed MDS's subtrees the
client fails over to the new owner.  An op that exhausts its retry budget
surfaces a typed failure (``span.fault``); it is never silently lost.
"""

from __future__ import annotations

from typing import Generator, Optional

from repro.costmodel.optypes import (
    CATEGORY_LSDIR,
    CATEGORY_NSMUT,
    CATEGORY_TUPLE,
    OpType,
)
from repro.fs.cache import LeaseCache, NearRootCache
from repro.fs.faults.errors import FaultError
from repro.namespace.tree import _DIR

__all__ = ["ClientWorker", "run_state"]

# plain-int op tags: IntEnum→int conversion is measurable per-op
_MKDIR = int(OpType.MKDIR)
_RMDIR = int(OpType.RMDIR)
_RENAME = int(OpType.RENAME)
_CREATE = int(OpType.CREATE)
_UNLINK = int(OpType.UNLINK)


def run_state(fs) -> tuple:
    """Everything a client needs for one run, in the order ``run`` unpacks it.

    Built by :meth:`OrigamiFS.run` once the cluster is final — after any
    late-installed fault injector or method wrappers — so each of the
    ``n_clients`` generators starts with a single tuple unpack.
    """
    servers = fs.servers
    pmap = fs.pmap
    params = fs.params
    t_rpc = params.t_rpc
    faults = fs.faults
    tracer = fs.obs.tracer
    timeline = fs.obs.timeline
    return (
        fs.env,
        fs.tree,
        pmap,
        fs.cache,
        # lsdir fan-out legs, one per MDS: a bare RPC served in T_rpc
        tuple(
            (s, s.mds_id, s.resource, s.resource.release, t_rpc, False)
            for s in servers
        ),
        params.t_exec_table,
        params.rtt,
        fs._ops,
        fs._dir_inos,
        fs._aux,
        fs._op_names,
        fs._think,
        len(fs.trace),
        fs._plan_cache,
        fs.cache.__class__ is NearRootCache,
        fs.cache.__class__ is LeaseCache,
        fs.stats.charge_read,
        fs.stats.charge_write,
        # placement shortcuts: with the default colocated/subtree placements
        # the split partner of file ops (and mkdir) is the primary → None
        pmap.file_placement is None,
        pmap.placement is None,
        fs.latency.record,
        # the latency histogram's child, pre-resolved: the family-level
        # observe pays a label-key construction per call (the null
        # registry's labels() is a self-returning no-op, so this is safe
        # either way).  The loop's only registry call: the counters are
        # published from the servers' totals when the run ends
        fs.m_latency.labels().observe,
        timeline.record_op if timeline.enabled else None,
        tracer if tracer.enabled else None,
        faults,
        # slowdown, crash-restart and elastic warm-up factors on each hold
        faults is not None or fs.elastic is not None,
        fs.durability is not None,
        fs.use_kvstore,
        fs.datapath,
    )


class ClientWorker:
    """One closed-loop client thread."""

    def __init__(self, fs, worker_id: int):
        self.fs = fs
        self.worker_id = worker_id

    # ------------------------------------------------------------- planning
    def _plan(self, dir_ino: int, is_lsdir: bool) -> tuple:
        """Walk the path to ``dir_ino`` and compile its RPC plan.

        Returns ``(steps, pserver, primary, n_hits, n_misses)``.  ``steps``
        holds one leg per contacted MDS in path order — ``(server, mds,
        resource, release, svc, is_primary)`` — covering the uncached path
        components plus the target entry, with the ``T_inode``/``T_rpc``
        arithmetic folded into ``svc``; the primary's leg adds ``T_exec``
        per op, so its hold is ``(T_inode * (n + 1) + T_rpc) + T_exec``
        summed in that order.  The walk counts its cache hits and misses on
        the cache; ``n_hits``/``n_misses`` let a reuse replay them.

        Plans against a steady-state near-root cache are pure functions of
        ``(dir_ino, lsdir?)`` — coverage is structural (depth threshold),
        ``grant()`` is a no-op, and ownership/structure churn is captured by
        ``(pmap.dir_version, tree.version)`` — so :meth:`run` memoises them.
        Lease caches (grants and TTLs are stateful) and crash-voided windows
        (coverage is time-dependent) re-plan every time.
        """
        fs = self.fs
        tree = fs.tree
        cache = fs.cache
        now = fs.env._now
        owner_arr = fs.pmap.owner_array()
        primary = int(owner_arr[dir_ino])

        # reads per MDS, in first-contact order
        reads = {}
        n_hits = 0
        n_misses = 0
        for d in tree.resolve(dir_ino)[1:]:  # non-root chain dirs, root-first
            if cache.covers(d, now):
                n_hits += 1
                continue
            n_misses += 1
            cache.grant(d, now)  # fetched below; lease caches remember it
            o = int(owner_arr[d])
            reads[o] = reads.get(o, 0) + 1
        if not is_lsdir and not fs.cache_covers_depth(tree.depth(dir_ino) + 1):
            # the target entry itself (depth = dir depth + 1)
            reads[primary] = reads.get(primary, 0) + 1
        if primary not in reads:
            reads[primary] = 0

        params = fs.params
        t_inode = params.t_inode
        t_rpc = params.t_rpc
        steps = []
        for mds, n_reads in reads.items():
            s = fs.servers[mds]
            res = s.resource
            # +1 fake/anchor inode read, plus the RPC handling cost itself
            steps.append(
                (s, mds, res, res.release,
                 t_inode * (n_reads + 1) + t_rpc, mds == primary)
            )
        return (tuple(steps), fs.servers[primary], primary, n_hits, n_misses)

    # ------------------------------------------------------------ mutations
    def _vanished(self, span) -> None:
        """Count an op whose target directory died under a concurrent
        mutation (a cheap failed lookup)."""
        fs = self.fs
        fs.failed_ops += 1
        fs.vanished_ops += 1
        if span is not None:
            span.failed = True
            span.fault = "vanished"

    def _split_partner(self, op: int, dir_ino: int, name: str, aux: int) -> Optional[int]:
        """The other MDS of a split namespace mutation, if any (Eq. 2 ns-m)."""
        fs = self.fs
        owner_arr = fs.pmap.owner_array()
        primary = int(owner_arr[dir_ino])
        if op == _MKDIR:
            o = fs.pmap.new_dir_owner(dir_ino, name)
            return o if o != primary else None
        if (op == _RMDIR or op == _RENAME) and aux >= 0:
            if fs.tree.is_alive(aux) and owner_arr[aux] >= 0:
                o = int(owner_arr[aux])
                return o if o != primary else None
        if op == _CREATE or op == _UNLINK or (op == _RENAME and aux < 0):
            o = fs.pmap.file_owner(dir_ino, name)
            return o if o != primary else None
        return None

    def _apply_mutation(self, op: int, dir_ino: int, name: str, aux: int, span=None) -> None:
        """Materialise the namespace mutation (best effort under races)."""
        fs = self.fs
        tree = fs.tree
        try:
            if op == _CREATE:
                tree.create_file(dir_ino, name)
                if fs.use_kvstore:
                    fs.servers[fs.pmap.owner(dir_ino)].kv_put(
                        b"%020d/%s" % (dir_ino, name.encode()), b"inode", span
                    )
            elif op == _UNLINK:
                kids = tree.children(dir_ino)
                ino = kids.get(name)
                if ino is not None and not tree.is_dir(ino):
                    tree.remove(ino)
                    if fs.use_kvstore:
                        fs.servers[fs.pmap.owner(dir_ino)].kv_delete(
                            b"%020d/%s" % (dir_ino, name.encode()), span
                        )
            elif op == _MKDIR:
                tree.create_dir(dir_ino, name)
            elif op == _RMDIR:
                if aux >= 0 and tree.is_alive(aux) and tree.is_dir(aux):
                    if not tree.children(aux):
                        tree.remove(aux)
            # RENAME: cost only, tree entries never move
        except (FileExistsError, OSError, KeyError, NotADirectoryError, ValueError):
            # concurrent replay can race mutations; semantics stay best-effort
            fs.failed_ops += 1

    # ----------------------------------------------------------------- loop
    def run(self) -> Generator:
        """Closed-loop replay until the shared trace is exhausted.

        Every issued op is accounted exactly once: it completes
        (``fs.ops_completed``), vanishes under a concurrent mutation
        (``fs.vanished_ops``), or fails typed after exhausting its fault
        retries (``fs.fault_failed_ops``) — the zero-lost-ops invariant the
        property suite asserts.  Completions, RPCs and the last completion
        time are totalled locally and flushed when this client drains:
        nothing reads them mid-run (the windowed timeline reads per-server
        and cache counters, the epoch driver reads ``fs.cursor``), and the
        run ends only when every client has drained.  The last client to
        drain ends it: it stops the processes in ``fs.background`` (the
        epoch driver and the fault timeline), so the clock stops at its
        last completion.
        """
        fs = self.fs
        (
            env,
            tree,
            pmap,
            cache,
            fanout,
            t_exec_table,
            rtt,
            ops,
            dir_inos,
            auxs,
            names,
            thinks,
            n_ops,
            plan_cache,
            memo,
            leases,
            charge_read,
            charge_write,
            colocated_files,
            subtree_dirs,
            latency_record,
            m_latency_observe,
            timeline_record,
            tracer,
            inj,
            guarded,
            durable,
            kvstore,
            datapath,
        ) = fs._client_shared
        my_ops = 0
        last_now = 0.0

        while True:
            i = fs.cursor
            if i >= n_ops:
                fs.replay_done = True
                break
            fs.cursor = i + 1
            op = ops[i]
            dir_ino = dir_inos[i]
            if thinks is not None and thinks[i] > 0.0:
                # offered-load shaping: the client idles before issuing, so
                # think time is *not* part of the op's measured latency
                yield thinks[i]
            if tracer is None:
                span = None
            else:
                span = tracer.start(
                    i, op, self.worker_id, dir_ino,
                    tree.depth(dir_ino) if tree.is_alive(dir_ino) else -1,
                    env._now,
                )
            # arrays re-fetched per op because growth reallocates them
            # (slack beyond the live extent is zeroed = dead file)
            if not (tree._alive[dir_ino] and tree._ftype[dir_ino] == _DIR):
                self._vanished(span)
                latency = 0.0
            else:
                start = env._now
                cat = CATEGORY_TUPLE[op]
                is_lsdir = cat == CATEGORY_LSDIR
                t_exec = t_exec_table[op]
                completed = True
                attempt = 1
                while True:  # one pass per attempt; faults retry
                    if inj is not None:
                        attempt_primary = int(pmap.owner_array()[dir_ino])
                    try:
                        if memo and env._now >= cache.invalid_until:
                            key = (dir_ino << 1) | is_lsdir
                            if pmap.dir_version != fs._plan_dv or tree.version != fs._plan_tv:
                                plan_cache.clear()
                                fs._plan_dv = pmap.dir_version
                                fs._plan_tv = tree.version
                                entry = None
                            else:
                                entry = plan_cache.get(key)
                            if entry is None:
                                entry = plan_cache[key] = self._plan(dir_ino, is_lsdir)
                            else:
                                cache.hits += entry[3]
                                cache.misses += entry[4]
                        else:
                            entry = self._plan(dir_ino, is_lsdir)
                        steps, pserver, primary, n_hits, n_misses = entry
                        if span is not None:
                            span.cache_hits += n_hits
                            span.cache_misses += n_misses
                            span.primary = primary
                        pserver.total_requests += 1

                        legs = steps
                        while True:
                            for server, mds, resource, release, svc, isp in legs:
                                if inj is not None:
                                    hit = inj.rpc_gate(mds, span)
                                    if hit is not None:
                                        yield hit[0]
                                        if hit[1] is not None:
                                            raise hit[1]
                                server.total_rpcs += 1
                                # network round trip to this MDS
                                if span is not None:
                                    span.net_ms += rtt
                                    span.rpcs += 1
                                    span.mds_visited.append(mds)
                                yield rtt
                                # the MdsServer.service hold, inlined
                                if isp:
                                    svc += t_exec
                                if guarded:
                                    svc = server.admit(svc)
                                if span is None:
                                    yield resource
                                else:
                                    queued_at = env._now
                                    yield resource
                                    span.queue_ms += env._now - queued_at
                                try:
                                    if inj is not None:
                                        incarnation = server.granted()
                                    if svc > 0:
                                        yield svc
                                    if inj is not None:
                                        server.survived(incarnation, svc, span)
                                    if span is not None:
                                        span.service_ms += svc
                                    server.epoch_busy_ms += svc
                                    server.total_busy_ms += svc
                                finally:
                                    release()
                            if legs is not steps or not is_lsdir:
                                break
                            # lsdir then asks every other MDS holding children;
                            # looked up only now (under F-Hash, file creates and
                            # unlinks change the set without moving the plan
                            # stamp).  No comprehension: it would make ``fanout``
                            # a cell, one more GC-tracked object per client
                            legs = map(fanout.__getitem__, sorted(pmap.lsdir_owners(dir_ino)))

                        if is_lsdir:
                            charge_read(dir_ino)
                        elif cat == CATEGORY_NSMUT:
                            name = names[i] if names is not None else ""
                            aux = auxs[i]
                            if leases:
                                # mutating a leased directory recalls the lease
                                recall = cache.recall_if_leased(dir_ino, env._now)
                                if recall > 0:
                                    if span is not None:
                                        span.migration_recalls += 1
                                    yield from pserver.service(recall, span)
                            if op == _CREATE or op == _UNLINK or (op == _RENAME and aux < 0):
                                partner = (
                                    None if colocated_files
                                    else self._split_partner(op, dir_ino, name, aux)
                                )
                            elif op == _MKDIR and subtree_dirs:
                                partner = None
                            else:
                                partner = self._split_partner(op, dir_ino, name, aux)
                            if partner is not None:
                                fs.servers[partner].count_rpc()
                                if span is not None:
                                    span.rpcs += 1
                                # the coordination RTT is already inside T_coor
                                yield from pserver.service(fs.params.t_coor, span)
                            self._apply_mutation(op, dir_ino, name, aux, span)
                            if durable:
                                # the mutation's WAL append (and any group commit
                                # it forced) is served by the primary
                                dcost = pserver.take_durability_cost()
                                if dcost > 0:
                                    if span is not None:
                                        span.wal_ms += dcost
                                    yield from pserver.service(dcost, span)
                            charge_write(dir_ino)
                        else:
                            if kvstore:
                                name = names[i] if names is not None else ""
                                pserver.kv_get(b"%020d/%s" % (dir_ino, name.encode()), span)
                            charge_read(dir_ino)
                    except FaultError as fault:
                        # a faulted attempt: fail typed once the budget is
                        # spent, else back off and re-plan against the
                        # current map
                        if attempt >= inj.retry.max_attempts:
                            inj.count_op_failed(fault)
                            fs.fault_failed_ops += 1
                            if span is not None:
                                span.failed = True
                                span.fault = fault.reason
                            completed = False
                            break
                        inj.retries += 1
                        wait = inj.backoff_ms(attempt)
                        if span is not None:
                            span.retries += 1
                            span.fault_wait_ms += wait
                    else:
                        if attempt > 1:
                            inj.ops_recovered += 1
                        break
                    yield wait
                    attempt += 1
                    # the backoff may span epoch boundaries: the balancer can
                    # have evacuated the failed MDS's subtrees meanwhile, and a
                    # concurrent mutation can have removed the directory
                    if not (tree._alive[dir_ino] and tree._ftype[dir_ino] == _DIR):
                        self._vanished(span)
                        completed = False
                        break
                    if int(pmap.owner_array()[dir_ino]) != attempt_primary:
                        inj.failovers += 1
                        if span is not None:
                            span.failovers += 1
                if completed:
                    my_ops += 1
                last_now = env._now
                latency = last_now - start
            if span is not None:
                tracer.finish(span, env._now)
            latency_record(latency)
            m_latency_observe(latency)
            if timeline_record is not None:
                timeline_record(latency)
            if datapath is not None and op in fs.DATA_OPS:
                yield from datapath.transfer(fs, dir_ino)

        fs.ops_completed += my_ops
        if last_now > fs.last_completion_ms:
            fs.last_completion_ms = last_now
        fs.clients_running -= 1
        if not fs.clients_running:
            # the run ends here, at its last completion
            for proc in fs.background:
                if proc.is_alive:
                    proc.stop()
