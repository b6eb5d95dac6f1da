"""Meta-OPT (Algorithm 1): near-optimal migration search with known future.

Given a request sequence ``N``, the current MDS assignment, and the imbalance
guard ``Δ``, repeatedly pick the subtree migration with the largest JCT
benefit until no candidate improves JCT by at least ``stop_threshold``.

The inner ``JCT(N, M.migrate(s, i, k))`` evaluations (lines 6–8) run through
the :class:`~repro.costmodel.SubtreeLedger`, making each what-if O(#MDS)
instead of O(|N|); tests verify the ledger equals full re-evaluation, so this
is an exact implementation of the algorithm, only faster.

``exhaustive_opt`` searches migration *sequences* outright (exponential; for
tiny instances) and anchors the Theorem 1 empirical gap checks.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.migration import MigrationDecision
from repro.cluster.partition import PartitionMap
from repro.costmodel.evaluate import evaluate_trace
from repro.costmodel.ledger import SubtreeLedger
from repro.costmodel.params import CostParams
from repro.namespace.tree import NamespaceTree
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # type-only: avoids a package-import cycle with repro.workloads
    from repro.workloads.trace import Trace

__all__ = ["meta_opt", "exhaustive_opt", "MetaOptResult"]


@dataclass
class MetaOptResult:
    """Outcome of a Meta-OPT run."""

    decisions: List[MigrationDecision]
    #: partition after applying all decisions (input pmap is left untouched)
    final_partition: PartitionMap
    jct_before: float
    jct_after: float
    #: JCT after each applied decision (length == len(decisions))
    jct_history: List[float] = field(default_factory=list)
    #: admissible (valid & improving & Δ-safe) candidate moves evaluated per
    #: greedy iteration — the search's decision-audit trail; the final entry
    #: is the iteration that found nothing and stopped
    candidates_considered: List[int] = field(default_factory=list)

    @property
    def improvement(self) -> float:
        """Fractional JCT reduction."""
        if self.jct_before == 0:
            return 0.0
        return 1.0 - self.jct_after / self.jct_before


def meta_opt(
    trace: "Trace",
    tree: NamespaceTree,
    pmap: PartitionMap,
    params: CostParams,
    delta: float,
    stop_threshold: float = 0.0,
    max_migrations: Optional[int] = None,
    eligible: Optional[np.ndarray] = None,
) -> MetaOptResult:
    """Run Algorithm 1 and return the migration decision list.

    ``delta`` — the imbalance guard Δ: a move is admissible only if, after
    it, ``dst.rct - src.rct < Δ`` (line 9).  ``stop_threshold`` — stop when
    the best benefit drops to or below this (line 16); the paper leaves the
    threshold free, 0 means "any strict improvement".  ``eligible`` — per-MDS
    mask of the servers a move may leave or land on (None: all of them).
    """
    if delta <= 0:
        raise ValueError("delta must be positive (it bounds post-move imbalance)")
    work = pmap.copy()
    base = evaluate_trace(trace, tree, work, params)
    result = MetaOptResult(
        decisions=[], final_partition=work, jct_before=base.jct, jct_after=base.jct
    )
    if len(trace) == 0:
        return result

    while max_migrations is None or len(result.decisions) < max_migrations:
        ledger = SubtreeLedger(trace, tree, work, params)
        best: Optional[Tuple[float, int, int, int]] = None  # (benefit, s, src, dst)
        n_admissible = 0
        for dst in range(work.n_mds):
            if eligible is not None and not eligible[dst]:
                continue
            ev = ledger.evaluate_dst(dst)
            mask = ev.valid & (ev.benefit > stop_threshold) & (ev.dst_minus_src < delta)
            if eligible is not None:
                mask &= eligible[ledger.cand_owner]
            n_admissible += int(mask.sum())
            if not mask.any():
                continue
            idx = np.nonzero(mask)[0]
            j = idx[np.argmax(ev.benefit[idx])]
            cand_benefit = float(ev.benefit[j])
            if best is None or cand_benefit > best[0]:
                best = (
                    cand_benefit,
                    int(ev.candidates[j]),
                    int(ledger.cand_owner[j]),
                    dst,
                )
        result.candidates_considered.append(n_admissible)
        if best is None:
            break
        benefit, s, src, dst = best
        work.migrate_subtree(s, dst)
        result.decisions.append(
            MigrationDecision(subtree_root=s, src=src, dst=dst, predicted_benefit=benefit)
        )
        result.jct_after = ledger.base.jct - benefit
        result.jct_history.append(result.jct_after)

    # recompute exactly (guards against accumulated drift in long runs)
    result.jct_after = evaluate_trace(trace, tree, work, params).jct
    return result


def exhaustive_opt(
    trace: "Trace",
    tree: NamespaceTree,
    pmap: PartitionMap,
    params: CostParams,
    delta: float,
    max_depth: int = 3,
    candidate_limit: int = 12,
) -> MetaOptResult:
    """Brute-force the best migration *sequence* up to ``max_depth`` moves.

    Exponential — ``O((candidates × MDS)^depth)``; refuses instances with
    more than ``candidate_limit`` candidates.  Used to measure Meta-OPT's
    optimality gap (Theorem 1) on small worlds.
    """
    base = evaluate_trace(trace, tree, pmap, params)

    def candidates_of(pm: PartitionMap) -> List[int]:
        uniform = pm.uniform_subtree_mask()
        uniform[0] = False
        out = np.nonzero(uniform)[0].tolist()
        if len(out) > candidate_limit:
            raise ValueError(
                f"{len(out)} candidates exceed exhaustive limit {candidate_limit}"
            )
        return out

    best_decisions: List[MigrationDecision] = []
    best_jct = base.jct
    best_pmap = pmap.copy()

    def recurse(pm: PartitionMap, decisions: List[MigrationDecision], depth: int) -> None:
        nonlocal best_decisions, best_jct, best_pmap
        load = evaluate_trace(trace, tree, pm, params)
        if load.jct < best_jct - 1e-12:
            best_jct = load.jct
            best_decisions = list(decisions)
            best_pmap = pm.copy()
        if depth >= max_depth:
            return
        for s in candidates_of(pm):
            src = pm.owner(s)
            for dst in range(pm.n_mds):
                if dst == src:
                    continue
                nxt = pm.copy()
                nxt.migrate_subtree(s, dst)
                after = evaluate_trace(trace, tree, nxt, params)
                if after.jct >= load.jct:  # line 9: require strict improvement
                    continue
                if after.rct_per_mds[dst] - after.rct_per_mds[src] >= delta:
                    continue
                decisions.append(MigrationDecision(s, src, dst))
                recurse(nxt, decisions, depth + 1)
                decisions.pop()

    recurse(pmap.copy(), [], 0)
    return MetaOptResult(
        decisions=best_decisions,
        final_partition=best_pmap,
        jct_before=base.jct,
        jct_after=best_jct,
        jct_history=[best_jct] if best_decisions else [],
    )
