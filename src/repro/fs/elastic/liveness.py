"""The single per-MDS liveness view shared by faults and elasticity.

Crashes are *involuntary* departures; voluntary elasticity needs more
states: a provisioning MDS is **warming** (serving slowly, a valid
migration destination), a departing one is **draining** (still serving,
never a destination), and a parked or removed one is **gone** (not a pool
member at all).  :class:`MDSLiveness` folds both signals into one view:

* involuntary state (crashed / restarted) stays authoritative on
  ``MdsServer.up`` — the fault injector keeps flipping it;
* voluntary state (warming / draining / gone) lives in this class's state
  array — the elastic pool controller drives it.

Every :class:`~repro.fs.filesystem.OrigamiFS` owns one, and it is the only
source of ``EpochContext.mds_up``: the epoch driver passes
:meth:`serving_mask` when a fault injector or an elastic pool is attached,
and None on a healthy fixed pool.  With no elastic pool every member is
``UP`` and the mask is exactly the servers' crash flags.
"""

from __future__ import annotations

from typing import List

import numpy as np

__all__ = ["MDSLiveness", "UP", "WARMING", "DRAINING", "GONE", "STATE_NAMES"]

#: voluntary membership states (int8-encoded, ordered by "how alive")
UP = 0
WARMING = 1
DRAINING = 2
GONE = 3

STATE_NAMES = ("up", "warming", "draining", "gone")


class MDSLiveness:
    """Combined voluntary + involuntary per-MDS liveness over a server pool.

    The pool is sized at its *capacity* (``autoscale.max_mds`` when elastic,
    else ``n_mds``); the first ``n_active`` members start ``UP`` and the
    rest start ``GONE`` (parked, waiting to be provisioned).
    """

    def __init__(self, servers: List, n_active: int = None):
        n = len(servers)
        if n_active is None:
            n_active = n
        if not 0 < n_active <= n:
            raise ValueError(f"n_active must be in [1, {n}], got {n_active}")
        self.servers = servers
        self._state = np.full(n, GONE, dtype=np.int8)
        self._state[:n_active] = UP

    def __len__(self) -> int:
        return len(self.servers)

    # ------------------------------------------------------------- mutation
    def state(self, mds: int) -> int:
        return int(self._state[mds])

    def set_state(self, mds: int, state: int) -> None:
        if not UP <= state <= GONE:
            raise ValueError(f"unknown liveness state {state}")
        self._state[mds] = state

    # ---------------------------------------------------------------- views
    def states(self) -> np.ndarray:
        """Copy of the voluntary state array (int8)."""
        return self._state.copy()

    def up_array(self) -> np.ndarray:
        """Involuntary liveness only: the servers' crash flags."""
        return np.fromiter(
            (s.up for s in self.servers), dtype=bool, count=len(self.servers)
        )

    def serving_mask(self) -> np.ndarray:
        """Members currently able to serve requests: not crashed, not gone.

        Warming and draining MDSs serve (slowly / while evacuating); this is
        the mask ``EpochContext.mds_up`` carries.
        """
        return self.up_array() & (self._state != GONE)

    def dst_mask(self) -> np.ndarray:
        """Members eligible as migration *destinations*: up and not leaving.

        Draining MDSs are excluded — an export landing on a server mid-
        departure would immediately need re-evacuating.  Warming members
        are included: seeding a fresh MDS is exactly how scale-out works.
        """
        return self.up_array() & (self._state <= WARMING)

    def draining_mask(self) -> np.ndarray:
        return self._state == DRAINING

    def active_mask(self) -> np.ndarray:
        """Pool membership regardless of crash state (everything not GONE)."""
        return self._state != GONE

    def n_active(self) -> int:
        return int((self._state != GONE).sum())

    def can_receive(self, mds: int) -> bool:
        """May a migration land on ``mds`` right now? (Migrator's check.)"""
        return bool(self.servers[mds].up) and int(self._state[mds]) <= WARMING

    def __repr__(self) -> str:
        counts = {
            name: int((self._state == code).sum())
            for code, name in enumerate(STATE_NAMES)
            if int((self._state == code).sum())
        }
        return f"MDSLiveness({counts})"
