"""Skewed samplers shared by the trace generators.

Real metadata traces are Zipf-like over directories, and their hotspot set
*drifts* over time (the paper stresses "diverse and dynamic" workloads and
attributes Trace-WI's difficulty to "highly dynamic and skewed load").
:class:`DriftingZipf` models exactly that: Zipf ranks over a population, with
the rank→item assignment re-permuted (fully or partially) at segment
boundaries.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.sim.rng import RngStream

__all__ = ["DriftingZipf", "zipf_sample"]


def zipf_sample(rng: RngStream, items: Sequence[int], alpha: float, size: int) -> np.ndarray:
    """Draw ``size`` items Zipf(alpha)-skewed over ``items`` (rank = position)."""
    items = np.asarray(items)
    w = rng.zipf_weights(len(items), alpha)
    idx = rng.choice(len(items), size=size, p=w)
    return items[idx]


class DriftingZipf:
    """Zipf sampler whose hot set drifts across segments.

    ``drift`` in [0, 1]: fraction of the rank assignment re-shuffled at each
    :meth:`advance` — 0 keeps hotspots fixed, 1 re-draws them completely.
    """

    def __init__(self, rng: RngStream, items: Sequence[int], alpha: float, drift: float = 0.3):
        if not 0.0 <= drift <= 1.0:
            raise ValueError("drift must be in [0, 1]")
        if len(items) == 0:
            raise ValueError("need at least one item")
        self._rng = rng
        self._items = np.asarray(items).copy()
        self._rng.shuffle(self._items)
        # Generator.choice(n, size, p=w) normalizes cumsum(w) and searches
        # it with size uniforms on every call; the weights never change (only
        # the rank map drifts), so the CDF is built once and sample() draws
        # exactly what choice() would
        cumw = np.cumsum(rng.zipf_weights(len(self._items), alpha))
        self._cdf = cumw / cumw[-1]
        self.drift = drift
        self.segments_advanced = 0

    def hot_set(self, k: int) -> List[int]:
        return [int(x) for x in self._items[:k]]

    def sample(self, size: int) -> np.ndarray:
        uniforms = self._rng.random(size)
        return self._items[self._cdf.searchsorted(uniforms, side="right")]

    def advance(self) -> None:
        """Move to the next segment: re-shuffle ``drift`` of the rank map."""
        n = len(self._items)
        k = int(round(self.drift * n))
        if k >= 2:
            pos = self._rng.choice(n, size=k, replace=False)
            vals = self._items[pos]
            self._rng.shuffle(vals)
            self._items[pos] = vals
        self.segments_advanced += 1
