"""Deterministic, hierarchically-named random number streams.

Every stochastic component in the reproduction (trace generators, balancer
set-up, fault coin flips and backoff, ML initialisation) draws from its own
named child stream, derived from a root seed with
:class:`numpy.random.SeedSequence` spawning keyed by a stable string.  Two properties follow:

* runs are bit-reproducible given the root seed;
* adding or removing one component does not shift any other component's
  sequence (no shared global stream), which keeps A/B experiment comparisons
  honest.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Optional, Sequence

import numpy as np

__all__ = ["SeedSequenceFactory", "RngStream"]


def _stable_key(name: str) -> int:
    """Map a stream name to a stable 64-bit integer (independent of PYTHONHASHSEED)."""
    digest = hashlib.blake2b(name.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "little")


class RngStream:
    """A named wrapper around :class:`numpy.random.Generator`."""

    __slots__ = ("name", "generator")

    def __init__(self, name: str, generator: np.random.Generator):
        self.name = name
        self.generator = generator

    # Convenience passthroughs used across the codebase; anything exotic can
    # go straight to ``.generator``.
    def random(self, size=None):
        return self.generator.random(size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high=high, size=size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.generator.choice(a, size=size, replace=replace, p=p)

    def exponential(self, scale=1.0, size=None):
        return self.generator.exponential(scale, size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return self.generator.normal(loc, scale, size)

    def lognormal(self, mean=0.0, sigma=1.0, size=None):
        return self.generator.lognormal(mean, sigma, size)

    def permutation(self, x):
        return self.generator.permutation(x)

    def shuffle(self, x) -> None:
        self.generator.shuffle(x)

    def zipf_weights(self, n: int, alpha: float) -> np.ndarray:
        """Normalised Zipf(alpha) probabilities over ranks ``1..n`` (no draw)."""
        if n <= 0:
            raise ValueError("n must be positive")
        ranks = np.arange(1, n + 1, dtype=np.float64)
        w = ranks ** (-float(alpha))
        w /= w.sum()
        return w

    def __repr__(self) -> str:
        return f"RngStream({self.name!r})"


class SeedSequenceFactory:
    """Derives named, independent :class:`RngStream` children from a root seed."""

    def __init__(self, root_seed: int = 0):
        self.root_seed = int(root_seed)
        self._cache: Dict[str, RngStream] = {}

    def stream(self, name: str) -> RngStream:
        """Return the (cached) stream for ``name``."""
        got = self._cache.get(name)
        if got is None:
            seq = np.random.SeedSequence([self.root_seed, _stable_key(name)])
            got = RngStream(name, np.random.default_rng(seq))
            self._cache[name] = got
        return got

    def fresh(self, name: str) -> RngStream:
        """Return a *new* stream for ``name`` (restarts its sequence)."""
        self._cache.pop(name, None)
        return self.stream(name)

    def spawn(self, names: Sequence[str]) -> Dict[str, RngStream]:
        return {n: self.stream(n) for n in names}

    def state(self) -> Dict[str, dict]:
        """Bit-generator state of every stream handed out so far, by name."""
        return {name: s.generator.bit_generator.state for name, s in self._cache.items()}

    def restore(self, state: Dict[str, dict]) -> None:
        """Put each named stream in ``state`` back where :meth:`state` found it;
        a stream asked for later continues from there."""
        for name, bit_state in state.items():
            self.stream(name).generator.bit_generator.state = bit_state
