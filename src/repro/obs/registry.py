"""Label-aware metrics registry with a near-zero-cost disabled path.

The design mirrors the Prometheus client model at 1% of its surface:
a registry owns named metric *families*; a family resolves a label set to a
*child* holding the actual value.  Instruments are plain Python objects —
a writer grabs a child once (``LATENCY.labels()``) and calls ``observe`` /
``inc`` on it, so per-event cost is one method call.  A series whose total
a component keeps is published once, by
:meth:`repro.obs.Observability.finalize`, so the client loop's one registry
call per op is a histogram observe.

When observability is off, components hold the shared :data:`NULL_REGISTRY`
whose families and children are no-op singletons; the disabled hot path is
one attribute load plus an empty call, keeping DES overhead within noise
(asserted by the parity/overhead tests).
"""

from __future__ import annotations

import json
from bisect import bisect_right
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "DEFAULT_BUCKETS",
]

#: default histogram buckets (ms scale — matches the cost model's units)
DEFAULT_BUCKETS: Tuple[float, ...] = (
    0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 25.0, 50.0, 100.0,
)


def _label_key(labels: Dict[str, Any]) -> Tuple[Tuple[str, str], ...]:
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically increasing value."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        self.value += amount

    def get(self) -> float:
        return self.value


class Gauge:
    """Value that can go up and down (or be set outright)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount

    def get(self) -> float:
        return self.value


class Histogram:
    """Bucketed distribution with exact count/sum (cumulative buckets on export)."""

    __slots__ = ("buckets", "bucket_counts", "count", "sum")

    def __init__(self, buckets: Sequence[float] = DEFAULT_BUCKETS):
        b = sorted(float(x) for x in buckets)
        if not b:
            raise ValueError("need at least one bucket bound")
        self.buckets: List[float] = b
        self.bucket_counts = [0] * (len(b) + 1)  # +1 for +Inf
        self.count = 0
        self.sum = 0.0

    def observe(self, value: float) -> None:
        self.bucket_counts[bisect_right(self.buckets, value)] += 1
        self.count += 1
        self.sum += value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Estimate the ``q``-th percentile (0-100) from bucket counts.

        Classic Prometheus-style estimate: find the bucket holding the
        target rank and interpolate linearly inside it.  Exactness is
        bounded by bucket granularity; the reservoir-sampled
        ``LatencyRecorder`` stays the headline source of truth.
        """
        if not 0.0 <= q <= 100.0:
            raise ValueError(f"percentile must be in [0, 100], got {q}")
        if self.count == 0:
            return 0.0
        rank = q / 100.0 * self.count
        running = 0
        lower = 0.0
        for bound, n in zip(self.buckets + [float("inf")], self.bucket_counts):
            prev = running
            running += n
            if running >= rank and n > 0:
                if bound == float("inf"):
                    # open-ended top bucket: the bound cannot be interpolated;
                    # fall back to the highest finite bound we crossed
                    return lower if lower > 0.0 else self.mean
                frac = (rank - prev) / n
                return lower + (bound - lower) * frac
            lower = bound if bound != float("inf") else lower
        return lower

    def get(self) -> Dict[str, Any]:
        cumulative = []
        running = 0
        for bound, n in zip(self.buckets + [float("inf")], self.bucket_counts):
            running += n
            cumulative.append([bound, running])
        return {
            "count": self.count,
            "sum": self.sum,
            "p50": self.percentile(50.0),
            "p95": self.percentile(95.0),
            "p99": self.percentile(99.0),
            "buckets": cumulative,
        }


class _Family:
    """A named metric family: resolves label sets to instrument children."""

    __slots__ = ("name", "help", "kind", "_children", "_kwargs")

    def __init__(self, name: str, help: str, kind: type, **kwargs):
        self.name = name
        self.help = help
        self.kind = kind
        self._children: Dict[Tuple[Tuple[str, str], ...], Any] = {}
        self._kwargs = kwargs

    def labels(self, **labels: Any):
        key = _label_key(labels)
        child = self._children.get(key)
        if child is None:
            child = self.kind(**self._kwargs)
            self._children[key] = child
        return child

    # a family used without labels behaves as its sole unlabelled child
    def _default(self):
        return self.labels()

    def inc(self, amount: float = 1.0) -> None:
        self._default().inc(amount)

    def dec(self, amount: float = 1.0) -> None:
        self._default().dec(amount)

    def set(self, value: float) -> None:
        self._default().set(value)

    def observe(self, value: float) -> None:
        self._default().observe(value)

    def get(self):
        return self._default().get()

    def snapshot(self) -> Dict[str, Any]:
        series = []
        for key, child in sorted(self._children.items()):
            series.append({"labels": dict(key), "value": child.get()})
        return {
            "help": self.help,
            "type": self.kind.__name__.lower(),
            "series": series,
        }


class _NullMetric:
    """Shared no-op instrument: every mutator is an empty method."""

    __slots__ = ()

    def labels(self, **labels: Any) -> "_NullMetric":
        return self

    def inc(self, amount: float = 1.0) -> None:
        pass

    def dec(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def get(self) -> float:
        return 0.0


_NULL_METRIC = _NullMetric()


class MetricsRegistry:
    """Collection of named metric families; ``enabled=False`` disarms it."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self._families: Dict[str, _Family] = {}

    def _register(self, name: str, help: str, kind: type, **kwargs):
        if not self.enabled:
            return _NULL_METRIC
        fam = self._families.get(name)
        if fam is None:
            fam = _Family(name, help, kind, **kwargs)
            self._families[name] = fam
        elif fam.kind is not kind:
            raise ValueError(f"metric {name!r} already registered as {fam.kind.__name__}")
        return fam

    def counter(self, name: str, help: str = ""):
        return self._register(name, help, Counter)

    def gauge(self, name: str, help: str = ""):
        return self._register(name, help, Gauge)

    def histogram(self, name: str, help: str = "", buckets: Sequence[float] = DEFAULT_BUCKETS):
        return self._register(name, help, Histogram, buckets=buckets)

    # ------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, Any]:
        """All families and series as a JSON-ready dict."""
        return {name: fam.snapshot() for name, fam in sorted(self._families.items())}

    def to_json(self, indent: Optional[int] = 2) -> str:
        return json.dumps(self.snapshot(), indent=indent)

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json())
            f.write("\n")


#: the shared disabled registry — hand this to components by default
NULL_REGISTRY = MetricsRegistry(enabled=False)
