"""Declarative autoscaling specs and the policies they instantiate.

An :class:`AutoscaleSpec` is the JSON-round-trippable description of an
elastic MDS pool — capacity bounds, warm-up model, and the policy that
decides when the pool grows or shrinks.  It mirrors the fault framework's
``FaultSchedule``: frozen dataclasses, eager validation, a stable schema
version, and ``to_json``/``from_json`` so a spec can live in a file and be
passed to ``repro simulate --autoscale spec.json``.

Three policies (``AutoscaleSpec.policy``):

``threshold``
    Hysteresis on mean active-MDS utilization: grow above
    ``scale_out_util``, shrink below ``scale_in_util``.  The gap between
    the two thresholds plus the controller's ``cooldown_epochs`` is what
    prevents flapping.
``predictive``
    Same thresholds, applied to a linear forecast of utilization one
    horizon ahead.  The signal is the telemetry timeline's per-window
    cluster busy series when the timeline is enabled (finer-grained than
    epochs), else the policy's own per-epoch utilization history.
``schedule``
    Explicit ``events`` — ``{"epoch": e, "action": "join"|"drain",
    "count": k}`` — for scripted capacity changes (ignores utilization and
    the cooldown; useful for tests and known maintenance windows).

Policies only *propose* a pool-size delta; the
:class:`~repro.fs.elastic.controller.MDSPoolController` owns execution,
bounds, and cooldown.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from typing import Dict, List, Tuple

import numpy as np

__all__ = [
    "AUTOSCALE_SCHEMA_VERSION",
    "ScaleEvent",
    "AutoscaleSpec",
    "AutoscaleSignal",
    "AutoscalePolicy",
    "ThresholdPolicy",
    "PredictivePolicy",
    "SchedulePolicy",
]

AUTOSCALE_SCHEMA_VERSION = 1

_POLICIES = ("threshold", "predictive", "schedule")


@dataclass(frozen=True)
class ScaleEvent:
    """One scripted capacity change for the ``schedule`` policy."""

    epoch: int
    action: str  # "join" | "drain"
    count: int = 1

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError(f"ScaleEvent.epoch must be >= 0, got {self.epoch}")
        if self.action not in ("join", "drain"):
            raise ValueError(f"ScaleEvent.action must be join|drain, got {self.action!r}")
        if self.count < 1:
            raise ValueError(f"ScaleEvent.count must be >= 1, got {self.count}")

    def to_dict(self) -> Dict:
        return {"epoch": self.epoch, "action": self.action, "count": self.count}

    @classmethod
    def from_dict(cls, d: Dict) -> "ScaleEvent":
        """Parse one event; a missing or malformed field raises ValueError."""
        try:
            return cls(epoch=int(d["epoch"]), action=d["action"], count=int(d.get("count", 1)))
        except KeyError as exc:
            raise ValueError(f"scale event {d!r} needs {exc}") from None
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"bad scale event {d!r} in 'events': {exc}") from None


@dataclass(frozen=True)
class AutoscaleSpec:
    """Everything the pool controller needs, in one frozen value."""

    policy: str = "threshold"
    #: pool-size bounds; the run's ``SimConfig.n_mds`` is the *initial* size
    #: and must lie within them
    min_mds: int = 1
    max_mds: int = 8
    #: a freshly provisioned MDS serves at ``warmup_factor``x service time
    #: for ``warmup_ms`` of virtual time (cold caches), mirroring the fault
    #: schedule's crash-restart warm-up
    warmup_ms: float = 20.0
    warmup_factor: float = 2.0
    #: epochs to hold after any scale action before the next one
    cooldown_epochs: int = 2
    #: hysteresis band on mean active-MDS utilization
    scale_out_util: float = 0.75
    scale_in_util: float = 0.30
    #: forecast lookahead (predictive policy), in decision points
    horizon_epochs: int = 3
    #: scripted events (schedule policy only)
    events: Tuple[ScaleEvent, ...] = field(default_factory=tuple)

    def __post_init__(self):
        if self.policy not in _POLICIES:
            raise ValueError(f"policy must be one of {_POLICIES}, got {self.policy!r}")
        if not 1 <= self.min_mds <= self.max_mds:
            raise ValueError(
                f"need 1 <= min_mds <= max_mds, got [{self.min_mds}, {self.max_mds}]"
            )
        if self.warmup_ms < 0:
            raise ValueError(f"warmup_ms must be >= 0, got {self.warmup_ms}")
        if self.warmup_factor < 1.0:
            raise ValueError(f"warmup_factor must be >= 1, got {self.warmup_factor}")
        if self.cooldown_epochs < 0:
            raise ValueError(f"cooldown_epochs must be >= 0, got {self.cooldown_epochs}")
        if not 0.0 < self.scale_in_util < self.scale_out_util <= 1.0:
            raise ValueError(
                "need 0 < scale_in_util < scale_out_util <= 1, got "
                f"({self.scale_in_util}, {self.scale_out_util})"
            )
        if self.horizon_epochs < 1:
            raise ValueError(f"horizon_epochs must be >= 1, got {self.horizon_epochs}")
        object.__setattr__(self, "events", tuple(self.events))

    # ----------------------------------------------------------- validation
    def validate(self, initial_mds: int) -> None:
        """Check the spec against the run's initial pool size."""
        if not self.min_mds <= initial_mds <= self.max_mds:
            raise ValueError(
                f"initial n_mds={initial_mds} outside autoscale bounds "
                f"[{self.min_mds}, {self.max_mds}]"
            )
        if self.policy == "schedule" and not self.events:
            raise ValueError("schedule policy requires at least one event")

    # ---------------------------------------------------------- round trip
    def to_dict(self) -> Dict:
        d = {
            "schema_version": AUTOSCALE_SCHEMA_VERSION,
            "policy": self.policy,
            "min_mds": self.min_mds,
            "max_mds": self.max_mds,
            "warmup_ms": self.warmup_ms,
            "warmup_factor": self.warmup_factor,
            "cooldown_epochs": self.cooldown_epochs,
            "scale_out_util": self.scale_out_util,
            "scale_in_util": self.scale_in_util,
            "horizon_epochs": self.horizon_epochs,
        }
        if self.events:
            d["events"] = [e.to_dict() for e in self.events]
        return d

    @classmethod
    def from_dict(cls, d: Dict) -> "AutoscaleSpec":
        """Parse a spec; a malformed field raises ValueError naming it."""
        if not isinstance(d, dict) or not isinstance(d.get("events", []), list):
            raise ValueError(f"autoscale spec must be an object with an 'events' list: {d!r}")
        version = d.get("schema_version", AUTOSCALE_SCHEMA_VERSION)
        if version != AUTOSCALE_SCHEMA_VERSION:
            raise ValueError(f"unsupported autoscale schema version {version}")
        kwargs = {}
        for f in fields(cls):
            if f.name == "events" or f.name not in d:
                continue
            # each scalar field's default has its type; a float field takes ints
            value, kind = d[f.name], type(f.default)
            ok = isinstance(value, (int, float) if kind is float else kind)
            if isinstance(value, bool) or not ok:
                raise ValueError(f"autoscale spec {f.name!r} must be {kind.__name__}: {value!r}")
            kwargs[f.name] = value
        events = tuple(ScaleEvent.from_dict(e) for e in d.get("events", ()))
        return cls(events=events, **kwargs)

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "AutoscaleSpec":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w") as f:
            f.write(self.to_json() + "\n")

    @classmethod
    def load(cls, path: str) -> "AutoscaleSpec":
        with open(path) as f:
            return cls.from_json(f.read())

    # -------------------------------------------------------------- factory
    def make_policy(self) -> "AutoscalePolicy":
        if self.policy == "threshold":
            return ThresholdPolicy(self.scale_out_util, self.scale_in_util)
        if self.policy == "predictive":
            return PredictivePolicy(
                self.scale_out_util, self.scale_in_util, self.horizon_epochs
            )
        return SchedulePolicy(self.events)


@dataclass
class AutoscaleSignal:
    """What a policy sees at one epoch boundary."""

    epoch: int
    #: mean busy fraction of the epoch across active (non-gone) members
    utilization: float
    #: per-active-member busy fractions (order follows pool indices)
    per_mds_util: np.ndarray
    n_active: int
    min_mds: int
    max_mds: int
    #: recent per-window cluster utilization from the telemetry timeline
    #: (empty array when the timeline is off)
    window_util: np.ndarray


class AutoscalePolicy:
    """Decide a desired pool-size delta; the controller executes it."""

    name = "base"
    #: scripted policies opt out of the controller's cooldown gate
    respects_cooldown = True

    def decide(self, signal: AutoscaleSignal) -> int:
        """Return +k to grow, -k to shrink, 0 to hold."""
        raise NotImplementedError


class ThresholdPolicy(AutoscalePolicy):
    """Hysteresis band on mean active utilization."""

    name = "threshold"

    def __init__(self, scale_out_util: float, scale_in_util: float):
        self.scale_out_util = scale_out_util
        self.scale_in_util = scale_in_util

    def _from_util(self, util: float, signal: AutoscaleSignal) -> int:
        if util > self.scale_out_util and signal.n_active < signal.max_mds:
            return 1
        if util < self.scale_in_util and signal.n_active > signal.min_mds:
            return -1
        return 0

    def decide(self, signal: AutoscaleSignal) -> int:
        return self._from_util(signal.utilization, signal)


class PredictivePolicy(ThresholdPolicy):
    """Threshold on a linear forecast, one horizon ahead.

    Uses the timeline's per-window utilization series when available (more
    samples per decision than the epoch series), else its own utilization
    history.  The forecast is ``last + horizon * mean(diff(tail))`` — a
    deliberately simple trend extrapolation, so a rising edge triggers
    scale-out a few epochs before the threshold policy would.
    """

    name = "predictive"

    def __init__(self, scale_out_util: float, scale_in_util: float, horizon: int):
        super().__init__(scale_out_util, scale_in_util)
        self.horizon = horizon
        self._history: List[float] = []

    def _forecast(self, series: np.ndarray) -> float:
        tail = series[-(self.horizon + 1):]
        if tail.size < 2:
            return float(tail[-1]) if tail.size else 0.0
        slope = float(np.diff(tail).mean())
        return float(tail[-1]) + self.horizon * slope

    def decide(self, signal: AutoscaleSignal) -> int:
        self._history.append(signal.utilization)
        series = signal.window_util
        if series.size < 2:
            series = np.asarray(self._history, dtype=np.float64)
        forecast = min(1.5, max(0.0, self._forecast(series)))
        return self._from_util(forecast, signal)


class SchedulePolicy(AutoscalePolicy):
    """Replay scripted join/drain events; utilization is ignored."""

    name = "schedule"
    respects_cooldown = False

    def __init__(self, events: Tuple[ScaleEvent, ...]):
        self._by_epoch: Dict[int, int] = {}
        for e in events:
            delta = e.count if e.action == "join" else -e.count
            self._by_epoch[e.epoch] = self._by_epoch.get(e.epoch, 0) + delta

    def decide(self, signal: AutoscaleSignal) -> int:
        return self._by_epoch.get(signal.epoch, 0)
