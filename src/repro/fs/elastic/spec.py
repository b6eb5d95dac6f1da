"""Declarative autoscaling specs.

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
    Same thresholds, applied to a linear forecast of the pool's own
    per-epoch utilization one horizon ahead, so a rising edge triggers
    scale-out a few epochs before the threshold policy would.
``schedule``
    Explicit ``events`` — ``{"epoch": e, "action": "join"|"drain",
    "count": k}`` — for scripted capacity changes (ignores utilization and
    the cooldown; useful for tests and known maintenance windows).

The :class:`~repro.fs.elastic.controller.MDSPoolController` computes the
pool-size delta from the spec and executes it under the bounds and the
cooldown.  Numbers must be finite and indices and counts integers; a
malformed spec raises ``ValueError`` naming the field.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field, fields
from typing import Dict, Tuple

__all__ = [
    "AUTOSCALE_SCHEMA_VERSION",
    "ScaleEvent",
    "AutoscaleSpec",
]

AUTOSCALE_SCHEMA_VERSION = 1

_POLICIES = ("threshold", "predictive", "schedule")

#: the largest finite float: NaN, the infinities and integers too large for
#: a float all fail a ``<= _FLOAT_MAX`` bound
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ScaleEvent:
    """One scripted capacity change for the ``schedule`` policy."""

    epoch: int
    action: str  # "join" | "drain"
    count: int = 1

    def __post_init__(self):
        if type(self.epoch) is not int or self.epoch < 0:
            raise ValueError(f"ScaleEvent.epoch must be an integer >= 0, got {self.epoch!r}")
        if self.action not in ("join", "drain"):
            raise ValueError(f"ScaleEvent.action must be join|drain, got {self.action!r}")
        if type(self.count) is not int or self.count < 1:
            raise ValueError(f"ScaleEvent.count must be an integer >= 1, got {self.count!r}")

    def to_dict(self) -> Dict:
        return {"epoch": self.epoch, "action": self.action, "count": self.count}

    @classmethod
    def from_dict(cls, d: Dict) -> "ScaleEvent":
        """Parse one event; a missing or malformed field raises ValueError."""
        try:
            return cls(epoch=d["epoch"], action=d["action"], count=d.get("count", 1))
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
    #: for ``warmup_ms`` of virtual time (cold caches), in the server's one
    #: warm-up window, which a crash-restart arms too
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
        if not 0 <= self.warmup_ms <= _FLOAT_MAX:
            raise ValueError(f"warmup_ms must be finite and >= 0, got {self.warmup_ms!r}")
        if not 1.0 <= self.warmup_factor <= _FLOAT_MAX:
            raise ValueError(f"warmup_factor must be finite and >= 1, got {self.warmup_factor!r}")
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
