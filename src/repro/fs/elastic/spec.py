"""Declarative autoscaling specs.

An :class:`AutoscaleSpec` is the JSON-round-trippable description of an
elastic MDS pool — capacity bounds, warm-up model, and the policy that
decides when the pool grows or shrinks.  It mirrors the fault framework's
``FaultSchedule``: frozen dataclasses, eager validation, a stable schema
version, and ``to_dict``/``load`` so a spec can live in a file and be
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
cooldown.  The strict spec loader (:mod:`repro.specs`) reads the JSON: a
malformed spec raises ``ValueError`` naming the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, Tuple

from repro.specs import FLOAT_MAX, SPEC_VERSION, build_spec, read_json

__all__ = [
    "ScaleEvent",
    "AutoscaleSpec",
]

_POLICIES = ("threshold", "predictive", "schedule")


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
        if not 0 <= self.warmup_ms <= FLOAT_MAX:
            raise ValueError(f"warmup_ms must be finite and >= 0, got {self.warmup_ms!r}")
        if not 1.0 <= self.warmup_factor <= FLOAT_MAX:
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
        d = {"schema_version": SPEC_VERSION}
        d.update((f.name, getattr(self, f.name)) for f in fields(self) if f.name != "events")
        if self.events:
            d["events"] = [e.to_dict() for e in self.events]
        return d

    @classmethod
    def from_dict(cls, d: Any) -> "AutoscaleSpec":
        """Read a spec; a malformed one raises ValueError naming the key."""
        return build_spec(cls, d, version_key="schema_version")

    @classmethod
    def load(cls, path: str) -> "AutoscaleSpec":
        return cls.from_dict(read_json(path))
