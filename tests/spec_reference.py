"""The fault, autoscale and SLO spec parsers as they were before one strict
loader (``repro.specs``) replaced them.

Kept as the reference of ``tests/test_spec_errors.py``: each function is the
earlier ``from_dict`` body, building today's spec classes, whose
constructors accept and reject what they did then.  These parsers ignore
unknown keys outside fault events and objectives, take a bool where a
number belongs in a fault event or retry policy, turn a non-string SLO
``name`` into a string, and take a fault schedule ``version`` of any
integer up to 1 and an autoscale ``schema_version`` equal to 1 (``true``,
``1.0``); the property there checks that the loader refuses those inputs
too and agrees with these parsers on every other.
"""

from __future__ import annotations

import math
import sys
from dataclasses import fields
from typing import Any, Dict

from repro.fs.elastic import AutoscaleSpec, ScaleEvent
from repro.fs.faults import (
    Crash,
    FaultSchedule,
    Partition,
    RetryPolicy,
    RpcDelay,
    RpcDrop,
    Slowdown,
)
from repro.obs.slo import SloError, SloObjective, SloSpec

_FLOAT_MAX = sys.float_info.max

_TYPE_BY_KIND = {
    "slowdown": Slowdown,
    "crash": Crash,
    "rpc_drop": RpcDrop,
    "rpc_delay": RpcDelay,
    "partition": Partition,
}


def fault_schedule_from_dict(data: Dict[str, Any]) -> FaultSchedule:
    if not isinstance(data, dict) or not isinstance(data.get("faults", []), list):
        raise ValueError(f"fault schedule must be an object with a 'faults' list: {data!r}")
    version = data.get("version", 1)
    if not isinstance(version, int) or version > 1:
        raise ValueError(f"unsupported fault schedule 'version' {version!r}")
    try:
        retry = RetryPolicy(**data["retry"]) if "retry" in data else None
    except (TypeError, ValueError) as exc:
        raise ValueError(f"bad fault schedule 'retry' {data['retry']!r}: {exc}") from None
    events = []
    for raw in data.get("faults", []):
        try:
            raw = dict(raw)
            kind = raw.pop("kind", None)
            if kind not in _TYPE_BY_KIND:
                raise ValueError(f"unknown fault kind {kind!r}")
            for k, v in raw.items():
                if v == "inf":
                    raw[k] = math.inf
            events.append(_TYPE_BY_KIND[kind](**raw))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad fault event {raw!r} in 'faults': {exc}") from None
    return FaultSchedule(events, retry=retry)


def _scale_event_from_dict(d: Dict) -> ScaleEvent:
    try:
        return ScaleEvent(epoch=d["epoch"], action=d["action"], count=d.get("count", 1))
    except KeyError as exc:
        raise ValueError(f"scale event {d!r} needs {exc}") from None
    except (AttributeError, TypeError, ValueError) as exc:
        raise ValueError(f"bad scale event {d!r} in 'events': {exc}") from None


def autoscale_from_dict(d: Dict) -> AutoscaleSpec:
    if not isinstance(d, dict) or not isinstance(d.get("events", []), list):
        raise ValueError(f"autoscale spec must be an object with an 'events' list: {d!r}")
    version = d.get("schema_version", 1)
    if version != 1:
        raise ValueError(f"unsupported autoscale schema version {version}")
    kwargs = {}
    for f in fields(AutoscaleSpec):
        if f.name == "events" or f.name not in d:
            continue
        value, kind = d[f.name], type(f.default)
        ok = isinstance(value, (int, float) if kind is float else kind)
        if isinstance(value, bool) or not ok:
            raise ValueError(f"autoscale spec {f.name!r} must be {kind.__name__}: {value!r}")
        kwargs[f.name] = value
    events = tuple(_scale_event_from_dict(e) for e in d.get("events", ()))
    return AutoscaleSpec(events=events, **kwargs)


def slo_objective_from_dict(d: Dict[str, Any]) -> SloObjective:
    if not isinstance(d, dict) or "name" not in d or "metric" not in d:
        raise SloError(f"objective needs 'name' and 'metric': {d!r}")
    target = d.get("target", d.get("target_ms"))
    if target is None:
        raise SloError(f"objective {d['name']!r} needs 'target' (or 'target_ms')")
    known = {"name", "metric", "target", "target_ms", "error_budget",
             "burn_window", "burn_alert"}
    unknown = set(d) - known
    if unknown:
        raise SloError(f"objective {d['name']!r}: unknown keys {sorted(unknown)}")
    for key in sorted((known - {"name", "metric"}) & set(d)):
        value = d[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise SloError(f"objective {d['name']!r}: {key!r} must be a number: {value!r}")
        if not abs(value) <= _FLOAT_MAX:
            raise SloError(f"objective {d['name']!r}: {key!r} must be finite: {value!r}")
    return SloObjective(
        name=str(d["name"]),
        metric=str(d["metric"]),
        target=float(target),
        error_budget=float(d.get("error_budget", 0.01)),
        burn_window=d.get("burn_window", 10),
        burn_alert=float(d.get("burn_alert", 2.0)),
    )


def slo_from_dict(d: Dict[str, Any]) -> SloSpec:
    if not isinstance(d, dict):
        raise SloError(f"SLO spec must be a JSON object, got {type(d).__name__}")
    objs = d.get("objectives")
    if not objs or not isinstance(objs, list):
        raise SloError("SLO spec needs a non-empty 'objectives' list")
    parsed = tuple(slo_objective_from_dict(o) for o in objs)
    names = [o.name for o in parsed]
    if len(set(names)) != len(names):
        raise SloError(f"duplicate objective names: {names}")
    return SloSpec(name=str(d.get("name", "slo")), objectives=parsed)
