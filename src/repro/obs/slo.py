"""Declarative SLOs over timeline windows: compliance, budgets, burn rates.

An SLO spec is a small JSON document::

    {
      "name": "interactive-metadata",
      "objectives": [
        {"name": "p95-latency", "metric": "p95_ms", "target_ms": 12.0,
         "error_budget": 0.05, "burn_window": 10, "burn_alert": 2.0}
      ]
    }

Each objective is evaluated against the windowed timeline produced by
:class:`~repro.obs.timeseries.TimelineCollector`:

* a window is **breaching** when its metric exceeds ``target_ms``
  (for latency metrics) / falls below the target (for rate metrics such
  as ``cache_hit_rate``, where the target key is ``target``);
* the **error budget** is the allowed fraction of breaching windows over
  the whole run; consuming more than 100% of it fails the objective;
* the **burn rate** over a rolling ``burn_window`` of windows is the
  breach fraction in that span divided by the budget fraction — a burn
  rate of 2.0 means the budget is being spent twice as fast as allowed.
  Spans at or above ``burn_alert`` raise an alert.

When a :class:`~repro.fs.faults.schedule.FaultSchedule` is supplied,
breaching windows that overlap an injected fault are annotated with the
fault kinds active in that window, so a report can separate "we broke
the SLO" from "the fault schedule broke the SLO".

The strict spec loader (:mod:`repro.specs`) reads the JSON: a malformed
spec raises :class:`SloError` naming the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Any, Dict, List, Optional, Sequence

from repro.specs import FLOAT_MAX, build_spec, read_json

__all__ = [
    "SloObjective",
    "SloSpec",
    "SloError",
    "ObjectiveResult",
    "BurnAlert",
    "SloReport",
    "evaluate_slo",
]

#: metrics where larger observed values are worse (latency-style)
_HIGHER_IS_WORSE = ("p50_ms", "p95_ms", "p99_ms", "lat_mean_ms", "imbalance")
#: metrics where smaller observed values are worse (rate-style)
_LOWER_IS_WORSE = ("cache_hit_rate", "ops_per_sec", "events_per_sec")


class SloError(ValueError):
    """Malformed SLO spec or spec/timeline mismatch."""


@dataclass(frozen=True)
class SloObjective:
    """One objective inside a spec; thresholds are per-window.  In JSON,
    ``target_ms`` may stand for ``target``."""

    name: str
    metric: str
    target: float = field(metadata={"alias": "target_ms"})
    error_budget: float = 0.01
    burn_window: int = 10
    burn_alert: float = 2.0

    def __post_init__(self):
        if self.metric in _HIGHER_IS_WORSE:
            pass
        elif self.metric in _LOWER_IS_WORSE:
            pass
        else:
            raise SloError(
                f"objective {self.name!r}: unknown metric {self.metric!r} "
                f"(expected one of {_HIGHER_IS_WORSE + _LOWER_IS_WORSE})"
            )
        if not abs(self.target) <= FLOAT_MAX:
            raise SloError(f"objective {self.name!r}: target must be finite")
        if not 0.0 < self.error_budget <= 1.0:
            raise SloError(
                f"objective {self.name!r}: error_budget must be in (0, 1]"
            )
        if type(self.burn_window) is not int or self.burn_window < 1:
            raise SloError(f"objective {self.name!r}: burn_window must be an integer >= 1")
        if not 0 < self.burn_alert <= FLOAT_MAX:
            raise SloError(f"objective {self.name!r}: burn_alert must be finite and > 0")
        # the thresholds are floats: a JSON 5 reads as 5.0
        for name in ("target", "error_budget", "burn_alert"):
            object.__setattr__(self, name, float(getattr(self, name)))

    @property
    def higher_is_worse(self) -> bool:
        return self.metric in _HIGHER_IS_WORSE

    def breaches(self, value: float) -> bool:
        if self.higher_is_worse:
            return value > self.target
        return value < self.target

    @classmethod
    def from_dict(cls, d: Any) -> "SloObjective":
        """Read one objective; a malformed one raises SloError naming the key."""
        return build_spec(cls, d, SloError)

    def to_dict(self) -> Dict[str, Any]:
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class SloSpec:
    """A named set of objectives, loadable from JSON."""

    name: str = "slo"
    objectives: Sequence[SloObjective] = ()

    def __post_init__(self):
        if not self.objectives:
            raise SloError("SLO spec needs a non-empty 'objectives' list")
        names = [o.name for o in self.objectives]
        if len(set(names)) != len(names):
            raise SloError(f"duplicate objective names: {names}")

    @classmethod
    def from_dict(cls, d: Any) -> "SloSpec":
        """Read a spec; a malformed one raises SloError naming the key."""
        return build_spec(cls, d, SloError)

    @classmethod
    def load(cls, path: str) -> "SloSpec":
        return cls.from_dict(read_json(path, SloError))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "objectives": [o.to_dict() for o in self.objectives],
        }


@dataclass(frozen=True)
class BurnAlert:
    """Budget burning at >= ``burn_alert``× the sustainable rate."""

    objective: str
    start_window: int
    end_window: int
    burn_rate: float

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective,
            "start_window": self.start_window,
            "end_window": self.end_window,
            "burn_rate": round(self.burn_rate, 4),
        }


@dataclass
class ObjectiveResult:
    """Per-objective verdict over the whole timeline."""

    objective: SloObjective
    windows: int
    breaching: List[int] = field(default_factory=list)
    #: window index -> fault kinds active during that window
    fault_annotations: Dict[int, List[str]] = field(default_factory=dict)
    alerts: List[BurnAlert] = field(default_factory=list)
    worst_value: float = 0.0

    @property
    def breach_fraction(self) -> float:
        return len(self.breaching) / self.windows if self.windows else 0.0

    @property
    def budget_consumed(self) -> float:
        """Fraction of the error budget spent; > 1.0 means blown."""
        return self.breach_fraction / self.objective.error_budget

    @property
    def ok(self) -> bool:
        return self.budget_consumed <= 1.0

    @property
    def unexplained_breaches(self) -> int:
        """Breaching windows with no overlapping injected fault."""
        return sum(1 for w in self.breaching if w not in self.fault_annotations)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "objective": self.objective.to_dict(),
            "ok": self.ok,
            "windows": self.windows,
            "breaching_windows": list(self.breaching),
            "breach_fraction": round(self.breach_fraction, 6),
            "budget_consumed": round(self.budget_consumed, 4),
            "worst_value": round(self.worst_value, 6),
            "unexplained_breaches": self.unexplained_breaches,
            "fault_annotations": {
                str(k): v for k, v in sorted(self.fault_annotations.items())
            },
            "alerts": [a.to_dict() for a in self.alerts],
        }


@dataclass
class SloReport:
    """The full evaluation: one :class:`ObjectiveResult` per objective."""

    spec: SloSpec
    results: List[ObjectiveResult]

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spec": self.spec.name,
            "ok": self.ok,
            "objectives": [r.to_dict() for r in self.results],
        }

    def render(self) -> str:
        lines = [f"SLO report: {self.spec.name}", ""]
        for r in self.results:
            o = r.objective
            verdict = "OK    " if r.ok else "BREACH"
            cmp = ">" if o.higher_is_worse else "<"
            lines.append(
                f"  [{verdict}] {o.name}: {o.metric} {cmp} {o.target:g} in "
                f"{len(r.breaching)}/{r.windows} windows "
                f"(budget {o.error_budget:.1%}, consumed {r.budget_consumed:.0%}, "
                f"worst {r.worst_value:g})"
            )
            if r.fault_annotations:
                annotated = len(r.fault_annotations)
                kinds = sorted({k for ks in r.fault_annotations.values() for k in ks})
                lines.append(
                    f"           {annotated} breaching window(s) overlap injected "
                    f"faults ({', '.join(kinds)}); {r.unexplained_breaches} unexplained"
                )
            for a in r.alerts:
                lines.append(
                    f"           burn alert: windows {a.start_window}-{a.end_window} "
                    f"burning at {a.burn_rate:.1f}x budget rate"
                )
        lines.append("")
        lines.append(f"overall: {'OK' if self.ok else 'SLO BREACHED'}")
        return "\n".join(lines)


def _fault_kinds_in(faults: Any, start_ms: float, end_ms: float) -> List[str]:
    """Kinds of scheduled faults overlapping [start_ms, end_ms)."""
    kinds = set()
    for ev in getattr(faults, "events", ()):
        if ev.start_ms < end_ms and ev.end_ms > start_ms:
            kinds.add(ev.kind)
    return sorted(kinds)


def evaluate_slo(
    rows: Sequence[Dict[str, Any]],
    spec: SloSpec,
    faults: Optional[Any] = None,
) -> SloReport:
    """Evaluate ``spec`` against timeline ``rows`` (from ``to_rows``/JSONL).

    ``faults`` is an optional :class:`~repro.fs.faults.schedule.FaultSchedule`
    (anything with an ``events`` sequence of ``start_ms/end_ms/kind`` records)
    used to annotate breaching windows.

    Windows with zero completed ops carry no SLI measurement (idle tails,
    full outages) and are excluded from every objective — no data is not a
    breach, matching how production burn-rate math treats empty windows.
    """
    measured = [
        (i, row) for i, row in enumerate(rows) if int(row.get("ops", 0)) > 0
    ]
    results: List[ObjectiveResult] = []
    for obj in spec.objectives:
        if rows and obj.metric not in rows[0]:
            raise SloError(
                f"objective {obj.name!r}: timeline rows lack metric {obj.metric!r}"
            )
        res = ObjectiveResult(objective=obj, windows=len(measured))
        worst = None
        breach_flags: List[bool] = []
        for i, row in measured:
            value = float(row[obj.metric])
            if worst is None:
                worst = value
            elif obj.higher_is_worse:
                worst = max(worst, value)
            else:
                worst = min(worst, value)
            breached = obj.breaches(value)
            breach_flags.append(breached)
            if breached:
                res.breaching.append(i)
                if faults is not None:
                    kinds = _fault_kinds_in(faults, row["start_ms"], row["end_ms"])
                    if kinds:
                        res.fault_annotations[i] = kinds
        res.worst_value = float(worst) if worst is not None else 0.0

        # rolling burn rate over the measured-window sequence: breach
        # fraction per span / budget fraction, merged into maximal alert
        # runs (reported in original window indices)
        n_meas = len(breach_flags)
        w = min(obj.burn_window, n_meas) or 1
        run_start = None
        run_peak = 0.0
        for pos in range(0, max(n_meas - w + 1, 0)):
            frac = sum(breach_flags[pos : pos + w]) / w
            rate = frac / obj.error_budget
            if rate >= obj.burn_alert:
                if run_start is None:
                    run_start = measured[pos][0]
                run_peak = max(run_peak, rate)
            elif run_start is not None:
                res.alerts.append(
                    BurnAlert(obj.name, run_start, measured[pos + w - 2][0], run_peak)
                )
                run_start, run_peak = None, 0.0
        if run_start is not None:
            res.alerts.append(
                BurnAlert(obj.name, run_start, measured[n_meas - 1][0], run_peak)
            )
        results.append(res)
    return SloReport(spec=spec, results=results)
