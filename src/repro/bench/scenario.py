"""Declarative benchmark scenarios and the process-wide registry.

A :class:`BenchScenario` is pure data: it names *what* to run (workload
family, balancer variants, seeds, optional fault schedule, default scale
tier) and never touches the simulator itself — execution lives in
:mod:`repro.bench.execute` so the paper harness and the perf runner share
one path.

The built-in scenarios registered at import time subsume the
configurations that ``benchmarks/test_fig*.py`` used to hard-code;
``repro.harness.experiments`` runs the ``fig2_even_partitioning``,
``fig5_overall`` and ``fig8_scalability`` variants when it regenerates
Figs 2 and 5-8.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, Iterator, Optional, Sequence, Tuple

from repro.fs.elastic import AutoscaleSpec
from repro.fs.faults import Crash, FaultSchedule, Slowdown
from repro.workloads import WORKLOADS

__all__ = [
    "BenchVariant",
    "BenchScenario",
    "register_scenario",
    "get_scenario",
    "scenario_names",
    "iter_scenarios",
    "FIGURE_STRATEGIES",
]


@dataclass(frozen=True)
class BenchVariant:
    """One cell of a scenario's variant axis: a balancer configuration."""

    name: str
    #: strategy name as accepted by ``harness.experiments.make_policy``
    strategy: str
    #: cluster size; None uses the strategy's default (1 for Single, else 5)
    n_mds: Optional[int] = None
    #: client threads; None uses the scale profile's
    n_clients: Optional[int] = None
    #: near-root cache depth
    cache_depth: int = 2
    #: trace length as a fraction of the scale profile's ``n_ops``
    ops_factor: float = 1.0
    #: back every MDS with a durable store (WAL + SSTables + MANIFEST) in a
    #: run-scoped temporary directory; crashes then pay derived recovery
    durability: bool = False
    #: elastic-pool policy as a canonical :meth:`AutoscaleSpec.to_json`
    #: string (a string keeps the frozen dataclass hashable); None runs the
    #: variant statically provisioned, exactly as before the field existed
    autoscale: Optional[str] = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("variant needs a name")
        if self.ops_factor <= 0:
            raise ValueError("ops_factor must be positive")
        if self.cache_depth < 0:
            raise ValueError("cache_depth must be non-negative")
        if self.autoscale is not None:
            AutoscaleSpec.from_json(self.autoscale)  # fail at definition time

    def autoscale_spec(self) -> Optional[AutoscaleSpec]:
        return None if self.autoscale is None else AutoscaleSpec.from_json(self.autoscale)

    def to_dict(self) -> Dict[str, Any]:
        d = {
            "name": self.name,
            "strategy": self.strategy,
            "n_mds": self.n_mds,
            "n_clients": self.n_clients,
            "cache_depth": self.cache_depth,
            "ops_factor": self.ops_factor,
            "durability": self.durability,
        }
        # key present only on elastic variants: pre-existing scenario
        # artifacts keep their byte-identical config blocks
        if self.autoscale is not None:
            d["autoscale"] = self.autoscale_spec().to_dict()
        return d


@dataclass(frozen=True)
class BenchScenario:
    """A named benchmark: workload family × variants × seeds (+ faults)."""

    name: str
    description: str
    #: workload family (a key of :data:`repro.workloads.WORKLOADS`)
    kind: str
    variants: Tuple[BenchVariant, ...]
    #: root seeds; each (variant, seed) cell is one independent run
    seeds: Tuple[int, ...] = (42,)
    #: default scale tier (overridable at run time)
    scale: str = "smoke"
    #: optional fault schedule injected into every run of the scenario
    faults: Optional[FaultSchedule] = None
    tags: Tuple[str, ...] = ()

    def __post_init__(self):
        if self.kind not in WORKLOADS:
            raise ValueError(
                f"unknown workload kind {self.kind!r}; choose from {tuple(WORKLOADS)}"
            )
        if not self.variants:
            raise ValueError(f"scenario {self.name!r} needs at least one variant")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ValueError(f"scenario {self.name!r} has duplicate variant names")
        if not self.seeds:
            raise ValueError(f"scenario {self.name!r} needs at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            raise ValueError(f"scenario {self.name!r} has duplicate seeds")

    # ------------------------------------------------------------- access
    def variant(self, name: str) -> BenchVariant:
        for v in self.variants:
            if v.name == name:
                return v
        raise KeyError(f"scenario {self.name!r} has no variant {name!r}")

    def runs(self, seeds: Optional[Sequence[int]] = None) -> Iterator[Tuple[BenchVariant, int]]:
        """The seed×variant matrix, in deterministic (variant, seed) order."""
        for v in self.variants:
            for s in seeds if seeds is not None else self.seeds:
                yield v, int(s)

    @property
    def n_runs(self) -> int:
        return len(self.variants) * len(self.seeds)

    def with_seeds(self, seeds: Sequence[int]) -> "BenchScenario":
        return replace(self, seeds=tuple(int(s) for s in seeds))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "kind": self.kind,
            "variants": [v.to_dict() for v in self.variants],
            "seeds": list(self.seeds),
            "scale": self.scale,
            "faults": self.faults.to_dict() if self.faults is not None else None,
            "tags": list(self.tags),
        }


# =====================================================================
# Registry
# =====================================================================

_REGISTRY: Dict[str, BenchScenario] = {}


def register_scenario(scenario: BenchScenario, replace: bool = False) -> BenchScenario:
    """Add a scenario to the registry (``replace=True`` to overwrite)."""
    if not replace and scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} is already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> BenchScenario:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; registered: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> Tuple[str, ...]:
    return tuple(sorted(_REGISTRY))


def iter_scenarios() -> Iterator[BenchScenario]:
    for name in scenario_names():
        yield _REGISTRY[name]


# =====================================================================
# Built-in scenarios (subsume the benchmarks/test_fig*.py configs)
# =====================================================================

#: figure-legend strategy order shared with the paper harness
FIGURE_STRATEGIES = ("Single", "C-Hash", "F-Hash", "ML-tree", "Origami")

register_scenario(
    BenchScenario(
        name="fig2_even_partitioning",
        description="Fig 2 motivation: 1 MDS vs 5-MDS even split on the web trace",
        kind="ro",
        variants=(
            BenchVariant("Single", strategy="Single"),
            BenchVariant("Even", strategy="Even"),
        ),
        seeds=(42, 43),
        scale="smoke",
        tags=("paper", "figure"),
    )
)

register_scenario(
    BenchScenario(
        name="fig5_overall",
        description="Fig 5a: aggregate throughput under high load, all strategies (Trace-RW)",
        kind="rw",
        variants=tuple(BenchVariant(s, strategy=s) for s in FIGURE_STRATEGIES),
        seeds=(42,),
        scale="default",
        tags=("paper", "figure"),
    )
)

register_scenario(
    BenchScenario(
        name="fig8_scalability",
        description="Fig 8: normalised throughput as the cluster grows 1..5 MDSs (Trace-RW)",
        kind="rw",
        variants=(
            BenchVariant("Single-1mds", strategy="Single", n_mds=1),
            *(
                BenchVariant(f"{s}-{m}mds", strategy=s, n_mds=m)
                for s in FIGURE_STRATEGIES[1:]
                for m in (2, 3, 4, 5)
            ),
        ),
        seeds=(42,),
        scale="default",
        tags=("paper", "figure"),
    )
)

register_scenario(
    BenchScenario(
        name="scale_large_hotpath",
        description=(
            "million-entity hot path: ~1.01M inodes (cloud tree x256), 64 MDSs, "
            "100k closed-loop clients on write-intensive Trace-WI"
        ),
        kind="wi",
        variants=(
            BenchVariant("lunule-64mds", strategy="Lunule", n_mds=64),
            BenchVariant("chash-64mds", strategy="C-Hash", n_mds=64),
        ),
        seeds=(42,),
        scale="large",
        tags=("perf", "hotpath", "large"),
    )
)

register_scenario(
    BenchScenario(
        name="crash_failover_rw",
        description="Lunule on Trace-RW through an MDS crash+restart plus a slowdown window",
        kind="rw",
        variants=(BenchVariant("Lunule", strategy="Lunule", n_mds=3, ops_factor=0.5),),
        seeds=(0, 1),
        scale="smoke",
        faults=FaultSchedule(
            [
                Crash(mds=0, start_ms=40.0, end_ms=90.0, warmup_ms=15.0, warmup_factor=2.0),
                Slowdown(mds=1, start_ms=150.0, end_ms=200.0, factor=3.0),
            ]
        ),
        tags=("faults",),
    )
)

register_scenario(
    BenchScenario(
        name="crash_recovery",
        description="Durable Lunule cluster through a crash: WAL volume vs derived recovery cost",
        kind="rw",
        variants=(
            BenchVariant("wal-small", strategy="Lunule", n_mds=3,
                         ops_factor=0.25, durability=True),
            BenchVariant("wal-large", strategy="Lunule", n_mds=3,
                         ops_factor=0.75, durability=True),
        ),
        seeds=(0,),
        scale="smoke",
        faults=FaultSchedule(
            [Crash(mds=0, start_ms=40.0, end_ms=90.0, warmup_factor=2.0)]
        ),
        tags=("faults", "durability"),
    )
)

register_scenario(
    BenchScenario(
        name="mdtest_uniform",
        description="Uniform mdtest microbenchmark: balancers must converge and settle",
        kind="mdtest",
        variants=(
            BenchVariant("Even", strategy="Even"),
            BenchVariant("C-Hash", strategy="C-Hash"),
            BenchVariant("Lunule", strategy="Lunule"),
        ),
        seeds=(42,),
        scale="smoke",
        tags=("calibration",),
    )
)

#: the autoscaler configurations the elastic_diurnal frontier compares;
#: canonical JSON so the variant dataclasses stay frozen/hashable
_ELASTIC_THRESHOLD = AutoscaleSpec(
    policy="threshold", min_mds=1, max_mds=4, warmup_ms=5.0, warmup_factor=2.0,
    cooldown_epochs=1, scale_out_util=0.5, scale_in_util=0.35,
).to_json()
_ELASTIC_PREDICTIVE = AutoscaleSpec(
    policy="predictive", min_mds=1, max_mds=4, warmup_ms=5.0, warmup_factor=2.0,
    cooldown_epochs=1, scale_out_util=0.5, scale_in_util=0.35, horizon_epochs=3,
).to_json()

register_scenario(
    BenchScenario(
        name="elastic_diurnal",
        description=(
            "cost/latency frontier on a two-day diurnal load: static 4-MDS "
            "provisioning vs threshold and predictive autoscaling from 2 MDSs"
        ),
        kind="diurnal",
        variants=(
            # ops_factor 3: enough rebalance epochs per simulated day that
            # the autoscaler can actually track the sinusoid
            BenchVariant("static-4", strategy="Lunule", n_mds=4, ops_factor=3.0),
            BenchVariant("threshold", strategy="Lunule", n_mds=2, ops_factor=3.0,
                         autoscale=_ELASTIC_THRESHOLD),
            BenchVariant("predictive", strategy="Lunule", n_mds=2, ops_factor=3.0,
                         autoscale=_ELASTIC_PREDICTIVE),
        ),
        seeds=(42,),
        scale="smoke",
        tags=("elastic",),
    )
)

register_scenario(
    BenchScenario(
        name="cache_depth_origami",
        description="Origami with the near-root cache off (depth 0) vs on (depth 2)",
        kind="rw",
        variants=(
            BenchVariant("depth0", strategy="Origami", cache_depth=0),
            BenchVariant("depth2", strategy="Origami", cache_depth=2),
        ),
        seeds=(42,),
        scale="default",
        tags=("paper", "ablation"),
    )
)
