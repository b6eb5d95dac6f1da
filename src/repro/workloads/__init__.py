"""Workload traces: container, samplers, and the three paper workloads.

The evaluation replays three real-world-shaped traces (§5.1):

* **Trace-RW** (:mod:`~repro.workloads.compile_rw`) — a large compilation
  job: header stats fan out across modules, object files are created into
  per-module build directories; mixed reads/writes.
* **Trace-RO** (:mod:`~repro.workloads.web_ro`) — a web-server access log:
  read-only, heavily Zipf-skewed, deep paths, hotspot drift over time.
* **Trace-WI** (:mod:`~repro.workloads.cloud_wi`) — a write-intensive cloud
  file system: bursts of file creation into tenant shard directories with a
  rapidly shifting tenant skew.

A :class:`~repro.workloads.trace.Trace` is column-oriented (NumPy arrays) so
the analytic cost model evaluates it vectorised; names are kept alongside for
the DES replay, which materialises creations/deletions in the namespace.

:data:`WORKLOADS` is the one list of workload families: the harness builds
from it, bench scenarios validate their ``kind`` against it, and the CLI
offers its keys as choices.
"""

from repro.workloads.cloud_wi import generate_trace_wi
from repro.workloads.compile_rw import generate_trace_rw
from repro.workloads.elastic_load import (
    generate_trace_diurnal,
    generate_trace_flash,
    generate_trace_onboard,
)
from repro.workloads.mdtest import generate_trace_mdtest
from repro.workloads.trace import Trace, TraceBuilder
from repro.workloads.web_ro import generate_trace_ro

__all__ = [
    "WORKLOADS",
    "Trace",
    "TraceBuilder",
    "generate_trace_rw",
    "generate_trace_ro",
    "generate_trace_wi",
    "generate_trace_mdtest",
    "generate_trace_diurnal",
    "generate_trace_flash",
    "generate_trace_onboard",
]

#: workload family -> (generator, the keyword that sizes its namespace);
#: ``build_workload`` scales that keyword's default by ``tree_scale``
WORKLOADS = {
    "rw": (generate_trace_rw, "n_modules"),
    "ro": (generate_trace_ro, "n_dirs"),
    "wi": (generate_trace_wi, "n_tenants"),
    "mdtest": (generate_trace_mdtest, "n_ranks"),
    "diurnal": (generate_trace_diurnal, "n_tenants"),
    "flash": (generate_trace_flash, "n_tenants"),
    "onboard": (generate_trace_onboard, "n_tenants"),
}
