"""Experiment harness: regenerates every table and figure of the paper.

Each ``fig*``/``table*`` function in :mod:`~repro.harness.experiments` runs
the corresponding experiment end-to-end (workload generation → model
training where needed → DES runs) and returns a structured result carrying
both the measured values and the paper's reported values, so the printed
report reads as a direct paper-vs-reproduction comparison.

Scale: experiments default to a laptop-friendly size (~60k-op traces), the
size the figure benchmarks' shape assertions are set for.  Set
``REPRO_SCALE=full`` in the environment for larger runs closer to the
paper's durations, or ``REPRO_SCALE=smoke`` for fast runs too short for
every paper shape to show.
"""

from repro.harness.config import ExperimentScale, get_scale
from repro.harness.report import Report, format_table
from repro.harness import experiments

__all__ = [
    "experiments",
    "Report",
    "format_table",
    "ExperimentScale",
    "get_scale",
]
