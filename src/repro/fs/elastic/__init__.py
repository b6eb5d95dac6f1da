"""Elastic MDS pool: autoscaling with graceful join/drain.

See :mod:`repro.fs.elastic.liveness` for the shared membership view,
:mod:`repro.fs.elastic.spec` for the declarative policy specs, and
:mod:`repro.fs.elastic.controller` for the DES-side decisions and their
execution.
``docs/elasticity.md`` documents the spec format and the drain protocol.
"""

from repro.fs.elastic.controller import MDSPoolController
from repro.fs.elastic.liveness import (
    DRAINING,
    GONE,
    STATE_NAMES,
    UP,
    WARMING,
    MDSLiveness,
)
from repro.fs.elastic.spec import AutoscaleSpec, ScaleEvent

__all__ = [
    "MDSLiveness",
    "UP",
    "WARMING",
    "DRAINING",
    "GONE",
    "STATE_NAMES",
    "AutoscaleSpec",
    "ScaleEvent",
    "MDSPoolController",
]
