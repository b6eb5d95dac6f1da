"""The metrics registry snapshot is pinned byte for byte.

Every golden hot-path cell pins its registry (``registry_sha256`` and
``prometheus_sha256`` in its fixture).  The three runs here pin what those
cells do not reach: fault families that carry values next to families that
stay empty (a partition and RPC drops, no crash), an elastic pool that
scales out and drains, and a checkpointed run resumed with a fresh
registry on each segment.  The fixture lives beside the golden cells and
is captured by ``tests/golden_hotpath/capture.py``.
"""

import json

import pytest

from tests.test_hotpath_equivalence import GOLDEN_DIR, MATRIX

PINS = json.loads((GOLDEN_DIR / f"{MATRIX.REGISTRY_PINS_FIXTURE}.json").read_text())


def test_pin_set_is_complete():
    assert set(PINS) == set(MATRIX.REGISTRY_PINS)


@pytest.mark.parametrize("name", MATRIX.REGISTRY_PINS)
def test_registry_matches_pin(name):
    assert MATRIX.run_registry_pin(name) == PINS[name]


def test_partition_drop_pin_mixes_empty_and_live_fault_families():
    series = PINS["partition_drop_rw_seed0"]["registry_series"]
    for family in ("faults_rpc_timeouts_total", "faults_rpc_drops_total",
                   "faults_retries_total", "faults_backoff_wait_ms_total"):
        assert series[family] == 1, family
    for family in ("faults_crashes_total", "faults_restarts_total",
                   "faults_connection_refused_total", "faults_service_aborted_total"):
        assert series[family] == 0, family


def test_elastic_pin_counts_pool_changes():
    series = PINS["elastic_flash_seed7"]["registry_series"]
    for family in ("elastic_scale_out_total", "elastic_drains_started_total",
                   "elastic_drains_completed_total"):
        assert series[family] == 1, family


def test_resume_pin_counts_each_segment():
    pin = PINS["resume_rw_seed5"]
    for segment in ("first", "resumed"):
        series = pin[segment]["registry_series"]
        for family in ("epochs_total", "migrations_applied_total"):
            assert series[family] == 1, (segment, family)
