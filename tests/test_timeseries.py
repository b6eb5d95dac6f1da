"""Unit tests for the windowed timeline collector (no full simulation).

The collector is duck-typed over ``fs``: these tests drive it unbound (no
cluster at all) or against a tiny stub, so the window mechanics — roll-over,
growth, latency sampling, trailing partials — are pinned independently of
the simulator.  End-to-end exactness lives in ``test_obs_parity.py``.
"""

import math

import pytest

from repro.fs import SimConfig
from repro.obs import NULL_TIMELINE, TimelineCollector
from repro.cluster.imbalance import imbalance_factor
from repro.obs.timeseries import PER_MDS_COLUMNS


def test_constructor_validation():
    with pytest.raises(ValueError):
        TimelineCollector(window_ms=0.0)
    with pytest.raises(ValueError):
        TimelineCollector(window_ms=-1.0)
    with pytest.raises(ValueError):
        TimelineCollector(max_latency_samples=0)
    with pytest.raises(ValueError):
        TimelineCollector(initial_windows=0)


@pytest.mark.parametrize("length", [math.nan, math.inf])
def test_epoch_and_window_lengths_must_be_finite_and_positive(length):
    """An infinite epoch or window would close windows toward an infinite
    clock, or write NaN and Infinity rows; a NaN one compares false."""
    with pytest.raises(ValueError, match="epoch_ms must be finite and positive"):
        SimConfig(epoch_ms=length)
    with pytest.raises(ValueError, match="window_ms must be finite and positive"):
        TimelineCollector(window_ms=length)


def test_unbound_collector_windows_ops_by_virtual_time():
    tl = TimelineCollector(window_ms=10.0)
    tl.record_op(1.0)
    tl.record_op(3.0)
    tl.advance(10.0)  # closes window 0
    tl.record_op(5.0)
    tl.finalize(15.0)  # closes the partial window 1 at 15ms

    rows = tl.to_rows()
    assert [r["ops"] for r in rows] == [2, 1]
    assert rows[0]["start_ms"] == 0.0 and rows[0]["end_ms"] == 10.0
    assert rows[1]["start_ms"] == 10.0 and rows[1]["end_ms"] == 15.0
    assert rows[0]["lat_mean_ms"] == pytest.approx(2.0)
    # partial window: rate uses the actual 5ms span, not the nominal 10ms
    assert rows[1]["ops_per_sec"] == pytest.approx(1 / 0.005)
    # unbound: no per-MDS columns
    assert not any(f"mds_{c}" in rows[0] for c in PER_MDS_COLUMNS)


def test_idle_gap_closes_empty_windows():
    tl = TimelineCollector(window_ms=10.0)
    tl.record_op(1.0)
    tl.advance(95.0)  # jump: windows 0..8 close, window 9 opens
    tl.record_op(1.0)
    tl.finalize(100.0)
    rows = tl.to_rows()
    assert len(rows) == 10
    assert rows[0]["ops"] == 1
    assert all(r["ops"] == 0 for r in rows[1:9])
    assert rows[9]["ops"] == 1


def test_window_array_growth_preserves_data():
    tl = TimelineCollector(window_ms=1.0, initial_windows=2)
    for w in range(50):
        tl.record_op(float(w))
        tl.advance(w + 1.0)
    tl.finalize(50.0)
    rows = tl.to_rows()
    assert len(rows) == 50
    assert all(r["ops"] == 1 for r in rows)
    assert [r["lat_mean_ms"] for r in rows] == [float(w) for w in range(50)]


def test_latency_sample_cap_counts_overflow():
    tl = TimelineCollector(window_ms=10.0, max_latency_samples=2)
    for lat in (1.0, 2.0, 9.0, 9.0, 9.0):
        tl.record_op(lat)
    tl.finalize(10.0)
    row = tl.to_rows()[0]
    assert row["ops"] == 5
    assert row["lat_samples"] == 2
    assert row["lat_dropped"] == 3
    # percentiles come from the deterministic first-N buffer only
    assert row["p99_ms"] <= 2.0
    # the mean is exact regardless of sampling
    assert row["lat_mean_ms"] == pytest.approx(30.0 / 5)


def test_finalize_is_idempotent_and_stops_advance():
    tl = TimelineCollector(window_ms=10.0)
    tl.record_op(1.0)
    tl.finalize(5.0)
    n = tl.n_windows
    tl.finalize(5.0)
    tl.advance(500.0)
    assert tl.n_windows == n == 1


def test_double_bind_rejected():
    class _Env:
        now = 0.0
        events_processed = 0

    class _Cache:
        @staticmethod
        def counters():
            return (0, 0)

    class _Fs:
        env = _Env()
        servers = ()
        cache = _Cache()

    tl = TimelineCollector()
    tl.bind(_Fs())
    with pytest.raises(RuntimeError):
        tl.bind(_Fs())


def test_summary_of_empty_collector():
    tl = TimelineCollector(window_ms=25.0)
    assert tl.summary() == {"windows": 0.0, "window_ms": 25.0}


def test_null_timeline_is_inert():
    assert not NULL_TIMELINE.enabled
    assert NULL_TIMELINE.window_end_ms == float("inf")
    NULL_TIMELINE.record_op(1.0)
    NULL_TIMELINE.record_migration(0, 1, 5)
    NULL_TIMELINE.advance(1e9)
    NULL_TIMELINE.finalize(1e9)
    assert NULL_TIMELINE.n_windows == 0
    assert NULL_TIMELINE.to_rows() == []
    assert NULL_TIMELINE.summary() == {}


def test_imbalance_factor_edge_cases():
    import numpy as np

    # the timeline scores each window's per-MDS busy vector with it
    assert imbalance_factor(np.array([5.0, 5.0, 5.0])) == 0.0
    assert imbalance_factor(np.array([9.0, 0.0, 0.0])) == 1.0
    assert imbalance_factor(np.array([0.0, 0.0])) == 0.0
    assert imbalance_factor(np.array([3.0])) == 0.0
    mid = imbalance_factor(np.array([4.0, 2.0, 0.0]))
    assert 0.0 < mid < 1.0
