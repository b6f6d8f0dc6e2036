"""Tier-1 tests for the batched FIFO recurrences (:mod:`repro.sim.batch`).

Covers the closed-loop lane recurrences and the open-loop departures
against per-event brute force. Exactness against the full DES on real
artifacts lives in ``tests/test_batched_exact.py``.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.sim.batch import (
    BatchFlow,
    BatchLane,
    BatchPool,
    BatchStage,
    fifo_departures,
    open_loop_departures,
    simulate_closed_loops,
)


# ------------------------------------------------------- batch recurrences


def _brute_force_fifo(arrivals, service, servers):
    """Event-by-event reference for the lag-``servers`` recurrence."""
    free = [0.0] * servers
    out = []
    for arrival in arrivals:
        free.sort()
        begin = max(arrival, free[0])
        free[0] = begin + service
        out.append(begin + service)
    return out


class TestBatchRecurrences:
    @pytest.mark.parametrize("servers", [1, 2, 3, 7])
    def test_fifo_departures_matches_brute_force(self, servers):
        rng = np.random.default_rng(7)
        arrivals = np.sort(rng.uniform(0.0, 50.0, size=64))
        got = fifo_departures(arrivals, 3.5, servers=servers)
        want = _brute_force_fifo(arrivals, 3.5, servers)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_fifo_departures_validation(self):
        with pytest.raises(ConfigurationError):
            fifo_departures([2.0, 1.0], 1.0)
        with pytest.raises(ConfigurationError):
            fifo_departures([1.0], -1.0)
        with pytest.raises(ConfigurationError):
            fifo_departures([1.0], 1.0, servers=0)

    def test_single_lane_matches_vectorized_recurrence(self):
        stage = BatchStage("s", 1)
        pool = BatchPool("p", 4)
        lane = BatchLane(
            stages=((stage, 2.0),), pools=(pool,), fixed_ns=1.0, quota=50
        )
        flow = BatchFlow("f", [lane], size_bytes=64)
        timing = simulate_closed_loops([flow])["f"]
        # One lane, one server: issues chase completions, so arrivals are
        # the previous completion and the recurrence collapses to a ramp.
        assert timing.completed_ns.shape == (50,)
        np.testing.assert_allclose(np.diff(timing.completed_ns), 3.0)

    def test_pacing_gate_never_falls_behind(self):
        stage = BatchStage("s", 8)
        lanes = [
            BatchLane(stages=((stage, 1.0),), pools=(), fixed_ns=0.0, quota=10)
            for _ in range(4)
        ]
        flow = BatchFlow("f", lanes, size_bytes=64, interval_ns=5.0)
        timing = simulate_closed_loops([flow])["f"]
        issued = np.sort(timing.issued_ns)
        assert np.all(np.diff(issued) >= 5.0 - 1e-9)

    def test_warmup_skip_is_per_lane(self):
        stage = BatchStage("s", 2)
        lanes = [
            BatchLane(stages=((stage, 1.0),), pools=(), fixed_ns=0.0, quota=5)
            for _ in range(2)
        ]
        flow = BatchFlow("f", lanes, size_bytes=64, warmup_skip=2)
        timing = simulate_closed_loops([flow])["f"]
        assert int(timing.counted.sum()) == 2 * (5 - 2)


# ------------------------------------------------- open-loop recurrences


def _brute_force_open_loop(arrivals, service_of_lane, servers):
    """Per-event reference for the lane-bound open-loop pool (request
    ``i`` serves on lane ``i % servers``, matching the DES core binding)."""
    free = [0.0] * servers
    out = []
    for i, arrival in enumerate(arrivals):
        lane = i % servers
        begin = max(arrival, free[lane])
        free[lane] = begin + service_of_lane[lane]
        out.append(free[lane])
    return out


class TestOpenLoopDepartures:
    @pytest.mark.parametrize("servers", [1, 2, 3, 5])
    def test_scalar_service_matches_brute_force(self, servers):
        rng = np.random.default_rng(11)
        arrivals = np.sort(rng.uniform(0.0, 80.0, size=64))
        got = open_loop_departures(arrivals, 3.5, servers=servers)
        want = _brute_force_open_loop(arrivals, [3.5] * servers, servers)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_per_server_service_matches_brute_force(self):
        rng = np.random.default_rng(12)
        arrivals = np.sort(rng.uniform(0.0, 80.0, size=64))
        service = np.array([2.0, 5.0, 3.0])
        got = open_loop_departures(arrivals, service, servers=3)
        want = _brute_force_open_loop(arrivals, service, 3)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_per_job_service_matches_serial_queue(self):
        rng = np.random.default_rng(13)
        arrivals = np.sort(rng.uniform(0.0, 40.0, size=50))
        service = rng.uniform(0.5, 4.0, size=50)
        got = open_loop_departures(arrivals, service, servers=1)
        free, want = 0.0, []
        for arrival, s in zip(arrivals, service):
            free = max(arrival, free) + s
            want.append(free)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-9)

    def test_scalar_path_is_fifo_departures(self):
        arrivals = np.array([0.0, 1.0, 1.5, 9.0])
        np.testing.assert_array_equal(
            open_loop_departures(arrivals, 2.0, servers=2),
            fifo_departures(arrivals, 2.0, servers=2),
        )

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            open_loop_departures([2.0, 1.0], 1.0)
        with pytest.raises(ConfigurationError):
            open_loop_departures([1.0, 2.0], -1.0)
        with pytest.raises(ConfigurationError):
            open_loop_departures([1.0, 2.0], 1.0, servers=0)
        with pytest.raises(ConfigurationError):
            # Service vector matching neither the pool nor the jobs.
            open_loop_departures([1.0, 2.0], np.ones(3), servers=2)
