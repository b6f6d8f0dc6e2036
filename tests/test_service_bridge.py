"""Async-bridge tests: crash recovery and cancellation under the loop.

The service runs every batch through
:func:`repro.service.bridge.run_cells_streamed` — the hardened runner on
a worker thread, each final :class:`CellResult` hopping back onto the
event loop via ``call_soon_threadsafe``. These tests drive that exact
seam with hostile cells: workers killed mid-batch (in-process re-runs
of the dead workers' cells), cancellation tripped between cells, and in-batch duplicates —
asserting the service-facing contract that *every* submitted cell yields
exactly one streamed result, whatever happens to the pool.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

import pytest

from repro.runner import Cell
from repro.service.bridge import run_cells_streamed


def _square(x):
    return x * x


def _in_worker():
    import multiprocessing

    return multiprocessing.current_process().name != "MainProcess"


def _crash_worker_if_odd(x):
    if x % 2 == 1 and _in_worker():
        os._exit(13)        # hard worker death, not an exception
    return x * x


def _crash_everywhere(x):
    if _in_worker():
        os._exit(13)
    raise RuntimeError("dies everywhere")


def _record_call(path, x):
    with open(path, "a") as handle:
        handle.write(f"{x}\n")
    return x * x


def _boom_and_record(path, x):
    _record_call(path, x)
    raise RuntimeError("boom")


def _trip_then_return(event, x):
    event.set()
    return x


def _mark_then_sleep(x, duration_s, marker=None):
    # ``marker`` is written once the cell runs in a worker: the parent-side
    # trigger waits for it, so the cancel lands while this cell is running.
    if marker is not None:
        with open(marker, "w") as handle:
            handle.write("started")
    time.sleep(duration_s)
    return x


def _cancel_when_marked(marker, cancel, limit_s=30.0):
    deadline = time.monotonic() + limit_s
    while not os.path.exists(marker) and time.monotonic() < deadline:
        time.sleep(0.005)
    cancel.set()


def _calls(path):
    if not os.path.exists(path):
        return []
    with open(path) as handle:
        return [line.strip() for line in handle if line.strip()]


def _streamed(cells, **runner_kwargs):
    """(streamed results in arrival order, returned list) for one batch."""
    arrived = []
    loop_thread = []

    async def drive():
        loop_thread.append(threading.get_ident())
        return await run_cells_streamed(
            cells, on_result=arrived.append, **runner_kwargs
        )

    returned = asyncio.run(drive())
    return arrived, returned, loop_thread[0]


@pytest.mark.usefixtures("fresh_pool")
class TestCrashRecovery:
    def test_pool_killed_mid_batch_loses_nothing(self):
        # Workers die on every odd cell; the runner
        # re-runs the damage in-process. Through the bridge the service
        # must still see one final result per cell — all successful here,
        # because the re-run succeeds outside a worker.
        cells = [Cell(_crash_worker_if_odd, (x,)) for x in range(6)]
        arrived, returned, _ = _streamed(
            cells, jobs=2, pool_threshold_s=0, cache=None
        )
        assert [result.value for result in returned] == [
            x * x for x in range(6)
        ]
        assert sorted(result.index for result in arrived) == list(range(6))
        assert len(arrived) == 6        # exactly once per cell

    def test_unrecoverable_crash_surfaces_failure_not_loss(self):
        # When the in-process re-run after a worker death fails too, the
        # in-flight cell surfaces as a ``crash`` CellFailure — and the
        # other cell in the batch is still delivered, not lost.
        cells = [Cell(_crash_everywhere, (0,)), Cell(_square, (3,))]
        arrived, returned, _ = _streamed(
            cells, jobs=2, pool_threshold_s=0, cache=None
        )
        assert len(returned) == 2 and len(arrived) == 2
        assert not returned[0].ok
        assert returned[0].failure.kind == "crash"
        assert isinstance(returned[0].failure.error, RuntimeError)
        assert returned[1].ok and returned[1].value == 9


class TestCancellation:
    def test_cancel_before_start_reports_every_cell(self, tmp_path):
        # A cancel that lands before the batch starts: nothing executes,
        # yet every cell still streams exactly one ``cancelled`` failure.
        marker = str(tmp_path / "calls")
        cancel = threading.Event()
        cancel.set()
        cells = [Cell(_record_call, (marker, x)) for x in range(4)]
        arrived, returned, _ = _streamed(
            cells, jobs=1, cache=None, cancel=cancel
        )
        assert _calls(marker) == []
        assert len(arrived) == 4
        assert all(
            result.failure is not None
            and result.failure.kind == "cancelled"
            for result in returned
        )

    def test_cancel_mid_batch_cancels_queued_cells_only(self):
        # The first cell trips the cancel event *during its own run* (the
        # deterministic stand-in for a client cancelling mid-batch). It
        # already started, so it completes; the queued cells behind it are
        # resolved as cancelled — accounted for, never dropped.
        cancel = threading.Event()
        cells = [Cell(_trip_then_return, (cancel, 7))] + [
            Cell(_square, (x,)) for x in range(3)
        ]
        arrived, returned, _ = _streamed(
            cells, jobs=1, cache=None, cancel=cancel
        )
        assert returned[0].ok and returned[0].value == 7
        assert all(
            result.failure is not None
            and result.failure.kind == "cancelled"
            for result in returned[1:]
        )
        assert sorted(result.index for result in arrived) == [0, 1, 2, 3]

    def test_cancellation_suppresses_retries(self, tmp_path):
        # A failing cell normally gets ``retries`` extra attempts; once
        # the batch is cancelled it must not be re-run — it resolves as
        # cancelled after exactly its one pre-cancel execution.
        marker = str(tmp_path / "calls")
        cancel = threading.Event()
        cells = [
            Cell(_boom_and_record, (marker, 0)),
            Cell(_trip_then_return, (cancel, 1)),
        ]
        arrived, returned, _ = _streamed(
            cells, jobs=1, cache=None, retries=3, backoff_s=0.0, cancel=cancel
        )
        assert _calls(marker) == ["0"]      # one attempt, zero retries
        assert returned[0].failure is not None
        assert returned[0].failure.kind == "cancelled"
        assert returned[1].ok and returned[1].value == 1
        assert len(arrived) == 2

    def test_cancel_on_pool_path_stops_undispatched_cells(self, tmp_path):
        # The pool path (no serial ramp): two workers run cells 0 and 1
        # when a parent-side thread sets the cancel event. Those two
        # finish normally; the four cells no worker has started resolve
        # as cancelled instead of running afterwards.
        marker = str(tmp_path / "started")
        cancel = threading.Event()
        cells = [Cell(_mark_then_sleep, (0, 0.5), dict(marker=marker))] + [
            Cell(_mark_then_sleep, (x, 0.5)) for x in range(1, 6)
        ]
        trigger = threading.Thread(
            target=_cancel_when_marked, args=(marker, cancel), daemon=True
        )
        trigger.start()
        arrived, returned, _ = _streamed(
            cells, jobs=2, pool_threshold_s=0, cache=None, cancel=cancel
        )
        trigger.join()
        assert [result.value for result in returned[:2]] == [0, 1]
        assert all(result.ok for result in returned[:2])
        assert all(
            result.failure is not None
            and result.failure.kind == "cancelled"
            for result in returned[2:]
        )
        assert sorted(result.index for result in arrived) == list(range(6))
        assert len(arrived) == 6        # exactly once per cell


class TestStreamingContract:
    def test_callbacks_run_on_the_event_loop_thread(self):
        arrived_threads = []
        cells = [Cell(_square, (x,)) for x in range(3)]

        async def drive():
            loop_thread = threading.get_ident()

            def on_result(result):
                arrived_threads.append(threading.get_ident() == loop_thread)

            return await run_cells_streamed(
                cells, jobs=1, cache=None, on_result=on_result
            )

        returned = asyncio.run(drive())
        assert [result.value for result in returned] == [0, 1, 4]
        assert arrived_threads == [True, True, True]

    def test_duplicate_cells_stream_one_result_each(self, tmp_path):
        # In-batch dedup through the bridge: three identical cells, cache
        # disabled — one execution, but the service still receives three
        # streamed results (the fan-out copies marked ``deduped``).
        marker = str(tmp_path / "calls")
        cells = [Cell(_record_call, (marker, 5)) for _ in range(3)]
        arrived, returned, _ = _streamed(cells, jobs=1, cache=None)
        assert _calls(marker) == ["5"]
        assert len(arrived) == 3
        assert [result.value for result in returned] == [25, 25, 25]
        assert [result.deduped for result in returned] == [False, True, True]
