"""Exactness of the batched closed-loop engine against the per-event DES.

``MicroBench.loaded_latency`` and the DRAM/CXL ``pointer_chase`` rows run
on the batched recurrences (``ClosedLoopIssuer.run_batched``) when they
can. The DES stays the reference: every Figure 3 panel × op, at two
seeds and three load points, must match ``ClosedLoopIssuer.run()`` on a
fresh environment bit for bit — except ``mean``/``std``, which may sum
tied completions in another order (1e-12 relative). The order guard must
catch the one configuration where two chiplets' paths merge at the NoC
out of FIFO order, and strict or faulted calls must never reach the
batched engine at all.
"""

import math

import pytest

from repro.core.loadgen import ClosedLoopIssuer
from repro.core.microbench import MicroBench
from repro.experiments import chaos, fig3
from repro.platform.numa import Position
from repro.sim.batch import BatchFlow, BatchLane, BatchPool, BatchStage
from repro.sim.batch import simulate_closed_loops
from repro.transport.message import OpKind

_TXNS = 150
_SEEDS = (0, 7919)
_LOADS = (0.3, 0.8, None)

_PANELS = [
    (name, panel, op)
    for name, panels in (("7302", "acd"), ("9634", "bef"))
    for panel in panels
    for op in (OpKind.READ, OpKind.NT_WRITE)
]


@pytest.fixture
def engine_log(monkeypatch):
    """Record each ``run_batched`` outcome: True ran batched, False fell back."""
    log = []
    batched = ClosedLoopIssuer.run_batched

    def recording(self):
        result = batched(self)
        log.append(result is not None)
        return result

    monkeypatch.setattr(ClosedLoopIssuer, "run_batched", recording)
    return log


def _des_only(monkeypatch):
    monkeypatch.setattr(ClosedLoopIssuer, "run_batched", lambda self: None)


def _point_args(platform, panel, op, load):
    config = next(c for c in fig3.panel_configs(platform) if c.panel == panel)
    peak = config.max_offered_write if op.is_write else config.max_offered_read
    window = config.window_write if op.is_write else config.window_read
    rate = None if load is None else load * peak
    kwargs = dict(
        umc_ids=fig3._target_umcs(platform, config),
        target=config.target,
        window_per_core=window,
        transactions_per_core=_TXNS,
    )
    return (fig3._core_ids(platform, config), op, rate), kwargs


def _assert_same(batched, des):
    a, b = batched.stats, des.stats
    assert a.count == b.count
    assert (a.p50, a.p99, a.p999) == (b.p50, b.p99, b.p999)
    assert (a.minimum, a.maximum) == (b.minimum, b.maximum)
    assert batched.achieved_gbps == des.achieved_gbps
    assert batched.elapsed_ns == des.elapsed_ns
    assert batched.offered_gbps == des.offered_gbps
    assert math.isclose(a.mean, b.mean, rel_tol=1e-12, abs_tol=0.0)
    assert math.isclose(a.std, b.std, rel_tol=1e-12, abs_tol=0.0)


@pytest.mark.parametrize("seed", _SEEDS)
@pytest.mark.parametrize(
    "name,panel,op", _PANELS, ids=[f"{n}-{p}-{o.value}" for n, p, o in _PANELS]
)
def test_fig3_points_match_des(
    name, panel, op, seed, p7302, p9634, engine_log, monkeypatch
):
    platform = p7302 if name == "7302" else p9634
    batched = []
    for load in _LOADS:
        args, kwargs = _point_args(platform, panel, op, load)
        batched.append(MicroBench(platform, seed=seed).loaded_latency(
            *args, **kwargs
        ))
    # Two CCDs merge at the shared NoC out of FIFO order only when both
    # run unthrottled: that point alone must have fallen back to the DES.
    merged = (name, panel) == ("7302", "c")
    assert engine_log == [True, True, not merged]
    _des_only(monkeypatch)
    for load, result in zip(_LOADS, batched):
        args, kwargs = _point_args(platform, panel, op, load)
        des = MicroBench(platform, seed=seed).loaded_latency(*args, **kwargs)
        _assert_same(result, des)


def test_guard_trip_returns_the_des_result(p7302, engine_log, monkeypatch):
    args, kwargs = _point_args(p7302, "c", OpKind.READ, None)
    result = MicroBench(p7302, seed=0).loaded_latency(*args, **kwargs)
    assert engine_log == [False]
    _des_only(monkeypatch)
    des = MicroBench(p7302, seed=0).loaded_latency(*args, **kwargs)
    assert result == des


def test_order_guard_counts_out_of_order_arrivals():
    stage = BatchStage("s", 1)
    pool = BatchPool("p", 1)
    for ready in (1.0, 3.0, 2.0, 2.5, 5.0):
        stage.serve(ready, 1.0)
        pool.commit(pool.gate(ready))
    assert stage.order_violations == 1
    assert pool.order_violations == 1


def test_stage_draws_jitter_at_grant_in_processing_order():
    draws = iter([10.0, 0.0, 5.0])
    stage = BatchStage("umc", 1, jitter=lambda: next(draws))
    lanes = [
        BatchLane(stages=((stage, 2.0),), pools=(), fixed_ns=1.0, quota=1)
        for _ in range(3)
    ]
    flow = BatchFlow("f", lanes, size_bytes=64)
    timing = simulate_closed_loops([flow])["f"]
    # All three arrive at t=0 and are served in lane order: 12, 14, 21.
    assert list(timing.completed_ns) == [13.0, 15.0, 22.0]
    assert flow.order_violations() == 0


def test_paced_issue_uses_the_des_timeout_arithmetic():
    # The DES waits ``timeout(slot - now)``, landing at now + (slot - now),
    # which is not always ``slot`` in floating point: here 5.299999999999999.
    stage = BatchStage("s", 1)
    lane = BatchLane(stages=((stage, 1.0),), pools=(), fixed_ns=0.1, quota=2)
    flow = BatchFlow("f", [lane], size_bytes=64, interval_ns=5.3)
    timing = simulate_closed_loops([flow])["f"]
    ready = timing.completed_ns[0]
    assert ready == 1.1
    assert timing.issued_ns[1] == ready + (5.3 - ready) != 5.3


def test_strict_and_faulted_calls_stay_on_des(p9634, monkeypatch):
    def refuse(flows):
        raise AssertionError("strict/faulted point reached the batched engine")

    monkeypatch.setattr("repro.core.loadgen.simulate_closed_loops", refuse)
    bench = MicroBench(p9634, seed=0)
    args, kwargs = _point_args(p9634, "e", OpKind.READ, 0.8)
    bench.loaded_latency(*args, strict=True, **kwargs)
    bench.loaded_latency(
        *args, fault_schedule=chaos.default_schedule(0), **kwargs
    )


@pytest.mark.parametrize(
    "name,target,position,remote",
    [
        ("9634", "dram", Position.NEAR, False),
        ("9634", "dram", Position.DIAGONAL, False),
        ("7302", "dram", Position.NEAR, True),
        ("9634", "cxl", Position.NEAR, False),
    ],
)
def test_pointer_chase_matches_des(
    name, target, position, remote, p7302, p9634, engine_log, monkeypatch
):
    platform = p7302 if name == "7302" else p9634
    chase = dict(
        working_set_bytes=1 << 30, target=target, position=position,
        remote_socket=remote, iterations=300,
    )
    __, batched = MicroBench(platform, seed=3).pointer_chase(**chase)
    assert engine_log == [True]
    _des_only(monkeypatch)
    __, des = MicroBench(platform, seed=3).pointer_chase(**chase)
    assert batched == des
