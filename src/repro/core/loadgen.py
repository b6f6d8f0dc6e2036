"""Load generation: closed-loop issue on the DES, open-loop arrival arrays.

The paper controls offered load by padding the instruction stream with NOPs
(§3.4): each core keeps at most its MLP window outstanding and issues no
faster than the target rate. :class:`ClosedLoopIssuer` models exactly that —
``window`` outstanding transactions per worker plus a shared pacing gate —
and collects per-transaction latency samples.

Serving workloads are *open-loop*: arrivals do not wait for completions.
:func:`poisson_arrivals`, :func:`onoff_arrivals`, and
:func:`diurnal_arrivals` generate sorted arrival-time arrays directly as
numpy vectors so the batched recurrence engines
(:func:`repro.sim.batch.open_loop_departures`) can consume millions of
requests without a per-event loop. All three are deterministic given a
``numpy.random.Generator`` (obtain one from
``SplitRng(seed).stream(name)``); the Poisson generator draws the same
exponential gap sequence the DES arrival process draws scalar-by-scalar,
so hybrid and DES runs see bit-identical arrival times. The bursty and
diurnal shapes are non-homogeneous Poisson processes generated by exact
inversion of the piecewise-constant cumulative rate — no thinning, no
rejected draws.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Generator, List, Optional, Sequence

import numpy as np

from repro.analysis.stats import LatencyStats
from repro.errors import ConfigurationError
from repro.memory.cxl import CxlDeviceModel
from repro.memory.umc import UmcServer
from repro.sim.batch import (
    BatchFlow,
    BatchLane,
    BatchPool,
    BatchStage,
    simulate_closed_loops,
)
from repro.sim.engine import Environment, Event
from repro.transport.message import OpKind, Transaction
from repro.transport.path import CompiledPath
from repro.transport.transaction import TransactionExecutor
from repro.units import CACHELINE

__all__ = [
    "ClosedLoopIssuer",
    "LoadResult",
    "poisson_arrivals",
    "onoff_arrivals",
    "diurnal_arrivals",
]


def poisson_arrivals(
    rng: np.random.Generator,
    rate_qps: float,
    count: int,
    start_ns: float = 0.0,
) -> np.ndarray:
    """Sorted arrival times (ns) of a homogeneous Poisson stream.

    The gaps are one batched ``rng.exponential(scale, count)`` draw —
    bit-identical to ``count`` sequential scalar draws from the same
    generator, which is how the DES arrival process consumes its stream.
    """
    if rate_qps <= 0:
        raise ConfigurationError(f"rate must be positive, got {rate_qps}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    gaps = rng.exponential(1e9 / rate_qps, size=count)
    return start_ns + np.cumsum(gaps)


def _inversion_arrivals(
    rng: np.random.Generator,
    count: int,
    durations_ns: np.ndarray,
    rates_qps: np.ndarray,
    start_ns: float,
) -> np.ndarray:
    """Non-homogeneous Poisson arrivals over a cyclic piecewise-constant
    rate profile, by exact inversion of the cumulative rate function."""
    # Unit-rate Poisson points on the cumulative-rate axis.
    targets = np.cumsum(rng.exponential(1.0, size=count))
    # Expected events contributed by each segment of one cycle.
    seg_mass = durations_ns * rates_qps / 1e9
    cycle_mass = float(seg_mass.sum())
    if cycle_mass <= 0:
        raise ConfigurationError("rate profile must have positive mean rate")
    period_ns = float(durations_ns.sum())
    cycles = np.floor(targets / cycle_mass)
    frac = targets - cycles * cycle_mass
    mass_ends = np.cumsum(seg_mass)
    time_starts = np.concatenate(([0.0], np.cumsum(durations_ns)[:-1]))
    mass_starts = np.concatenate(([0.0], mass_ends[:-1]))
    seg = np.searchsorted(mass_ends, frac, side="right")
    seg = np.minimum(seg, seg_mass.size - 1)
    rate_per_ns = rates_qps[seg] / 1e9
    within = (frac - mass_starts[seg]) / rate_per_ns
    return start_ns + cycles * period_ns + time_starts[seg] + within


def onoff_arrivals(
    rng: np.random.Generator,
    on_qps: float,
    off_qps: float,
    on_ns: float,
    off_ns: float,
    count: int,
    start_ns: float = 0.0,
) -> np.ndarray:
    """Sorted arrival times (ns) of a bursty on/off Poisson stream.

    Rate alternates between ``on_qps`` (for ``on_ns``) and ``off_qps``
    (for ``off_ns``); ``off_qps`` may be zero for hard silences.
    """
    if on_qps <= 0 or off_qps < 0:
        raise ConfigurationError("on rate must be positive, off rate >= 0")
    if on_ns <= 0 or off_ns < 0:
        raise ConfigurationError("on duration must be positive, off >= 0")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    return _inversion_arrivals(
        rng,
        count,
        np.array([on_ns, off_ns], dtype=float),
        np.array([on_qps, off_qps], dtype=float),
        start_ns,
    )


def diurnal_arrivals(
    rng: np.random.Generator,
    peak_qps: float,
    levels: Sequence[float],
    period_ns: float,
    count: int,
    start_ns: float = 0.0,
) -> np.ndarray:
    """Sorted arrival times (ns) following a cyclic trace of rate levels.

    ``levels`` are relative multipliers of ``peak_qps`` (e.g. a 24-slot
    day shape); each level holds for ``period_ns / len(levels)``.
    """
    if peak_qps <= 0:
        raise ConfigurationError(f"peak rate must be positive, got {peak_qps}")
    if period_ns <= 0:
        raise ConfigurationError(f"period must be positive, got {period_ns}")
    if count < 1:
        raise ConfigurationError(f"count must be >= 1, got {count}")
    shape = np.asarray(levels, dtype=float)
    if shape.ndim != 1 or shape.size == 0:
        raise ConfigurationError("levels must be a non-empty 1-D sequence")
    if np.any(shape < 0) or not np.any(shape > 0):
        raise ConfigurationError("levels must be >= 0 with at least one > 0")
    durations = np.full(shape.size, period_ns / shape.size, dtype=float)
    return _inversion_arrivals(
        rng, count, durations, peak_qps * shape, start_ns
    )


@dataclass(frozen=True)
class LoadResult:
    """Outcome of one load run: latency stats plus delivered bandwidth."""

    stats: LatencyStats
    offered_gbps: Optional[float]
    achieved_gbps: float
    elapsed_ns: float


class ClosedLoopIssuer:
    """A group of workers issuing transactions over one or more paths."""

    def __init__(
        self,
        env: Environment,
        executor: TransactionExecutor,
        path_of_worker: Callable[[int], CompiledPath],
        op: OpKind,
        workers: int,
        window: int,
        count_per_worker: int,
        rate_gbps: Optional[float] = None,
        size_bytes: int = CACHELINE,
        warmup_fraction: float = 0.1,
    ) -> None:
        if workers < 1 or window < 1 or count_per_worker < 1:
            raise ConfigurationError("workers, window, and count must be >= 1")
        if rate_gbps is not None and rate_gbps <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate_gbps}")
        if not 0.0 <= warmup_fraction < 1.0:
            raise ConfigurationError("warmup fraction must be in [0, 1)")
        self.env = env
        self.executor = executor
        self.path_of_worker = path_of_worker
        self.op = op
        self.workers = workers
        self.window = window
        self.count_per_worker = count_per_worker
        self.size_bytes = size_bytes
        self.warmup_fraction = warmup_fraction
        # Shared pacing gate: the aggregate never issues faster than the
        # offered rate (one slot every size/rate ns across all workers).
        # None → issue as fast as the windows allow.
        self._interval_ns = (
            size_bytes / rate_gbps if rate_gbps is not None else None
        )
        self.rate_gbps = rate_gbps
        self._next_issue_ns = 0.0
        self._samples: List[float] = []
        self._bytes_measured = 0
        self._measure_start_ns: Optional[float] = None
        self._measure_end_ns = 0.0

    def _worker(self, worker_id: int) -> Generator[Event, None, None]:
        path = self.path_of_worker(worker_id)
        warmup = int(self.count_per_worker * self.warmup_fraction)
        # Each worker runs `window` lanes; a lane is one outstanding slot.
        lanes = [
            self.env.process(self._lane(path, worker_id, lane, warmup))
            for lane in range(self.window)
        ]
        yield self.env.all_of(lanes)

    def _lane(
        self, path: CompiledPath, worker_id: int, lane: int, warmup: int
    ) -> Generator[Event, None, None]:
        # Split the per-worker count over its lanes (remainder to lane 0).
        base, extra = divmod(self.count_per_worker, self.window)
        quota = base + (1 if lane < extra else 0)
        for i in range(quota):
            if self._interval_ns is not None:
                # Claim the next pacing slot for the whole issuer group.
                # Pacing must never fall behind real time, or an idle period
                # would be followed by an artificial burst.
                slot = max(self._next_issue_ns, self.env.now)
                self._next_issue_ns = slot + self._interval_ns
                if slot > self.env.now:
                    yield self.env.timeout(slot - self.env.now)
            txn = Transaction(
                self.op, self.size_bytes, src_core=worker_id, flow_id=worker_id
            )
            done = self.env.process(self.executor.execute(txn, path))
            yield done
            if i >= warmup // max(1, self.window):
                if self._measure_start_ns is None:
                    self._measure_start_ns = txn.issued_ns
                self._samples.append(txn.latency_ns)
                self._bytes_measured += txn.size_bytes
                self._measure_end_ns = self.env.now

    def start(self):
        """Start all workers; returns the event that fires when all finish.

        Use this to compose several issuers (e.g. a read stream and a write
        stream) in one environment, then ``env.run(env.all_of([...]))``.
        """
        return self.env.all_of(
            [self.env.process(self._worker(w)) for w in range(self.workers)]
        )

    def result(self) -> LoadResult:
        """Summarize after the simulation has run (see :meth:`start`)."""
        return self._summarize(
            self._samples, self._bytes_measured,
            self._measure_start_ns, self._measure_end_ns,
        )

    def _summarize(
        self,
        samples,
        measured_bytes: int,
        start_ns: Optional[float],
        end_ns: float,
    ) -> LoadResult:
        if len(samples) == 0:
            raise ConfigurationError(
                "no samples collected (count too small for the warmup fraction?)"
            )
        elapsed = max(end_ns - (start_ns or 0.0), 1e-9)
        return LoadResult(
            stats=LatencyStats.from_samples(samples),
            offered_gbps=self.rate_gbps,
            achieved_gbps=measured_bytes / elapsed,
            elapsed_ns=elapsed,
        )

    def run(self) -> LoadResult:
        """Start all workers, run the DES to completion, summarize."""
        self.env.run(self.start())
        return self.result()

    def batch_flow(self) -> BatchFlow:
        """Compile this issuer into one :class:`~repro.sim.batch.BatchFlow`.

        Every worker's compiled path becomes ``window`` lanes with the
        :meth:`_lane` quotas; each DES element (arbiter direction, UMC,
        CXL device, token pool) maps to one shared batched stage or pool,
        so workers contend exactly where they do on the DES. A UMC or CXL
        stage draws its jitter at grant time from the device's own stream,
        which advances that stream: compile an issuer whose environment
        has not run, and run it on one engine only.

        The stages and pools are private to this one issuer. Flows
        compiled from several issuers each get their own copies of the
        shared elements, so they do not contend with one another, and the
        order guard cannot notice: it only sees arrivals within a stage it
        owns. Compiled issuer by issuer, the 9634 contention cell (a paced
        victim plus one hog per other CCD, 150 transactions per core,
        seed 0) gave the victim 22.9 GB/s against 6.7 GB/s on the DES,
        with 0 order violations. Multi-issuer cells therefore run on the
        DES.
        """
        is_write = self.op.is_write
        stages: Dict[int, BatchStage] = {}
        pools: Dict[int, BatchPool] = {}
        base, extra = divmod(self.count_per_worker, self.window)
        lanes: List[BatchLane] = []
        for worker in range(self.workers):
            path = self.path_of_worker(worker)
            plan = []
            for stage in path.stages:
                server = stage.server
                batch = stages.get(id(server))
                if batch is None:
                    jitter = None
                    if (
                        isinstance(server, (UmcServer, CxlDeviceModel))
                        and server.timing is not None
                        and server.rng is not None
                    ):
                        jitter = partial(
                            server.timing.sample_extra_ns, server.rng
                        )
                    batch = stages[id(server)] = BatchStage(
                        stage.name,
                        stage.direction(is_write).resource.capacity,
                        jitter,
                    )
                plan.append(
                    (batch, stage.unloaded_service_ns(self.size_bytes, is_write))
                )
            gates = []
            for pool in path.tokens:
                gate = pools.get(id(pool))
                if gate is None:
                    gate = pools[id(pool)] = BatchPool(pool.name, pool.capacity)
                gates.append(gate)
            for lane in range(self.window):
                lanes.append(BatchLane(
                    stages=tuple(plan),
                    pools=tuple(gates),
                    fixed_ns=path.fixed_ns,
                    quota=base + (1 if lane < extra else 0),
                ))
        warmup = int(self.count_per_worker * self.warmup_fraction)
        return BatchFlow(
            name="issuer",
            lanes=lanes,
            size_bytes=self.size_bytes,
            interval_ns=self._interval_ns,
            warmup_skip=warmup // max(1, self.window),
        )

    def run_batched(self) -> Optional[LoadResult]:
        """:meth:`run` on the batched recurrences, or None if not exact.

        Runs :meth:`batch_flow` through
        :func:`~repro.sim.batch.simulate_closed_loops` and summarizes the
        samples in completion order, as :meth:`_lane` collects them, so
        the result is bit-identical to :meth:`run`'s. When any stage or
        pool saw an out-of-order arrival (the order guard) it returns
        None: the caller reruns the point on a fresh DES. The jitter
        streams have advanced by then, so the rerun needs new elements.
        """
        flow = self.batch_flow()
        timing = simulate_closed_loops([flow])[flow.name]
        if flow.order_violations():
            return None
        order = np.argsort(timing.completed_ns, kind="stable")
        counted = timing.counted[order]
        issued = timing.issued_ns[order][counted]
        completed = timing.completed_ns[order][counted]
        return self._summarize(
            completed - issued,
            int(counted.sum()) * self.size_bytes,
            float(issued[0]) if issued.size else None,
            float(completed[-1]) if completed.size else 0.0,
        )
