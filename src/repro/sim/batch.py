"""Batched closed-loop transaction recurrences.

A closed-loop stream does not need the generator machinery of the serial
DES to be timed: FIFO departure times obey exact recurrences. For a single
server with constant service ``s``,

    ``d_i = max(a_i, d_{i-1}) + s``

which unrolls to the vectorizable prefix-max form

    ``d_i = s * (i + 1) + max_{j <= i} (a_j - s * j)``

(:func:`fifo_departures` computes it with one ``np.maximum.accumulate``).
A ``c``-server FIFO splits into ``c`` independent interleaved chains
(``d_i = max(a_i, d_{i-c}) + s``), and a token pool of capacity ``T`` is
the same lag recurrence on completions.

:func:`simulate_closed_loops` generalizes this to the coupled case — many
lanes, shared stages, shared token pools, a shared pacing gate — by
processing transactions in lane-ready order and resolving each stage/pool
constraint against a small heap of in-flight departure times. That is one
arithmetic pass per transaction instead of the serial engine's ~15 heap
events, generator frames, and callback sweeps per transaction. The lane
semantics deliberately mirror :class:`repro.core.loadgen.ClosedLoopIssuer`:
``window`` lanes per worker, per-lane quota ``divmod(count, window)``, a
group-wide pacing gate that never falls behind the clock, and the same
warmup-skip rule.

Two properties make the recurrences exact against the DES rather than an
approximation of it:

* **Grant-time jitter.** A stage built with a ``jitter`` callable (a UMC
  or CXL device: ``DramTimingModel.sample_extra_ns`` bound to the
  resolver's per-device stream) draws its extra service when it grants a
  transaction, exactly where the DES element draws it. Grants happen in
  FIFO order, so the draws come off the stream in the DES's order.
* **The order guard.** Each transaction clears its whole path before the
  next one is processed, which is FIFO at every stage only while each
  stage and pool sees its arrivals in non-decreasing time. Every
  :class:`BatchStage` and :class:`BatchPool` counts the arrivals earlier
  than the previous one (``order_violations``). A non-zero count means
  two path shapes overtook each other at a shared element; the result is
  then not exact and callers rerun the point on the DES (see
  :meth:`repro.core.loadgen.ClosedLoopIssuer.run_batched`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "fifo_departures",
    "open_loop_departures",
    "BatchStage",
    "BatchPool",
    "BatchLane",
    "BatchFlow",
    "FlowTiming",
    "simulate_closed_loops",
]


def fifo_departures(arrivals, service_ns: float, servers: int = 1) -> np.ndarray:
    """Exact departure times of a constant-service FIFO (vectorized).

    ``arrivals`` must be sorted non-decreasing; ``servers`` parallel
    servers each take ``service_ns`` per job (jobs are served in arrival
    order, each by the first free server — the lag-``servers`` recurrence).
    """
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1:
        raise ConfigurationError("arrivals must be a 1-D array")
    if service_ns < 0:
        raise ConfigurationError(f"negative service time: {service_ns}")
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if a.size == 0:
        return a.copy()
    if np.any(np.diff(a) < 0):
        raise ConfigurationError("arrivals must be sorted non-decreasing")
    out = np.empty_like(a)
    for lane in range(min(servers, a.size)):
        chain = a[lane::servers]
        idx = np.arange(chain.size, dtype=float)
        out[lane::servers] = (
            np.maximum.accumulate(chain - service_ns * idx)
            + service_ns * (idx + 1.0)
        )
    return out


def open_loop_departures(arrivals, service_ns, servers: int = 1) -> np.ndarray:
    """Exact departure times of an open-loop FIFO, vectorized.

    ``arrivals`` is a sorted non-decreasing array of request arrival
    times. ``service_ns`` may be:

    * a scalar — constant service; identical to :func:`fifo_departures`;
    * an array of length ``servers`` (with ``servers > 1`` or a 1-element
      array) — per-server constant service, where request ``i`` is bound
      to server ``i % servers`` (the worker-pool assignment the DES
      kvstore model uses), so each interleaved chain is an independent
      single-server FIFO with its own constant service;
    * an array of length ``len(arrivals)`` with ``servers == 1`` —
      per-request service, computed through the cumulative-sum
      generalization of the prefix-max recurrence:
      ``d_i = S_i + max_{j <= i} (a_j - S_{j-1})`` with
      ``S_i = sum(service[:i+1])``.

    All three forms are exact recurrences, not approximations.
    """
    a = np.asarray(arrivals, dtype=float)
    if a.ndim != 1:
        raise ConfigurationError("arrivals must be a 1-D array")
    if servers < 1:
        raise ConfigurationError(f"servers must be >= 1, got {servers}")
    if a.size > 1 and np.any(np.diff(a) < 0):
        raise ConfigurationError("arrivals must be sorted non-decreasing")
    service = np.asarray(service_ns, dtype=float)
    if np.any(service < 0):
        raise ConfigurationError("negative service time")
    if service.ndim == 0:
        return fifo_departures(a, float(service), servers)
    if service.ndim != 1:
        raise ConfigurationError("service_ns must be a scalar or 1-D array")
    if a.size == 0:
        return a.copy()
    if service.size == servers:
        out = np.empty_like(a)
        for lane in range(min(servers, a.size)):
            chain = a[lane::servers]
            s = float(service[lane])
            idx = np.arange(chain.size, dtype=float)
            out[lane::servers] = (
                np.maximum.accumulate(chain - s * idx) + s * (idx + 1.0)
            )
        return out
    if servers == 1 and service.size == a.size:
        cum = np.cumsum(service)
        start = np.empty_like(cum)
        start[0] = 0.0
        start[1:] = cum[:-1]
        return cum + np.maximum.accumulate(a - start)
    raise ConfigurationError(
        "service_ns array must have length servers "
        f"({servers}) or, for a single server, length len(arrivals) "
        f"({a.size}); got {service.size}"
    )


class BatchStage:
    """One queued stage (arbiter direction / UMC) shared by batched flows.

    ``servers`` parallel servers; each transaction occupies one for its
    service time. Transactions are granted in processing order (the global
    ready order of :func:`simulate_closed_loops`), each starting no earlier
    than the earliest in-flight departure once all servers are busy.
    ``jitter`` (no arguments, returns ns) is drawn at each grant and added
    to that transaction's service time, as a DRAM/CXL device does.
    """

    __slots__ = (
        "name", "servers", "jitter", "_busy", "_last_ready",
        "order_violations", "busy_ns", "bytes_served",
    )

    def __init__(
        self,
        name: str,
        servers: int,
        jitter: Optional[Callable[[], float]] = None,
    ) -> None:
        if servers < 1:
            raise ConfigurationError(
                f"stage {name}: servers must be >= 1, got {servers}"
            )
        self.name = name
        self.servers = servers
        self.jitter = jitter
        self._busy: List[float] = []
        self._last_ready = 0.0
        #: Arrivals earlier than the previous one: not served in FIFO order.
        self.order_violations = 0
        self.busy_ns = 0.0
        self.bytes_served = 0

    def serve(self, ready_ns: float, service_ns: float) -> float:
        """Grant one transaction arriving at ``ready_ns``; its departure."""
        if ready_ns < self._last_ready:
            self.order_violations += 1
        self._last_ready = ready_ns
        busy = self._busy
        if len(busy) >= self.servers:
            earliest = heappop(busy)
            if earliest > ready_ns:
                ready_ns = earliest
        if self.jitter is not None:
            service_ns = service_ns + self.jitter()
        depart = ready_ns + service_ns
        heappush(busy, depart)
        self.busy_ns += service_ns
        return depart


class BatchPool:
    """A token pool (counted semaphore) shared by batched flows.

    Tokens are granted in processing order and held until the holder's
    completion time (the serial executor releases after the fixed
    remainder), so the gate constraint is the earliest in-flight
    completion once the pool is exhausted.
    """

    __slots__ = ("name", "capacity", "_held", "_last_ready", "order_violations")

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"pool {name}: capacity must be >= 1, got {capacity}"
            )
        self.name = name
        self.capacity = capacity
        self._held: List[float] = []
        self._last_ready = 0.0
        #: Requests earlier than the previous one: not granted in FIFO order.
        self.order_violations = 0

    def gate(self, ready_ns: float) -> float:
        """Earliest time a token is free for a request ready at ``ready_ns``."""
        if ready_ns < self._last_ready:
            self.order_violations += 1
        self._last_ready = ready_ns
        held = self._held
        if len(held) >= self.capacity:
            earliest = heappop(held)
            if earliest > ready_ns:
                ready_ns = earliest
        return ready_ns

    def commit(self, complete_ns: float) -> None:
        """Record the granted token as held until ``complete_ns``."""
        heappush(self._held, complete_ns)


@dataclass(frozen=True)
class BatchLane:
    """One outstanding-transaction slot: its route and transaction quota."""

    #: Ordered (stage, service_ns) pairs the transaction clears in sequence.
    stages: Tuple[Tuple[BatchStage, float], ...]
    #: Token pools acquired at issue and released at completion.
    pools: Tuple[BatchPool, ...]
    #: Load-independent remainder added after the last stage.
    fixed_ns: float
    quota: int


@dataclass
class BatchFlow:
    """A closed-loop stream: lanes plus an optional shared pacing gate."""

    name: str
    lanes: List[BatchLane]
    size_bytes: int
    #: ``size_bytes / rate_gbps`` — None issues as fast as the windows allow.
    interval_ns: Optional[float] = None
    #: Per-lane warmup samples to skip (loadgen's ``warmup // window``).
    warmup_skip: int = 0
    _next_issue_ns: float = field(default=0.0, repr=False)

    def order_violations(self) -> int:
        """Out-of-order arrivals over this flow's stages and pools.

        Zero means every shared element saw FIFO order, so the timings
        equal the per-event DES's; anything else means they may not.
        """
        elements = {}
        for lane in self.lanes:
            for stage, __ in lane.stages:
                elements[id(stage)] = stage
            for pool in lane.pools:
                elements[id(pool)] = pool
        return sum(element.order_violations for element in elements.values())


@dataclass(frozen=True)
class FlowTiming:
    """Per-flow outcome arrays (in transaction processing order)."""

    name: str
    issued_ns: np.ndarray
    completed_ns: np.ndarray
    #: Boolean mask of samples counted after the warmup skip.
    counted: np.ndarray

    @property
    def latencies_ns(self) -> np.ndarray:
        return self.completed_ns[self.counted] - self.issued_ns[self.counted]

    def achieved_gbps(self, size_bytes: int) -> float:
        """Counted bytes over the counted issue-to-completion span."""
        counted = self.counted
        if not counted.any():
            raise ConfigurationError(
                f"flow {self.name}: no samples survived the warmup skip"
            )
        begin = float(self.issued_ns[counted].min())
        end = float(self.completed_ns[counted].max())
        elapsed = max(end - begin, 1e-9)
        return int(counted.sum()) * size_bytes / elapsed


def simulate_closed_loops(flows: Sequence[BatchFlow]) -> Dict[str, FlowTiming]:
    """Run every flow's lanes to quota exhaustion; returns per-flow timings.

    Transactions are processed one at a time in lane-ready order (ties
    broken by ``(flow index, lane index)`` — the order the serial engine's
    process-creation sequence induces). Each transaction claims its pacing
    slot, gates through its token pools, clears its stages, then commits
    its completion back to the pools — the exact lifecycle of
    :meth:`repro.transport.transaction.TransactionExecutor.execute`, as
    arithmetic instead of events. A paced issue lands at ``ready + (slot -
    ready)``, the DES's timeout arithmetic, so issue times match it bit
    for bit.
    """
    if not flows:
        return {}
    totals = [sum(lane.quota for lane in flow.lanes) for flow in flows]
    issued = [np.empty(total) for total in totals]
    completed = [np.empty(total) for total in totals]
    lane_index = [np.empty(total, dtype=np.int64) for total in totals]
    cursor = [0] * len(flows)
    quotas = [[lane.quota for lane in flow.lanes] for flow in flows]

    # (ready_ns, flow_idx, lane_idx): all lanes start at t=0, in the same
    # order the serial engine bootstraps its lane processes.
    heap: List[Tuple[float, int, int]] = [
        (0.0, flow_idx, lane_idx)
        for flow_idx, flow in enumerate(flows)
        for lane_idx in range(len(flow.lanes))
        if flow.lanes[lane_idx].quota > 0
    ]
    # Already sorted by construction (all times 0.0, tie keys ascending).

    while heap:
        ready, flow_idx, lane_idx = heappop(heap)
        flow = flows[flow_idx]
        lane = flow.lanes[lane_idx]
        t = ready
        if flow.interval_ns is not None:
            # Claim the group's next pacing slot; pacing never falls
            # behind the clock (matching ClosedLoopIssuer._lane).
            slot = flow._next_issue_ns
            if ready > slot:
                slot = ready
            flow._next_issue_ns = slot + flow.interval_ns
            if slot > ready:
                t = ready + (slot - ready)
        issue = t
        for pool in lane.pools:
            t = pool.gate(t)
        size = flow.size_bytes
        for stage, service in lane.stages:
            t = stage.serve(t, service)
            stage.bytes_served += size
        t += lane.fixed_ns
        for pool in lane.pools:
            pool.commit(t)
        at = cursor[flow_idx]
        issued[flow_idx][at] = issue
        completed[flow_idx][at] = t
        lane_index[flow_idx][at] = lane_idx
        cursor[flow_idx] = at + 1
        remaining = quotas[flow_idx][lane_idx] - 1
        quotas[flow_idx][lane_idx] = remaining
        if remaining > 0:
            heappush(heap, (t, flow_idx, lane_idx))

    out: Dict[str, FlowTiming] = {}
    for flow_idx, flow in enumerate(flows):
        lanes = lane_index[flow_idx]
        # Count a sample when its per-lane ordinal clears the warmup skip:
        # occurrence number of each lane at each position.
        counted = np.ones(totals[flow_idx], dtype=bool)
        if flow.warmup_skip > 0:
            seen = np.zeros(len(flow.lanes), dtype=np.int64)
            for position, lane_idx in enumerate(lanes):
                counted[position] = seen[lane_idx] >= flow.warmup_skip
                seen[lane_idx] += 1
        out[flow.name] = FlowTiming(
            name=flow.name,
            issued_ns=issued[flow_idx],
            completed_ns=completed[flow_idx],
            counted=counted,
        )
    return out
