"""The microbenchmark utility (§3.1), pointed at the simulated platform.

:class:`MicroBench` offers the paper's measurement modes:

* :meth:`pointer_chase` — dependent-load latency over a configurable working
  set (Table 2);
* :meth:`queueing_probe` — saturate a chiplet and read back the worst-case
  traffic-control queueing (Table 2's "Max CCX/CCD Q" rows);
* :meth:`stream_bandwidth` — maximum-rate streams at core/CCX/CCD/CPU scope
  (Table 3), via the fluid model;
* :meth:`loaded_latency` — rate-controlled streams with latency sampling
  (Figure 3), via the transaction-level closed-loop issuer.

The closed-loop modes run on the batched recurrences of
:mod:`repro.sim.batch` when nothing needs the per-event DES, and on the
DES when something does: a tracer, a fault schedule, strict checking, or
an order-guard trip. The two engines give bit-identical results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from repro.faults.schedule import FaultSchedule

from repro.analysis.stats import LatencyStats
from repro.core.fabric import FabricModel
from repro.core.flows import Pattern, Scope, StreamSpec
from repro.core.loadgen import ClosedLoopIssuer, LoadResult
from repro.errors import ConfigurationError, TopologyError
from repro.memory.cache import CacheHierarchy, MemoryLevel
from repro.platform.numa import NpsMode, Position
from repro.platform.topology import Platform
from repro.sim.engine import Environment
from repro.sim.rng import SplitRng
from repro.transport.message import OpKind
from repro.transport.path import PathResolver
from repro.transport.transaction import TransactionExecutor

__all__ = ["MicroBench"]

#: Relative timer/pipeline noise applied to cache-hit latencies.
_CACHE_JITTER_STD = 0.02


class MicroBench:
    """The characterization utility over a simulated chiplet platform."""

    def __init__(self, platform: Platform, seed: int = 0) -> None:
        self.platform = platform
        self.seed = seed
        self.hierarchy = CacheHierarchy(platform)
        self.fabric = FabricModel(platform)
        self._rng = SplitRng(seed)

    # -------------------------------------------------------- latency (Tbl 2)

    def pointer_chase(
        self,
        working_set_bytes: int,
        core_id: int = 0,
        position: Position = Position.NEAR,
        target: str = "dram",
        iterations: int = 2000,
        remote_socket: bool = False,
        tracer=None,
    ) -> Tuple[MemoryLevel, LatencyStats]:
        """Dependent-load latency; the level is resolved by working-set size.

        For cache-resident working sets the latency is the level's load-to-use
        time plus timer noise; DRAM/CXL-resident sets run a single
        outstanding transaction through the transaction model, so DRAM
        jitter shapes the tail. One lane is trivially in FIFO order, so
        that runs on the batched recurrences.

        ``tracer`` (a :class:`repro.trace.Tracer`) moves the chase onto
        the DES, attaches to its environment and records one span per
        transaction with per-hop children — the decomposition behind
        ``repro trace table2``. It is ignored for cache-resident working
        sets (nothing runs) and never changes the measured statistics.
        """
        if iterations < 10:
            raise ConfigurationError("need at least 10 iterations")
        level = (
            self.hierarchy.level_for(working_set_bytes)
            if target == "dram"
            else MemoryLevel.DRAM
        )
        if remote_socket:
            # Remote memory is never cached locally for a cold chase.
            level = MemoryLevel.DRAM
        if target == "dram" and level is not MemoryLevel.DRAM:
            base = self.hierarchy.latency_ns(level)
            rng = self._rng.stream(f"chase-cache-{working_set_bytes}")
            samples = base * (
                1.0 + _CACHE_JITTER_STD * rng.standard_normal(iterations)
            )
            return level, LatencyStats.from_samples(samples.clip(min=0.0))

        core = self.platform.core(core_id)
        if target == "dram":
            candidates = self.platform.umcs_at(core.ccd_id, position)
            if not candidates:
                raise TopologyError(
                    f"no UMC at {position.value} relative to ccd{core.ccd_id}"
                )
            umc_id = min(
                (umc.umc_id for umc in candidates),
                key=lambda u: self.platform.dram_latency_ns(core.ccd_id, u),
            )
        elif target != "cxl":
            raise ConfigurationError(f"unknown target {target!r}")
        flow = f"chase/{position.value}" if target == "dram" else "chase/cxl"

        def issuer_on(env: Environment) -> ClosedLoopIssuer:
            resolver = PathResolver(env, self.platform, seed=self.seed)
            if target == "dram":
                path = resolver.dram_path(core_id, umc_id, remote=remote_socket)
            else:
                path = resolver.cxl_path(core_id)
            return ClosedLoopIssuer(
                env,
                TransactionExecutor(env, flow=flow),
                path_of_worker=lambda __: path,
                op=OpKind.READ,
                workers=1,
                window=1,              # pointer chasing: one dependent load
                count_per_worker=iterations,
            )

        result = None
        if tracer is None:
            result = issuer_on(Environment()).run_batched()
        if result is None:
            env = Environment()
            if tracer is not None:
                tracer.attach(env)
            result = issuer_on(env).run()
        return MemoryLevel.DRAM, result.stats

    def queueing_probe(
        self, scope: Scope = Scope.CCX, transactions_per_core: int = 400
    ) -> Dict[str, float]:
        """Saturate a chiplet and report traffic-control queueing maxima (ns).

        ``Scope.CCX`` saturates one core complex (the "Max CCX Q" row);
        ``Scope.CCD`` saturates a whole compute chiplet (the "Max CCD Q" row).
        """
        if scope not in (Scope.CCX, Scope.CCD):
            raise ConfigurationError("queueing probe supports CCX or CCD scope")
        env = Environment()
        resolver = PathResolver(
            env, self.platform, seed=self.seed, with_dram_jitter=False
        )
        executor = TransactionExecutor(env)
        cores = StreamSpec.cores_for_scope(self.platform, scope)
        near = self.fabric.default_umc_ids(
            StreamSpec("probe", OpKind.READ, cores)
        )
        paths = {
            i: resolver.dram_path(core_id, near[i % len(near)])
            for i, core_id in enumerate(cores)
        }
        issuer = ClosedLoopIssuer(
            env,
            executor,
            path_of_worker=lambda w: paths[w],
            op=OpKind.READ,
            workers=len(cores),
            window=self.platform.spec.bandwidth.mlp_read,
            count_per_worker=transactions_per_core,
        )
        pools = [resolver.ccx_pool(0)]
        ccd_pool = resolver.ccd_pool(0)
        if ccd_pool is not None:
            pools.append(ccd_pool)

        def _reset_after_warmup():
            # The very first burst waits a full round trip for the first
            # token to recycle; steady-state queueing starts after that.
            yield env.timeout(5.0 * path_latency)
            for pool in pools:
                pool.reset_stats()

        path_latency = next(iter(paths.values())).unloaded_ns
        env.process(_reset_after_warmup())
        issuer.run()
        result = {"ccx_max_wait_ns": resolver.ccx_pool(0).max_wait_ns}
        if ccd_pool is not None:
            result["ccd_max_wait_ns"] = ccd_pool.max_wait_ns
        return result

    # ------------------------------------------------------ bandwidth (Tbl 3)

    def stream_bandwidth(
        self,
        scope: Scope,
        op: OpKind,
        target: str = "dram",
        umc_ids: Optional[Sequence[int]] = None,
        pattern: Pattern = Pattern.SEQUENTIAL,
        remote_socket: bool = False,
        nps: Optional[NpsMode] = None,
    ) -> float:
        """Maximum sustained bandwidth of one stream at the given scope.

        ``nps`` selects the BIOS interleave domain (overrides ``umc_ids``
        when given): NPS1 stripes across every channel, NPS4 keeps the
        stream in its chiplet's quadrant.
        """
        cores = StreamSpec.cores_for_scope(self.platform, scope)
        spec = StreamSpec(
            f"{scope.value}-{op.value}", op, cores, target=target,
            pattern=pattern, remote=remote_socket,
        )
        if nps is not None and target == "dram":
            ccd_id = self.platform.core(cores[0]).ccd_id
            umc_ids = self.fabric.umc_ids_for_nps(ccd_id, nps)
        achieved = self.fabric.achieved_gbps([spec], umc_ids=umc_ids)
        return achieved[spec.name]

    # -------------------------------------------------- loaded latency (Fig 3)

    def loaded_latency(
        self,
        core_ids: Sequence[int],
        op: OpKind,
        offered_gbps: Optional[float],
        umc_ids: Optional[Sequence[int]] = None,
        target: str = "dram",
        window_per_core: Optional[int] = None,
        transactions_per_core: int = 600,
        use_token_pools: bool = True,
        pattern: Pattern = Pattern.SEQUENTIAL,
        fault_schedule: Optional["FaultSchedule"] = None,
        strict: bool = False,
    ) -> LoadResult:
        """Latency under a rate-controlled load (one point of a Figure 3 sweep).

        ``pattern`` selects the per-core issue window: random accesses defeat
        the prefetchers, so their closed-loop window is the platform's
        random-read MLP instead of the full sequential one.

        ``fault_schedule`` (times in nanoseconds) degrades the fabric
        mid-run through :func:`repro.faults.inject.install`; a null schedule
        leaves the run bit-identical to a healthy one. ``strict`` turns on
        engine time-monotonicity checks and byte-conservation auditing.

        Engine choice depends only on these inputs: a fault-free,
        non-strict point runs on the batched recurrences
        (:meth:`ClosedLoopIssuer.run_batched`), which give the DES's result
        bit for bit; faults, strict mode, and points whose order guard
        trips run on the per-event DES.
        """
        bw = self.platform.spec.bandwidth
        if window_per_core is None:
            if target == "cxl":
                window_per_core = (
                    bw.cxl_wcb_write if op.is_write else bw.cxl_mlp_read
                )
            else:
                window_per_core = bw.wcb_write if op.is_write else bw.mlp_read
            if pattern is Pattern.RANDOM and not op.is_write:
                window_per_core = bw.effective_random_mlp
            elif pattern is Pattern.POINTER_CHASE:
                window_per_core = 1
        if target not in ("dram", "cxl"):
            raise ConfigurationError(f"unknown target {target!r}")
        if target == "dram" and not umc_ids:
            umc_ids = self.fabric.default_umc_ids(
                StreamSpec("load", op, tuple(core_ids))
            )

        def build(env: Environment) -> Tuple[PathResolver, ClosedLoopIssuer]:
            resolver = PathResolver(env, self.platform, seed=self.seed)
            if target == "dram":
                paths = {
                    i: resolver.dram_path(
                        core_id, umc_ids[i % len(umc_ids)], op=op,
                        use_token_pools=use_token_pools,
                    )
                    for i, core_id in enumerate(core_ids)
                }
            else:
                devices = sorted(self.platform.cxl_devices)
                paths = {
                    i: resolver.cxl_path(
                        core_id, devices[i % len(devices)], op=op,
                        use_token_pools=use_token_pools,
                    )
                    for i, core_id in enumerate(core_ids)
                }
            issuer = ClosedLoopIssuer(
                env,
                TransactionExecutor(env, strict=strict),
                path_of_worker=lambda w: paths[w],
                op=op,
                workers=len(core_ids),
                window=window_per_core,
                count_per_worker=transactions_per_core,
                rate_gbps=offered_gbps,
            )
            return resolver, issuer

        if fault_schedule is None and not strict:
            __, issuer = build(Environment())
            result = issuer.run_batched()
            if result is not None:
                return result
        resolver, issuer = build(Environment(strict=strict))
        if fault_schedule is not None:
            from repro.faults.inject import install

            install(resolver, fault_schedule)
        result = issuer.run()
        if strict:
            issuer.executor.assert_conserved(drained=True)
        return result
