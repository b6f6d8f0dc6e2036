"""Fluid → batched coupling: background load as effective service rates.

The hybrid serving engine (:mod:`repro.apps.kvserve`) times foreground
requests with exact FIFO recurrences but cannot afford to simulate the
bulk/background traffic those requests share the fabric with. The fluid
solver carries the background instead: :func:`background_utilizations`
solves the steady-state allocation of the background streams (fault/QoS
derates included via :class:`~repro.core.fabric.FabricModel`'s
``derates`` — the same ``capacity_factors`` plumbing the chaos tier
uses) and reports per-channel utilization.

:func:`effective_service_ns` couples that utilization back into the
foreground's per-stage timing the way the DES elements actually behave:
a stage is a ``c``-lane serializer (1 for links, the bank count for a
UMC), so background load does not slow the foreground's own occupancy —
it adds *queueing* in front of it. Per stage visit the expected wait is

    ``L_q(u) × drain_ns``,  ``L_q(u) = u^c · u / (1 - u)``

where ``drain_ns`` is the time the whole stage needs to retire one
queued background cacheline (``CACHELINE / aggregate_rate``) and
``L_q`` is the M/M/1 queue length damped by ``u^c`` — the probability
proxy that all ``c`` lanes are busy, which is what lets a 16-bank UMC at
60% utilization show (correctly) almost no queueing while a single-lane
GMI at the same utilization does. Utilization is clamped at
:data:`MAX_UTILIZATION` because an elastic hog fills all residual
capacity in the fluid view (``u = 1``) while the DES twin is
issue-window-limited: the clamp keeps the implied queue finite and is
the coupling's documented calibration knob.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence

from repro.fluid.solver import FluidFlow, Policy, solve
from repro.units import CACHELINE

if TYPE_CHECKING:  # circular at runtime: core.fabric imports fluid.solver
    from repro.core.fabric import FabricModel
    from repro.core.flows import StreamSpec
    from repro.transport.path import CompiledPath

__all__ = [
    "MAX_UTILIZATION",
    "stage_channel",
    "background_utilizations",
    "effective_service_ns",
]

#: Clamp on coupled channel utilization: a saturated single-lane stage
#: behaves like an M/M/1 queue holding ``0.95/0.05 = 19`` background
#: cachelines — about what a window-limited DES hog keeps in flight at
#: one stage. Calibrated against the DES reference on the colocated-hog
#: cells (see tests/test_apps_kvserve.py).
MAX_UTILIZATION = 0.95


def stage_channel(stage_name: str, is_write: bool = False) -> Optional[str]:
    """The fluid channel a DES queued stage maps to (None: no channel).

    Mirrors and extends the sharded engine's mapping: bandwidth-carrying
    stages map to their fluid twin; pure arbitration points with no
    capacity partition (``if/ccd*``, ``pciedev*``) map to None.
    """
    direction = "w" if is_write else "r"
    if stage_name == "noc":
        return f"noc:{direction}"
    if stage_name == "xgmi":
        return f"xgmi:{direction}"
    if stage_name.startswith("umc"):
        return f"{stage_name}:{direction}"
    if stage_name.startswith("cxldev"):
        return f"{stage_name}:{direction}"
    if stage_name.startswith("gmi/ccd"):
        return f"gmi{stage_name[len('gmi/ccd'):]}:{direction}"
    if stage_name.startswith("hubport/ccd"):
        return f"hub{stage_name[len('hubport/ccd'):]}:{direction}"
    if stage_name.startswith("plink/rc"):
        return f"plink{stage_name[len('plink/rc'):]}:{direction}"
    return None


def background_utilizations(
    fabric: "FabricModel",
    specs: Sequence["StreamSpec"],
    umc_ids: Optional[Sequence[int]] = None,
    dev_ids: Optional[Sequence[int]] = None,
    policy: Policy = Policy.DEMAND_PROPORTIONAL,
) -> Dict[str, float]:
    """Per-channel utilization (0..1) of the background streams alone.

    Identical math to :meth:`FabricModel.utilizations`, but taking the
    fabric (so the caller controls derates) and tolerating an empty
    stream list — no background means every channel reads 0.
    """
    if not specs:
        return {}
    flows: List[FluidFlow] = []
    for spec in specs:
        flows.extend(fabric.flows_for(spec, umc_ids=umc_ids, dev_ids=dev_ids))
    allocation = solve(flows, policy)
    loads: Dict[str, float] = {}
    for flow in flows:
        for channel, weight in flow.path:
            loads[channel.name] = (
                loads.get(channel.name, 0.0) + allocation[flow.name] * weight
            )
    return {
        name: min(1.0, load / fabric.channel(name).capacity_gbps)
        for name, load in loads.items()
    }


def effective_service_ns(
    path: "CompiledPath",
    size_bytes: int,
    utilizations: Dict[str, float],
    is_write: bool = False,
) -> float:
    """Load-coupled end-to-end service time of one transaction on ``path``.

    Fixed propagation and the transaction's own serializer occupancy are
    load-independent; each queued stage adds the expected wait behind
    queued background cachelines, ``L_q(u) × drain_ns`` (module
    docstring). Stages whose fluid channel carries no background (or
    maps to no channel at all) add nothing.
    """
    total = path.fixed_ns
    for stage in path.stages:
        total += stage.unloaded_service_ns(size_bytes, is_write)
        channel = stage_channel(stage.name, is_write)
        if channel is None:
            continue
        u = min(utilizations.get(channel, 0.0), MAX_UTILIZATION)
        if u <= 0.0:
            continue
        direction = stage.direction(is_write)
        lanes = direction.resource.capacity
        queued = u ** lanes * u / (1.0 - u)
        total += queued * CACHELINE / direction.gbps
    return total
