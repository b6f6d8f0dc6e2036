"""Competing-flow experiments: bandwidth partitioning and interference.

Two drivers:

* :func:`contend` — N flows with configured demands over one shared link
  direction (Figure 4's four cases and Figure 5's demand schedules);
* :class:`InterferenceLink` — a frontend stream X at max rate against a
  background stream Y with swept load, with read/write direction separation
  plus shared transaction slots (Figure 6). Interference appears only when a
  shared resource saturates, exactly as §3.5 reports.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.errors import ConfigurationError
from repro.fluid.solver import Channel, FluidFlow, Policy, solve
from repro.transport.message import OpKind

__all__ = ["contend", "CompetingFlows", "InterferenceLink"]


def contend(
    capacity_gbps: float,
    demands: Dict[str, float],
    policy: Policy = Policy.DEMAND_PROPORTIONAL,
) -> Dict[str, float]:
    """Allocate one shared link direction among flows with given demands."""
    if not demands:
        raise ConfigurationError("no flows to contend")
    shared = Channel("shared", capacity_gbps)
    flows = [
        FluidFlow(name, demand).add(shared)
        for name, demand in sorted(demands.items())
    ]
    return solve(flows, policy)


@dataclass(frozen=True)
class CompetingFlows:
    """Result of a two-flow contention case (one Figure 4 bar group)."""

    case: str
    requested: Dict[str, float]
    achieved: Dict[str, float]
    capacity_gbps: float

    @property
    def oversubscribed(self) -> bool:
        return sum(self.requested.values()) > self.capacity_gbps

    def equal_share(self) -> float:
        """The per-flow equal share of the link capacity."""
        return self.capacity_gbps / len(self.requested)


class InterferenceLink:
    """A link under a max-rate frontend stream and a swept background stream.

    The link has separate read/write data capacities (reads ride the response
    direction, writes the request direction) plus a shared transaction-slot
    budget at the sender (the traffic-control tokens both directions draw
    from — how a saturating read stream starves writes that never touch the
    read direction). Non-temporal writes hold no response, so they consume
    slots at ``write_slot_weight`` < 1 relative to reads.
    """

    def __init__(
        self,
        name: str,
        read_cap_gbps: float,
        write_cap_gbps: float,
        slot_cap_gbps: Optional[float] = None,
        write_slot_weight: float = 0.45,
    ) -> None:
        if write_slot_weight <= 0:
            raise ConfigurationError("write slot weight must be positive")
        self.name = name
        self.read = Channel(f"{name}:r", read_cap_gbps)
        self.write = Channel(f"{name}:w", write_cap_gbps)
        self.slots = (
            Channel(f"{name}:slots", slot_cap_gbps)
            if slot_cap_gbps is not None
            else None
        )
        self.write_slot_weight = write_slot_weight

    def _attach(self, flow: FluidFlow, op: OpKind) -> FluidFlow:
        flow.add(self.write if op.is_write else self.read)
        if self.slots is not None:
            weight = self.write_slot_weight if op.is_write else 1.0
            flow.add(self.slots, weight)
        return flow

    def frontend_achieved(
        self,
        x_op: OpKind,
        x_ceiling_gbps: float,
        y_op: OpKind,
        y_offered_gbps: float,
        policy: Policy = Policy.DEMAND_PROPORTIONAL,
    ) -> float:
        """Achieved bandwidth of X (at max rate) given Y's offered load."""
        if x_ceiling_gbps <= 0:
            raise ConfigurationError("frontend ceiling must be positive")
        # X runs unthrottled ("at max rate"); Y is the NOP-paced background.
        x_flow = self._attach(FluidFlow("X", x_ceiling_gbps, elastic=True), x_op)
        flows = [x_flow]
        if y_offered_gbps > 0:
            flows.append(self._attach(FluidFlow("Y", y_offered_gbps), y_op))
        return solve(flows, policy)["X"]

    def interference_knee_gbps(
        self,
        x_op: OpKind,
        x_ceiling_gbps: float,
        y_op: OpKind,
        tolerance: float = 0.02,
        y_max_gbps: float = 200.0,
        step_gbps: float = 0.1,
    ) -> Optional[float]:
        """Smallest Y load that degrades X by more than ``tolerance`` (rel.).

        Returns None when Y cannot degrade X within ``y_max_gbps`` — the
        paper's "rarely affected regardless of the background traffic".
        """
        baseline = self.frontend_achieved(x_op, x_ceiling_gbps, y_op, 0.0)
        y = step_gbps
        while y <= y_max_gbps:
            achieved = self.frontend_achieved(x_op, x_ceiling_gbps, y_op, y)
            if achieved < baseline * (1.0 - tolerance):
                return y
            y += step_gbps
        return None
