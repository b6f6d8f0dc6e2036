"""Discrete-event simulation kernel.

A deliberately small simpy-style engine: an :class:`~repro.sim.engine.Environment`
drives generator-based processes that yield events (timeouts, resource
requests, other processes). It is the substrate for the transaction-level
experiments (Table 2, Figure 3); the sustained-bandwidth experiments use the
fluid model in :mod:`repro.fluid` instead.
"""

from repro.sim.engine import (
    AllOf,
    AnyOf,
    Environment,
    Event,
    Process,
    Resource,
    Store,
    Timeout,
)
from repro.sim.rng import SplitRng, make_rng

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "Process",
    "Resource",
    "Store",
    "Timeout",
    "SplitRng",
    "make_rng",
]
