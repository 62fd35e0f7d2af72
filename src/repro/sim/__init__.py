"""Discrete-event simulation substrate.

Exports the engine (:class:`Environment`, :class:`Process`, events),
the shared :class:`Resource`, deterministic random streams, and
tracing.
"""

from .engine import (
    SIM_VERSION,
    AllOf,
    AnyOf,
    Condition,
    Environment,
    Event,
    Interrupt,
    Process,
    SimulationError,
    StopProcess,
    Timeout,
)
from .resources import Request, Resource
from .rng import RandomStreams
from .trace import Span, Tracer

__all__ = [
    "AllOf",
    "AnyOf",
    "Condition",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RandomStreams",
    "Request",
    "Resource",
    "SIM_VERSION",
    "SimulationError",
    "Span",
    "StopProcess",
    "Timeout",
    "Tracer",
]
