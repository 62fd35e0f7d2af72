"""Simulated MPI runtime: transport, communicator, collectives."""

from . import collectives  # noqa: F401 - registers algorithms
from .communicator import Communicator
from .context import COLLECTIVE_OPS, RankContext
from .errors import DeliveryError, MpiError, RankError, TruncationError
from .transport import Envelope, PostedReceive, Transport
from .world import MpiWorld, Program

__all__ = [
    "COLLECTIVE_OPS",
    "Communicator",
    "DeliveryError",
    "Envelope",
    "MpiError",
    "MpiWorld",
    "PostedReceive",
    "Program",
    "RankContext",
    "RankError",
    "Transport",
    "TruncationError",
    "collectives",
]
