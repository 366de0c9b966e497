"""Rank-addressed communicator over the DES.

A :class:`Communicator` names the ranks of a fixed-size world and
prices the interconnect: per-message latency plus a bandwidth term on
the payload's ``nbytes`` (NumPy arrays report their true size; other
payloads are charged a nominal envelope).  The streams that carry
data between ranks (:class:`~repro.mpi.stream.StreamWindow`) validate
their endpoints and charge their wire time through it.
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import SimulationError
from repro.sim.core import Environment
from repro.units import GB

#: Interconnect figures (QDR-InfiniBand-era cluster fabric).
LINK_LATENCY_S = 2e-6
LINK_BANDWIDTH_BYTES_S = 4 * GB


def _payload_bytes(payload: Any) -> int:
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    return 256  # pickled-object envelope estimate


class Communicator:
    """A fixed-size communicator (``MPI_COMM_WORLD`` analogue)."""

    def __init__(self, env: Environment, size: int,
                 latency_s: float = LINK_LATENCY_S,
                 bandwidth: float = LINK_BANDWIDTH_BYTES_S) -> None:
        if size < 1:
            raise SimulationError(f"size must be >= 1, got {size}")
        if latency_s < 0 or bandwidth <= 0:
            raise SimulationError("invalid interconnect parameters")
        self.env = env
        self.size = size
        self.latency_s = latency_s
        self.bandwidth = bandwidth

    def _check_rank(self, rank: int, name: str) -> None:
        if not 0 <= rank < self.size:
            raise SimulationError(
                f"{name} {rank} out of range [0, {self.size})")

    def transfer_seconds(self, nbytes: int) -> float:
        """Wire time of one message."""
        return self.latency_s + nbytes / self.bandwidth
