"""Static description of the primary-user pair.

The PU runs Type-I HARQ: a packet is resent unchanged until it is
acknowledged or the retransmission deadline r_max is hit, and then the
next packet follows.  The PU is backlogged, so it sends in every slot,
from slot 0 on, and the receiver feeds back ACK or NACK every slot.  This
module holds the deadline; the ARQ step itself is `pu_tracker.update`,
which both the simulated PU and the SU-side tracker follow.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PuConfig"]


@dataclass(frozen=True)
class PuConfig:
    """The PU pair's retransmission deadline."""

    r_max: int

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")

    def transmit_prob(self) -> float:
        """The access rule: the backlogged PU sends in every slot.

        The package never asks; the method stays because the benchmark's
        tracer (`perfbench/traced.py`) wraps it by name.
        """
        return 1.0
