"""Static description of the primary-user pair.

The PU runs Type-I HARQ: the head-of-queue packet is resent unchanged until
it is acknowledged, the retransmission deadline is hit, or the delay
deadline expires, at which point the packet leaves the queue.  The PU is
backlogged: its queue is empty only before the first slot's arrivals, so it
idles in slot 0 and transmits in every later slot.  The receiver feeds back
ACK/NACK, or nothing on idle slots.  This module holds the deadlines and
the access rule; the (t, d) step itself is `pu_tracker.update`, which both
the simulated PU and the SU-side tracker follow.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["PuConfig"]


@dataclass(frozen=True)
class PuConfig:
    """The PU pair's retransmission and delay deadlines, and its access rule."""

    r_max: int
    d_max: int

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.d_max < max(2, self.r_max):
            # d_max >= 2 keeps the completion rule a function of (t, d, y):
            # with d_max = 1 an idle slot would pop the queue head.
            raise ValueError("d_max must be >= max(2, r_max)")

    def transmit_prob(self, empty: bool) -> float:
        """The PU's access rule: it transmits whenever its queue holds a packet."""
        return 0.0 if empty else 1.0
