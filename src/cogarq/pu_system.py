"""Static description of the primary-user pair.

The PU runs Type-I HARQ: the head-of-queue packet is resent unchanged until
it is acknowledged, the retransmission deadline is hit, or the delay
deadline expires, at which point the packet leaves the queue.  The
transmitter follows a randomized access policy over its internal state
(retransmission count t, delay d, queue length q) and the receiver feeds
back ACK/NACK, or nothing on idle slots.  This module holds the deadlines,
queue, arrival and access settings, and the completion probability the
optimizer averages over; the (t, d) step itself is `pu_tracker.update`,
which both the simulated PU and the SU-side tracker follow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .pu_tracker import PuFeedback, update

__all__ = [
    "PuConfig",
    "always_transmit",
    "completion_probability",
    "saturating_arrivals",
]


def always_transmit(t: int, d: int, q: int) -> float:
    """Backlogged default: transmit whenever the queue is nonempty."""
    return 1.0


def saturating_arrivals(q_max: int) -> np.ndarray:
    """Arrival pmf putting all mass on q_max, keeping the queue full."""
    pmf = np.zeros(q_max + 1)
    pmf[q_max] = 1.0
    return pmf


@dataclass(frozen=True)
class PuConfig:
    """Static description of the PU pair.

    `arrival_pmf[b]` is the probability of b packet arrivals per slot, and
    `access_policy(t, d, q)` the transmit probability in internal state
    (t, d, q).  An empty queue never transmits, regardless of the policy.
    """

    r_max: int
    d_max: int
    q_max: int
    arrival_pmf: np.ndarray = field(default=None)  # type: ignore[assignment]
    access_policy: Callable[[int, int, int], float] = always_transmit

    def __post_init__(self):
        if self.r_max < 1:
            raise ValueError("r_max must be >= 1")
        if self.d_max < max(2, self.r_max):
            # d_max >= 2 keeps the completion rule a function of (t, d, y):
            # with d_max = 1 an idle slot would pop the queue head.
            raise ValueError("d_max must be >= max(2, r_max)")
        if self.q_max < 1:
            raise ValueError("q_max must be > 0")
        pmf = self.arrival_pmf
        if pmf is None:
            pmf = saturating_arrivals(self.q_max)
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size < 1 or np.any(pmf < 0) or abs(pmf.sum() - 1.0) > 1e-9:
            raise ValueError("arrival_pmf must be a probability vector")
        object.__setattr__(self, "arrival_pmf", pmf)

    def transmit_prob(self, t: int, d: int, q: int) -> float:
        if q == 0:
            return 0.0
        p = float(self.access_policy(t, d, q))
        if not (0.0 <= p <= 1.0):
            raise ValueError(f"access policy returned {p!r} outside [0,1]")
        return p


def completion_probability(
    t: int, d: int, q: int, a_p: int, success_prob: float, cfg: PuConfig
) -> float:
    """P(head packet completes | state, PU access decision, SU interference).

    `success_prob` is P(PU decoding succeeds) for the current SU action,
    which decides between the ACK and NACK branches of the ARQ step.
    """
    if q == 0:
        return 0.0
    if a_p == 0:
        return float(update(t, d, PuFeedback.IDLE, cfg)[0])
    o_ack = update(t, d, PuFeedback.ACK, cfg)[0]
    o_nack = update(t, d, PuFeedback.NACK, cfg)[0]
    return success_prob * o_ack + (1.0 - success_prob) * o_nack
