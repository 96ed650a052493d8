"""The primary ARQ step, as the SU pair reconstructs it from the feedback.

The SU pair overhears the PU feedback and nothing else, yet can reconstruct
the PU access decision, retransmission count, delay, and packet label of
every slot exactly: feedback presence reveals the access decision, the
completion rule is a function of (t, d, feedback), and labels are the slot
index of the packet's first transmission, which is the current slot minus
the tracked delay.  Because the true PU state follows the same feedback,
`update` is the only statement of the Type-I HARQ step: the simulator steps
the ground truth with it, and `mdp.step_table` the SU-side tracker, whose
step the solver and the simulator's compact walk both read.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pu_system import PuConfig

__all__ = ["PuFeedback", "update"]


class PuFeedback(enum.IntEnum):
    IDLE = 0
    ACK = 1
    NACK = 2


def update(t: int, d: int, y: PuFeedback, cfg: PuConfig) -> tuple[int, int, int]:
    """One slot of the PU's Type-I HARQ process, given its feedback y.

    Returns (o, t', d'): whether the head packet leaves the queue at the end
    of the slot, and the next retransmission count and delay.  ACK always
    completes.  NACK completes when either deadline is hit.  An idle slot
    completes only when the delay deadline expires, which needs an open
    session, so with d_max >= 2 it never pops an empty queue.  Completion
    resets (t, d); otherwise a transmission counts one more try, and the
    delay grows on every slot of an open session and on the slot opening one.
    """
    a_p = 0 if y == PuFeedback.IDLE else 1
    if y == PuFeedback.ACK or d == cfg.d_max - 1 or (a_p and t == cfg.r_max - 1):
        return 1, 0, 0
    return 0, t + a_p, d + (1 if t > 0 else a_p)
