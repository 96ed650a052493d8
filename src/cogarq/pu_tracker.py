"""The primary ARQ step, as the SU pair reconstructs it from the feedback.

The backlogged PU sends in every slot, so its Type-I HARQ state is one
counter: t, the tries its current packet has had.  The SU pair overhears
the PU feedback and nothing else, yet can reconstruct t and the packet
label of every slot exactly: completion is a function of (t, feedback),
and labels are the slot index of the packet's first transmission, which is
the current slot minus the tracked t.  Because the true PU state follows
the same feedback, `update` is the only statement of the Type-I HARQ step:
the simulator steps the ground truth with it, and `mdp.step_table` the
SU-side tracker, whose step the solver and the simulator's compact walk
both read.
"""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .pu_system import PuConfig

__all__ = ["PuFeedback", "update"]


class PuFeedback(enum.IntEnum):
    ACK = 1
    NACK = 2


def update(t: int, y: PuFeedback, cfg: PuConfig) -> tuple[int, int]:
    """One slot of the PU's Type-I HARQ process, given its feedback y.

    Returns (o, t'): whether the packet completes, which ACK does and NACK
    does on the last try, and the next try count, 0 after a completion.
    """
    o = int(y == PuFeedback.ACK or t == cfg.r_max - 1)
    return o, 0 if o else t + 1
