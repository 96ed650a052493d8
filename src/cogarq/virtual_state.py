"""Compact virtual-system view of the chain-decoding protocol.

Instead of carrying the whole decoding graph, the SU can credit a chain's
worth of packets the moment the chain is formed, because the root is
retransmitted until it eventually succeeds.  The resulting state is just a
phase describing the virtual knowledge of the current PU packet, a counter
of SU packets pinned behind it, and the tracked try count t of the primary
ARQ process.  The backlogged PU sends in every slot.  This module provides
the per-slot virtual throughput and the phase update, which the policy
optimizer consumes; the t step is `pu_tracker.update`.
"""

from __future__ import annotations

import enum

from .channel import PU_ALONE, PU_UNDER_SU, SU_CLEAN, SU_NEEDS_PU
from .pu_system import PuConfig

__all__ = [
    "CdPhase",
    "ChainDecodingModel",
    "phase_from_flags",
    "phase_flags",
    "virtual_reward",
    "translate_outcome",
]


class CdPhase(enum.Enum):
    U = "U"            # PU packet virtually unknown
    K_BIDIR = "K_BIDIR"  # virtually known, mutually tied to the root
    K_FWD = "K_FWD"      # virtually known, only reachable from the root

    def __repr__(self):
        return self.value


_PHASE_TO_FLAGS = {
    CdPhase.U: (0, 1),
    CdPhase.K_BIDIR: (1, 1),
    CdPhase.K_FWD: (1, 0),
}
_FLAGS_TO_PHASE = {v: k for k, v in _PHASE_TO_FLAGS.items()}


def phase_flags(phase: CdPhase) -> tuple[int, int]:
    """(virtual knowledge, openness) flag pair of a phase."""
    return _PHASE_TO_FLAGS[phase]


def phase_from_flags(kappa: int, iota: int) -> CdPhase:
    try:
        return _FLAGS_TO_PHASE[(kappa, iota)]
    except KeyError:
        raise ValueError(f"no phase maps to flags ({kappa}, {iota})") from None


# -- per-slot virtual throughput ----------------------------------------------


def virtual_reward(a_s: int, y: int, phase: CdPhase, b_s: int) -> int:
    """SU packets credited in one slot of the virtual system.

    Counts direct decodes under the phase's interference situation, the
    release of the b_s pinned packets when the PU packet stops being
    virtually unknown, and the root handovers peculiar to the mutually-tied
    phase.
    """
    if phase is not CdPhase.U and b_s != 0:
        raise ValueError(f"b_s={b_s} inconsistent with phase {phase}")
    kappa, iota = phase_flags(phase)
    g = a_s * (y in SU_CLEAN)
    g -= (1 - kappa) * a_s * (y in SU_NEEDS_PU)
    g += (y in PU_ALONE) * b_s
    g += iota * kappa * ((1 - a_s) * (y in PU_ALONE) + a_s * (y in PU_UNDER_SU))
    g += iota * kappa * a_s * (y == 6)
    return int(g)


# -- scheme model for the policy optimizer ---------------------------------------


class ChainDecodingModel:
    """Phase machinery of the chain-decoding scheme, as the optimizer sees it.

    Phase tuples are (phase name, pinned-packet counter).  The counter
    grows by at most one per try of the PU packet, so it never exceeds the
    tracked try count t < r_max, and `cd_states` lists it up to r_max - 1.
    """

    name = "chain_decoding"

    def __init__(self, cfg: PuConfig):
        self.cfg = cfg

    def cd_states(self):
        return ([(CdPhase.U.value, b) for b in range(self.cfg.r_max)]
                + [(CdPhase.K_BIDIR.value, 0), (CdPhase.K_FWD.value, 0)])

    def initial_cd(self):
        return (CdPhase.U.value, 0)

    def reward(self, cd, a_s: int, y: int) -> int:
        return virtual_reward(a_s, y, CdPhase(cd[0]), cd[1])

    def next_cd(self, cd, a_s: int, y: int, o: int):
        if o:
            return (CdPhase.U.value, 0)
        kappa, iota = phase_flags(CdPhase(cd[0]))
        hit = int(y in PU_ALONE)
        kappa_n = 1 - (1 - kappa) * (1 - hit)
        iota_n = iota * (1 - hit + a_s * (y == 7))
        b_n = (1 - hit) * (cd[1] + (1 - kappa) * a_s * (y == 5))
        return (phase_from_flags(kappa_n, iota_n).value, b_n)


# -- always-transmit outcome translation ----------------------------------------


def translate_outcome(a_s: int, y: int) -> int:
    """Map a slot onto the equivalent slot in which the SU transmits too.

    The PU sends in every slot.  An idle SU is replaced by a transmission
    that decodes nothing extra: a PU decode becomes region 3, anything
    else region 4.  Slots where the SU transmits are unchanged.  Every
    throughput and bound formula stated for the always-transmit system is
    evaluated on this translation.
    """
    if y not in (1, 2, 3, 4, 5, 6, 7):
        raise ValueError(f"outcome region must be in 1..7, got {y!r}")
    if a_s:
        return y
    return 3 if y in PU_ALONE else 4
