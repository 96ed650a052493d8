"""Packet-selection rules for the SU transmitter.

Whenever the access policy says transmit, the SU either sends a fresh
packet or retransmits the root of the decoding graph, never anything else.
The choice depends only on whether the upcoming PU packet is already known
at the SU receiver and on its reachability relationship with the root.  At
the start of every primary ARQ cycle the graph is trimmed down to what the
root can still release.  `run_slot` runs one slot of the receiver: the
trim, the choice and the slot's outcome.
"""

from __future__ import annotations

from .cd_graph import SLOT_OUTCOMES, CdGraph, closure, prune_unreachable, reachable, root, su

__all__ = ["FRESH", "ROOT_RETX", "LabelDecision", "select_label", "run_slot"]

FRESH = "FRESH"
ROOT_RETX = "ROOT_RETX"


class LabelDecision:
    """The SU label chosen for a slot (a `cd_graph` label) and its kind."""

    __slots__ = ("label", "kind")

    def __init__(self, label: int, kind: str):
        if kind not in (FRESH, ROOT_RETX):
            raise ValueError(f"unknown decision kind {kind!r}")
        self.label = label
        self.kind = kind


def select_label(g: CdGraph, l_p: int, pu_known: int, n: int) -> LabelDecision:
    """Choose the SU label for slot n given the prospective PU label.

    Known PU packet: retransmit the root, its interference will be
    pre-cancelled.  Unknown and disconnected from the root in both
    directions: retransmit the root to try to hook the PU packet into the
    graph.  Unknown but connected in either direction: send a fresh packet,
    the connection already carries the root's potential.
    """
    if n != g.slot:
        raise ValueError(f"graph is at slot {g.slot}, not {n}")
    rt, _ = root(g)
    fresh = su(n)
    if pu_known:
        choice = rt
    else:
        linked = reachable(g, rt, l_p) or reachable(g, l_p, rt)
        choice = fresh if linked else rt
    return LabelDecision(choice, FRESH if choice == fresh else ROOT_RETX)


def run_slot(g: CdGraph, n: int, new_cycle: bool, pu_slot: int, a_s: int,
             y: int) -> tuple[int, int | None, int]:
    """Run slot n of the chain-decoding receiver on `g`, in place.

    At the start of a primary ARQ cycle (`new_cycle`) the graph is trimmed
    to the root's closure and forgets its decoded slots: until the next
    cycle start it is asked only about the cycle's PU packet, stored nodes
    and the fresh packets from slot n on.  The PU sends the tracked packet,
    the one first sent in `pu_slot`, in every slot.  When the SU sends
    (`a_s`), the label is the one `select_label` picks.  `y` is the outcome
    region.  The slot's decodes and buffered edges come from
    `SLOT_OUTCOMES`.  Returns the SU packets decoded, the SU label sent
    (None if the SU stayed idle) and the root potential before the slot.

    Raises `ValueError` when n is not the graph's slot, when the outcome is
    not in 1..7, when the SU label is no node, and when the PU packet is
    first sent after slot n or, while not known, lies below the horizon
    without being stored.
    """
    if n != g.slot:
        raise ValueError(f"graph is at slot {g.slot}, not {n}")
    if new_cycle:
        g.cycle_trims += 1
        if g.index:
            prune_unreachable(g, root(g)[0])
        else:
            g.empty_cycle_trims += 1
        g.horizon = n
        g.decoded_su.clear()
        g.decoded_pu.clear()
    l_p = 2 * pu_slot + 1
    known = pu_slot in g.decoded_pu
    if pu_slot > n or not known and pu_slot < g.horizon and l_p not in g.index:
        raise ValueError(f"invalid PU label {pu_slot}_P")
    outcome = SLOT_OUTCOMES.get((a_s, not known, y))
    if outcome is None:
        raise ValueError(f"outcome region must be in 1..7, got {y!r}")
    su_hit, pu_hit, edges = outcome
    if g.index:
        v = root(g)[1]
        l_s = select_label(g, l_p, known, n).label if a_s else None
    else:  # nothing stored: the root is the fresh packet, of potential one
        v, l_s = 1, 2 * n if a_s else None
    if l_s is not None and not g.contains(l_s):
        raise ValueError(f"invalid SU label {l_s >> 1}_S")
    r_s = g.decode(closure(g, [l_s] * su_hit + [l_p] * pu_hit)) if su_hit or pu_hit else 0
    if edges:
        labels = (l_s, l_p)
        for src, dst in edges:
            g.add_edge(labels[src], labels[dst])
    g.slot = n + 1
    return r_s, l_s, v
